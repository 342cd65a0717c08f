"""Tests for the synopsis / index-file data model."""

import numpy as np
import pytest

from repro.core.synopsis import IndexFile, Synopsis
from repro.util.rng import make_rng


class TestIndexFile:
    def test_members_sorted(self):
        f = IndexFile([[3, 1, 2], [5, 4]])
        np.testing.assert_array_equal(f.members(0), [1, 2, 3])

    def test_group_of(self):
        f = IndexFile([[0, 1], [2]])
        assert f.group_of(1) == 0
        assert f.group_of(2) == 1

    def test_group_of_missing(self):
        f = IndexFile([[0]])
        with pytest.raises(KeyError):
            f.group_of(9)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            IndexFile([[0, 1], [1, 2]])

    def test_counts(self):
        f = IndexFile([[0, 1], [2], [3, 4, 5]])
        assert f.n_groups == 3
        assert f.n_records == 6
        np.testing.assert_array_equal(f.group_sizes(), [2, 1, 3])

    def test_flat_members_layout(self):
        f = IndexFile([[4, 0], [], [3, 1, 2]])
        members, group_at = f.flat_members()
        assert members.tolist() == [0, 4, 1, 2, 3]
        assert group_at.tolist() == [0, 0, 2, 2, 2]
        assert not (members.flags.writeable or group_at.flags.writeable
                    or f.group_sizes().flags.writeable)

    def test_pickled_bytes_leave_the_layout_out(self):
        import pickle

        f = IndexFile([[0, 1], [2]])
        before = pickle.dumps(f)
        f.flat_members()
        assert pickle.dumps(f) == before
        assert pickle.loads(before).group_sizes().tolist() == [2, 1]

    def test_validate_against_expected(self):
        f = IndexFile([[0, 1], [2]])
        f.validate(expected_records=[0, 1, 2])
        with pytest.raises(ValueError):
            f.validate(expected_records=[0, 1, 2, 3])
        with pytest.raises(ValueError):
            f.validate(expected_records=[0, 1])

    def test_members_bad_group(self):
        f = IndexFile([[0]])
        with pytest.raises(IndexError):
            f.members(5)

    def test_json_roundtrip(self):
        f = IndexFile([[0, 2], [1]])
        g = IndexFile.from_json(f.to_json())
        assert f == g

    def test_groups_returns_copies(self):
        f = IndexFile([[0, 1]])
        f.groups()[0][0] = 99
        assert f.members(0)[0] == 0

    def test_empty(self):
        f = IndexFile([])
        assert f.n_groups == 0 and f.n_records == 0
        f.validate(expected_records=[])


def assert_partitions(index: IndexFile, expected_records) -> None:
    """The invariant proper: groups partition the expected record set."""
    expected = sorted(int(r) for r in expected_records)
    members = [r for g in range(index.n_groups)
               for r in index.members(g).tolist()]
    # Every record in exactly one group: no duplicates, no misses.
    assert sorted(members) == expected
    assert len(members) == len(set(members))
    assert index.n_records == len(expected)
    for g in range(index.n_groups):
        for r in index.members(g).tolist():
            assert index.group_of(r) == g
    index.validate(expected_records=expected)


class TestPartitionInvariantProperty:
    """Property-style checks: random groupings + live updater mutations."""

    @pytest.mark.parametrize("trial", range(10))
    def test_random_partitions_uphold_invariant(self, trial):
        rng = make_rng(123, "indexfile", trial)
        n_records = int(rng.integers(1, 60))
        n_groups = int(rng.integers(1, n_records + 1))
        assignment = rng.integers(0, n_groups, size=n_records)
        groups = [np.flatnonzero(assignment == g) for g in range(n_groups)]
        index = IndexFile([g for g in groups if g.size])
        assert_partitions(index, range(n_records))
        # Round-tripping persistence must preserve the partition too.
        assert_partitions(IndexFile.from_json(index.to_json()),
                          range(n_records))

    @pytest.mark.parametrize("trial", range(6))
    def test_duplicated_record_always_rejected(self, trial):
        rng = make_rng(321, "indexfile-dup", trial)
        n_records = int(rng.integers(2, 40))
        n_groups = int(rng.integers(2, 5))
        assignment = rng.integers(0, n_groups, size=n_records)
        groups = [np.flatnonzero(assignment == g).tolist()
                  for g in range(n_groups)]
        # Duplicate one record into a second group.
        victim = int(rng.integers(0, n_records))
        home = int(assignment[victim])
        other = (home + 1) % n_groups
        groups[other].append(victim)
        with pytest.raises(ValueError):
            IndexFile([g for g in groups if g])

    def test_invariant_survives_updater_add_and_change(self, small_ratings,
                                                       cf_adapter):
        from repro.core.builder import SynopsisBuilder, SynopsisConfig
        from repro.core.updater import SynopsisUpdater

        matrix = small_ratings.matrix
        builder = SynopsisBuilder(cf_adapter, SynopsisConfig(
            n_iters=20, target_ratio=15.0, seed=21))
        synopsis, artifacts = builder.build(matrix)
        updater = SynopsisUpdater(cf_adapter, builder.config, matrix,
                                  synopsis, artifacts)
        assert_partitions(updater.synopsis.index, range(matrix.n_users))

        rng = make_rng(99, "updater-prop")
        part = matrix
        for round_ in range(3):
            # Situation 1: append a batch of new users.
            n_new = int(rng.integers(1, 4))
            n_ratings = int(rng.integers(1, 6))
            local = np.repeat(np.arange(n_new), n_ratings)
            items = rng.integers(0, part.n_items, size=local.size)
            vals = rng.uniform(1.0, 5.0, size=local.size)
            appended = part.with_rows_appended(local, items, vals)
            new_ids = list(range(part.n_users, part.n_users + n_new))
            updater.add_points(appended, new_ids)
            part = appended
            assert_partitions(updater.synopsis.index, range(part.n_users))

            # Situation 2: rewrite some existing users' ratings.
            n_changed = int(rng.integers(1, 5))
            changed = rng.choice(part.n_users, size=n_changed, replace=False)
            replaced = {}
            for u in changed.tolist():
                k = int(rng.integers(1, 6))
                ids = np.sort(rng.choice(part.n_items, size=k, replace=False))
                replaced[u] = (ids, rng.uniform(1.0, 5.0, size=k))
            mutated = part.with_users_replaced(replaced)
            updater.change_points(mutated, changed)
            part = mutated
            assert_partitions(updater.synopsis.index, range(part.n_users))


class TestSynopsis:
    def test_aggregation_ratio(self):
        s = Synopsis(index=IndexFile([[0, 1], [2, 3]]), payload=None,
                     level=1, n_original=4)
        assert s.n_aggregated == 2
        assert s.aggregation_ratio == 2.0

    def test_empty_ratio(self):
        s = Synopsis(index=IndexFile([]), payload=None, level=0, n_original=0)
        assert s.aggregation_ratio == 0.0
