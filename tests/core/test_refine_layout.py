"""``refine`` through the group-segmented layout vs the two oracles.

The adapters refine a group from a per-snapshot layout and a per-run
plan; the oracles are the calls they replaced —
``SearchComponent.search(terms, doc_ids=members)`` and
``CFComponent.partial_prediction(..., user_ids=members)``.  Pinned here:

- bit-identity for random corpora / rating matrices and random
  groupings, including the inputs the CF plan defers;
- ``refine_many`` over any run of groups equals the fold of ``refine``
  (the oracles refine one group per call, so whole runs compare the
  chunked path with them);
- the layout follows every published snapshot (``change_points``,
  ``add_points``, ``replace_partition``) while pinned in-flight requests
  keep answering from theirs, and an index mutated in place is noticed;
- the layout memo is bounded and does not pin superseded partitions;
- threads racing to build a cold layout agree with a sequential run.
"""

import copy
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adapters import (CFAdapter, CFRequest, SearchAdapter,
                                 SearchQuery, ServiceAdapter)
from repro.core.builder import SynopsisConfig
from repro.core.clock import SimulatedClock
from repro.core.processor import process_component, refine_to_depth
from repro.core.service import AccuracyTraderService
from repro.core.synopsis import IndexFile, Synopsis
from repro.recommender.cf import CFComponent
from repro.recommender.matrix import RatingMatrix
from repro.search.engine import SearchComponent
from repro.search.partition import SearchPartition
from repro.serving.backends import SequentialBackend, ThreadPoolBackend
from repro.workloads.partitioning import split_corpus, split_ratings
from tests.helpers import process

DEADLINE = 10.0


class OracleSearchAdapter(SearchAdapter):
    """``SearchAdapter`` refining through the whole-partition oracle, one
    group per call (``refine_many`` is the base class's fold)."""

    refine_many = ServiceAdapter.refine_many

    def refine(self, partition, synopsis, group_id, request, state):
        members = synopsis.index.members(group_id)
        hits = SearchComponent(partition.index).search(request.terms,
                                                       doc_ids=members)
        state["refined"].add(
            [group_id], np.array([h.doc_id for h in hits], dtype=np.int64),
            np.array([h.score for h in hits]),
            np.full(len(hits), group_id, dtype=np.int64))
        state["estimated"].pop(group_id, None)
        return state


class OracleCFAdapter(CFAdapter):
    """``CFAdapter`` refining through ``CFComponent.partial_prediction``,
    one group per call (``refine_many`` is the base class's fold)."""

    refine_many = ServiceAdapter.refine_many

    def refine(self, partition, synopsis, group_id, request, state):
        pred = CFComponent(partition).partial_prediction(
            request.active_items, request.active_vals, request.target_items,
            request.active_mean, user_ids=synopsis.index.members(group_id))
        slots = np.searchsorted(state.targets, list(pred.numer))
        state.numer[group_id] = state.denom[group_id] = 0.0
        state.present[group_id] = False
        state.numer[group_id, slots] = list(pred.numer.values())
        state.denom[group_id, slots] = [pred.denom[i] for i in pred.numer]
        state.present[group_id, slots] = True
        return state


def synopsis_over(adapter, partition, groups) -> Synopsis:
    """A synopsis with exactly the given groups (no SVD, no R-tree)."""
    vectors = [adapter.aggregate_group(partition, g) for g in groups]
    return Synopsis(index=IndexFile(groups),
                    payload=adapter.assemble_payload(partition, vectors),
                    level=0, n_original=sum(len(g) for g in groups))


def draw_groups(data, n_records: int, n_groups: int) -> list[list[int]]:
    owner = data.draw(st.lists(st.integers(0, n_groups - 1),
                               min_size=n_records, max_size=n_records))
    return [[r for r in range(n_records) if owner[r] == g]
            for g in range(n_groups)]


def clocks(n):
    return [SimulatedClock(speed=1e12) for _ in range(n)]


def hit_pairs(hits):
    return [(h.doc_id, h.score) for h in hits]


def cf_pairs(pred):
    return (pred.active_mean, pred.numer, pred.denom)


def report_key(report):
    return (report.groups_ranked, report.groups_processed, report.work_units,
            report.hit_imax, report.exhausted)


# ---------------------------------------------------------------------------
# Property suites: refine == oracle on random inputs
# ---------------------------------------------------------------------------

VOCAB = [f"t{i}" for i in range(6)]
N_ITEMS = 7


class TestSearchRefineMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(docs=st.lists(st.lists(st.sampled_from(VOCAB), max_size=8),
                         min_size=1, max_size=10),
           terms=st.lists(st.sampled_from(VOCAB + ["zz"]),
                          min_size=1, max_size=5),
           n_groups=st.integers(1, 4), data=st.data())
    def test_every_group(self, docs, terms, n_groups, data):
        partition = SearchPartition()
        partition.add_pages(docs)
        adapter = SearchAdapter()
        synopsis = synopsis_over(adapter, partition,
                                 draw_groups(data, len(docs), n_groups))
        query = SearchQuery(terms=terms, k=3)
        state, _ = adapter.initial_result(synopsis, query)
        oracle = SearchComponent(partition.index)
        for g in range(n_groups):
            state = adapter.refine(partition, synopsis, g, query, state)
            assert state["refined"][g] == oracle.search(
                terms, doc_ids=synopsis.index.members(g))
            assert g not in state["estimated"]
        assert hit_pairs(adapter.finalize(state, query)) == \
            hit_pairs(adapter.exact(partition, query))


class TestCFRefineMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(0, 5), min_size=N_ITEMS,
                                  max_size=N_ITEMS),
                         min_size=1, max_size=8),
           # duplicate, too few and out-of-matrix active items included
           active=st.lists(st.tuples(st.integers(0, N_ITEMS + 1),
                                     st.integers(1, 5)), max_size=6),
           targets=st.lists(st.integers(0, N_ITEMS + 1), max_size=4),
           n_groups=st.integers(1, 4), data=st.data())
    def test_every_group(self, rows, active, targets, n_groups, data):
        dense = np.asarray(rows, dtype=float)
        users, items = np.nonzero(dense)
        matrix = RatingMatrix(users, items, dense[users, items],
                              n_users=dense.shape[0], n_items=N_ITEMS)
        adapter = CFAdapter()
        synopsis = synopsis_over(adapter, matrix,
                                 draw_groups(data, matrix.n_users, n_groups))
        request = CFRequest(active_items=[i for i, _ in active],
                            active_vals=[float(v) for _, v in active],
                            target_items=targets)
        state, _ = adapter.initial_result(synopsis, request)
        oracle = CFComponent(matrix)
        for g in range(n_groups):
            state = adapter.refine(matrix, synopsis, g, request, state)
            assert cf_pairs(state[g]) == cf_pairs(oracle.partial_prediction(
                request.active_items, request.active_vals,
                request.target_items, request.active_mean,
                user_ids=synopsis.index.members(g)))
        # Every group refined: the exact answer, up to summation order.
        final, exact = adapter.finalize(state, request), \
            adapter.exact(matrix, request)
        assert final.predict_many(request.target_items) == pytest.approx(
            exact.predict_many(request.target_items))

    def test_scalar_oracle_state_refines_too(self, small_ratings, cf_synopsis,
                                             cf_request):
        # The dict-of-predictions state has no slot for a plan.
        adapter, (synopsis, _) = CFAdapter(), cf_synopsis
        matrix = small_ratings.matrix
        state, _ = adapter.initial_result_scalar(synopsis, cf_request)
        staged, _ = adapter.initial_result(synopsis, cf_request)
        for g in (0, 3, 0):
            state = adapter.refine(matrix, synopsis, g, cf_request, state)
            staged = adapter.refine(matrix, synopsis, g, cf_request, staged)
            assert cf_pairs(state[g]) == cf_pairs(staged[g])


def draw_chunks(data, n_groups: int) -> list[list[int]]:
    """Some of the groups in a random order, cut into random runs (empty
    runs included)."""
    order = data.draw(st.permutations(range(n_groups)))
    order = order[:data.draw(st.integers(0, n_groups))]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(order)),
                                     max_size=4)))
    bounds = [0, *cuts, len(order)]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


class TestRefineManyMatchesFold:
    """``refine_many(run)`` leaves the state exactly as refining the
    run's groups one ``refine`` at a time does."""

    @settings(max_examples=100, deadline=None)
    @given(docs=st.lists(st.lists(st.sampled_from(VOCAB), max_size=8),
                         min_size=1, max_size=10),
           terms=st.lists(st.sampled_from(VOCAB + ["zz"]),
                          min_size=1, max_size=5),
           n_groups=st.integers(1, 5), k=st.integers(1, 6), data=st.data())
    def test_search(self, docs, terms, n_groups, k, data):
        partition = SearchPartition()
        partition.add_pages(docs)
        adapter = SearchAdapter()
        synopsis = synopsis_over(adapter, partition,
                                 draw_groups(data, len(docs), n_groups))
        query = SearchQuery(terms=terms, k=k)
        fold, _ = adapter.initial_result(synopsis, query)
        many, _ = adapter.initial_result(synopsis, query)
        for run in draw_chunks(data, n_groups):
            for g in run:
                fold = adapter.refine(partition, synopsis, g, query, fold)
            many = adapter.refine_many(partition, synopsis, run, query, many)
            assert dict(many["refined"]) == dict(fold["refined"])
            assert many["estimated"].keys() == fold["estimated"].keys()
        assert hit_pairs(adapter.finalize(many, query)) == \
            hit_pairs(adapter.finalize(fold, query))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(0, 5), min_size=N_ITEMS,
                                  max_size=N_ITEMS),
                         min_size=1, max_size=8),
           # duplicate, too few and out-of-matrix active items included
           active=st.lists(st.tuples(st.integers(0, N_ITEMS + 1),
                                     st.integers(1, 5)), max_size=6),
           targets=st.lists(st.integers(0, N_ITEMS + 1), max_size=4),
           n_groups=st.integers(1, 4), data=st.data())
    def test_cf(self, rows, active, targets, n_groups, data):
        dense = np.asarray(rows, dtype=float)
        users, items = np.nonzero(dense)
        matrix = RatingMatrix(users, items, dense[users, items],
                              n_users=dense.shape[0], n_items=N_ITEMS)
        adapter = CFAdapter()
        synopsis = synopsis_over(adapter, matrix,
                                 draw_groups(data, matrix.n_users, n_groups))
        request = CFRequest(active_items=[i for i, _ in active],
                            active_vals=[float(v) for _, v in active],
                            target_items=targets)
        fold, _ = adapter.initial_result(synopsis, request)
        many, _ = adapter.initial_result(synopsis, request)
        # The scalar oracle's dict-of-predictions state takes both too.
        fold_d, _ = adapter.initial_result_scalar(synopsis, request)
        many_d, _ = adapter.initial_result_scalar(synopsis, request)
        for run in draw_chunks(data, n_groups):
            for g in run:
                fold = adapter.refine(matrix, synopsis, g, request, fold)
                fold_d = adapter.refine(matrix, synopsis, g, request, fold_d)
            many = adapter.refine_many(matrix, synopsis, run, request, many)
            many_d = adapter.refine_many(matrix, synopsis, run, request,
                                         many_d)
            for name in ("numer", "denom", "present"):
                assert getattr(many, name).tobytes() == \
                    getattr(fold, name).tobytes()
            assert {g: cf_pairs(p) for g, p in many_d.items()} == \
                {g: cf_pairs(p) for g, p in fold_d.items()}
        assert cf_pairs(adapter.finalize(many, request)) == \
            cf_pairs(adapter.finalize(fold, request))


class TestWholeRunsMatchOracle:
    """Algorithm 1 end to end on the shared fixtures, every depth."""

    def test_search(self, small_corpus, search_synopsis, search_query):
        synopsis, _ = search_synopsis
        partition = small_corpus.partition
        fast, oracle = SearchAdapter(), OracleSearchAdapter()
        for depth in (0, 1, 5, synopsis.n_aggregated):
            assert hit_pairs(refine_to_depth(fast, partition, synopsis,
                                             search_query, depth)) == \
                hit_pairs(refine_to_depth(oracle, partition, synopsis,
                                          search_query, depth))

    def test_cf(self, small_ratings, cf_synopsis, cf_request):
        synopsis, _ = cf_synopsis
        matrix = small_ratings.matrix
        fast, oracle = CFAdapter(), OracleCFAdapter()
        for depth in (0, 1, 5, synopsis.n_aggregated):
            assert cf_pairs(refine_to_depth(fast, matrix, synopsis,
                                            cf_request, depth)) == \
                cf_pairs(refine_to_depth(oracle, matrix, synopsis,
                                         cf_request, depth))


# ---------------------------------------------------------------------------
# Stale layouts: every refine answers from the snapshot it is given
# ---------------------------------------------------------------------------


def oracle_answer(service, oracle_adapter, request, canon):
    """The service's answer recomputed through the oracle adapter over
    the snapshots current right now."""
    results = []
    for c in range(service.n_components):
        snap = service.component_state(c)
        result, _ = process_component(
            oracle_adapter, snap.partition, snap.synopsis, request, DEADLINE,
            clock=SimulatedClock(speed=1e12))
        results.append(result)
    return canon(service.merge(results, request))


class TestLayoutFollowsSnapshots:
    def test_search_updates(self, small_corpus, search_query):
        config = SynopsisConfig(n_iters=15, target_ratio=20.0, seed=7)
        parts = split_corpus(small_corpus.partition, 2)
        words = list(search_query.terms)
        with AccuracyTraderService(SearchAdapter(), parts,
                                   config=config) as svc:
            oracle = OracleSearchAdapter()

            def check_fresh():
                answer, _ = process(svc, search_query, DEADLINE,
                                    clocks=clocks(2))
                assert hit_pairs(answer) == oracle_answer(
                    svc, oracle, search_query, hit_pairs)
                return hit_pairs(answer)

            before = check_fresh()
            pinned = svc.build_tasks(search_query, DEADLINE, clocks(2))

            # change_points: a page becomes the best match for the query.
            changed = copy.deepcopy(svc.partitions[0])
            changed.replace_page(0, words * 10)
            svc.change_points(0, changed, [0])
            after_change = check_fresh()
            assert after_change != before

            # add_points on the other component.
            grown = copy.deepcopy(svc.partitions[1])
            new_ids = grown.add_pages([words * 12, words * 11])
            svc.add_points(1, grown, new_ids)
            after_add = check_fresh()
            assert after_add != after_change

            # replace_partition: component 0 gets a different page set.
            svc.replace_partition(0, split_corpus(small_corpus.partition,
                                                  3)[2])
            assert check_fresh() != after_add

            # The tasks pinned before any of it still answer from their
            # dispatch-time snapshots.
            outcomes = SequentialBackend().run_tasks(pinned)
            drained = svc.merge([o.result for o in outcomes], search_query)
            assert hit_pairs(drained) == before

    def test_cf_updates(self, small_ratings, cf_request):
        config = SynopsisConfig(n_iters=15, target_ratio=12.0, seed=5)
        parts = split_ratings(small_ratings.matrix, 2)
        rng = np.random.default_rng(3)
        n_items = small_ratings.matrix.n_items

        def fresh_row():
            items = np.sort(rng.choice(n_items, size=30, replace=False))
            return items, rng.integers(1, 6, size=30).astype(float)

        with AccuracyTraderService(CFAdapter(), parts, config=config) as svc:
            oracle = OracleCFAdapter()

            def check_fresh():
                answer, _ = process(svc, cf_request, DEADLINE,
                                    clocks=clocks(2))
                assert cf_pairs(answer) == oracle_answer(
                    svc, oracle, cf_request, cf_pairs)
                return copy.deepcopy(cf_pairs(answer))

            before = check_fresh()
            pinned = svc.build_tasks(cf_request, DEADLINE, clocks(2))

            ids = list(range(12))
            svc.change_points(0, svc.partitions[0].with_users_replaced(
                {u: fresh_row() for u in ids}), ids)
            after_change = check_fresh()
            assert after_change != before

            part1 = svc.partitions[1]
            rows = [fresh_row() for _ in range(3)]
            grown = part1.with_rows_appended(
                np.concatenate([np.full(30, j) for j in range(3)]),
                np.concatenate([r[0] for r in rows]),
                np.concatenate([r[1] for r in rows]))
            svc.add_points(1, grown, range(part1.n_users, part1.n_users + 3))
            after_add = check_fresh()
            assert after_add != after_change

            svc.replace_partition(0, split_ratings(small_ratings.matrix,
                                                   3)[2])
            assert check_fresh() != after_add

            outcomes = SequentialBackend().run_tasks(pinned)
            drained = svc.merge([o.result for o in outcomes], cf_request)
            assert cf_pairs(drained) == before

    def test_index_mutated_in_place_is_noticed(self):
        partition = SearchPartition()
        partition.add_pages([["a", "b"], ["a"], ["b", "b", "c"], ["c"]])
        adapter, oracle = SearchAdapter(), OracleSearchAdapter()
        synopsis = synopsis_over(adapter, partition, [[0, 1], [2, 3]])
        query = SearchQuery(terms=["a", "c"], k=4)
        n = synopsis.n_aggregated
        first = hit_pairs(refine_to_depth(adapter, partition, synopsis,
                                          query, n))
        # Same partition object, same synopsis object, new contents.
        partition.replace_page(3, ["a", "a", "a"])
        second = hit_pairs(refine_to_depth(adapter, partition, synopsis,
                                           query, n))
        assert second != first
        assert second == hit_pairs(refine_to_depth(
            oracle, partition, synopsis, query, n))

    def test_state_refined_against_another_snapshot_gets_a_new_plan(
            self, small_corpus, search_synopsis, search_query):
        synopsis, _ = search_synopsis
        partition = small_corpus.partition
        other = copy.deepcopy(partition)
        other.replace_page(0, list(search_query.terms) * 10)
        adapter = SearchAdapter()
        g = synopsis.index.group_of(0)
        state, _ = adapter.initial_result(synopsis, search_query)
        state = adapter.refine(partition, synopsis, g, search_query, state)
        old_hits = state["refined"][g]
        state = adapter.refine(other, synopsis, g, search_query, state)
        assert state["refined"][g] != old_hits
        assert state["refined"][g] == SearchComponent(other.index).search(
            search_query.terms, doc_ids=synopsis.index.members(g))


class TestIndexFileAccessors:
    def test_view_is_read_only_and_members_still_copies(self):
        index = IndexFile([[3, 1], [], [2]])
        view = index.members_view(0)
        assert view.tolist() == [1, 3] and not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 9
        copy_ = index.members(0)
        copy_[0] = 9  # the caller's own array
        assert index.members(0).tolist() == [1, 3]
        assert [index.group_size(g) for g in range(3)] == [2, 0, 1]
        for accessor in (index.members_view, index.group_size):
            for bad in (-1, 3):
                with pytest.raises(IndexError):
                    accessor(bad)


# ---------------------------------------------------------------------------
# The layout memo
# ---------------------------------------------------------------------------


class TestLayoutMemo:
    def test_bounded_and_does_not_pin_superseded_partitions(
            self, small_ratings, cf_request):
        adapter = CFAdapter()
        config = SynopsisConfig(n_iters=10, target_ratio=12.0, seed=5)
        rng = np.random.default_rng(4)
        n_items = small_ratings.matrix.n_items
        n_epochs = 40
        retired = []
        with AccuracyTraderService(
                adapter, split_ratings(small_ratings.matrix, 2),
                config=config) as svc:
            for _ in range(n_epochs):
                process(svc, cf_request, DEADLINE, clocks=clocks(2))
                old = svc.partitions[0]
                retired.append(weakref.ref(old))
                items = np.sort(rng.choice(n_items, size=20, replace=False))
                svc.change_points(0, old.with_users_replaced(
                    {0: (items, rng.integers(1, 6, size=20).astype(float))}),
                    [0])
                del old
            process(svc, cf_request, DEADLINE, clocks=clocks(2))
            assert 0 < len(adapter._layouts) <= 32
            assert len(adapter._components) <= 32
            gc.collect()
            # The store retains a few recent epochs and the memos at
            # most 32 each; everything older must be collectable.
            alive = [ref() is not None for ref in retired]
            assert not any(alive[:n_epochs - 32])
            # The live snapshot's layout is a memo hit.
            snap = svc.component_state(0)
            plan = adapter._refine_plan(snap.partition, snap.synopsis,
                                        cf_request)
            assert adapter._refine_plan(snap.partition, snap.synopsis,
                                        cf_request).layout is plan.layout

    def test_memos_are_not_pickled(self, small_ratings, cf_synopsis,
                                   cf_request):
        import pickle

        synopsis, _ = cf_synopsis
        adapter = CFAdapter()
        refine_to_depth(adapter, small_ratings.matrix, synopsis, cf_request, 2)
        assert len(adapter._layouts) == 1
        clone = pickle.loads(pickle.dumps(adapter))
        assert len(clone._layouts) == 0 and len(clone._components) == 0
        assert len(pickle.dumps(adapter)) < 200


class TestColdLayoutRace:
    def test_threads_building_a_cold_layout_match_sequential(
            self, small_corpus):
        config = SynopsisConfig(n_iters=10, target_ratio=12.0, seed=7)
        parts = split_corpus(small_corpus.partition, 4)
        queries = [SearchQuery(terms=small_corpus.topic_words(t % 8, n=3),
                               k=10) for t in range(16)]

        def serve_all(svc, backend, n_clients):
            def one(query):
                answer, reports = process(svc, query, DEADLINE,
                                          clocks=clocks(4), backend=backend)
                return hit_pairs(answer), [report_key(r) for r in reports]
            with ThreadPoolExecutor(max_workers=n_clients) as clients:
                return list(clients.map(one, queries))

        with AccuracyTraderService(SearchAdapter(), parts,
                                   config=config) as svc:
            expect = serve_all(svc, SequentialBackend(), 1)
            synopses = svc.synopses
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                # A fresh adapter: every layout and term entry is cold,
                # and 4 client threads x 4 component threads race to
                # build them.
                cold = SearchAdapter()
                with AccuracyTraderService(cold, parts, config=config) as svc:
                    assert [s.index for s in svc.synopses] == \
                        [s.index for s in synopses]
                    with ThreadPoolBackend(max_workers=4) as backend:
                        assert serve_all(svc, backend, 4) == expect
                    assert len(cold._layouts) == 4
        finally:
            sys.setswitchinterval(old_interval)
