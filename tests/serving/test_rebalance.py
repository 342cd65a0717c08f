"""Online shard rebalancing through the router tier.

The acceptance contract pinned here:

- ``ShardedService.rebalance`` moves records between live shards by
  publishing new state epochs on exactly the affected components, on
  every replica;
- requests in flight across the move keep draining against their
  dispatch-time snapshots and answer bit-identically to pre-move
  answers (epoch pinning — "bit-identical before vs after the move");
- the post-move cluster is bit-identical to one built cold over the
  new component map (no state drift from incremental moves), for both
  paper workloads;
- answers after a rebalance are bit-identical across all four
  execution backends;
- updates route to a moved record's new home;
- a rejected rebalance (no map, emptied component) leaves the cluster
  untouched.
"""

from __future__ import annotations

import pytest

from repro.core.adapters import SearchQuery
from repro.core.builder import SynopsisConfig
from repro.core.clock import SimulatedClock
from repro.core.service import AccuracyTraderService
from repro.serving.backends import SequentialBackend, resolve_backend
from repro.serving.router import ReplicaGroup, ShardedService
from repro.workloads.partitioning import (
    make_shard_map,
    shard_corpus,
    shard_ratings,
)

from tests.serving.test_harness import cf_request_factory
from tests.helpers import process

CF_CONFIG = SynopsisConfig(n_iters=20, target_ratio=12.0, seed=5)
SEARCH_CONFIG = SynopsisConfig(n_iters=20, target_ratio=18.0, seed=7)
DEADLINE = 10.0


def clocks(n):
    return [SimulatedClock(speed=1e12) for _ in range(n)]


def assert_cf_equal(a, b):
    assert a.numer == b.numer and a.denom == b.denom


def assert_search_equal(a, b):
    assert [(h.doc_id, h.score) for h in a] == \
        [(h.doc_id, h.score) for h in b]


def build_cf_cluster(matrix, component_map, n_replicas=1):
    parts = shard_ratings(matrix, component_map)
    shards = [ReplicaGroup([
        AccuracyTraderService(_fresh_cf_adapter(), [p], config=CF_CONFIG)
        for _ in range(n_replicas)]) for p in parts]
    return ShardedService(shards, component_map=component_map)


def _fresh_cf_adapter():
    from repro.core.adapters import CFAdapter

    return CFAdapter()


def build_search_cluster(corpus_partition, component_map):
    parts = shard_corpus(corpus_partition, component_map)
    from repro.core.adapters import SearchAdapter

    shards = [AccuracyTraderService(SearchAdapter(), [p],
                                    config=SEARCH_CONFIG,
                                    i_max_fraction=0.4)
              for p in parts]
    return ShardedService(shards, component_map=component_map)


@pytest.fixture()
def cf_cluster(small_ratings):
    cmap = make_shard_map(small_ratings.matrix.n_users, 4)
    svc = build_cf_cluster(small_ratings.matrix, cmap)
    yield svc
    svc.close()


@pytest.fixture()
def cf_req(small_ratings):
    import numpy as np

    return cf_request_factory(small_ratings.matrix)(
        0, np.random.default_rng(3))


class TestShardedRebalance:
    def test_moves_publish_new_epochs_on_affected_components_only(
            self, cf_cluster, cf_req):
        epochs_before = [cf_cluster.shards[s].replicas[0].component_epoch(0)
                         for s in range(4)]
        report = cf_cluster.rebalance({0: 1})   # record 0: comp 0 -> 1
        assert report.n_moved == 1
        assert report.affected_components == [0, 1]
        for c in (0, 1):
            assert report.epochs[c][0] > epochs_before[c]
        for c in (2, 3):
            assert cf_cluster.shards[c].replicas[0].component_epoch(0) \
                == epochs_before[c]

    def test_inflight_requests_bit_identical_across_move(self, cf_cluster,
                                                         cf_req):
        before, _ = process(cf_cluster, cf_req, DEADLINE, clocks=clocks(4))
        # Dispatch-time tasks (what process() builds internally), then
        # the move, then the drain.
        pinned = [t for s in range(4)
                  for t in cf_cluster.shards[s].replicas[0].build_tasks(
                      cf_req, DEADLINE, clocks(1))]
        cf_cluster.rebalance({0: 1, 5: 2})
        outcomes = SequentialBackend().run_tasks(pinned)
        drained = cf_cluster.merge([o.result for o in outcomes], cf_req)
        assert_cf_equal(drained, before)

    def test_post_move_state_equals_cold_build_cf(self, small_ratings,
                                                  cf_cluster, cf_req):
        cf_cluster.rebalance({0: 1, 5: 2, 9: 0})
        cold = build_cf_cluster(small_ratings.matrix,
                                cf_cluster.component_map)
        with cold:
            live_ans, _ = process(cf_cluster, cf_req, DEADLINE,
                                             clocks=clocks(4))
            cold_ans, _ = process(cold, cf_req, DEADLINE, clocks=clocks(4))
            assert_cf_equal(live_ans, cold_ans)
            assert_cf_equal(cf_cluster.exact(cf_req), cold.exact(cf_req))

    def test_post_move_state_equals_cold_build_search(self, small_corpus):
        cmap = make_shard_map(small_corpus.partition.n_docs, 3)
        svc = build_search_cluster(small_corpus.partition, cmap)
        query = SearchQuery(terms=small_corpus.topic_words(2, n=3), k=10)
        with svc:
            svc.rebalance({0: 1, 7: 2})
            cold = build_search_cluster(small_corpus.partition,
                                        svc.component_map)
            with cold:
                live_ans, _ = process(svc, query, DEADLINE, clocks=clocks(3))
                cold_ans, _ = process(cold, query, DEADLINE,
                                           clocks=clocks(3))
                assert_search_equal(live_ans, cold_ans)

    def test_answers_identical_across_all_backends_after_move(
            self, cf_cluster, cf_req):
        cf_cluster.rebalance({0: 1})
        base, _ = process(cf_cluster, cf_req, DEADLINE, clocks=clocks(4),
                                     backend=SequentialBackend())
        for name in ("thread", "remote", "async"):
            with resolve_backend(name) as backend:
                ans, _ = process(cf_cluster, cf_req, DEADLINE,
                                            clocks=clocks(4),
                                            backend=backend)
                assert_cf_equal(ans, base)

    def test_updates_route_to_new_home(self, cf_cluster):
        assert cf_cluster.locate_record(0)[0] == 0
        cf_cluster.rebalance({0: 1})
        shard, local_component, local_id = cf_cluster.locate_record(0)
        assert shard == 1 and local_component == 0
        # change_points through the map lands on the record's new shard.
        new_part = cf_cluster.shards[1].replicas[0].component_state(
            0).partition
        epoch_before = cf_cluster.shards[1].replicas[0].component_epoch(0)
        cf_cluster.change_points(new_part, [0])
        assert cf_cluster.shards[1].replicas[0].component_epoch(0) \
            > epoch_before

    def test_replicas_all_updated(self, small_ratings, cf_req):
        cmap = make_shard_map(small_ratings.matrix.n_users, 2)
        svc = build_cf_cluster(small_ratings.matrix, cmap, n_replicas=2)
        with svc:
            report = svc.rebalance({0: 1})
            assert all(len(epochs) == 2 for epochs in report.epochs.values())
            answers = [process(r, cf_req, DEADLINE, clocks=clocks(1))[0]
                       for r in svc.shards[0].replicas]
            assert_cf_equal(answers[0], answers[1])

    def test_noop_and_rejected_moves_leave_cluster_untouched(self,
                                                             cf_cluster):
        map_before = cf_cluster.component_map
        report = cf_cluster.rebalance({0: 0})   # already home
        assert report.n_moved == 0 and report.affected_components == []
        assert cf_cluster.component_map is map_before

        # Emptying a component is rejected before any epoch publishes.
        lone = cf_cluster.component_map.members_of(3)
        epochs_before = [cf_cluster.shards[s].replicas[0].component_epoch(0)
                         for s in range(4)]
        with pytest.raises(ValueError, match="empty"):
            cf_cluster.rebalance({int(r): 0 for r in lone})
        assert cf_cluster.component_map is map_before
        assert [cf_cluster.shards[s].replicas[0].component_epoch(0)
                for s in range(4)] == epochs_before

    def test_requires_component_map(self, small_ratings):
        cmap = make_shard_map(small_ratings.matrix.n_users, 2)
        parts = shard_ratings(small_ratings.matrix, cmap)
        svc = ShardedService([
            AccuracyTraderService(_fresh_cf_adapter(), [p],
                                  config=CF_CONFIG) for p in parts])
        with svc:
            with pytest.raises(ValueError, match="component_map"):
                svc.rebalance({0: 1})
