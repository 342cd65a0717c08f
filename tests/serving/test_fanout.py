"""Scatter-gather remote fan-out: one frame per shard copy.

A :class:`RemoteServable` shard ships all of a shard copy's components
as one pipelined ``KIND_REQUEST`` frame through its tasks' submit hook;
every backend issues the hooks before it waits on anything, so a
sequential router fans out to all shard processes at once, can hedge a
remote replica, and abandons the RPCs nobody will read.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

from repro.core.builder import SynopsisConfig
from repro.core.service import AccuracyTraderService
from repro.serving.adapters import IOStallAdapter
from repro.serving.backends import ComponentTask, SequentialBackend
from repro.serving.envelope import as_envelope
from repro.serving.router import ReplicaGroup, ShardedService
from repro.serving.transport import (RemoteChannel, RemoteError,
                                     RemoteServable, bind_with_retry,
                                     connect_with_retry, read_frame)
from repro.strategies.reissue import ReissueStrategy
from repro.workloads.partitioning import split_corpus, split_ratings
from tests.serving.test_envelope import DEADLINE, report_key, sim_clocks

CF_CONFIG = SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7)
SEARCH_CONFIG = SynopsisConfig(n_iters=20, target_ratio=20.0, seed=7)
STALL_S = 0.2


def frames_of(remotes) -> list[tuple[int, int]]:
    return [(c["frames_sent"], c["frames_received"])
            for c in (r.transport_counters() for r in remotes)]


def clusters(adapter, parts, config, **kwargs):
    """The same 2 shards x 2 components, in process and one process each."""
    shard_parts = [parts[0:2], parts[2:4]]
    local = ShardedService([ReplicaGroup([AccuracyTraderService(
        adapter, sp, config=config, **kwargs)]) for sp in shard_parts])
    remotes = [RemoteServable.spawn(AccuracyTraderService, adapter, sp,
                                    config=config, **kwargs)
               for sp in shard_parts]
    return local, ShardedService([ReplicaGroup([r]) for r in remotes]), \
        remotes


class TestShardCopyFrame:
    def assert_identical(self, local, remote, remotes, request, answer_key):
        before = frames_of(remotes)
        env = as_envelope(request, DEADLINE)
        want = local.serve(env, clocks=sim_clocks(4))
        got = remote.serve(env, clocks=sim_clocks(4))
        assert answer_key(got.answer) == answer_key(want.answer)
        assert [report_key(r) for r in got.reports] == \
            [report_key(r) for r in want.reports]
        assert got.state_epochs == want.state_epochs
        # One request = one frame out and one back per shard.
        assert frames_of(remotes) == [(s + 1, r + 1) for s, r in before]

    def check_family(self, adapter, parts, config, request, answer_key,
                     **kwargs):
        local, remote, remotes = clusters(adapter, parts, config, **kwargs)
        try:
            self.assert_identical(local, remote, remotes, request,
                                  answer_key)
            # The same update on both sides of the wire, then again.
            part = local.shards[0].replicas[0].partitions[0]
            ids = [int(i) for i in adapter.record_ids(part)[:2]]
            local.shards[0].change_points(0, part, ids)
            remote.shards[0].change_points(0, part, ids)
            self.assert_identical(local, remote, remotes, request,
                                  answer_key)
        finally:
            for r in remotes:
                r.close()

    def test_cf(self, small_ratings, cf_adapter, cf_request):
        self.check_family(
            cf_adapter, split_ratings(small_ratings.matrix, 4), CF_CONFIG,
            cf_request, lambda a: (a.numer, a.denom, a.active_mean))

    def test_search(self, small_corpus, search_adapter, search_query):
        self.check_family(
            search_adapter, split_corpus(small_corpus.partition, 4),
            SEARCH_CONFIG, search_query,
            lambda a: [(h.doc_id, h.score) for h in a], i_max_fraction=0.4)

    def test_unknown_op_fails_loudly(self, small_ratings, cf_adapter):
        parts = split_ratings(small_ratings.matrix, 2)
        with RemoteServable.spawn(AccuracyTraderService, cf_adapter, parts,
                                  config=CF_CONFIG) as remote:
            with pytest.raises(RemoteError, match="unknown transport op"):
                # The single-component op this frame replaced.
                remote._channels[0].call(("component_task", 0), timeout=30)
            assert remote.component_epoch(0) is not None  # link survives


@pytest.fixture(scope="module")
def cf_parts(small_ratings):
    return split_ratings(small_ratings.matrix, 2)


def spawn_stalled(cf_adapter, partitions, stall):
    adapter = (IOStallAdapter(cf_adapter, synopsis_stall=stall) if stall
               else cf_adapter)
    return RemoteServable.spawn(AccuracyTraderService, adapter, partitions,
                                config=CF_CONFIG, i_max=0)


class TestScatterGather:
    def test_sequential_router_overlaps_remote_shards(self, cf_adapter,
                                                      cf_parts, cf_request):
        remotes = [spawn_stalled(cf_adapter, [part], STALL_S)
                   for part in cf_parts]
        try:
            cluster = ShardedService([ReplicaGroup([r]) for r in remotes],
                                     backend=SequentialBackend())
            env = as_envelope(cf_request, 10.0)
            cluster.serve(env, clocks=sim_clocks(2))        # warm the links
            before = frames_of(remotes)
            t0 = time.perf_counter()
            resp = cluster.serve(env, clocks=sim_clocks(2))
            wall = time.perf_counter() - t0
            assert resp.answer is not None
            # max, not sum, of the two shard times.
            assert STALL_S <= wall < 1.6 * STALL_S
            assert frames_of(remotes) == [(s + 1, r + 1) for s, r in before]
        finally:
            for r in remotes:
                r.close()

    def test_remote_replica_hedges_from_sequential_backend(
            self, cf_adapter, cf_parts, cf_request):
        slow = spawn_stalled(cf_adapter, cf_parts, 4 * STALL_S)
        fast = spawn_stalled(cf_adapter, cf_parts, 0.0)
        budget = 0.5
        try:
            cluster = ShardedService(
                [ReplicaGroup([slow, fast])], backend=SequentialBackend(),
                hedge=ReissueStrategy(100.0, initial_expected_latency=0.02),
                hedge_budget=budget)
            env = as_envelope(cf_request, 10.0)
            # Warm the fast replica's link first: its first call can
            # outlast the 20 ms hedge prior and spend the hedge budget.
            fast.serve(env, clocks=sim_clocks(2))
            cluster.serve(env, clocks=sim_clocks(2))  # slow; budget denies
            cluster.serve(env, clocks=sim_clocks(2))  # fast primary
            sent, received = frames_of([slow])[0]
            t0 = time.perf_counter()
            resp = cluster.serve(env, clocks=sim_clocks(2))  # slow: hedged
            wall = time.perf_counter() - t0
            assert resp.answer is not None and wall < 2 * STALL_S
            counters = cluster.hedge_counters()
            assert counters["hedges_issued"] == counters["hedge_wins"] == 1
            assert counters["hedges_issued"] <= \
                budget * counters["shard_calls"]
            # The loser was one RPC for both components, and it is
            # abandoned: nothing pending although no reply has landed.
            assert frames_of([slow]) == [(sent + 1, received)]
            assert slow._channels[0].in_flight == 0
            # Its late reply is dropped and the link keeps serving.
            assert slow.component_epoch(0) is not None
        finally:
            slow.close()
            fast.close()

    def test_failed_copy_abandons_sibling_rpcs(self, cf_adapter, cf_parts,
                                               cf_request):
        """One copy fails at once: the stalled sibling's RPC is dropped."""
        def failing(tasks):
            future = Future()
            future.set_exception(RuntimeError("shard copy failed"))
            return [future]

        stalled = spawn_stalled(cf_adapter, cf_parts[:1], 4 * STALL_S)
        try:
            tasks = [ComponentTask(component=0, adapter=None, request=None,
                                   deadline=1.0, submit=failing)]
            tasks += stalled.build_tasks(as_envelope(cf_request, 10.0),
                                         clocks=sim_clocks(1))
            with pytest.raises(RuntimeError, match="shard copy failed"):
                SequentialBackend().run_tasks(tasks)
            assert frames_of([stalled])[0][0] == 2      # hello + the copy
            assert stalled._channels[0].in_flight == 0
        finally:
            stalled.close()


class TestTimeoutAbandons:
    @pytest.fixture()
    def silent_peer(self):
        """A channel whose peer reads frames and never answers."""
        listener = bind_with_retry()
        client = connect_with_retry("127.0.0.1", listener.getsockname()[1])
        server, _ = listener.accept()
        channel = RemoteChannel(client, max_in_flight=1)
        yield channel, server
        channel.close()
        server.close()
        listener.close()

    def test_call_timeout_frees_the_link(self, silent_peer):
        channel, server = silent_peer
        for _ in range(3):      # each would wedge a max_in_flight=1 link
            with pytest.raises(FutureTimeout):
                channel.call("ping", timeout=0.05)
            assert channel.in_flight == 0
        assert [read_frame(server)[2] for _ in range(3)] == ["ping"] * 3

    def test_gather_honours_the_servable_timeout(self, cf_adapter, cf_parts,
                                                 cf_request):
        remote = spawn_stalled(cf_adapter, cf_parts[:1], 4 * STALL_S)
        try:
            remote._timeout = 0.05
            tasks = remote.build_tasks(as_envelope(cf_request, 10.0),
                                       clocks=sim_clocks(1))
            with pytest.raises(FutureTimeout):
                SequentialBackend().run_tasks(tasks)
            assert remote._channels[0].in_flight == 0
        finally:
            remote.close()
