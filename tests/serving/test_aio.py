"""Async serving tier: backend parity, cancellation, hedging, harness.

The acceptance contract pinned here:

- the async backend (both its sync ``run_tasks`` contract and the
  ``aprocess`` path) is bit-identical to ``SequentialBackend`` on both
  paper workloads (CF + search);
- per-task deadline cancellation interrupts a stalled refinement
  *mid-await* and still returns a valid best-so-far answer;
- async hedged routing is first-answer-wins with the losing copy really
  cancelled (its remaining refinements never run);
- the ``AsyncServingHarness`` is deterministic under a seeded trace and
  holds far more requests in flight than a thread pool has workers.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core.builder import SynopsisConfig
from repro.core.clock import SimulatedClock, WallClock, \
    simulated_clock_factory
from repro.core.processor import process_component
from repro.core.service import AccuracyTraderService
from repro.serving.aio import (
    AsyncExecutionBackend,
    AsyncServingHarness,
    AsyncStallAdapter,
    aprocess_component,
    is_async_adapter,
)
from repro.serving.backends import SequentialBackend, resolve_backend
from repro.serving.loadgen import LoadGenerator
from repro.serving.router import ReplicaGroup, ShardedService
from repro.strategies.reissue import ReissueStrategy
from repro.workloads.partitioning import split_corpus, split_ratings

from tests.serving.test_harness import cf_request_factory
from tests.helpers import aprocess, process

CF_CONFIG = SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7)
SEARCH_CONFIG = SynopsisConfig(n_iters=25, target_ratio=20.0, seed=7)


@pytest.fixture(scope="module")
def cf_parts(small_ratings):
    return split_ratings(small_ratings.matrix, 4)


@pytest.fixture(scope="module")
def cf_service(cf_adapter, cf_parts):
    return AccuracyTraderService(cf_adapter, cf_parts, config=CF_CONFIG)


@pytest.fixture(scope="module")
def cf_loadgen(small_ratings):
    return LoadGenerator(cf_request_factory(small_ratings.matrix), seed=31)


def sim_factory(speed=400.0):
    return simulated_clock_factory(speed)


def sim_clocks(n, speed=400.0):
    return [simulated_clock_factory(speed)(c) for c in range(n)]


class CountingStallAdapter(AsyncStallAdapter):
    """Async stall adapter counting refinement entries (for cancellation)."""

    def __init__(self, inner, **kwargs):
        super().__init__(inner, **kwargs)
        self.refines_started = 0

    async def arefine(self, partition, synopsis, group_id, request, state):
        self.refines_started += 1
        return await super().arefine(partition, synopsis, group_id,
                                     request, state)


class CountingStage1Adapter(AsyncStallAdapter):
    """Async stall adapter counting stage-1 entries."""

    stage1_started = 0

    async def ainitial_result(self, synopsis, request):
        self.stage1_started += 1
        return await super().ainitial_result(synopsis, request)


class TimingOutAdapter(AsyncStallAdapter):
    """Async stall adapter whose storage fetch times out by itself."""

    async def arefine(self, partition, synopsis, group_id, request, state):
        raise TimeoutError("group fetch timed out")


def answer_key(answer):
    if isinstance(answer, list):
        return [(h.doc_id, h.score) for h in answer]
    return answer.active_mean, answer.numer, answer.denom


class TestAsyncBackendParity:
    """Async execution == SequentialBackend, bit for bit."""

    def test_cf_sync_contract_bit_identical(self, cf_service, cf_loadgen):
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        base, base_reps = process(cf_service, request, 0.05,
                                             clocks=sim_clocks(4),
                                             backend=SequentialBackend())
        with AsyncExecutionBackend() as backend:
            ans, reps = process(cf_service, request, 0.05,
                                           clocks=sim_clocks(4),
                                           backend=backend)
        assert ans.numer == base.numer and ans.denom == base.denom
        assert [r.groups_processed for r in reps] == \
            [r.groups_processed for r in base_reps]
        assert [r.groups_ranked for r in reps] == \
            [r.groups_ranked for r in base_reps]

    def test_cf_aprocess_bit_identical(self, cf_service, cf_loadgen):
        for i in range(3):
            request = cf_loadgen.request_factory(i, np.random.default_rng(i))
            base, base_reps = process(cf_service, 
                request, 0.05, clocks=sim_clocks(4),
                backend=SequentialBackend())
            with AsyncExecutionBackend() as backend:
                ans, reps = asyncio.run(aprocess(cf_service, 
                    request, 0.05, clocks=sim_clocks(4), backend=backend))
            assert ans.numer == base.numer and ans.denom == base.denom
            assert [r.groups_processed for r in reps] == \
                [r.groups_processed for r in base_reps]

    def test_search_aprocess_bit_identical(self, small_corpus,
                                           search_adapter, search_query):
        parts = split_corpus(small_corpus.partition, 4)
        svc = AccuracyTraderService(search_adapter, parts,
                                    config=SEARCH_CONFIG,
                                    i_max_fraction=0.4)
        base, _ = process(svc, search_query, 0.05, clocks=sim_clocks(4),
                              backend=SequentialBackend())
        with AsyncExecutionBackend() as backend:
            ans, _ = asyncio.run(aprocess(svc, search_query, 0.05,
                                              clocks=sim_clocks(4),
                                              backend=backend))
        assert [(h.doc_id, h.score) for h in ans] == \
            [(h.doc_id, h.score) for h in base]

    def test_async_native_adapter_matches_plain(self, cf_adapter, cf_parts,
                                                cf_loadgen):
        # Stalls wait, never compute: the async-native path must return
        # the plain adapter's exact answers.
        stall = AsyncStallAdapter(cf_adapter, synopsis_stall=0.002,
                                  group_stall=0.001)
        assert is_async_adapter(stall) and not is_async_adapter(cf_adapter)
        plain = AccuracyTraderService(cf_adapter, cf_parts[0:2],
                                      config=CF_CONFIG)
        stalled = AccuracyTraderService(stall, cf_parts[0:2],
                                        config=CF_CONFIG)
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        base, base_reps = process(plain, request, 0.05, clocks=sim_clocks(2))
        with AsyncExecutionBackend() as backend:
            ans, reps = asyncio.run(aprocess(stalled, 
                request, 0.05, clocks=sim_clocks(2), backend=backend))
        assert ans.numer == base.numer and ans.denom == base.denom
        assert [r.groups_processed for r in reps] == \
            [r.groups_processed for r in base_reps]

    def test_resolve_and_lifecycle(self):
        backend = resolve_backend("async")
        assert isinstance(backend, AsyncExecutionBackend)
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(ValueError):
            resolve_backend("not-a-backend")
        with pytest.raises(ValueError):
            AsyncExecutionBackend(cancel_grace=0.0)


class TestAsyncRefineCalls:
    """The async kernel counts one refine call per ``arefine``."""

    def test_refine_calls_match_groups_processed(self, cf_adapter, cf_parts,
                                                 cf_loadgen):
        from repro.serving.envelope import as_envelope
        from repro.serving.telemetry import Tracer, use_tracer

        stall = AsyncStallAdapter(cf_adapter, synopsis_stall=0.0,
                                  group_stall=0.0)
        svc = AccuracyTraderService(stall, cf_parts[0:2], config=CF_CONFIG)
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        tracer = Tracer()
        with use_tracer(tracer), AsyncExecutionBackend() as backend:
            resp = svc.serve(as_envelope(request, 0.05),
                             clocks=sim_clocks(2), backend=backend)
        svc.close()
        assert all(r.groups_processed > 0 and
                   r.refine_calls == r.groups_processed
                   for r in resp.reports)
        (trace_id,) = tracer.trace_ids()
        tags = [s.tags for s in tracer.spans_of(trace_id)
                if s.name == "kernel"]
        assert sorted((t["groups_processed"], t["refine_calls"])
                      for t in tags) == \
            sorted((r.groups_processed, r.refine_calls)
                   for r in resp.reports)


class TestDeadlineCancellation:
    """cancel_grace interrupts a stalled refinement mid-await."""

    def test_watchdog_cancels_mid_stall(self, cf_adapter, cf_parts,
                                        cf_loadgen):
        stall = CountingStallAdapter(cf_adapter, synopsis_stall=0.01,
                                     group_stall=0.5)
        svc = AccuracyTraderService(stall, cf_parts[0:1], config=CF_CONFIG)
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        tasks = svc.build_tasks(request, 0.1, clocks=[WallClock()])

        with AsyncExecutionBackend(cancel_grace=1.0) as backend:
            t0 = time.monotonic()
            outcomes = asyncio.run(backend.arun_tasks(tasks))
            elapsed = time.monotonic() - t0
            assert backend.tasks_cancelled == 1
        [outcome] = outcomes
        # Without the watchdog the in-flight 0.5 s refinement stall would
        # run to completion; with it the task ends at the ~0.1 s budget.
        assert elapsed < 0.4
        assert outcome.report.cancelled and outcome.report.hit_deadline
        assert outcome.report.groups_processed == 0
        # Best-so-far, not dropped: stage 1 produced a valid answer.
        assert outcome.result is not None
        svc.close()

    def test_no_watchdog_checks_between_stalls(self, cf_adapter, cf_parts,
                                               cf_loadgen):
        # Same service, watchdog off: the deadline is only observed after
        # the in-flight stall finishes (sync-tier semantics).
        stall = CountingStallAdapter(cf_adapter, synopsis_stall=0.01,
                                     group_stall=0.2)
        svc = AccuracyTraderService(stall, cf_parts[0:1], config=CF_CONFIG)
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        tasks = svc.build_tasks(request, 0.05, clocks=[WallClock()])
        with AsyncExecutionBackend() as backend:
            [outcome] = asyncio.run(backend.arun_tasks(tasks))
            assert backend.tasks_cancelled == 0
        assert outcome.report.groups_processed == 1
        assert outcome.report.hit_deadline and not outcome.report.cancelled
        svc.close()


    def test_external_cancel_lands_in_stage_1(self, cf_adapter,
                                              cf_synopsis, small_ratings,
                                              cf_request):
        # The watchdog covers stage 2 only, but a hedged loser's cancel
        # lands wherever the execution is, the synopsis stall included.
        stall = CountingStallAdapter(cf_adapter, synopsis_stall=0.5)
        synopsis, _ = cf_synopsis

        async def go():
            task = asyncio.ensure_future(aprocess_component(
                stall, small_ratings.matrix, synopsis, cf_request, 1.0,
                hard_deadline=1.0))
            await asyncio.sleep(0.05)
            task.cancel()
            t0 = time.monotonic()
            with pytest.raises(asyncio.CancelledError):
                await task
            return time.monotonic() - t0

        assert asyncio.run(go()) < 0.3
        assert stall.refines_started == 0

    def test_adapter_timeout_propagates(self, cf_adapter, cf_synopsis,
                                        small_ratings, cf_request):
        # An adapter's own TimeoutError is a failure, not the watchdog
        # firing: it propagates instead of a ``cancelled`` report.
        synopsis, _ = cf_synopsis
        with pytest.raises(TimeoutError, match="group fetch"):
            asyncio.run(aprocess_component(
                TimingOutAdapter(cf_adapter), small_ratings.matrix, synopsis,
                cf_request, 1.0, clock=SimulatedClock(speed=1e6),
                hard_deadline=5.0))

    def test_bad_cap_fails_before_stage_1(self, cf_adapter, cf_synopsis,
                                          small_ratings, cf_request):
        stall = CountingStage1Adapter(cf_adapter, synopsis_stall=0.2)
        synopsis, _ = cf_synopsis
        t0 = time.monotonic()
        with pytest.raises(ValueError):
            asyncio.run(aprocess_component(
                stall, small_ratings.matrix, synopsis, cf_request, 1.0,
                i_max=3, i_max_fraction=0.4))
        assert stall.stage1_started == 0
        assert time.monotonic() - t0 < 0.1


class TestOneAlgorithm1:
    """The sync and async drivers step one machine: under simulated
    clocks they agree report for report and answer for answer."""

    @pytest.mark.parametrize("family", ["cf", "search"])
    def test_sync_equals_async(self, family, cf_adapter, small_ratings,
                               cf_synopsis, cf_request, search_adapter,
                               small_corpus, search_synopsis, search_query):
        if family == "cf":
            adapter, partition, (synopsis, _) = \
                cf_adapter, small_ratings.matrix, cf_synopsis
            request, cap = cf_request, {}
        else:
            adapter, partition, (synopsis, _) = \
                search_adapter, small_corpus.partition, search_synopsis
            request, cap = search_query, {"i_max_fraction": 0.4}
        stall = AsyncStallAdapter(adapter)
        cases = [(deadline, queued, speed)
                 for deadline in (0.0, 0.01, 0.05, 0.1, 0.3, 1.0)
                 for queued in (0.0, 0.02, 0.2)
                 for speed in (300.0, 1000.0, 5000.0)]

        def clock(queued, speed):
            return SimulatedClock(start=1.0 + queued, speed=speed)

        async def arun():
            return [await aprocess_component(
                stall, partition, synopsis, request, deadline,
                clock=clock(queued, speed), start_time=1.0, **cap)
                for deadline, queued, speed in cases]

        depths = set()
        for (deadline, queued, speed), (answer, areport) in zip(
                cases, asyncio.run(arun())):
            result, report = process_component(
                adapter, partition, synopsis, request, deadline,
                clock=clock(queued, speed), start_time=1.0, **cap)
            assert report == areport, (deadline, queued, speed)
            assert answer_key(answer) == answer_key(result)
            depths.add(report.groups_processed)
        # The grid reaches stage 1 only, partial depths and the cap.
        assert 0 in depths and len(depths) > 5


class TestAsyncHedgedRouting:
    """Event-loop tied requests: first answer wins, loser truly cancelled."""

    def build_cluster(self, cf_adapter, cf_parts):
        straggler = CountingStallAdapter(cf_adapter, synopsis_stall=0.08,
                                         group_stall=0.08)
        fast = AsyncStallAdapter(cf_adapter, synopsis_stall=0.002,
                                 group_stall=0.002)
        group = ReplicaGroup([
            AccuracyTraderService(straggler, cf_parts[0:2], config=CF_CONFIG),
            AccuracyTraderService(fast, cf_parts[0:2], config=CF_CONFIG),
        ])
        svc = ShardedService(
            [group],
            hedge=ReissueStrategy(100.0, initial_expected_latency=0.02),
            hedge_budget=None)
        return svc, straggler, group

    def test_first_answer_wins_and_loser_cancelled(self, cf_adapter,
                                                   cf_parts, cf_loadgen):
        svc, straggler, group = self.build_cluster(cf_adapter, cf_parts)
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        n_groups = sum(s.n_aggregated
                       for s in group.replicas[0].synopses)

        async def go():
            with AsyncExecutionBackend() as backend:
                return await aprocess(svc, request, 10.0, backend=backend)

        answer, reports = asyncio.run(go())
        assert svc.hedges_issued == 1 and svc.hedge_wins == 1
        assert answer is not None and len(reports) == 2
        # Real cancellation: the straggling primary was interrupted
        # mid-stall, so it never started all of its refinements.
        assert straggler.refines_started < n_groups
        svc.close()

    def test_hedged_answer_matches_unhedged(self, cf_adapter, cf_parts,
                                            cf_loadgen):
        svc, _, _ = self.build_cluster(cf_adapter, cf_parts)
        base_svc = AccuracyTraderService(cf_adapter, cf_parts[0:2],
                                        config=CF_CONFIG)
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        base = process(base_svc, request, 10.0)[0]

        async def go():
            with AsyncExecutionBackend() as backend:
                return await aprocess(svc, request, 10.0, backend=backend)

        answer, _ = asyncio.run(go())
        assert answer.numer == base.numer and answer.denom == base.denom
        svc.close()
        base_svc.close()

    def test_sharded_aprocess_bit_identical_unhedged(self, cf_adapter,
                                                     cf_parts, cf_loadgen):
        routed = ShardedService([
            ReplicaGroup.build(cf_adapter, cf_parts[0:2], 2,
                               config=CF_CONFIG),
            ReplicaGroup.build(cf_adapter, cf_parts[2:4], 2,
                               config=CF_CONFIG),
        ])
        base = AccuracyTraderService(cf_adapter, cf_parts, config=CF_CONFIG)
        request = cf_loadgen.request_factory(1, np.random.default_rng(1))
        expect, expect_reps = process(base, request, 0.05,
                                           clocks=sim_clocks(4))

        async def go():
            with AsyncExecutionBackend() as backend:
                return await aprocess(routed, request, 0.05,
                                             clocks=sim_clocks(4),
                                             backend=backend)

        ans, reps = asyncio.run(go())
        assert ans.numer == expect.numer and ans.denom == expect.denom
        assert [r.groups_processed for r in reps] == \
            [r.groups_processed for r in expect_reps]
        routed.close()
        base.close()


class TestAsyncHarness:
    def test_deterministic_under_seeded_trace(self, cf_service, cf_loadgen):
        load = cf_loadgen.poisson(rate=200.0, duration=0.1)
        assert load.n_requests > 0

        def run():
            with AsyncExecutionBackend() as backend:
                harness = AsyncServingHarness(
                    cf_service, deadline=0.05, backend=backend,
                    clock_factory=sim_factory())
                return harness.run_open_loop(load)

        a, b = run(), run()
        assert a.n_requests == b.n_requests == load.n_requests
        assert a.offered == load.n_requests
        for x, y in zip(a.answers, b.answers):
            assert x.numer == y.numer and x.denom == y.denom
        np.testing.assert_array_equal(a.sub_latencies, b.sub_latencies)

    def test_holds_many_requests_in_flight(self, cf_adapter, cf_parts,
                                           cf_loadgen):
        # 150 requests arriving at once, each stalling ~30 ms on its one
        # component: an event loop overlaps them all; a thread pool would
        # need 150 workers to do the same.
        stall = AsyncStallAdapter(cf_adapter, synopsis_stall=0.03,
                                  group_stall=0.0)
        svc = AccuracyTraderService(stall, cf_parts[0:1], config=CF_CONFIG,
                                    i_max=0)
        load = cf_loadgen.fixed(np.zeros(150))
        with AsyncExecutionBackend() as backend:
            harness = AsyncServingHarness(svc, deadline=10.0,
                                          backend=backend)
            stats = harness.run_open_loop(load)
        assert stats.n_requests == 150
        assert stats.inflight_max >= 100
        # Overlapped stalls: total duration is a small multiple of one
        # stall, nowhere near the 4.5 s of serial sleeping.
        assert stats.duration < 1.5
        svc.close()

    def test_updates_schedule_applied(self, cf_adapter, cf_parts,
                                      cf_loadgen):
        svc = AccuracyTraderService(cf_adapter, cf_parts[0:2],
                                    config=CF_CONFIG)
        load = cf_loadgen.fixed([0.0, 0.01])

        def touch(service):
            return service.n_components

        with AsyncExecutionBackend() as backend:
            harness = AsyncServingHarness(svc, deadline=0.05,
                                          backend=backend,
                                          clock_factory=sim_factory())
            stats = harness.run_open_loop(load, updates=[(0.0, touch)])
        assert stats.update_log == [(0.0, 2)]
        svc.close()


class TestAsyncClosedLoop:
    def test_serves_every_request_in_order_slots(self, cf_service,
                                                 cf_loadgen):
        load = cf_loadgen.closed_loop(n_clients=3, n_requests=12)
        with AsyncExecutionBackend() as backend:
            harness = AsyncServingHarness(cf_service, deadline=0.05,
                                          backend=backend,
                                          clock_factory=sim_factory())
            stats = harness.run_closed_loop(load)
        assert stats.n_requests == 12
        assert all(a is not None for a in stats.answers)
        assert stats.inflight_max <= 3
        assert np.all(stats.request_latencies >= 0.0)
        assert stats.offered is None   # no admission layer in closed loop

    def test_closed_loop_populates_queue_delays(self, cf_service,
                                                cf_loadgen):
        # Dispatch overhead (client latency minus service time) lands in
        # queue_delays, one entry per request.
        load = cf_loadgen.closed_loop(n_clients=2, n_requests=8)
        with AsyncExecutionBackend() as backend:
            harness = AsyncServingHarness(cf_service, deadline=0.05,
                                          backend=backend,
                                          clock_factory=sim_factory())
            stats = harness.run_closed_loop(load)
        assert stats.queue_delays.shape == (8,)
        assert np.all(stats.queue_delays >= 0.0)
        assert np.all(np.isfinite(stats.queue_delays))
        assert np.all(stats.queue_delays <= stats.request_latencies + 1e-9)

    def test_answers_bit_identical_to_sync_closed_loop(self, cf_service,
                                                       cf_loadgen):
        from repro.serving.harness import ServingHarness

        load = cf_loadgen.closed_loop(n_clients=2, n_requests=8)
        sync_stats = ServingHarness(
            cf_service, deadline=0.05,
            clock_factory=sim_factory()).run_closed_loop(load)
        with AsyncExecutionBackend() as backend:
            harness = AsyncServingHarness(cf_service, deadline=0.05,
                                          backend=backend,
                                          clock_factory=sim_factory())
            stats = harness.run_closed_loop(load)
        for x, y in zip(stats.answers, sync_stats.answers):
            assert x.numer == y.numer and x.denom == y.denom

    def test_client_population_parks_not_blocks(self, cf_adapter, cf_parts,
                                                cf_loadgen):
        # 60 clients each stalling ~30 ms: coroutines overlap the think
        # and stall time, so the run is a small multiple of one stall.
        stall = AsyncStallAdapter(cf_adapter, synopsis_stall=0.03,
                                  group_stall=0.0)
        svc = AccuracyTraderService(stall, cf_parts[0:1], config=CF_CONFIG,
                                    i_max=0)
        load = cf_loadgen.closed_loop(n_clients=60, n_requests=60)
        with AsyncExecutionBackend() as backend:
            harness = AsyncServingHarness(svc, deadline=10.0,
                                          backend=backend)
            stats = harness.run_closed_loop(load)
        assert stats.n_requests == 60
        assert stats.inflight_max >= 30
        assert stats.duration < 1.0   # nowhere near 60 x 30 ms serial
        svc.close()
