"""Load generation determinism, latency accounting, and update safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.builder import SynopsisConfig
from repro.core.clock import simulated_clock_factory
from repro.core.service import AccuracyTraderService
from repro.serving.backends import SequentialBackend, ThreadPoolBackend
from repro.serving.harness import ServingHarness
from repro.serving.loadgen import LoadGenerator
from repro.workloads.partitioning import split_ratings
from tests.helpers import process


def cf_request_factory(matrix):
    """Factory mapping (i, rng) to a CFRequest over ``matrix``'s users."""
    from repro.core.adapters import CFRequest

    def factory(i, rng):
        user = i % matrix.n_users
        ids, vals = matrix.user_ratings(user)
        n = max(2, int(0.8 * ids.size))
        keep = np.sort(rng.choice(ids.size, size=min(n, ids.size),
                                  replace=False))
        rated = set(ids[keep].tolist())
        targets = [t for t in range(matrix.n_items) if t not in rated][:5]
        return CFRequest(active_items=ids[keep], active_vals=vals[keep],
                         target_items=targets)

    return factory


@pytest.fixture(scope="module")
def cf_loadgen(small_ratings):
    return LoadGenerator(cf_request_factory(small_ratings.matrix), seed=17)


class TestLoadGenerator:
    def test_poisson_deterministic(self, small_ratings):
        gens = [LoadGenerator(cf_request_factory(small_ratings.matrix),
                              seed=17) for _ in range(2)]
        loads = [g.poisson(rate=50.0, duration=2.0) for g in gens]
        np.testing.assert_array_equal(loads[0].arrivals, loads[1].arrivals)
        assert [r.target_items for r in loads[0].requests] == \
            [r.target_items for r in loads[1].requests]

    def test_poisson_count_near_expectation(self, cf_loadgen):
        load = cf_loadgen.poisson(rate=100.0, duration=4.0)
        # n ~ Poisson(400): 5 sigma is +-100.
        assert 300 <= load.n_requests <= 500
        assert np.all(np.diff(load.arrivals) >= 0)
        assert load.n_requests == len(load.requests)

    def test_seed_changes_stream(self, small_ratings):
        factory = cf_request_factory(small_ratings.matrix)
        a = LoadGenerator(factory, seed=1).poisson(50.0, 2.0)
        b = LoadGenerator(factory, seed=2).poisson(50.0, 2.0)
        assert a.n_requests != b.n_requests or \
            not np.array_equal(a.arrivals, b.arrivals)

    def test_bursty_concentrates_in_on_windows(self, cf_loadgen):
        period, duty = 1.0, 0.25
        load = cf_loadgen.bursty(base_rate=5.0, burst_rate=200.0,
                                 period=period, duty=duty, duration=8.0)
        phase = load.arrivals % period
        on = int(np.sum(phase < duty * period))
        off = load.n_requests - on
        # On-rate is 40x off-rate over a window 1/3 the size: the on
        # windows must dominate decisively.
        assert on > 5 * off

    def test_fixed_replay(self, cf_loadgen):
        load = cf_loadgen.fixed([0.0, 0.1, 0.2])
        assert load.n_requests == 3
        assert load.duration == pytest.approx(0.2)

    def test_unsorted_fixed_rejected(self, cf_loadgen):
        with pytest.raises(ValueError):
            cf_loadgen.fixed([0.2, 0.1])

    def test_closed_loop_think_times(self, cf_loadgen):
        load = cf_loadgen.closed_loop(n_clients=4, n_requests=10,
                                      think_time=0.01, think_jitter=0.02)
        assert load.n_requests == 10
        assert np.all(load.think_times >= 0.01)
        assert np.all(load.think_times < 0.03)


class TestServingHarness:
    def test_open_loop_latency_accounting(self, cf_serving_service,
                                          cf_loadgen):
        load = cf_loadgen.poisson(rate=200.0, duration=0.15)
        assert load.n_requests > 0
        harness = ServingHarness(
            cf_serving_service, deadline=0.05,
            backend=SequentialBackend(),
            clock_factory=simulated_clock_factory(500.0))
        stats = harness.run_open_loop(load)
        assert stats.n_requests == load.n_requests
        assert stats.n_components == cf_serving_service.n_components
        assert stats.sub_latencies.size == \
            load.n_requests * cf_serving_service.n_components
        # sub latencies are the reports' (simulated, deterministic)
        # processing times, request-major.
        expected = [rep.total_elapsed for reps in stats.reports
                    for rep in reps]
        np.testing.assert_array_equal(stats.sub_latencies, expected)
        assert all(a is not None for a in stats.answers)
        assert np.all(stats.request_latencies > 0)
        assert stats.duration > 0
        assert stats.throughput() > 0
        assert stats.p50() <= stats.p95() <= stats.p99()
        assert stats.deadline_miss_rate(0.0) == 1.0

    def test_simulated_processing_deterministic(self, cf_serving_service,
                                                cf_loadgen):
        def run():
            load = cf_loadgen.poisson(rate=150.0, duration=0.1)
            harness = ServingHarness(
                cf_serving_service, deadline=0.05,
                backend=SequentialBackend(),
                clock_factory=simulated_clock_factory(500.0))
            return harness.run_open_loop(load)

        a, b = run(), run()
        np.testing.assert_array_equal(a.sub_latencies, b.sub_latencies)

    def test_closed_loop(self, cf_serving_service, cf_loadgen):
        load = cf_loadgen.closed_loop(n_clients=3, n_requests=9)
        with ThreadPoolBackend(max_workers=4) as backend:
            harness = ServingHarness(cf_serving_service, deadline=10.0,
                                     backend=backend)
            stats = harness.run_closed_loop(load)
        assert stats.n_requests == 9
        assert all(a is not None for a in stats.answers)
        assert np.all(stats.request_latencies > 0)
        assert stats.throughput() > 0

    def test_accuracy_vs_deadline_curve(self, cf_serving_service,
                                        cf_loadgen):
        requests = [cf_loadgen.request_factory(i, np.random.default_rng(i))
                    for i in range(4)]

        def accuracy(answer, exact, request):
            errs = [abs(answer.predict(t) - exact.predict(t))
                    for t in request.target_items]
            return -float(np.mean(errs)) if errs else 0.0

        harness = ServingHarness(
            cf_serving_service, deadline=0.05,
            backend=SequentialBackend(),
            clock_factory=simulated_clock_factory(300.0))
        curve = harness.accuracy_vs_deadline(requests,
                                             deadlines=[0.002, 0.05, 10.0],
                                             accuracy_fn=accuracy)
        assert [p.deadline for p in curve] == [0.002, 0.05, 10.0]
        depths = [p.groups_processed_mean for p in curve]
        assert depths == sorted(depths)
        assert depths[-1] > depths[0]
        # A generous deadline refines everything: zero error vs exact.
        assert curve[-1].accuracy_mean == pytest.approx(0.0, abs=1e-9)
        assert curve[-1].accuracy_mean >= curve[0].accuracy_mean
        # Stage 1 always completes, then at most one overshoot group: the
        # tight deadline's latency is bounded by synopsis work + one group.
        speed = 300.0
        max_syn = max(float(s.n_aggregated)
                      for s in cf_serving_service.synopses)
        max_group = max(float(s.index.group_sizes().max())
                        for s in cf_serving_service.synopses)
        assert curve[0].latency_p95 <= 0.002 + (max_syn + max_group) / speed
        assert curve[0].latency_p95 < curve[-1].latency_p95


class TestHarnessBackendLifecycle:
    def test_harness_closes_backend_resolved_from_spec(self,
                                                       cf_serving_service,
                                                       cf_loadgen):
        load = cf_loadgen.closed_loop(n_clients=1, n_requests=2)
        with ServingHarness(cf_serving_service, deadline=10.0,
                            backend="thread") as harness:
            harness.run_closed_loop(load)
            assert harness.backend._pool is not None
        # Exit shut the pool the harness created from the string spec.
        assert harness.backend._pool is None

    def test_harness_leaves_caller_backend_alone(self, cf_serving_service,
                                                 cf_loadgen):
        load = cf_loadgen.closed_loop(n_clients=1, n_requests=2)
        with ThreadPoolBackend(max_workers=2) as backend:
            with ServingHarness(cf_serving_service, deadline=10.0,
                                backend=backend) as harness:
                harness.run_closed_loop(load)
            assert backend._pool is not None


class TestConcurrentUpdates:
    @pytest.fixture()
    def mutable_service(self, small_ratings, cf_adapter):
        return AccuracyTraderService(
            cf_adapter, split_ratings(small_ratings.matrix, 2),
            config=SynopsisConfig(n_iters=20, target_ratio=15.0, seed=9))

    @staticmethod
    def add_one_user(component):
        def apply(service):
            part = service.partitions[component]
            new = part.with_rows_appended(
                np.zeros(3, dtype=np.int64), np.array([0, 1, 2]),
                np.array([4.0, 3.5, 5.0]))
            return service.add_points(component, new,
                                      [part.n_users])
        return apply

    def test_harness_updates_interleave(self, mutable_service, cf_loadgen):
        load = cf_loadgen.poisson(rate=150.0, duration=0.4)
        valid_group_counts = {mutable_service.synopses[0].n_aggregated}
        applied = []

        def tracked_update(service):
            report = self.add_one_user(0)(service)
            valid_group_counts.add(service.synopses[0].n_aggregated)
            applied.append(report)
            return report

        with ThreadPoolBackend(max_workers=4) as backend:
            harness = ServingHarness(mutable_service, deadline=10.0,
                                     backend=backend, max_concurrency=8)
            stats = harness.run_open_loop(
                load, updates=[(0.05, tracked_update),
                               (0.15, tracked_update),
                               (0.25, tracked_update)])

        assert len(stats.update_log) == len(applied) > 0
        assert all(a is not None for a in stats.answers)
        # No torn reads: every request saw a complete snapshot, i.e. its
        # component-0 ranking covers exactly the group set of *some*
        # published synopsis version — never a mix.
        for reps in stats.reports:
            assert len(reps[0].groups_ranked) in valid_group_counts
            assert reps[0].exhausted  # generous deadline: full refinement
        # Partition invariant still holds after the dust settles.
        syn = mutable_service.synopses[0]
        syn.index.validate(expected_records=mutable_service.adapter.record_ids(
            mutable_service.partitions[0]))

    def test_raw_thread_stress(self, mutable_service, cf_loadgen):
        """Spam requests from threads while updates land on both components."""
        requests = [cf_loadgen.request_factory(i, np.random.default_rng(i))
                    for i in range(6)]
        valid_counts = [{mutable_service.synopses[c].n_aggregated}
                        for c in range(2)]
        failures = []
        observed = []
        stop = threading.Event()

        def spam():
            with ThreadPoolBackend(max_workers=2) as backend:
                k = 0
                while not stop.is_set():
                    try:
                        _, reps = process(mutable_service, 
                            requests[k % len(requests)], 10.0,
                            backend=backend)
                        observed.append(tuple(len(r.groups_ranked)
                                              for r in reps))
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append(exc)
                        return
                    k += 1

        workers = [threading.Thread(target=spam) for _ in range(3)]
        for w in workers:
            w.start()
        try:
            for round_ in range(3):
                for c in range(2):
                    self.add_one_user(c)(mutable_service)
                    valid_counts[c].add(
                        mutable_service.synopses[c].n_aggregated)
        finally:
            stop.set()
            for w in workers:
                w.join()

        assert not failures
        assert observed
        for counts in observed:
            for c, n in enumerate(counts):
                assert n in valid_counts[c]


class TestPerClassBreakdown:
    """Per-request-class latency/served accounting in ServingRunStats."""

    def mixed_loadgen(self, matrix):
        from repro.serving.envelope import RequestClass, ServingRequest

        base = cf_request_factory(matrix)
        classes = [RequestClass.ACCURACY_CRITICAL,
                   RequestClass.LATENCY_CRITICAL,
                   RequestClass.BEST_EFFORT]

        def factory(i, rng):
            return ServingRequest(payload=base(i, rng),
                                  request_class=classes[i % len(classes)])

        return LoadGenerator(factory, seed=31)

    def test_closed_loop_classes_accounted(self, cf_serving_service,
                                           small_ratings):
        load = self.mixed_loadgen(small_ratings.matrix).closed_loop(
            n_clients=2, n_requests=9)
        harness = ServingHarness(cf_serving_service, deadline=10.0,
                                 backend=SequentialBackend())
        stats = harness.run_closed_loop(load)
        assert stats.class_served == {"accuracy_critical": 3,
                                      "latency_critical": 3,
                                      "best_effort": 3}
        assert stats.class_shed == {}
        for key, lats in stats.class_latencies.items():
            assert len(lats) == 3
            assert np.all(lats > 0)
        assert np.isfinite(stats.class_percentile("best_effort", 99.0))
        # Unknown class: nan, not a crash.
        assert np.isnan(stats.class_percentile("no_such_class", 50.0))
        # Reports carry the class end to end.
        classes = [reps[0].request_class for reps in stats.reports]
        assert classes[:3] == ["accuracy_critical", "latency_critical",
                               "best_effort"]

    def test_bare_payloads_get_default_class(self, cf_serving_service,
                                             cf_loadgen):
        load = cf_loadgen.closed_loop(n_clients=1, n_requests=4)
        harness = ServingHarness(cf_serving_service, deadline=10.0,
                                 backend=SequentialBackend())
        stats = harness.run_closed_loop(load)
        assert stats.class_served == {"latency_critical": 4}

    def test_envelope_deadline_override_per_request(self, cf_serving_service,
                                                    small_ratings):
        from repro.serving.envelope import ServingRequest

        base = cf_request_factory(small_ratings.matrix)

        def factory(i, rng):
            # Odd requests carry a tiny per-request deadline override.
            deadline = 1e-9 if i % 2 else None
            return ServingRequest(payload=base(i, rng), deadline=deadline)

        load = LoadGenerator(factory, seed=33).closed_loop(
            n_clients=1, n_requests=4)
        harness = ServingHarness(
            cf_serving_service, deadline=10.0,
            backend=SequentialBackend(),
            clock_factory=simulated_clock_factory(400.0))
        stats = harness.run_closed_loop(load)
        deadlines = [reps[0].deadline for reps in stats.reports]
        assert deadlines == [10.0, 1e-9, 10.0, 1e-9]
        # The overridden requests hit their (instant) deadline; the
        # harness-default ones refine fully.
        hit = [any(r.hit_deadline for r in reps) for reps in stats.reports]
        assert hit == [False, True, False, True]


class CountingBackend(SequentialBackend):
    """Sequential execution that keeps real payload counters.

    Stands in for a remote backend in routing tests: every task is
    pickled with its ref detached (as the wire would) and counted, so a
    run whose counters stay at zero provably never dispatched through
    this backend.
    """

    def __init__(self):
        super().__init__()
        self._task_bytes = 0
        self._tasks_shipped = 0

    def run_tasks(self, tasks):
        import pickle
        from dataclasses import replace

        tasks = list(tasks)
        for task in tasks:
            wire = replace(task, state_ref=task.state_ref.detached())
            self._task_bytes += len(pickle.dumps(wire))
            self._tasks_shipped += 1
        return super().run_tasks(tasks)

    def payload_counters(self):
        return {"task_bytes": self._task_bytes, "state_bytes": 0,
                "tasks_shipped": self._tasks_shipped, "state_publishes": 0}


class TestRoutedPayloadCounters:
    """Payload accounting must follow the routing structure.

    Regression: the harness used to read counters from ``service.
    backend`` only.  A :class:`ReplicaGroup` has no ``backend``
    attribute — its *replicas* do — so a harness run over a routed
    service reported zero payload bytes while every replica backend was
    busily shipping tasks.
    """

    def build_group(self, cf_adapter, small_ratings, n_replicas=2):
        from repro.serving.router import ReplicaGroup

        parts = split_ratings(small_ratings.matrix, 2)
        config = SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7)
        replicas = [AccuracyTraderService(cf_adapter, parts, config=config,
                                          backend=CountingBackend())
                    for _ in range(n_replicas)]
        return ReplicaGroup(replicas)

    def test_replica_backends_are_counted(self, cf_adapter, small_ratings,
                                          cf_loadgen):
        group = self.build_group(cf_adapter, small_ratings)
        load = cf_loadgen.fixed([0.0, 0.01, 0.02, 0.03])
        harness = ServingHarness(
            group, deadline=0.05, backend=None,
            clock_factory=simulated_clock_factory(500.0))
        stats = harness.run_open_loop(load)
        # 4 requests x 2 components, split round-robin over 2 replicas.
        assert stats.tasks_shipped == load.n_requests * group.n_components
        assert stats.task_bytes > 0
        assert stats.bytes_per_request() > 0

    def test_backend_walk_covers_a_2x2_cluster(self, cf_adapter,
                                               small_ratings):
        from repro.serving.harness import payload_backend_of
        from repro.serving.router import ShardedService

        cluster = ShardedService(
            [self.build_group(cf_adapter, small_ratings)
             for _ in range(2)],
            backend=CountingBackend())
        found = payload_backend_of(None, cluster)
        # The cluster's own backend plus all four replicas', each once.
        assert len(found) == 5
        assert len({id(b) for b in found}) == 5
        # A harness-level override joins the walk, deduplicated.
        assert len(payload_backend_of(cluster.backend, cluster)) == 5
        extra = SequentialBackend()
        assert len(payload_backend_of(extra, cluster)) == 6


class TestEmptyRunStats:
    """All-shed and zero-arrival runs must report, not crash.

    Regression: percentile helpers indexed into empty latency arrays,
    so a run in which admission shed everything (a legitimate overload
    outcome) raised ``IndexError`` instead of producing stats.
    """

    def test_thread_harness_empty_load(self, cf_serving_service):
        import math

        from repro.serving.loadgen import OpenLoopLoad

        load = OpenLoopLoad(arrivals=np.zeros(0), requests=[])
        harness = ServingHarness(cf_serving_service, deadline=0.05,
                                 backend=SequentialBackend(),
                                 clock_factory=simulated_clock_factory(500.0))
        stats = harness.run_open_loop(load)
        assert stats.n_requests == 0
        for value in (stats.p50(), stats.p95(), stats.p99(),
                      stats.mean_latency(), stats.component_tail(),
                      stats.request_percentile(10.0)):
            assert math.isnan(value)
        assert stats.class_breakdown() == {}

    def test_async_harness_all_shed(self, cf_serving_service, cf_loadgen):
        import math

        from repro.serving.admission import AdmissionController, ShedPolicy
        from repro.serving.aio import AsyncServingHarness

        class ShedEverything(ShedPolicy):
            name = "shed_everything"

            def on_arrival(self, snapshot):
                return "overload_drill"

        load = cf_loadgen.fixed([0.0, 0.005, 0.01])
        harness = AsyncServingHarness(
            cf_serving_service, deadline=0.05,
            admission=AdmissionController(policies=[ShedEverything()]))
        stats = harness.run_open_loop(load)
        assert stats.n_requests == 0
        assert stats.shed == 3
        assert stats.shed_reasons == {"overload_drill": 3}
        for value in (stats.p50(), stats.p99(), stats.mean_latency(),
                      stats.component_tail()):
            assert math.isnan(value)
        breakdown = stats.class_breakdown()
        assert breakdown["latency_critical"]["shed"] == 3
        assert breakdown["latency_critical"]["served"] == 0
        assert math.isnan(breakdown["latency_critical"]["p99_s"])
