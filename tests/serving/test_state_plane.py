"""Epoch semantics through the serving stack.

The contracts pinned here:

- tasks reference state by ``(component, epoch)`` and every backend
  resolves the *dispatch-time* epoch — an in-flight request never
  observes a concurrent ``change_points`` (no torn reads);
- a task holding a live ref never pickles, so no path copies a
  snapshot into a task payload by accident;
- the harness reports the remote backend's serialized payload bytes
  per request;
- CF answers are bit-identical across sequential / thread / remote /
  async / batching backends over the same snapshots and clocks.
"""

from __future__ import annotations

import pytest

from repro.core.builder import SynopsisConfig
from repro.core.clock import SimulatedClock
from repro.core.service import AccuracyTraderService
from repro.serving.backends import (
    BatchingBackend,
    SequentialBackend,
    ThreadPoolBackend,
    resolve_backend,
)
from repro.serving.transport import RemoteBackend
from repro.workloads.partitioning import split_ratings
from tests.helpers import process

CONFIG = SynopsisConfig(n_iters=20, target_ratio=12.0, seed=5)
DEADLINE = 10.0
SPEED = 1e12


def clocks(n):
    return [SimulatedClock(speed=SPEED) for _ in range(n)]


def assert_cf_equal(a, b):
    assert a.numer == b.numer and a.denom == b.denom


@pytest.fixture()
def cf_service(cf_adapter, small_ratings):
    svc = AccuracyTraderService(cf_adapter,
                                split_ratings(small_ratings.matrix, 2),
                                config=CONFIG)
    yield svc
    svc.close()


class TestEpochPinning:
    def test_tasks_reference_state_by_epoch(self, cf_service, cf_request):
        tasks = cf_service.build_tasks(cf_request, DEADLINE, clocks(2))
        for c, task in enumerate(tasks):
            assert task.partition is None and task.synopsis is None
            assert task.state_ref.component == c
            assert task.state_ref.epoch == cf_service.component_epoch(c)
            assert task.state_ref.store_id == cf_service.store.store_id

    def test_inflight_tasks_pinned_across_change_points(self, cf_service,
                                                        cf_request):
        before, reps = process(cf_service, cf_request, DEADLINE,
                                          clocks=clocks(2))
        # Dispatch (build tasks), then update, then execute: the tasks
        # must compute against their dispatch-time epoch.
        tasks = cf_service.build_tasks(cf_request, DEADLINE, clocks(2))
        old_epochs = [t.state_ref.epoch for t in tasks]
        part0 = cf_service.partitions[0]
        cf_service.change_points(0, part0, [0, 1])
        assert cf_service.component_epoch(0) > old_epochs[0]
        outcomes = SequentialBackend().run_tasks(tasks)
        drained = cf_service.merge([o.result for o in outcomes], cf_request)
        assert_cf_equal(drained, before)
        assert [o.report.state_epoch for o in outcomes] == old_epochs
        # A fresh dispatch sees the new epoch.
        _, new_reps = process(cf_service, cf_request, DEADLINE,
                                         clocks=clocks(2))
        assert new_reps[0].state_epoch > old_epochs[0]
        assert new_reps[1].state_epoch == old_epochs[1]

    def test_reports_carry_state_epochs(self, cf_service, cf_request):
        _, reps = process(cf_service, cf_request, DEADLINE, clocks=clocks(2))
        assert [r.state_epoch for r in reps] == \
            [cf_service.component_epoch(c) for c in range(2)]

    def test_live_ref_task_does_not_pickle(self, cf_service, cf_request):
        # Pickling never copies a snapshot into a task: a live ref holds
        # its store, whose lock refuses to pickle.  Only a detached ref
        # (the remote backend's wire form) crosses a process boundary.
        import pickle
        from dataclasses import replace

        task = cf_service.build_tasks(cf_request, DEADLINE, clocks(2))[0]
        with pytest.raises(TypeError, match="lock"):
            pickle.dumps(task)
        wire = pickle.loads(pickle.dumps(
            replace(task, state_ref=task.state_ref.detached())))
        assert wire.partition is None and wire.synopsis is None
        assert wire.state_ref == task.state_ref


class TestBackendParityAcrossEpochs:
    def test_all_five_backends_bit_identical(self, cf_service, cf_request):
        # An update first, so resolution happens against epoch > 1.
        cf_service.change_points(0, cf_service.partitions[0], [0])
        base, _ = process(cf_service, cf_request, DEADLINE, clocks=clocks(2),
                                     backend=SequentialBackend())
        for backend in (ThreadPoolBackend(), RemoteBackend(n_workers=2),
                        resolve_backend("async"),
                        BatchingBackend(ThreadPoolBackend(),
                                        close_inner=True)):
            with backend:
                ans, reps = process(cf_service, cf_request, DEADLINE,
                                               clocks=clocks(2),
                                               backend=backend)
                assert_cf_equal(ans, base)
                assert [r.state_epoch for r in reps] == \
                    [cf_service.component_epoch(c) for c in range(2)]


class TestPayloadStats:
    def test_harness_reports_bytes_per_request(self, cf_service,
                                               small_ratings):
        from repro.serving.harness import ServingHarness
        from repro.serving.loadgen import LoadGenerator

        from tests.serving.test_harness import cf_request_factory

        loadgen = LoadGenerator(cf_request_factory(small_ratings.matrix),
                                seed=9)
        load = loadgen.closed_loop(n_clients=2, n_requests=6)
        with RemoteBackend(n_workers=1) as backend:
            harness = ServingHarness(cf_service, deadline=DEADLINE,
                                     backend=backend)
            stats = harness.run_closed_loop(load)
        assert stats.tasks_shipped == 12          # 6 requests x 2 components
        assert stats.state_publishes == 2         # one snapshot per component
        assert stats.task_bytes > 0 and stats.state_bytes > 0
        assert stats.bytes_per_request() == pytest.approx(
            (stats.task_bytes + stats.state_bytes) / 6)

    def test_inprocess_backends_ship_zero_bytes(self, cf_service, cf_request):
        from repro.serving.harness import ServingHarness
        from repro.serving.loadgen import LoadGenerator

        loadgen = LoadGenerator(lambda i, rng: cf_request, seed=9)
        with ThreadPoolBackend(max_workers=2) as backend:
            harness = ServingHarness(cf_service, deadline=DEADLINE,
                                     backend=backend)
            stats = harness.run_closed_loop(
                loadgen.closed_loop(n_clients=1, n_requests=3))
        assert stats.task_bytes == 0 and stats.state_bytes == 0
        assert stats.bytes_per_request() == 0.0
