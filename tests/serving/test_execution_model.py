"""The execution model: one kernel per interpreter, stalls still overlap.

A component is a FIFO server that runs one request's kernel to
completion, so within one process the ``kernel`` spans the stack already
emits must never overlap — whichever pool the tasks arrived through —
while ``IOStallAdapter`` stalls give the slot up and keep overlapping.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.core.builder import SynopsisConfig
from repro.core.clock import WallClock
from repro.core.service import AccuracyTraderService
from repro.serving.adapters import IOStallAdapter
from repro.serving.backends import (SequentialBackend, ThreadPoolBackend,
                                    run_component_task)
from repro.serving.envelope import as_envelope
from repro.serving.telemetry import Tracer
from repro.serving.transport import RemoteBackend, RemoteServable
from repro.workloads.partitioning import split_ratings
from tests.serving.test_envelope import sim_clocks

CF_CONFIG = SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7)
STALL_S = 0.15


@pytest.fixture(scope="module")
def parts4(small_ratings):
    return split_ratings(small_ratings.matrix, 4)


@pytest.fixture(scope="module")
def service4(cf_adapter, parts4):
    return AccuracyTraderService(cf_adapter, parts4, config=CF_CONFIG)


@pytest.fixture(scope="module")
def stalled4(cf_adapter, parts4):
    return AccuracyTraderService(
        IOStallAdapter(cf_adapter, synopsis_stall=STALL_S), parts4,
        config=CF_CONFIG, i_max=0)


@pytest.fixture()
def fast_switching():
    """More preemption than cores: overlap shows if nothing prevents it."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def traced_tasks(service, request, n=1):
    """``n`` requests' worth of wall-clock tasks whose outcomes carry spans."""
    tracer = Tracer()
    return [task for _ in range(n) for task in service.build_tasks(
        tracer.trace(as_envelope(request, 10.0)),
        clocks=[WallClock() for _ in range(service.n_components)])]


def run_threads(fn, n):
    """Run ``fn(i)`` on ``n`` threads; returns the results, all finished."""
    results = [None] * n

    def body(i):
        results[i] = fn(i)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return results


def assert_kernels_never_overlap(outcomes, n_expected):
    kernels = sorted((s for o in outcomes for s in o.spans
                      if s.name == "kernel"), key=lambda s: (s.pid, s.start))
    assert len(kernels) == n_expected
    for prev, cur in zip(kernels, kernels[1:]):
        if prev.pid == cur.pid:
            assert cur.start >= prev.end, (prev, cur)
    return {s.pid for s in kernels}


class TestOneKernelPerInterpreter:
    def test_thread_pool(self, service4, cf_request, fast_switching):
        with ThreadPoolBackend(max_workers=4) as backend:
            outcomes = run_threads(
                lambda _i: backend.run_tasks(traced_tasks(service4,
                                                          cf_request)), 4)
        pids = assert_kernels_never_overlap(
            [o for per_client in outcomes for o in per_client], 16)
        assert pids == {os.getpid()}

    def test_remote_backend_worker(self, service4, cf_request):
        with RemoteBackend(n_workers=1) as backend:
            backend.run_tasks(traced_tasks(service4, cf_request))  # publish
            futures = [backend.submit_task(t)
                       for t in traced_tasks(service4, cf_request, n=2)]
            outcomes = [f.result(timeout=60) for f in futures]
        (pid,) = assert_kernels_never_overlap(outcomes, 8)
        assert pid != os.getpid()

    def test_remote_servable_process(self, cf_adapter, parts4, cf_request):
        with RemoteServable.spawn(AccuracyTraderService, cf_adapter, parts4,
                                  config=CF_CONFIG, n_links=2) as remote:
            outcomes = run_threads(
                lambda _i: SequentialBackend().run_tasks(
                    traced_tasks(remote, cf_request)), 4)
        (pid,) = assert_kernels_never_overlap(
            [o for per_client in outcomes for o in per_client], 16)
        assert pid != os.getpid()


class TestStallsStillOverlap:
    """Four 150 ms stalls cost about one stall, not their sum."""

    def wall_of(self, fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def test_thread_pool(self, stalled4, cf_request):
        with ThreadPoolBackend(max_workers=4) as backend:
            wall = self.wall_of(lambda: backend.run_tasks(
                traced_tasks(stalled4, cf_request)))
        assert STALL_S <= wall < 2 * STALL_S

    def test_remote_backend_worker(self, stalled4, cf_request):
        with RemoteBackend(n_workers=1) as backend:
            backend.run_tasks(traced_tasks(stalled4, cf_request))  # publish
            wall = self.wall_of(lambda: backend.run_tasks(
                traced_tasks(stalled4, cf_request)))
        assert STALL_S <= wall < 2 * STALL_S

    def test_remote_servable_process(self, cf_adapter, parts4, cf_request):
        stall = IOStallAdapter(cf_adapter, synopsis_stall=STALL_S)
        with RemoteServable.spawn(AccuracyTraderService, stall, parts4[:1],
                                  config=CF_CONFIG, i_max=0,
                                  n_links=2) as remote:
            wall = self.wall_of(lambda: run_threads(
                lambda _i: SequentialBackend().run_tasks(
                    traced_tasks(remote, cf_request)), 4))
        assert STALL_S <= wall < 2 * STALL_S


class TestSlotIsReleased:
    def next_task_runs(self, service, request):
        with ThreadPoolBackend(max_workers=1) as backend:
            task = traced_tasks(service, request)[0]
            assert backend.submit_task(task).result(timeout=10) is not None

    def test_after_a_kernel_exception(self, service4, cf_request):
        class Boom(RuntimeError):
            pass

        class BrokenAdapter(IOStallAdapter):
            def initial_result(self, synopsis, request):
                raise Boom("kernel failed")

        task = traced_tasks(service4, cf_request)[0]
        task.adapter = BrokenAdapter(service4.adapter)
        with pytest.raises(Boom):
            run_component_task(task)
        self.next_task_runs(service4, cf_request)

    def test_after_a_stall_exception(self, service4, cf_request):
        stall = IOStallAdapter(service4.adapter, synopsis_stall=STALL_S)
        stall.synopsis_stall = -1.0     # time.sleep(-1) raises mid-stall
        task = traced_tasks(service4, cf_request)[0]
        task.adapter = stall
        with pytest.raises(ValueError):
            run_component_task(task)
        self.next_task_runs(service4, cf_request)


def test_concurrent_clients_match_sequential(service4, cf_request,
                                             fast_switching):
    """Under simulated clocks the slot changes when work runs, never what."""
    def serve(backend):
        resp = service4.serve(as_envelope(cf_request, 0.05),
                              clocks=sim_clocks(4), backend=backend)
        return [(r.groups_ranked, r.groups_processed, r.work_units)
                for r in resp.reports]

    expected = serve(SequentialBackend())
    with ThreadPoolBackend(max_workers=4) as backend:
        assert run_threads(lambda _i: serve(backend), 4) == [expected] * 4
