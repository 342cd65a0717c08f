"""Backend parity: parallel execution must not change a single bit.

The whole point of pluggable backends is that execution *placement* is
orthogonal to the algorithm: thread-pool and worker-process (remote)
backends must return bit-identical merged answers and equivalent
per-component ``ProcessingReport`` traces to the sequential reference,
for both paper services.  Simulated clocks make the traces
deterministic, so equality is exact, not approximate.
"""

from __future__ import annotations

import pytest

from repro.core.clock import SimulatedClock
from repro.serving.backends import (
    ComponentTask,
    SequentialBackend,
    ThreadPoolBackend,
    resolve_backend,
    run_component_task,
)
from repro.serving.transport import RemoteBackend
from tests.helpers import process

DEADLINE = 0.05
SPEED = 400.0  # work units / s: tight enough that the deadline bites


def run_service(service, request, backend):
    clocks = [SimulatedClock(speed=SPEED)
              for _ in range(service.n_components)]
    return process(service, request, DEADLINE, clocks=clocks, backend=backend)


def report_key(report):
    return (report.groups_ranked, report.groups_processed, report.work_units,
            report.synopsis_elapsed, report.total_elapsed, report.deadline,
            report.hit_deadline, report.hit_imax, report.exhausted)


@pytest.fixture(scope="module", params=["thread", "process"])
def parallel_backend(request):
    # "process": worker processes, the remote backend over localhost TCP.
    if request.param == "thread":
        backend = ThreadPoolBackend(max_workers=4)
    else:
        backend = RemoteBackend(n_workers=2)
    yield backend
    backend.close()


class TestCFParity:
    def test_answers_bit_identical(self, cf_serving_service, cf_request,
                                   parallel_backend):
        base, base_reports = run_service(cf_serving_service, cf_request,
                                         SequentialBackend())
        par, par_reports = run_service(cf_serving_service, cf_request,
                                       parallel_backend)
        assert par.active_mean == base.active_mean
        assert par.numer == base.numer
        assert par.denom == base.denom
        for item in cf_request.target_items:
            assert par.predict(item) == base.predict(item)
        assert [report_key(r) for r in par_reports] == \
            [report_key(r) for r in base_reports]

    def test_deadline_actually_bites(self, cf_serving_service, cf_request):
        # Guard: the parity above must cover the truncated-refinement path,
        # not just process-everything.
        _, reports = run_service(cf_serving_service, cf_request,
                                 SequentialBackend())
        assert any(r.hit_deadline for r in reports)


class TestSearchParity:
    def test_answers_bit_identical(self, search_serving_service, search_query,
                                   parallel_backend):
        base, base_reports = run_service(search_serving_service, search_query,
                                         SequentialBackend())
        par, par_reports = run_service(search_serving_service, search_query,
                                       parallel_backend)
        assert [(h.doc_id, h.score) for h in par] == \
            [(h.doc_id, h.score) for h in base]
        assert [report_key(r) for r in par_reports] == \
            [report_key(r) for r in base_reports]


class TestBackendMechanics:
    def test_outcomes_preserve_task_order(self, cf_serving_service,
                                          cf_request, parallel_backend):
        states = [cf_serving_service.component_state(c)
                  for c in range(cf_serving_service.n_components)]
        tasks = [
            ComponentTask(component=c, adapter=cf_serving_service.adapter,
                          partition=s.partition, synopsis=s.synopsis,
                          request=cf_request, deadline=DEADLINE,
                          clock=SimulatedClock(speed=SPEED))
            for c, s in enumerate(states)
        ]
        outcomes = parallel_backend.run_tasks(tasks)
        assert [o.component for o in outcomes] == list(range(len(tasks)))
        inline = [run_component_task(t) for t in tasks]
        # Clocks are stateful: inline re-execution reuses charged clocks,
        # so compare structure-only fields.
        assert [o.report.groups_ranked for o in outcomes] == \
            [o.report.groups_ranked for o in inline]

    def test_backend_reusable_across_requests(self, cf_serving_service,
                                              cf_request, parallel_backend):
        first, _ = run_service(cf_serving_service, cf_request,
                               parallel_backend)
        second, _ = run_service(cf_serving_service, cf_request,
                                parallel_backend)
        assert first.numer == second.numer

    def test_resolve_backend(self):
        assert resolve_backend(None).name == "sequential"
        assert resolve_backend("sequential").name == "sequential"
        assert resolve_backend("thread").name == "thread"
        assert resolve_backend("remote").name == "remote"
        for removed in ("process", "persistent"):
            with pytest.raises(ValueError):
                resolve_backend(removed)
        seq = SequentialBackend()
        assert resolve_backend(seq) is seq
        with pytest.raises(ValueError):
            resolve_backend("gpu")
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_submit_task_inline_on_sequential(self, cf_serving_service,
                                              cf_request):
        state = cf_serving_service.component_state(0)
        task = ComponentTask(component=0, adapter=cf_serving_service.adapter,
                             partition=state.partition,
                             synopsis=state.synopsis, request=cf_request,
                             deadline=DEADLINE,
                             clock=SimulatedClock(speed=SPEED))
        future = SequentialBackend().submit_task(task)
        assert future.done()  # inline: completed before returning
        outcome = future.result()
        assert outcome.component == 0
        inline = run_component_task(ComponentTask(
            component=0, adapter=cf_serving_service.adapter,
            partition=state.partition, synopsis=state.synopsis,
            request=cf_request, deadline=DEADLINE,
            clock=SimulatedClock(speed=SPEED)))
        assert outcome.report.groups_ranked == inline.report.groups_ranked

    def test_submit_task_carries_exceptions(self, cf_serving_service,
                                            cf_request):
        state = cf_serving_service.component_state(0)
        bad = ComponentTask(component=0, adapter=cf_serving_service.adapter,
                            partition=state.partition,
                            synopsis=state.synopsis, request=cf_request,
                            deadline=-1.0,  # rejected by the processor
                            clock=SimulatedClock(speed=SPEED))
        future = SequentialBackend().submit_task(bad)
        assert isinstance(future.exception(), ValueError)

    def test_submit_task_matches_run_tasks(self, cf_serving_service,
                                           cf_request, parallel_backend):
        states = [cf_serving_service.component_state(c)
                  for c in range(cf_serving_service.n_components)]

        def make_tasks():
            return [
                ComponentTask(component=c,
                              adapter=cf_serving_service.adapter,
                              partition=s.partition, synopsis=s.synopsis,
                              request=cf_request, deadline=DEADLINE,
                              clock=SimulatedClock(speed=SPEED))
                for c, s in enumerate(states)
            ]

        futures = [parallel_backend.submit_task(t) for t in make_tasks()]
        submitted = [f.result() for f in futures]
        ran = parallel_backend.run_tasks(make_tasks())
        assert [o.report.groups_ranked for o in submitted] == \
            [o.report.groups_ranked for o in ran]

    def test_queued_task_cancellable(self, cf_serving_service, cf_request):
        # One worker: the first (stalling) task occupies it, so the
        # second is still queued and must be cancellable — the property
        # the router's tied-request cancellation relies on.
        from repro.serving.adapters import IOStallAdapter

        state = cf_serving_service.component_state(0)
        stall_adapter = IOStallAdapter(cf_serving_service.adapter,
                                       synopsis_stall=0.2)

        def task(adapter):
            return ComponentTask(component=0, adapter=adapter,
                                 partition=state.partition,
                                 synopsis=state.synopsis,
                                 request=cf_request, deadline=10.0,
                                 clock=SimulatedClock(speed=SPEED))

        with ThreadPoolBackend(max_workers=1) as backend:
            running = backend.submit_task(task(stall_adapter))
            queued = backend.submit_task(task(cf_serving_service.adapter))
            assert queued.cancel()          # still queued: cancellable
            assert not running.cancel()     # already running: completes
            assert running.result().component == 0
        assert queued.cancelled()

    def test_service_accepts_backend_name(self, small_ratings, cf_adapter,
                                          cf_request):
        from repro.core.builder import SynopsisConfig
        from repro.core.service import AccuracyTraderService
        from repro.workloads.partitioning import split_ratings

        svc = AccuracyTraderService(
            cf_adapter, split_ratings(small_ratings.matrix, 2),
            config=SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7),
            backend="thread")
        try:
            answer, reports = process(svc, cf_request, deadline=10.0)
            assert len(reports) == 2
            exact = svc.exact(cf_request)
            for item in cf_request.target_items:
                assert answer.predict(item) == pytest.approx(exact.predict(item))
        finally:
            svc.backend.close()
