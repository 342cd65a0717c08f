"""Async serving tier: one event loop holding thousands of requests.

The thread-pool tier (PR 1/2) costs one blocked OS thread per in-flight
request: ``ThreadPoolBackend`` tops out at ``max_concurrency`` threads,
far short of the ROADMAP's "heavy traffic from millions of users".  This
module rebuilds the serving path on an event loop:

- :func:`aprocess_component` — the async mirror of Algorithm 1
  (:func:`repro.core.processor.process_component`): identical control
  flow, deadline checks, and reports, but the per-operation storage /
  network stalls of an *async-native* adapter are awaited on the loop
  instead of slept in a thread.  Refinement is cancellable mid-await;
  a cancelled execution still finalizes the groups processed so far
  (``report.cancelled``) — a best-so-far answer, never a dropped one.
- :class:`AsyncStallAdapter` — the async-native twin of
  :class:`~repro.serving.adapters.IOStallAdapter`: same stalls, same
  results, but stalls are ``await asyncio.sleep`` for async execution
  (the sync entry points still block, so the same adapter instance runs
  on any backend — which is what the async benchmark compares).
- :class:`AsyncExecutionBackend` — an :class:`~repro.serving.backends.
  ExecutionBackend` over an event loop.  Async-native component work is
  awaited directly; plain CPU work is offloaded to a thread pool via
  ``run_in_executor``.  The sync ``run_tasks`` / ``submit_task``
  contract is served by a lazily-started dedicated loop thread, so the
  backend drops into every existing ``Servable`` unchanged; the async
  ``arun_tasks`` path runs on the caller's loop.  ``cancel_grace``
  wires per-task cancellation to the task's deadline budget.
- :class:`AsyncServingHarness` — drives open- and closed-loop loads
  with one coroutine per request (open loop optionally behind an
  :class:`~repro.serving.admission.AdmissionController`).  It shares
  the thread harness's core — construction, "request" spans and the
  per-run recorder that builds
  :class:`~repro.serving.harness.ServingRunStats` — and adds only its
  pacing and the shed / queue-depth counters.

Where the thread tier's hedged routing can only ``Future.cancel`` a
*queued* losing copy, the async tier cancels a *running* one: the
loser's next ``await`` raises ``CancelledError`` and its stalls stop
occupying anything (see ``ShardedService.aprocess``).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.clock import ClockFactory, DeadlineClock, WallClock, \
    monotonic
from repro.core.processor import ProcessingReport, effective_i_max
from repro.serving.adapters import IOStallAdapter
from repro.serving.admission import AdmissionController
from repro.serving.backends import ComponentOutcome, ComponentTask, \
    ExecutionBackend, _task_recorder, run_component_task, stamp_envelope, \
    submit_all
from repro.serving.harness import ServingRunStats, _HarnessCore
from repro.serving.loadgen import ClosedLoopLoad, OpenLoopLoad
from repro.serving.telemetry import get_tracer, trace_context_of

__all__ = [
    "is_async_adapter",
    "AsyncStallAdapter",
    "aprocess_component",
    "arun_component_task",
    "arun_tasks",
    "AsyncExecutionBackend",
    "AsyncServingHarness",
]


def is_async_adapter(adapter) -> bool:
    """Whether ``adapter`` exposes the async online hooks.

    An async-native adapter provides awaitable twins of the two online
    operations — ``ainitial_result`` and ``arefine`` — whose *results*
    must match the sync versions (only the waiting differs).
    """
    return hasattr(adapter, "ainitial_result") and hasattr(adapter, "arefine")


class AsyncStallAdapter(IOStallAdapter):
    """``IOStallAdapter`` whose stalls can be awaited on an event loop.

    The sync entry points (inherited) still ``time.sleep``, so one
    instance serves every backend: a thread backend blocks a worker per
    stall, the async backend parks a coroutine — identical answers,
    wildly different concurrency ceilings.
    """

    async def ainitial_result(self, synopsis, request):
        if self.synopsis_stall:
            await asyncio.sleep(self.synopsis_stall)
        return self.inner.initial_result(synopsis, request)

    async def arefine(self, partition, synopsis, group_id: int, request,
                      state):
        if self.group_stall:
            await asyncio.sleep(self.group_stall)
        return self.inner.refine(partition, synopsis, group_id, request,
                                 state)


# ---------------------------------------------------------------------------
# Async Algorithm 1
# ---------------------------------------------------------------------------


async def aprocess_component(adapter, partition, synopsis, request,
                             deadline: float,
                             clock: DeadlineClock | None = None,
                             i_max: int | None = None,
                             i_max_fraction: float | None = None,
                             start_time: float | None = None,
                             hard_deadline: float | None = None,
                             ) -> tuple[Any, ProcessingReport]:
    """Async mirror of :func:`repro.core.processor.process_component`.

    Control flow, deadline accounting, and the returned report are
    identical to the sync processor — with a simulated clock the two
    produce bit-identical results.  The adapter must be async-native
    (:func:`is_async_adapter`); its stalls are awaited on the loop.

    Cancellation semantics:

    - Stage 1 (synopsis) always completes — the component must produce
      *some* result (paper §2.3), so external cancellation is only
      delivered at refinement awaits.
    - ``hard_deadline`` (wall seconds from execution start) arms a
      watchdog that cancels refinement mid-await once the budget is
      spent; the execution then finalizes from the groups refined so
      far, with ``report.cancelled`` and ``report.hit_deadline`` set.
      This is what bounds a wall-clock deadline for real: the sync path
      can only *check* the clock between stalls, the async path
      interrupts the stall itself.
    - External cancellation (e.g. a hedged loser) propagates as normal
      ``CancelledError`` after the in-flight refinement is reaped.
    """
    if deadline < 0:
        raise ValueError("deadline must be non-negative")
    clock = clock if clock is not None else WallClock()
    t_submit = clock.now() if start_time is None else float(start_time)

    report = ProcessingReport(deadline=deadline)
    t_begin = clock.now()
    t_wall0 = monotonic()

    # Stage 1: initial result + correlations from the synopsis.
    syn_work = adapter.synopsis_work(synopsis)
    state, correlations = await adapter.ainitial_result(synopsis, request)
    clock.charge(syn_work)
    report.work_units += syn_work
    report.synopsis_elapsed = clock.now() - t_begin

    # Stage 2: rank groups by correlation, refine best-first.
    order = np.argsort(-np.asarray(correlations), kind="stable")
    report.groups_ranked = order.tolist()
    cap = effective_i_max(synopsis.n_aggregated, i_max, i_max_fraction)
    i = 0

    async def refine_loop() -> None:
        nonlocal state, i
        while True:
            if i >= len(report.groups_ranked):
                report.exhausted = True
                return
            if i >= cap:
                report.hit_imax = True
                return
            if clock.now() - t_submit >= deadline:
                report.hit_deadline = True
                return
            g = report.groups_ranked[i]
            work = adapter.group_work(synopsis, g)
            # ``state`` only advances once a refinement *completes*:
            # cancellation mid-await leaves the last consistent state.
            state = await adapter.arefine(partition, synopsis, g, request,
                                          state)
            clock.charge(work)
            report.work_units += work
            report.refine_calls += 1
            i += 1

    if hard_deadline is None:
        await refine_loop()
    else:
        inner = asyncio.ensure_future(refine_loop())
        remaining = hard_deadline - (monotonic() - t_wall0)
        try:
            done, _ = await asyncio.wait({inner},
                                         timeout=max(0.0, remaining))
        except asyncio.CancelledError:
            inner.cancel()
            await asyncio.gather(inner, return_exceptions=True)
            raise
        if not done:
            inner.cancel()
            await asyncio.gather(inner, return_exceptions=True)
            report.cancelled = True
            report.hit_deadline = True
        else:
            inner.result()  # propagate refinement exceptions

    report.groups_processed = i
    report.total_elapsed = clock.now() - t_begin
    result = adapter.finalize(state, request)
    return result, report


async def arun_component_task(task: ComponentTask,
                              hard_deadline: float | None = None,
                              ) -> ComponentOutcome:
    """Execute one :class:`ComponentTask` natively on the event loop.

    Epoch references resolve exactly as on the sync path: the task's
    pinned dispatch-time snapshot, never a newer or torn state.
    Sampled tasks record the same ``state.fetch`` / ``kernel`` spans as
    :func:`~repro.serving.backends.run_component_task`, piggybacked on
    the outcome.
    """
    rec = _task_recorder(task)
    if rec is None:
        partition, synopsis = task.resolve_state()
        result, report = await aprocess_component(
            task.adapter, partition, synopsis, task.request,
            task.deadline, clock=task.clock,
            i_max=task.i_max, i_max_fraction=task.i_max_fraction,
            start_time=task.start_time, hard_deadline=hard_deadline)
        spans = None
    else:
        with rec.span("state.fetch", component=task.component) as fetch:
            partition, synopsis = task.resolve_state()
            if task.state_ref is not None:
                fetch.tag(epoch=task.state_ref.epoch)
        with rec.span("kernel", component=task.component) as kernel:
            result, report = await aprocess_component(
                task.adapter, partition, synopsis, task.request,
                task.deadline, clock=task.clock,
                i_max=task.i_max, i_max_fraction=task.i_max_fraction,
                start_time=task.start_time, hard_deadline=hard_deadline)
            kernel.tag(groups_processed=report.groups_processed,
                       refine_calls=report.refine_calls,
                       work_units=report.work_units)
        spans = tuple(rec.spans)
    if task.state_ref is not None:
        report.state_epoch = task.state_ref.epoch
    stamp_envelope(report, task)
    return ComponentOutcome(component=task.component, result=result,
                            report=report, spans=spans)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class AsyncExecutionBackend(ExecutionBackend):
    """Event-loop execution backend.

    Async-native adapters run as coroutines on the loop (stalls awaited,
    never a blocked thread); plain adapters are offloaded to a bounded
    CPU thread pool via ``run_in_executor``.  Both entry styles of the
    :class:`ExecutionBackend` contract are served:

    - the **async** path (:meth:`arun_task` / :meth:`arun_tasks`) runs
      on the *caller's* loop — this is what ``Servable.aprocess`` and
      the :class:`AsyncServingHarness` use;
    - the **sync** path (:meth:`run_tasks` / :meth:`submit_task`)
      bridges onto a lazily-started dedicated loop thread, so the
      backend also drops into the thread harness, the sync router, and
      plain ``service.process`` calls unchanged.  The futures
      :meth:`submit_task` returns cancel the underlying coroutine —
      unlike a thread future, cancellation lands even after the task
      started running (at its next await).

    Parameters
    ----------
    max_workers:
        CPU-offload pool size for non-async-native tasks.
    cancel_grace:
        When set, arms per-task deadline cancellation for async-native
        tasks: a task is cancelled mid-await once ``deadline *
        cancel_grace`` wall seconds elapse, finalizing its best-so-far
        result (see :func:`aprocess_component`).  ``None`` (default)
        disables the watchdog — deadline checks then happen between
        awaits, exactly like the sync tier.
    """

    name = "async"

    def __init__(self, max_workers: int | None = None,
                 cancel_grace: float | None = None):
        if cancel_grace is not None and cancel_grace <= 0:
            raise ValueError("cancel_grace must be positive")
        self.max_workers = max_workers
        self.cancel_grace = cancel_grace
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._cpu_pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self.tasks_cancelled = 0

    # -- async contract -------------------------------------------------

    async def arun_task(self, task: ComponentTask) -> ComponentOutcome:
        """Execute one task on the current loop."""
        ctx = trace_context_of(getattr(task, "envelope", None))
        t0 = monotonic() if ctx is not None and ctx.sampled else 0.0
        if is_async_adapter(task.adapter):
            hard = (None if self.cancel_grace is None
                    else task.deadline * self.cancel_grace)
            outcome = await arun_component_task(task, hard_deadline=hard)
            if outcome.report.cancelled:
                with self._lock:
                    self.tasks_cancelled += 1
            native = True
        else:
            loop = asyncio.get_running_loop()
            outcome = await loop.run_in_executor(self._ensure_cpu_pool(),
                                                 run_component_task, task)
            native = False
        if ctx is not None and ctx.sampled:
            get_tracer().record("async.dispatch", ctx, t0, monotonic(),
                                component=task.component,
                                async_native=native)
        return outcome

    async def arun_tasks(self, tasks: Sequence[ComponentTask],
                         ) -> list[ComponentOutcome]:
        """Execute ``tasks`` concurrently on the current loop, in order.

        Hook tasks go to their owner straight from the loop thread and
        their futures are awaited — no executor thread parks on an RPC.
        """
        outcomes = list(await asyncio.gather(*map(
            asyncio.wrap_future, submit_all(
                tasks, lambda t: asyncio.ensure_future(self.arun_task(t))))))
        get_tracer().ingest_outcomes(outcomes)
        return outcomes

    # -- sync contract (bridged through an owned loop thread) -----------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._thread = threading.Thread(
                    target=self._loop.run_forever,
                    name="repro-aio-loop", daemon=True)
                self._thread.start()
            return self._loop

    def _ensure_cpu_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._cpu_pool is None:
                self._cpu_pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-aio-cpu")
            return self._cpu_pool

    def run_tasks(self, tasks: Sequence[ComponentTask],
                  ) -> list[ComponentOutcome]:
        return asyncio.run_coroutine_threadsafe(
            self.arun_tasks(list(tasks)), self._ensure_loop()).result()

    def _submit_plain(self, task: ComponentTask) -> "Future[ComponentOutcome]":
        return asyncio.run_coroutine_threadsafe(self.arun_task(task),
                                                self._ensure_loop())

    def close(self) -> None:
        with self._lock:
            loop, thread = self._loop, self._thread
            pool = self._cpu_pool
            self._loop = self._thread = self._cpu_pool = None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join()
            loop.close()
        if pool is not None:
            pool.shutdown(wait=True)


async def arun_tasks(backend, tasks: Sequence[ComponentTask],
                     ) -> list[ComponentOutcome]:
    """Await ``tasks`` on any :class:`ExecutionBackend`.

    The bridge every ``aprocess`` implementation uses: an
    :class:`AsyncExecutionBackend` runs the tasks natively on the
    caller's loop; any other backend executes its blocking ``run_tasks``
    in an executor so the loop never stalls (at the cost of exactly the
    blocked thread the async tier exists to avoid).
    """
    if isinstance(backend, AsyncExecutionBackend):
        return await backend.arun_tasks(tasks)
    loop = asyncio.get_running_loop()
    outcomes = await loop.run_in_executor(None, backend.run_tasks,
                                          list(tasks))
    get_tracer().ingest_outcomes(outcomes)
    return outcomes


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


class AsyncServingHarness(_HarnessCore):
    """Serve request streams as coroutines — one per in-flight request.

    Mirrors :class:`~repro.serving.harness.ServingHarness` for the async
    path: the same open- and closed-loop loads, the same deadline /
    clock-factory knobs, the same :class:`ServingRunStats` out — but
    in-flight requests are coroutines, so thousands ride one loop where
    the thread harness is capped at ``max_concurrency`` workers (open
    loop) or at one OS thread per client (closed loop).  An optional
    :class:`~repro.serving.admission.AdmissionController` bounds what
    the loop accepts; shed requests get ``None`` answers, and the shed /
    queue-depth / in-flight counters land in the stats.

    Parameters
    ----------
    service:
        Any :class:`~repro.core.servable.Servable` (its ``aserve`` is
        driven).
    deadline, backend, clock_factory:
        As in :class:`~repro.serving.harness.ServingHarness`.
    admission:
        Optional admission controller; without one the loop accepts the
        entire trace concurrently.
    """

    def __init__(self, service, deadline: float,
                 backend: ExecutionBackend | str | None = None,
                 clock_factory: ClockFactory | None = None,
                 admission: AdmissionController | None = None):
        super().__init__(service, deadline, backend, clock_factory)
        self.admission = admission

    # ------------------------------------------------------------------

    def run_open_loop(self, load: OpenLoopLoad,
                      updates: Sequence[tuple[float, Callable]] | None = None,
                      ) -> ServingRunStats:
        """Sync entry point: runs :meth:`arun_open_loop` on a fresh loop."""
        return asyncio.run(self.arun_open_loop(load, updates))

    async def arun_open_loop(
            self, load: OpenLoopLoad,
            updates: Sequence[tuple[float, Callable]] | None = None,
    ) -> ServingRunStats:
        """Serve an open-loop stream; one self-pacing coroutine per request.

        ``updates`` follows the thread harness's schedule contract:
        each ``(at_seconds, fn)`` runs ``fn(service)`` once ``at``
        seconds of stream time elapse — in an executor, since synopsis
        rebuilds block — with results (or exceptions) recorded in
        ``update_log``.
        """
        loop = asyncio.get_running_loop()
        adm = self.admission
        if adm is not None:
            adm.reset_watermarks()  # report run-local peaks, not lifetime
            shed0 = (adm.stats().shed, dict(adm.stats().shed_reasons))
        rec = self._recorder(load, loop.time)

        async def apply_updates() -> None:
            for at, fn in sorted(updates, key=lambda p: p[0]):
                delay = rec.t0 + at - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                await loop.run_in_executor(None, rec.apply_update, at, fn)

        async def serve(i: int) -> None:
            scheduled = rec.t0 + float(load.arrivals[i])
            delay = scheduled - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # The "request" span is the trace root's first child and
            # covers admission queueing and the service call alike.
            with self._request_span(rec.envelopes[i]) as (env, sp):
                if adm is not None:
                    waited = max(0.0, loop.time() - scheduled)
                    reason = await adm.acquire(waited=waited, request=env)
                    if reason is not None:
                        sp.tag(outcome=f"shed:{reason}")
                        return  # shed: no slot held, answer stays None
                t_dispatch = loop.time()
                try:
                    with rec.in_flight():
                        resp = await self.service.aserve(
                            env, clocks=self._clocks(), backend=self.backend)
                finally:
                    if adm is not None:
                        adm.release()
            rec.record(i, resp, loop.time() - scheduled,
                       max(0.0, t_dispatch - scheduled))

        updater = (asyncio.ensure_future(apply_updates())
                   if updates else None)
        try:
            await asyncio.gather(*(serve(i) for i in range(load.n_requests)))
        finally:
            if updater is not None:
                updater.cancel()
                await asyncio.gather(updater, return_exceptions=True)

        stats = rec.stats()
        stats.offered = load.n_requests
        if adm is not None:
            a = adm.stats()
            stats.shed = a.shed - shed0[0]
            stats.shed_reasons = {
                k: v - shed0[1].get(k, 0)
                for k, v in a.shed_reasons.items()
                if v - shed0[1].get(k, 0) > 0}
            stats.queue_depth_max = a.queue_depth_max
        return stats

    # ------------------------------------------------------------------

    def run_closed_loop(self, load: ClosedLoopLoad) -> ServingRunStats:
        """Sync entry point: runs :meth:`arun_closed_loop` on a fresh loop."""
        return asyncio.run(self.arun_closed_loop(load))

    async def arun_closed_loop(self, load: ClosedLoopLoad) -> ServingRunStats:
        """Serve a closed-loop population of ``load.n_clients`` coroutines.

        The async mirror of :meth:`~repro.serving.harness.ServingHarness.
        run_closed_loop`: each client coroutine repeatedly claims the
        next request in index order, awaits its answer, records
        issue-to-completion latency, then thinks (``asyncio.sleep``) —
        but a client in think or await costs a parked coroutine, not a
        blocked thread, so populations of thousands ride one loop.
        Admission control does not apply: a closed loop is
        self-limiting at ``n_clients`` in-flight requests by
        construction.
        """
        loop = asyncio.get_running_loop()
        rec = self._recorder(load, loop.time)

        async def client() -> None:
            while (i := rec.claim()) is not None:
                issued = loop.time()
                with rec.in_flight(), \
                        self._request_span(rec.envelopes[i]) as (env, _):
                    resp = await self.service.aserve(
                        env, clocks=self._clocks(), backend=self.backend)
                latency = loop.time() - issued
                # Closed-loop clients dispatch immediately: the queue
                # part of the latency is what the stack spent outside
                # the service call proper (backend queueing).
                rec.record(i, resp, latency,
                           max(0.0, latency - resp.service_time))
                think = float(load.think_times[i])
                if think > 0:
                    await asyncio.sleep(think)

        await asyncio.gather(*(client() for _ in range(
            min(load.n_clients, load.n_requests) or 1)))
        return rec.stats()
