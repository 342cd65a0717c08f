"""Pluggable per-component execution backends for the serving layer.

An n-component request fans out n independent sub-operations (Algorithm 1
runs per component); an :class:`ExecutionBackend` decides *where* those
sub-operations run:

- :class:`SequentialBackend` — inline, one after another.  The reference
  semantics; also the fastest choice for tiny components where dispatch
  overhead dominates.
- :class:`ThreadPoolBackend` — a shared :class:`~concurrent.futures.
  ThreadPoolExecutor`.  Overlaps per-component blocking time (storage /
  network stalls, GIL-releasing numpy kernels); the right default for a
  live service whose components do I/O.
- :class:`BatchingBackend` — wraps any backend and coalesces
  same-``(component, epoch)`` tasks into one batched submission.

The one out-of-process backend is :class:`~repro.serving.transport.
RemoteBackend` (``resolve_backend("remote")``): worker processes over
localhost TCP, each task a small frame holding a detached
:class:`~repro.core.state.StateRef`, snapshots shipped at most once per
epoch per worker (as deltas where possible).

At most one Algorithm-1 kernel runs per interpreter (:mod:`repro.core.
slot`, held at the one execution choke point below): thread pools
overlap stalls and I/O, worker processes add CPU parallelism.

All backends consume :class:`ComponentTask` values and return
:class:`ComponentOutcome` values in task order.  A task references its
component's state by a pinned ``(component, epoch)``
:class:`~repro.core.state.StateRef` into the service's
:class:`~repro.core.state.StateStore` (inline ``partition`` /
``synopsis`` fields remain supported for hand-built tasks).  In-process
backends resolve the ref at execution time — the dispatch-time epoch,
never a torn or newer state — which is what makes concurrent synopsis
updates safe; the remote backend decides *how* the referenced state
crosses the process boundary, which is what
:meth:`ExecutionBackend.payload_counters` measures.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.clock import DeadlineClock, monotonic
from repro.core.processor import ProcessingReport, process_component_batch
from repro.core.slot import KERNEL_SLOT
from repro.core.state import StateRef
from repro.serving.telemetry import (MetricsRegistry, SpanRecorder,
                                     get_tracer, trace_context_of)

__all__ = [
    "ComponentTask",
    "ComponentOutcome",
    "ExecutionBackend",
    "SequentialBackend",
    "ThreadPoolBackend",
    "BatchingBackend",
    "resolve_backend",
    "run_component_task",
    "run_component_batch",
    "stamp_envelope",
    "submit_all",
]


@dataclass
class ComponentTask:
    """One component's share of one request.

    State travels by reference: ``state_ref`` names an immutable
    published snapshot by ``(store, component, epoch)`` and pins it, so
    executing the task at any later time — on any backend, concurrently
    with updates — always computes against the dispatch-time state.
    Hand-built tasks may instead inline ``partition`` / ``synopsis``
    directly; both are immutable references, never mutated by execution.

    Envelope identity travels with the task: ``envelope`` is the
    *detached* (payload-free) :class:`~repro.serving.envelope.
    ServingRequest` the task belongs to — ``request`` already carries
    the payload, so crossing a process boundary never serialises it
    twice.  Every backend's execution path stamps the envelope's
    ``request_id`` / ``request_class`` into the outcome's report
    (``None`` envelope for bare-payload tasks).

    A task crosses a process boundary only through
    :class:`~repro.serving.transport.RemoteBackend`, which detaches the
    ref first: only its identity triple travels per task, and the
    snapshot reaches the worker at most once per epoch.  A task holding
    a *live* ref does not pickle (the store holds a lock), so state is
    never copied into a payload by accident.
    """

    component: int
    adapter: Any
    request: Any
    deadline: float
    partition: Any = None
    synopsis: Any = None
    state_ref: StateRef | None = None
    clock: DeadlineClock | None = None
    i_max: int | None = None
    i_max_fraction: float | None = None
    start_time: float | None = None
    envelope: Any = None
    # Submit hook: when set, the task's *owner* executes it, not a
    # backend — ``submit(tasks) -> futures`` is non-blocking and takes
    # every consecutive task sharing the hook at once (a remote servable
    # ships one shard copy's components as one frame).  Backends hand
    # hook tasks over through :func:`submit_all`; hooks are
    # process-local, so a hook task must not be pickled.
    submit: Any = None

    def resolve_state(self) -> tuple[Any, Any]:
        """The ``(partition, synopsis)`` this task must execute against.

        Inline state wins when present (a materialised task keeps its
        detached ref purely as epoch identity); otherwise the ref
        resolves through the store — the dispatch-time epoch.
        """
        if self.partition is not None or self.synopsis is not None:
            return self.partition, self.synopsis
        if self.state_ref is not None:
            state = self.state_ref.resolve()
            return state.partition, state.synopsis
        return self.partition, self.synopsis


@dataclass
class ComponentOutcome:
    """Result of executing one :class:`ComponentTask`.

    ``spans`` piggybacks the executing side's trace spans (epoch fetch,
    kernel time) back to the dispatching process — the return leg of
    cross-process trace stitching.  ``None`` for unsampled requests, so
    the untraced outcome pickles exactly as small as before.  Excluded
    from equality: observability never changes what an outcome *is*.
    """

    component: int
    result: Any
    report: ProcessingReport
    spans: tuple = field(default=None, compare=False, repr=False)


def stamp_envelope(report: ProcessingReport, task: ComponentTask) -> None:
    """Record the task's envelope identity (id, class) on its report."""
    if task.envelope is not None:
        report.request_id = task.envelope.request_id
        report.request_class = task.envelope.request_class.value


def _task_recorder(task: ComponentTask) -> SpanRecorder | None:
    """A span recorder for the task's trace, or ``None`` when unsampled.

    The trace context rides the detached envelope, so this works
    identically in the dispatching process and in any worker process
    the task was pickled into.
    """
    if task.envelope is None:
        return None
    ctx = trace_context_of(task.envelope)
    if ctx is None or not ctx.sampled:
        return None
    return SpanRecorder(ctx)


def _resolve_task_state(task: ComponentTask,
                        rec: SpanRecorder | None) -> tuple[Any, Any]:
    """The task's ``(partition, synopsis)``, resolved under a
    ``state.fetch`` span when the task is sampled."""
    if rec is None:
        return task.resolve_state()
    with rec.span("state.fetch", component=task.component) as fetch:
        state = task.resolve_state()
        if task.state_ref is not None:
            fetch.tag(epoch=task.state_ref.epoch)
    return state


def _task_outcome(task: ComponentTask, rec: SpanRecorder | None, result,
                  report: ProcessingReport, t0: float, t1: float,
                  batch_size: int = 1) -> ComponentOutcome:
    """Stamp the task's epoch and envelope on ``report``, record its
    ``kernel`` span over ``[t0, t1]`` when sampled, and build the outcome.

    A kernel pass serving a batch covers every member's span, each
    tagged with the ``batch_size`` it shared.
    """
    if task.state_ref is not None:
        report.state_epoch = task.state_ref.epoch
    stamp_envelope(report, task)
    spans = None
    if rec is not None:
        kernel = rec.span("kernel", component=task.component,
                          batch_size=batch_size,
                          groups_processed=report.groups_processed,
                          refine_calls=report.refine_calls,
                          work_units=report.work_units)
        kernel.span.start = t0
        kernel.finish(end=t1)
        spans = tuple(rec.spans)
    return ComponentOutcome(component=task.component, result=result,
                            report=report, spans=spans)


def run_component_task(task: ComponentTask) -> ComponentOutcome:
    """Execute one task inside the process's kernel slot, where its
    deadline clock starts: a batch of one."""
    return run_component_batch([task])[0]


def run_component_batch(tasks: Sequence[ComponentTask]) -> list[ComponentOutcome]:
    """Execute several tasks, micro-batching same-state groups.

    Tasks sharing an ``(adapter, partition, synopsis, i_max)`` identity
    run through :func:`repro.core.processor.process_component_batch` —
    one vectorized stage-1 pass for the group (a group of one is plain
    :func:`~repro.core.processor.process_component`).  Outcomes come
    back in task order, bit-identical to per-task runs under
    deterministic clocks.  The whole batch runs inside one hold of the
    kernel slot.

    Grouping keys on object identity, which holds in a remote worker
    because its epoch cache hands every same-epoch task the same
    resolved snapshot object.
    """
    outcomes: list[ComponentOutcome | None] = [None] * len(tasks)
    groups: dict[tuple, list] = {}
    with KERNEL_SLOT:
        for i, task in enumerate(tasks):
            rec = _task_recorder(task)
            partition, synopsis = _resolve_task_state(task, rec)
            key = (id(task.adapter), id(partition), id(synopsis),
                   task.i_max, task.i_max_fraction)
            groups.setdefault(key, []).append(
                (i, task, partition, synopsis, rec))
        for entries in groups.values():
            _, first, partition, synopsis, _ = entries[0]
            t_batch0 = monotonic()
            pairs = process_component_batch(
                first.adapter, partition, synopsis,
                [t.request for _, t, _, _, _ in entries],
                [t.deadline for _, t, _, _, _ in entries],
                clocks=[t.clock for _, t, _, _, _ in entries],
                i_max=first.i_max, i_max_fraction=first.i_max_fraction,
                start_times=[t.start_time for _, t, _, _, _ in entries],
            )
            t_batch1 = monotonic()
            for (i, task, _, _, rec), (result, report) in zip(entries, pairs):
                outcomes[i] = _task_outcome(task, rec, result, report,
                                            t_batch0, t_batch1, len(entries))
    return outcomes  # type: ignore[return-value]


def _scatter_batch_future(batch_future: Future, count: int,
                          make_future=Future) -> list[Future]:
    """Fan one batch future out into per-task outcome futures."""
    futures = [make_future() for _ in range(count)]
    for f in futures:
        f.set_running_or_notify_cancel()

    def _done(bf: Future) -> None:
        try:
            outcomes = bf.result()
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            for f in futures:
                f.set_exception(exc)
        else:
            for f, outcome in zip(futures, outcomes):
                f.set_result(outcome)

    batch_future.add_done_callback(_done)
    return futures


def submit_all(tasks: Sequence[ComponentTask], submit_plain) -> list:
    """Dispatch ``tasks``; the one place hook tasks are told apart.

    Each run of consecutive tasks sharing a submit hook goes to it as
    one non-blocking call (one shard copy, one frame), all of them
    *before* the first plain task reaches ``submit_plain`` — which may
    execute inline — so remote copies compute while local work runs.
    Returns, per task, the hook's future or ``submit_plain(task)``.
    """
    tasks = list(tasks)
    out: list = [None] * len(tasks)
    try:
        i = 0
        while i < len(tasks):
            hook, j = tasks[i].submit, i + 1
            if hook is not None:
                while j < len(tasks) and tasks[j].submit == hook:
                    j += 1
                out[i:j] = hook(tasks[i:j])
            i = j
        for i, task in enumerate(tasks):
            if task.submit is None:
                out[i] = submit_plain(task)
        return out
    except BaseException:
        _abandon(out)
        raise


def _abandon(results) -> None:
    """Cancel what is still pending: queued copies, in-flight RPCs."""
    for r in results:
        if isinstance(r, Future):
            r.cancel()


def _gather(results) -> list[ComponentOutcome]:
    """Outcomes of :func:`submit_all` results; one failure abandons the rest."""
    try:
        return [r.result() if isinstance(r, Future) else r for r in results]
    except BaseException:
        _abandon(results)
        raise


class ExecutionBackend:
    """Strategy for executing a request's per-component tasks.

    Subclasses implement :meth:`_submit_plain`; the public entry points
    hand hook tasks to their owner first (:func:`submit_all`).
    """

    name: str = "abstract"

    @property
    def metrics(self) -> MetricsRegistry:
        """This backend's metrics registry (created lazily).

        The payload accounting counters live here;
        :meth:`payload_counters` is a registry read with the historical
        dict shape, so the registry is the single source of truth while
        every existing consumer keeps seeing bit-identical values.
        """
        registry = self.__dict__.get("_metrics_registry")
        if registry is None:
            registry = self.__dict__.setdefault("_metrics_registry",
                                                MetricsRegistry())
        return registry

    def run_tasks(self, tasks: Sequence[ComponentTask]) -> list[ComponentOutcome]:
        """Execute ``tasks`` and return their outcomes *in task order*."""
        return _gather(self.submit_tasks(tasks))

    def submit_tasks(self, tasks: Sequence[ComponentTask]) -> list[Future]:
        """Submit ``tasks`` (one shard copy, say); one future per task."""
        # Through the public submit_task: wrappers override that one.
        return submit_all(tasks, self.submit_task)

    def submit_task(self, task: ComponentTask) -> "Future[ComponentOutcome]":
        """Submit one task, returning a future for its outcome.

        The futures interface is what the router tier's hedged dispatch
        needs: it watches per-shard completion, re-issues stragglers, and
        cancels the losing copy — :meth:`Future.cancel` only takes effect
        while the task is still queued, which is exactly Dean & Barroso's
        tied-request semantics (an in-service copy runs to completion).
        """
        return submit_all([task], self._submit_plain)[0]

    def _submit_plain(self, task: ComponentTask) -> "Future[ComponentOutcome]":
        """Submit one hook-less task.  The base implementation executes
        inline and returns an already-completed future, so backends
        without queues (sequential) still satisfy the interface — their
        local tasks simply can never hedge."""
        future: Future = Future()
        if future.set_running_or_notify_cancel():
            try:
                future.set_result(run_component_task(task))
            except BaseException as exc:  # noqa: BLE001 - future carries it
                future.set_exception(exc)
        return future

    def submit_batch(self, tasks: Sequence[ComponentTask]) -> list[Future]:
        """Submit a coalesced batch, returning one future per task.

        Backends that can amortise a submission hop across the batch —
        one pool submit, one pickle of the whole list — override this;
        the base implementation degrades to per-task submission, so a
        batch is never *worse* than unbatched dispatch.  Outcomes are
        bit-identical to per-task submission either way.
        """
        return self.submit_tasks(tasks)

    def payload_counters(self) -> dict:
        """Cumulative serialized-payload accounting (thread-safe snapshot).

        - ``task_bytes`` — serialized task payloads shipped to workers;
        - ``state_bytes`` — state snapshots shipped separately from
          tasks (the remote backend's once-per-epoch publications);
        - ``tasks_shipped`` / ``state_publishes`` — the matching counts.

        In-process backends move references, not bytes: all zeros.
        """
        m = self.metrics
        return {"task_bytes": m.counter("task_bytes").value,
                "state_bytes": m.counter("state_bytes").value,
                "tasks_shipped": m.counter("tasks_shipped").value,
                "state_publishes": m.counter("state_publishes").value}

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialBackend(ExecutionBackend):
    """Run components inline, in order — the reference implementation."""

    name = "sequential"

    def run_tasks(self, tasks: Sequence[ComponentTask]) -> list[ComponentOutcome]:
        # Remote copies go out first, local tasks run inline (no
        # futures), then the gather.
        return _gather(submit_all(tasks, run_component_task))

    def submit_batch(self, tasks: Sequence[ComponentTask]) -> list[Future]:
        tasks = list(tasks)
        futures = [Future() for _ in tasks]
        live = [f.set_running_or_notify_cancel() for f in futures]
        try:
            outcomes = run_component_batch(tasks)
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            for f, ok in zip(futures, live):
                if ok:
                    f.set_exception(exc)
            return futures
        for f, ok, outcome in zip(futures, live, outcomes):
            if ok:
                f.set_result(outcome)
        return futures


class ThreadPoolBackend(ExecutionBackend):
    """Run components on a shared thread pool.

    Threads overlap any blocking in component work (storage/network
    stalls, GIL-releasing kernels).  The pool is created lazily and reused
    across requests; ``max_workers`` defaults to the executor's policy.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-serving")
            return self._pool

    def _submit_plain(self, task: ComponentTask) -> "Future[ComponentOutcome]":
        return self._ensure_pool().submit(run_component_task, task)

    def submit_batch(self, tasks: Sequence[ComponentTask]) -> list[Future]:
        tasks = list(tasks)
        if len(tasks) <= 1:
            return [self.submit_task(t) for t in tasks]
        batch = self._ensure_pool().submit(run_component_batch, tasks)
        return _scatter_batch_future(batch, len(tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ---------------------------------------------------------------------------
# Dispatch coalescing
# ---------------------------------------------------------------------------


@dataclass
class _Bucket:
    """Tasks awaiting one coalesced submission."""

    deadline: float
    entries: list = field(default_factory=list)


class BatchingBackend(ExecutionBackend):
    """Coalesce same-``(component, epoch)`` tasks into batched submissions.

    Wraps any :class:`ExecutionBackend`.  Tasks submitted within
    ``window`` seconds that share a batch key — same adapter and same
    pinned ``(store, component, epoch)`` state (or same inline state
    objects) — are buffered and handed to the inner backend as **one**
    :meth:`~ExecutionBackend.submit_batch` call: one pickle/queue hop
    and one vectorized stage-1 pass per batch instead of per request.
    Mixed epochs never coalesce (the epoch is part of the key), so a
    batch can never observe torn state across an update.

    Per-request separability is preserved end to end: every task keeps
    its own future, clock, deadline and :class:`~repro.core.processor.
    ProcessingReport` (stamped with the envelope's ``request_id``), and
    outcomes are bit-identical to unbatched dispatch under
    deterministic clocks.

    Future semantics match the router tier's hedging needs: a task's
    future can be cancelled until its bucket flushes (the queued-only
    window); at flush each future transitions to running and the batch
    is in service.  Hook tasks (remote execution) never reach a bucket:
    :func:`submit_all` hands them to their owner first.

    Parameters
    ----------
    inner:
        Backend (instance or name) that executes the batches.
    window:
        Seconds to hold an open bucket for more arrivals.  ``0.0``
        still coalesces whatever is pending when the flusher runs —
        the right choice when callers submit bursts synchronously.
    max_batch:
        Flush a bucket immediately when it reaches this many tasks.
    close_inner:
        Whether :meth:`close` also closes the inner backend (the
        wrapper owns it).
    """

    name = "batching"

    def __init__(self, inner, window: float = 0.002, max_batch: int = 32,
                 close_inner: bool = False):
        if window < 0:
            raise ValueError("window must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.inner = resolve_backend(inner)
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._close_inner = bool(close_inner)
        self._cond = threading.Condition(threading.Lock())
        self._buckets: dict[tuple, _Bucket] = {}
        self._flusher: threading.Thread | None = None
        self._closed = False
        self._batches_submitted = self.metrics.counter("batches_submitted")
        self._tasks_coalesced = self.metrics.counter("tasks_coalesced")

    # -- batching mechanics ---------------------------------------------

    @staticmethod
    def _batch_key(task: ComponentTask) -> tuple:
        """Coalescing identity: same adapter, same pinned state."""
        ref = task.state_ref
        if ref is not None:
            return ("ref", id(task.adapter), ref.store_id, ref.component,
                    ref.epoch)
        return ("inline", id(task.adapter), task.component,
                id(task.partition), id(task.synopsis))

    def _ensure_flusher_locked(self) -> None:
        if self._flusher is None or not self._flusher.is_alive():
            self._flusher = threading.Thread(
                target=self._flush_loop, name="repro-batching-flush",
                daemon=True)
            self._flusher.start()

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                while not self._buckets and not self._closed:
                    self._cond.wait()
                if self._closed and not self._buckets:
                    return
                now = monotonic()
                due_keys = [k for k, b in self._buckets.items()
                            if self._closed or b.deadline <= now]
                due = [self._buckets.pop(k) for k in due_keys]
                if not due:
                    horizon = min(b.deadline
                                  for b in self._buckets.values())
                    self._cond.wait(max(0.0, horizon - now))
                    continue
            for bucket in due:
                self._flush(bucket.entries)

    def _flush(self, entries: list) -> None:
        live = [(t, f, t_enq) for t, f, t_enq in entries
                if f.set_running_or_notify_cancel()]
        if not live:
            return
        tasks = [t for t, _, _ in live]
        self._batches_submitted.inc()
        self._tasks_coalesced.inc(len(tasks))
        t_flush = monotonic()
        tracer = get_tracer()
        for task, _, t_enq in live:
            # The coalescing wait is queue time this wrapper added on
            # purpose; make it attributable per request.
            ctx = trace_context_of(task.envelope) \
                if task.envelope is not None else None
            if ctx is not None and ctx.sampled:
                tracer.record("batch.coalesce", ctx, t_enq, t_flush,
                              component=task.component,
                              batch_size=len(tasks))
        try:
            inner_futures = self.inner.submit_batch(tasks)
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            for _, f, _ in live:
                f.set_exception(exc)
            return
        for (_, outer, _), inner in zip(live, inner_futures):
            self._chain(inner, outer)

    @staticmethod
    def _chain(src: Future, dst: Future) -> None:
        def _done(fut: Future) -> None:
            if dst.done():
                return
            try:
                dst.set_result(fut.result())
            except BaseException as exc:  # noqa: BLE001
                dst.set_exception(exc)

        src.add_done_callback(_done)

    # -- ExecutionBackend ------------------------------------------------

    def _submit_plain(self, task: ComponentTask) -> "Future[ComponentOutcome]":
        key = self._batch_key(task)
        future: Future = Future()
        now = monotonic()
        with self._cond:
            if self._closed:
                raise RuntimeError("BatchingBackend is closed")
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = _Bucket(deadline=now + self.window)
                self._buckets[key] = bucket
                self._ensure_flusher_locked()
            bucket.entries.append((task, future, now))
            full = len(bucket.entries) >= self.max_batch
            if full:
                del self._buckets[key]
            self._cond.notify_all()
        if full:
            self._flush(bucket.entries)
        return future

    def payload_counters(self) -> dict:
        return self.inner.payload_counters()

    def batch_stats(self) -> dict:
        """Coalescing effectiveness: batches flushed vs tasks batched."""
        return {"batches_submitted": self._batches_submitted.value,
                "tasks_coalesced": self._tasks_coalesced.value}

    def close(self) -> None:
        with self._cond:
            self._closed = True
            flusher = self._flusher
            self._cond.notify_all()
        if flusher is not None:
            flusher.join(timeout=5.0)
        # Belt and braces: drain anything a dead flusher left behind.
        with self._cond:
            leftover = [b.entries for b in self._buckets.values()]
            self._buckets.clear()
        for entries in leftover:
            self._flush(entries)
        if self._close_inner:
            self.inner.close()


_BACKENDS = {
    "sequential": SequentialBackend,
    "thread": ThreadPoolBackend,
}


def resolve_backend(backend) -> ExecutionBackend:
    """Coerce ``backend`` (instance, name, or ``None``) to a backend.

    ``None`` means :class:`SequentialBackend`; strings name one of
    ``"sequential"``, ``"thread"``, ``"async"`` (the event-loop backend
    from :mod:`repro.serving.aio`), or ``"remote"`` (the socket backend
    from :mod:`repro.serving.transport`).
    """
    if backend is None:
        return SequentialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        if backend == "async":
            # Imported lazily: aio builds on this module.
            from repro.serving.aio import AsyncExecutionBackend

            return AsyncExecutionBackend()
        if backend == "remote":
            # Imported lazily: transport builds on this module.
            from repro.serving.transport import RemoteBackend

            return RemoteBackend()
        cls = _BACKENDS.get(backend)
        if cls is None:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                f"{sorted([*_BACKENDS, 'async', 'remote'])}")
        return cls()
    raise TypeError(f"cannot interpret {backend!r} as an execution backend")
