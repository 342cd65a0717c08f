"""Parallel serving layer: execute the paper's fan-out for real.

Architecture note — simulator vs serving
========================================

The reproduction contains two deliberately separate answers to "what does
an n-component AccuracyTrader deployment do under load?":

- **The simulator** (:mod:`repro.cluster`) predicts *latency*.  It models
  each component as a FIFO queue in virtual time, charging abstract work
  units against per-component speeds (interference included).  It never
  computes real answers; it is exact, fast, and deterministic — the right
  tool for the paper's tail-latency experiments, where one run covers
  hours of cluster time.
- **The serving layer** (this package) produces *answers*.  It executes
  Algorithm 1's per-component work for real, in parallel, against live
  synopses that may be updated mid-stream, and measures wall-clock
  throughput and latency.  It is the right tool for validating that the
  system actually serves — that parallel execution returns the same
  answers as sequential, that synopsis updates do not tear in-flight
  reads, and that fan-out parallelism buys real throughput.

The two layers meet in the middle: both report latency distributions in
the same shape (:class:`~repro.serving.harness.ServingRunStats` mirrors
:class:`repro.cluster.FanoutRunStats`), and both drive arrivals from
:mod:`repro.workloads.arrival`, so simulator predictions and served
measurements are directly comparable.

Pieces
------

- :mod:`repro.serving.envelope` — the typed request envelope:
  :class:`ServingRequest` (payload, deadline, request class —
  accuracy-critical / latency-critical / best-effort — priority,
  per-request hedging override, monotonic id, arrival timestamp) and
  :class:`ServingResponse` (answer, reports, state epochs,
  queue/service timing).  Every ``Servable`` serves envelopes natively
  via ``serve`` / ``aserve``; the positional ``process`` / ``aprocess``
  remain as bit-identical legacy shims.
- :mod:`repro.serving.backends` — :class:`ExecutionBackend` and its
  sequential / thread-pool / batching implementations; per-component
  work travels as :class:`ComponentTask` values referencing state by
  ``(component, epoch)`` into the service's :class:`~repro.core.state.
  StateStore`, which is what makes execution placement a plug-in — and
  what lets :class:`RemoteBackend` (:mod:`repro.serving.transport`)
  ship state to its worker processes once per update epoch instead of
  once per task (payload bytes measured per run in
  :class:`ServingRunStats`).
- :mod:`repro.serving.loadgen` — deterministic open-loop (Poisson,
  bursty) and closed-loop request-stream generation.
- :mod:`repro.serving.harness` — :class:`ServingHarness` drives a stream
  against a live :class:`~repro.core.service.AccuracyTraderService`,
  optionally applying synopsis updates concurrently, and reports
  throughput, p50/p95/p99 latency, and accuracy-vs-deadline curves.
- :mod:`repro.serving.adapters` — :class:`IOStallAdapter`, a wrapper
  charging real per-operation stalls (the remote storage/network access
  the simulator abstracts as work units).
- :mod:`repro.serving.router` — the scale-out tier: :class:`ReplicaGroup`
  (replicated services, updates fanned out, pluggable ring/p2c hedge
  placement) and :class:`ShardedService` (sharded routing with per-shard
  deadline budgets, shard-map-routed updates, live hedged re-issue
  across replicas under a Dean & Barroso-style hedge budget, and online
  shard rebalancing — live record moves published as new state epochs).
  Both are :class:`~repro.core.servable.Servable`, so the harness drives
  a routed cluster through the same API as a single service.
- :mod:`repro.serving.aio` — the async tier: an event-loop
  :class:`~repro.serving.aio.AsyncExecutionBackend`, the async
  ``aprocess`` path through every ``Servable`` (hedged fan-out with real
  cancellation of the losing copy), and the
  :class:`~repro.serving.aio.AsyncServingHarness` holding thousands of
  in-flight requests where the thread tier is capped at
  ``max_concurrency``.
- :mod:`repro.serving.admission` — admission control for the async
  tier: bounded pending queue (priority-ordered dequeue: urgent
  classes first, FIFO within a class), in-flight concurrency limit,
  and pluggable shed policies (reject-on-full, deadline-aware early
  drop, class-aware :class:`PriorityShedPolicy` — best-effort shed
  first, accuracy-critical last — and the CoDel-style
  :class:`QueueDelayShed`), with counters and per-class breakdowns
  surfaced in :class:`ServingRunStats`.
- :mod:`repro.serving.telemetry` — the observability plane:
  per-request distributed tracing (:class:`Tracer` roots a trace at
  every envelope, spans cover admission / routing / hedging / batching
  / wire / worker execution, and worker-side spans ride
  :class:`ComponentOutcome` back across process boundaries) plus the
  unified :class:`MetricsRegistry` (counters, gauges, fixed-bucket
  histograms) that backs every legacy counter dict bit-identically.
  Traces export as JSON or Chrome ``trace_event`` files; per-class
  head sampling is deterministic.
- :mod:`repro.serving.transport` — the multi-host tier: length-prefixed
  socket framing for requests and responses,
  :class:`~repro.serving.transport.RemoteServable` (a service in
  another process, pluggable into :class:`ReplicaGroup` /
  :class:`ShardedService` unchanged), and
  :class:`~repro.serving.transport.RemoteBackend` — the wire state
  plane: workers over TCP, snapshots published once per epoch per
  worker, epoch-to-epoch transitions shipped as content-defined binary
  *deltas* (:mod:`repro.core.state`) so state traffic scales with
  update size, not synopsis size.

Concurrency model: :class:`~repro.core.service.AccuracyTraderService`
publishes each component's ``(partition, synopsis)`` through a
:class:`~repro.core.state.StateStore` as an immutable snapshot tagged
with a monotonically increasing epoch id (copy-on-swap); request
execution is pinned at dispatch to the then-current epoch and never
observes a half-updated pair — across synopsis updates *and* live shard
rebalances.  See :mod:`repro.core.state` for details.
"""

from repro.serving.adapters import IOStallAdapter
from repro.serving.admission import (
    AdmissionController,
    AdmissionStats,
    DeadlineAwareDrop,
    PriorityShedPolicy,
    QueueDelayShed,
    RejectOnFull,
    ShedPolicy,
)
from repro.serving.envelope import (
    RequestClass,
    ServingRequest,
    ServingResponse,
    as_envelope,
)
from repro.serving.aio import (
    AsyncExecutionBackend,
    AsyncServingHarness,
    AsyncStallAdapter,
)
from repro.serving.backends import (
    BatchingBackend,
    ComponentOutcome,
    ComponentTask,
    ExecutionBackend,
    SequentialBackend,
    ThreadPoolBackend,
    resolve_backend,
)
from repro.serving.harness import AccuracyPoint, ServingHarness, ServingRunStats
from repro.serving.loadgen import ClosedLoopLoad, LoadGenerator, OpenLoopLoad
from repro.serving.router import RebalanceReport, ReplicaGroup, ShardedService
from repro.serving.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    SpanRecorder,
    TraceContext,
    Tracer,
    attach_context,
    get_tracer,
    set_tracer,
    trace_context_of,
    use_tracer,
)
from repro.serving.transport import (
    RemoteBackend,
    RemoteChannel,
    RemoteError,
    RemoteServable,
    bind_with_retry,
    connect_with_retry,
)

__all__ = [
    "ComponentOutcome",
    "ComponentTask",
    "ExecutionBackend",
    "SequentialBackend",
    "ThreadPoolBackend",
    "BatchingBackend",
    "resolve_backend",
    "IOStallAdapter",
    "LoadGenerator",
    "OpenLoopLoad",
    "ClosedLoopLoad",
    "ServingHarness",
    "ServingRunStats",
    "AccuracyPoint",
    "ReplicaGroup",
    "ShardedService",
    "RebalanceReport",
    "AsyncExecutionBackend",
    "AsyncServingHarness",
    "AsyncStallAdapter",
    "AdmissionController",
    "AdmissionStats",
    "ShedPolicy",
    "RejectOnFull",
    "DeadlineAwareDrop",
    "PriorityShedPolicy",
    "QueueDelayShed",
    "RequestClass",
    "ServingRequest",
    "ServingResponse",
    "as_envelope",
    "RemoteBackend",
    "RemoteChannel",
    "RemoteError",
    "RemoteServable",
    "bind_with_retry",
    "connect_with_retry",
    "Tracer",
    "TraceContext",
    "Span",
    "SpanRecorder",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "attach_context",
    "trace_context_of",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
