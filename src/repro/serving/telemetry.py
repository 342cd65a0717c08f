"""Per-request distributed tracing + the unified metrics plane.

Two instruments, one module:

**Traces.**  Every :class:`~repro.serving.envelope.ServingRequest` is a
trace root — the trace id *is* the envelope's ``request_id``.  The
instrumented request path (admission queueing, router fan-out and hedged
re-issue, batch coalescing, wire send/recv, worker-side epoch fetch and
kernel execution, async dispatch) emits :class:`Span` values keyed by
that trace id.  Span context crosses process boundaries by riding the
detached envelope already carried on every
:class:`~repro.serving.backends.ComponentTask`: a worker records its
spans locally (:class:`SpanRecorder`) and piggybacks them on the
:class:`~repro.serving.backends.ComponentOutcome` travelling back, and
the parent stitches them into the live :class:`Tracer` — span ids are
salted with the recording pid, so a merged trace is a well-formed tree
even when four processes contributed to it.  Ingestion is idempotent
(de-duplicated per ``(trace_id, span_id)``), so outcomes observed at
several gather points never double-count.

Sampling is *head* sampling, decided once per request at trace-root
creation and carried on the context: per-class rates with a
deterministic counter scheme (request ``n`` of a class samples iff
``floor(n * rate)`` advances), so rates ``0.0`` and ``1.0`` are exact
and any fixed rate is reproducible without an RNG.  An unsampled
request costs one dictionary lookup and no allocations on the hot path.

**Metrics.**  :class:`MetricsRegistry` unifies the serving plane's
counter families — :meth:`~repro.serving.backends.ExecutionBackend.
payload_counters`, :meth:`~repro.serving.router.ShardedService.
hedge_counters`, :meth:`~repro.serving.backends.BatchingBackend.
batch_stats`, admission statistics — behind one interface: named
counters, gauges (with high-watermark tracking), and fixed-bucket
histograms, timed by an injectable clock.  The legacy snapshot methods
keep their exact dict shapes, now *read from* the registry, so existing
consumers observe bit-identical values.

Timestamps come from :func:`repro.core.clock.monotonic` — the single
wall-clock seam the serving plane is allowed to use (CI lints for stray
``time.monotonic()`` calls outside this module and the clock module).
On Linux ``CLOCK_MONOTONIC`` is boot-wide, so worker spans align with
parent spans without clock translation.

Exports: :meth:`Tracer.export_json` (plain span dump) and
:meth:`Tracer.chrome_trace` (Chrome ``trace_event`` format — load the
file in ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.core.clock import monotonic

__all__ = [
    "TraceContext",
    "Span",
    "SpanRecorder",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "trace_context_of",
    "attach_context",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]


# ---------------------------------------------------------------------------
# Span identity
# ---------------------------------------------------------------------------

# Span ids must stay unique when spans from several processes merge into
# one trace; salting a per-process counter with the pid keeps ids unique
# without any cross-process coordination.
_SPAN_COUNTER = itertools.count(1)


def _new_span_id() -> int:
    return ((os.getpid() & 0xFFFF) << 40) | next(_SPAN_COUNTER)


@dataclass(frozen=True)
class TraceContext:
    """Propagatable span context: plain, picklable data.

    ``span_id`` names the span that is the *current parent* — spans
    opened under this context become its children (``0`` means "no
    parent yet": the next span is a trace root).  The context rides the
    envelope's ``trace`` field across every boundary the envelope
    crosses, which is all of them.
    """

    trace_id: int
    span_id: int = 0
    sampled: bool = True


@dataclass
class Span:
    """One timed operation within a trace (wall seconds, half-open)."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    pid: int = field(default_factory=os.getpid)
    tid: int = 0
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id, "span_id": self.span_id,
            "parent_id": self.parent_id, "name": self.name,
            "start": self.start, "end": self.end, "pid": self.pid,
            "tid": self.tid, "tags": dict(self.tags),
        }


def trace_context_of(envelope) -> TraceContext | None:
    """The envelope's trace context, if it carries a valid one."""
    ctx = getattr(envelope, "trace", None)
    return ctx if isinstance(ctx, TraceContext) else None


def attach_context(envelope, ctx: TraceContext):
    """A copy of ``envelope`` carrying ``ctx`` (same id, same payload)."""
    return replace(envelope, trace=ctx)


class _NullScope:
    """No-op span handle for unsampled/untraced requests."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: TraceContext | None):
        self.ctx = ctx

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags) -> None:
        del tags


class _SpanScope:
    """Live span handle: a context manager that records on exit.

    ``ctx`` is the *child* context — spans opened under this handle
    nest beneath it.  ``tag()`` adds attributes mid-flight (e.g. the
    hedge winner, a shed reason) before the span closes.
    """

    __slots__ = ("ctx", "span", "_sink", "_clock")

    def __init__(self, span: Span, sink: Callable[[Span], None],
                 clock: Callable[[], float], sampled: bool = True):
        self.span = span
        self._sink = sink
        self._clock = clock
        self.ctx = TraceContext(trace_id=span.trace_id,
                                span_id=span.span_id, sampled=sampled)

    def __enter__(self) -> "_SpanScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.tags.setdefault("error", exc_type.__name__)
        self.finish()
        return False

    def tag(self, **tags) -> None:
        self.span.tags.update(tags)

    def finish(self, end: float | None = None) -> None:
        self.span.end = self._clock() if end is None else end
        self._sink(self.span)


def _open_span(name: str, ctx: TraceContext, sink, clock,
               tags: dict) -> _SpanScope:
    span = Span(
        trace_id=ctx.trace_id, span_id=_new_span_id(),
        parent_id=ctx.span_id or None, name=name, start=clock(),
        tid=threading.get_ident() & 0xFFFFFFFF,
        tags=tags,
    )
    return _SpanScope(span, sink, clock)


class SpanRecorder:
    """Standalone span collector for worker-side instrumentation.

    A worker process cannot reach the parent's :class:`Tracer`; it
    records spans into a local list and the executing code attaches
    them to the outgoing :class:`~repro.serving.backends.
    ComponentOutcome`, where any parent-side gather point ingests them
    (idempotently) into the live tracer.
    """

    __slots__ = ("ctx", "spans", "_clock")

    def __init__(self, ctx: TraceContext,
                 clock: Callable[[], float] = monotonic):
        self.ctx = ctx
        self.spans: list[Span] = []
        self._clock = clock

    def span(self, name: str, ctx: TraceContext | None = None, **tags):
        parent = self.ctx if ctx is None else ctx
        return _open_span(name, parent, self.spans.append, self._clock, tags)


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Collects one process's view of every sampled trace.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled, every API degrades to a no-op that
        neither allocates nor attaches context.
    sample_rates:
        Per-request-class head-sampling rates, keyed by the class'
        string value (``"latency_critical"`` etc.).  Missing classes use
        ``default_rate``.  Rates are deterministic: of the first ``n``
        requests of a class, exactly ``floor(n * rate)`` are sampled.
    default_rate:
        Sampling rate for classes not named in ``sample_rates``
        (default ``1.0`` — tracing is on by default; the overhead
        benchmark gates that this stays cheap).
    clock:
        Timestamp source (injectable for deterministic tests).
    max_traces:
        Retained-trace cap; the oldest trace is evicted when a new root
        would exceed it (evictions counted in ``traces_evicted``).
    """

    def __init__(self, enabled: bool = True,
                 sample_rates: dict | None = None,
                 default_rate: float = 1.0,
                 clock: Callable[[], float] = monotonic,
                 max_traces: int = 4096):
        rates = dict(sample_rates or {})
        for value in rates.values():
            if not 0.0 <= float(value) <= 1.0:
                raise ValueError("sampling rates must be in [0, 1]")
        if not 0.0 <= default_rate <= 1.0:
            raise ValueError("default_rate must be in [0, 1]")
        self.enabled = bool(enabled)
        self.sample_rates = rates
        self.default_rate = float(default_rate)
        self.clock = clock
        self.max_traces = int(max_traces)
        self._lock = threading.Lock()
        # trace_id -> (spans in arrival order, seen span ids)
        self._traces: OrderedDict[int, tuple[list[Span], set[int]]] = \
            OrderedDict()
        self._class_counts: dict[str, int] = {}
        self.traces_evicted = 0

    # -- sampling / context ---------------------------------------------

    def _rate_of(self, request_class) -> float:
        value = getattr(request_class, "value", request_class)
        return float(self.sample_rates.get(value, self.default_rate))

    def _sample(self, request_class) -> bool:
        rate = self._rate_of(request_class)
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        value = getattr(request_class, "value", request_class)
        with self._lock:
            n = self._class_counts.get(value, 0) + 1
            self._class_counts[value] = n
        return math.floor(n * rate) > math.floor((n - 1) * rate)

    def trace(self, envelope):
        """Root ``envelope`` in a trace (the head-sampling decision).

        Idempotent: an envelope that already carries a context passes
        through unchanged, so the outermost instrumented layer — the
        harness, or a bare ``serve()`` call — wins the root.  With the
        tracer disabled the envelope passes through untouched.

        The context is written into the envelope's ``trace`` slot *in
        place* (``trace`` is compare-excluded observability metadata,
        deliberately outside the frozen identity fields), so the caller
        keeps the same object — response/request identity is preserved
        end to end.
        """
        if not self.enabled or trace_context_of(envelope) is not None:
            return envelope
        sampled = self._sample(getattr(envelope, "request_class", None))
        ctx = TraceContext(trace_id=envelope.request_id, span_id=0,
                           sampled=sampled)
        try:
            object.__setattr__(envelope, "trace", ctx)
        except (AttributeError, TypeError):
            return envelope
        return envelope

    # -- recording -------------------------------------------------------

    def span(self, name: str, ctx: TraceContext | None, **tags):
        """Context manager timing one operation under ``ctx``.

        No-op (allocation-free timing path) when ``ctx`` is missing or
        unsampled; the returned handle always exposes ``.ctx`` so
        nesting code never branches.
        """
        if not self.enabled or ctx is None or not ctx.sampled:
            return _NullScope(ctx)
        return _open_span(name, ctx, self._store, self.clock, tags)

    @contextmanager
    def request_span(self, name: str, envelope, **tags):
        """Root ``envelope`` in a trace and time ``name`` under it.

        The prelude every request entry point shares (harness, service,
        router): :meth:`trace`, then :meth:`span` under the envelope's
        context.  Yields ``(env, scope)``: ``env`` carries the new
        span's context, so work dispatched with it nests beneath the
        span (it is ``envelope`` itself when no span opened); ``scope``
        tags the span mid-flight.
        """
        ctx = trace_context_of(self.trace(envelope))
        with self.span(name, ctx, **tags) as scope:
            yield (envelope if scope.ctx is ctx
                   else attach_context(envelope, scope.ctx)), scope

    def record(self, name: str, ctx: TraceContext | None, start: float,
               end: float, **tags) -> Span | None:
        """Record a span from explicit timestamps (post-hoc recording)."""
        if not self.enabled or ctx is None or not ctx.sampled:
            return None
        span = Span(trace_id=ctx.trace_id, span_id=_new_span_id(),
                    parent_id=ctx.span_id or None, name=name, start=start,
                    end=end, tid=threading.get_ident() & 0xFFFFFFFF,
                    tags=tags)
        self._store(span)
        return span

    def _bucket_locked(self, trace_id: int) -> tuple[list[Span], set[int]]:
        bucket = self._traces.get(trace_id)
        if bucket is None:
            while len(self._traces) >= self.max_traces:
                self._traces.popitem(last=False)
                self.traces_evicted += 1
            bucket = self._traces[trace_id] = ([], set())
        return bucket

    def _store(self, span: Span) -> None:
        with self._lock:
            spans, seen = self._bucket_locked(span.trace_id)
            if span.span_id not in seen:
                seen.add(span.span_id)
                spans.append(span)

    def ingest(self, spans: Iterable[Span]) -> int:
        """Merge foreign spans (worker-side recordings); idempotent.

        Returns the number of spans actually added — re-ingesting the
        same outcome at a second gather point adds nothing.
        """
        added = 0
        with self._lock:
            for span in spans:
                bucket, seen = self._bucket_locked(span.trace_id)
                if span.span_id not in seen:
                    seen.add(span.span_id)
                    bucket.append(span)
                    added += 1
        return added

    def ingest_outcomes(self, outcomes: Iterable) -> int:
        """Ingest the piggybacked spans of any outcomes that carry them."""
        if not self.enabled:
            return 0
        added = 0
        for outcome in outcomes:
            spans = getattr(outcome, "spans", None)
            if spans:
                added += self.ingest(spans)
        return added

    # -- reading / export ------------------------------------------------

    def trace_ids(self) -> list[int]:
        with self._lock:
            return list(self._traces)

    def spans_of(self, trace_id: int) -> list[Span]:
        """The trace's spans, sorted by start time."""
        with self._lock:
            bucket = self._traces.get(trace_id)
            spans = list(bucket[0]) if bucket else []
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()
            self._class_counts.clear()
            self.traces_evicted = 0

    def export_json(self, path: str | None = None) -> dict:
        """Plain-JSON dump: ``{"traces": [{trace_id, spans: [...]}, ...]}``."""
        with self._lock:
            data = {"traces": [
                {"trace_id": tid,
                 "spans": [s.as_dict() for s in
                           sorted(spans, key=lambda s: (s.start, s.span_id))]}
                for tid, (spans, _) in self._traces.items()
            ]}
        if path is not None:
            with open(path, "w") as fh:
                json.dump(data, fh, indent=2, default=str)
        return data

    def chrome_trace(self, path: str | None = None) -> dict:
        """Chrome ``trace_event`` export (chrome://tracing / Perfetto).

        Each span becomes one complete (``"ph": "X"``) event with
        microsecond timestamps; the trace id, span id and parent id ride
        in ``args`` alongside the span's tags, so the timeline keeps the
        tree structure inspectable.
        """
        events: list[dict] = []
        with self._lock:
            traces = {tid: list(spans)
                      for tid, (spans, _) in self._traces.items()}
        pids = set()
        for tid, spans in traces.items():
            for s in spans:
                pids.add(s.pid)
                events.append({
                    "name": s.name, "cat": "serving", "ph": "X",
                    "ts": s.start * 1e6, "dur": s.duration * 1e6,
                    "pid": s.pid, "tid": s.tid,
                    "args": {"trace_id": s.trace_id, "span_id": s.span_id,
                             "parent_id": s.parent_id,
                             **{k: v if isinstance(v, (int, float, str,
                                                       bool, type(None)))
                                else str(v) for k, v in s.tags.items()}},
                })
        for pid in sorted(pids):
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": f"repro pid {pid}"}})
        data = {"traceEvents": sorted(
            events, key=lambda e: (e["ph"] == "M", e["ts"] if "ts" in e
                                   else 0.0)),
            "displayTimeUnit": "ms"}
        if path is not None:
            with open(path, "w") as fh:
                json.dump(data, fh)
        return data


_GLOBAL_TRACER = Tracer()
_GLOBAL_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer the instrumented request path records to."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide tracer; returns the old one."""
    global _GLOBAL_TRACER
    with _GLOBAL_LOCK:
        previous, _GLOBAL_TRACER = _GLOBAL_TRACER, tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Scoped :func:`set_tracer` — restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
"""Default histogram bucket bounds (seconds), roughly log-spaced."""


class Counter:
    """Monotonically increasing count (thread-safe, integer-exact).

    Backing the serving plane's byte/count accounting with plain Python
    ints keeps snapshots bit-identical to the pre-registry fields.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Point-in-time value with a high-watermark (thread-safe)."""

    __slots__ = ("name", "labels", "_value", "_max", "_lock")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._max = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def inc(self, amount=1):
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value
            return self._value

    def dec(self, amount=1):
        with self._lock:
            self._value -= amount
            return self._value

    @property
    def value(self):
        return self._value

    @property
    def max(self):
        """The high-watermark since creation (or the last reset)."""
        return self._max

    def reset_max(self) -> None:
        with self._lock:
            self._max = self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0
            self._max = 0


class Histogram:
    """Fixed-bucket histogram: cumulative-friendly counts + sum + count."""

    __slots__ = ("name", "labels", "buckets", "counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS,
                 labels: tuple = ()):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)   # +1: the overflow bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        i = 0
        for bound in self.buckets:
            if value <= bound:
                break
            i += 1
        with self._lock:
            self.counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """Bucket-resolution percentile (upper bound of the target bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return float("nan")
            rank = q * total
            seen = 0
            for i, n in enumerate(self.counts):
                seen += n
                if seen >= rank and n:
                    return (self.buckets[i] if i < len(self.buckets)
                            else float("inf"))
        return float("inf")

    def snapshot(self) -> dict:
        with self._lock:
            return {"buckets": list(self.buckets),
                    "counts": list(self.counts),
                    "sum": self._sum, "count": self._count}

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0


def _metric_key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


def _render_key(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create store of named counters/gauges/histograms.

    One registry per instrumented object (a backend, a router, an
    admission controller) keeps scopes honest; the legacy snapshot
    methods read their values straight out of it.  ``clock`` feeds
    :meth:`timer` so timed sections are deterministic under test.
    """

    def __init__(self, clock: Callable[[], float] = monotonic):
        self.clock = clock
        self._lock = threading.Lock()
        self._metrics: dict[tuple, Any] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = _metric_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels=key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}")
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    @contextmanager
    def timer(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS, **labels):
        """Time a block into the named histogram (seconds)."""
        hist = self.histogram(name, buckets=buckets, **labels)
        t0 = self.clock()
        try:
            yield hist
        finally:
            hist.observe(self.clock() - t0)

    def counters_with_prefix(self, prefix: str) -> dict:
        """``{rendered_name: value}`` for counters whose name has ``prefix``."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {_render_key(m.name, m.labels): m.value for m in metrics
                if isinstance(m, Counter) and m.name.startswith(prefix)}

    def counters_named(self, name: str) -> dict:
        """``{labels dict (frozen as a tuple): value}`` of counters ``name``.

        Covers the labelled-family read pattern (e.g. per-reason shed
        counts): every counter registered under exactly ``name``, keyed
        by its sorted ``(key, value)`` label tuple.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.labels: m.value for m in metrics
                if isinstance(m, Counter) and m.name == name}

    def snapshot(self) -> dict:
        """Every metric's current value, keyed by rendered name."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict = {}
        for m in metrics:
            key = _render_key(m.name, m.labels)
            if isinstance(m, Counter):
                out[key] = m.value
            elif isinstance(m, Gauge):
                out[key] = {"value": m.value, "max": m.max}
            else:
                out[key] = m.snapshot()
        return out

    def reset(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m.reset()
