"""Drive sustained request streams against a live AccuracyTrader service.

Where :mod:`repro.cluster` *simulates* fan-out queueing to predict tail
latency, the :class:`ServingHarness` actually *serves*: it dispatches a
generated request stream (open- or closed-loop, see
:mod:`repro.serving.loadgen`) against any live
:class:`~repro.core.servable.Servable` — a single
:class:`~repro.core.service.AccuracyTraderService` or a routed
:class:`~repro.serving.router.ShardedService` cluster, identically —
executing component
work through a pluggable :class:`~repro.serving.backends.ExecutionBackend`
— optionally while synopsis updates land concurrently — and reports the
measured throughput and latency distribution in the same shape as
:class:`repro.cluster.FanoutRunStats` (``sub_latencies`` /
``request_latencies`` / ``n_requests`` / ``n_components``), so the
simulator's and the server's numbers can be compared side by side.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.clock import ClockFactory, monotonic, wall_clock_factory
from repro.serving.backends import (BatchingBackend, ExecutionBackend,
                                    resolve_backend)
from repro.serving.envelope import ServingRequest, as_envelope, serve_via
from repro.serving.loadgen import ClosedLoopLoad, OpenLoopLoad
from repro.serving.telemetry import attach_context, get_tracer, \
    trace_context_of
from repro.util.stats import percentile

__all__ = ["ServingRunStats", "AccuracyPoint", "ServingHarness",
           "collect_hedge_counters", "apply_hedge_delta",
           "collect_payload_counters", "apply_payload_delta",
           "payload_backend_of", "apply_class_breakdown",
           "resolve_envelopes"]


def resolve_envelopes(requests, deadline: float) -> list[ServingRequest]:
    """One resolved envelope per load request, in arrival order.

    Shared by the thread and async harnesses.  A load whose requests
    are already :class:`~repro.serving.envelope.ServingRequest`
    envelopes keeps its classes, priorities and per-request deadline
    overrides (``deadline`` only fills in where an envelope left it
    unset); bare payloads are wrapped as default-class envelopes.
    """
    return [as_envelope(r).resolved(deadline) for r in requests]


def collect_hedge_counters(service) -> dict | None:
    """Snapshot a service's hedge counters, if it keeps any.

    Duck-typed on ``hedge_counters()`` (today:
    :class:`~repro.serving.router.ShardedService`), so harnesses can
    report per-run hedge rates without knowing the service's type.
    """
    counters = getattr(service, "hedge_counters", None)
    return counters() if callable(counters) else None


def apply_hedge_delta(stats: "ServingRunStats", service,
                      before: dict | None) -> "ServingRunStats":
    """Fill ``stats``' hedge fields with this run's counter deltas.

    Shared by the thread and async harnesses: ``before`` is the
    :func:`collect_hedge_counters` snapshot taken at run start.
    """
    after = collect_hedge_counters(service)
    if before is not None and after is not None:
        stats.shard_calls = after["shard_calls"] - before["shard_calls"]
        stats.hedges_issued = (after["hedges_issued"]
                               - before["hedges_issued"])
        stats.hedge_wins = after["hedge_wins"] - before["hedge_wins"]
    return stats


def payload_backend_of(harness_backend, service):
    """Every backend whose payload counters describe a harness run.

    Returns a list (possibly empty).  A harness-level backend override
    dispatches the work, but a *routed* service still owns one backend
    per replica — a :class:`~repro.serving.router.ShardedService` of
    :class:`~repro.serving.router.ReplicaGroup` shards fans tasks out
    to each replica's own backend — so counting only ``service.
    backend`` undercounts every byte those replica backends shipped.
    This walks the service's routing structure (duck-typed, depth-wise:
    service → shards → replicas) and returns all distinct backends the
    run may have dispatched through.  Shared by the thread and async
    harnesses; idle backends contribute zero deltas, so over-collecting
    is harmless while under-collecting loses bytes.
    """
    backends: list = []

    def add(backend) -> None:
        if backend is not None and \
                not any(backend is seen for seen in backends):
            backends.append(backend)

    def walk(service) -> None:
        add(getattr(service, "backend", None))
        for shard in getattr(service, "shards", []) or []:
            walk(shard)
        for replica in getattr(service, "replicas", []) or []:
            walk(replica)

    add(harness_backend)
    walk(service)
    return backends


def collect_payload_counters(backends) -> dict | None:
    """Snapshot serialized-payload counters, summed across backends.

    ``backends`` is one backend or a list of them (the
    :func:`payload_backend_of` shape).  Duck-typed on
    ``payload_counters()`` (every :class:`~repro.serving.backends.
    ExecutionBackend`; in-process backends report zeros).  ``None``
    when nothing keeps counters at all.
    """
    if not isinstance(backends, (list, tuple)):
        backends = [backends]
    total: dict | None = None
    for backend in backends:
        counters = getattr(backend, "payload_counters", None)
        if not callable(counters):
            continue
        snapshot = counters()
        if total is None:
            total = dict(snapshot)
        else:
            for key, value in snapshot.items():
                total[key] = total.get(key, 0) + value
    return total


def apply_payload_delta(stats: "ServingRunStats", backend,
                        before: dict | None) -> "ServingRunStats":
    """Fill ``stats``' payload-bytes fields with this run's deltas.

    Shared by the thread and async harnesses: ``before`` is the
    :func:`collect_payload_counters` snapshot taken at run start.  On
    the remote backend ``task_bytes`` grows with request rate (small
    frames holding detached refs) while ``state_bytes`` grows with
    update (epoch) rate.
    """
    after = collect_payload_counters(backend)
    if before is not None and after is not None:
        for field_name in ("task_bytes", "state_bytes", "tasks_shipped",
                           "state_publishes"):
            setattr(stats, field_name,
                    after[field_name] - before[field_name])
    return stats


def apply_class_breakdown(stats: "ServingRunStats", envelopes,
                          latencies, served=None) -> "ServingRunStats":
    """Fill ``stats``' per-class fields from one run's envelopes.

    Shared by the thread and async harnesses.  ``latencies`` aligns
    index-wise with ``envelopes``; ``served`` is an optional boolean
    mask (``False`` = shed by admission — counted in ``class_shed``,
    its latency slot ignored).
    """
    by_class: dict[str, list[float]] = {}
    for i, env in enumerate(envelopes):
        key = env.request_class.value
        if served is None or served[i]:
            stats.class_served[key] = stats.class_served.get(key, 0) + 1
            by_class.setdefault(key, []).append(float(latencies[i]))
        else:
            stats.class_shed[key] = stats.class_shed.get(key, 0) + 1
    stats.class_latencies = {k: np.asarray(v, dtype=float)
                             for k, v in by_class.items()}
    return stats


@dataclass
class ServingRunStats:
    """Measured outcome of one served request stream.

    Field names and semantics deliberately mirror
    :class:`repro.cluster.FanoutRunStats` so analysis code works on
    either; serving adds wall-clock ``duration`` (hence throughput),
    per-request reports, and any concurrent-update log.

    Attributes
    ----------
    sub_latencies:
        Per-component processing elapsed times (seconds), request-major.
    request_latencies:
        Per-request service latency: completion minus scheduled arrival
        (open loop, queueing included) or issue time (closed loop).
    n_requests, n_components:
        Run dimensions.
    duration:
        Wall-clock seconds from stream start to last completion.
    answers:
        The merged per-request answers, in request order.
    reports:
        Per-request lists of :class:`~repro.core.processor.ProcessingReport`.
    update_log:
        ``(at_seconds, report)`` for every concurrent update applied.
    shard_calls / hedges_issued / hedge_wins:
        Router hedging counters for this run (deltas, collected via
        :func:`collect_hedge_counters`); zero for unrouted services.
        :meth:`hedge_rate` is the realized re-issue fraction — compare
        it to the router's configured ``hedge_budget``.
    offered / shed / shed_reasons / queue_depth_max / inflight_max:
        Admission-control accounting (async tier).  ``offered`` is the
        full trace length including shed requests (``None`` when no
        admission layer ran); ``n_requests`` counts *served* requests
        only.  ``answers`` and ``reports`` stay aligned with one slot
        per offered request (``None`` where shed); ``request_latencies``
        holds served requests only, so percentiles stay finite.
    class_served / class_shed / class_latencies:
        Per-request-class breakdowns, keyed by the class's value string
        (``"accuracy_critical"`` / ``"latency_critical"`` /
        ``"best_effort"``).  ``class_served`` / ``class_shed`` count
        this run's requests by envelope class; ``class_latencies`` holds
        each class's served request latencies (use
        :meth:`class_percentile` / :meth:`class_breakdown`).  Bare
        payloads are classed as the envelope default
        (``latency_critical``).
    queue_delays:
        Per served request, the queue part of its latency, matching
        :attr:`~repro.serving.envelope.ServingResponse.queue_delay` and
        aligned with ``request_latencies``.  Open loop: seconds between
        the request's scheduled arrival and its dispatch (admission
        wait included).  Closed loop: the client-observed latency minus
        the service's own ``service_time`` — dispatch overhead such as
        backend queueing (zero when the servable reports no service
        time).
    task_bytes / state_bytes / tasks_shipped / state_publishes:
        Serialized-payload accounting for this run (deltas from the
        harness's backend, collected via
        :func:`collect_payload_counters`; zero for in-process backends,
        which move references, not bytes).  ``task_bytes`` is what
        crossed the process boundary *per task* (a detached ref, not
        state); ``state_bytes`` counts snapshots and deltas shipped
        separately once per epoch — the remote backend's O(updates)
        cost.  :meth:`bytes_per_request` combines them for
        before/after comparisons.
    """

    sub_latencies: np.ndarray
    request_latencies: np.ndarray
    n_requests: int
    n_components: int
    duration: float
    answers: list = field(default_factory=list, repr=False)
    reports: list = field(default_factory=list, repr=False)
    update_log: list = field(default_factory=list, repr=False)
    shard_calls: int = 0
    hedges_issued: int = 0
    hedge_wins: int = 0
    offered: int | None = None
    shed: int = 0
    shed_reasons: dict = field(default_factory=dict)
    queue_depth_max: int = 0
    inflight_max: int = 0
    class_served: dict = field(default_factory=dict)
    class_shed: dict = field(default_factory=dict)
    class_latencies: dict = field(default_factory=dict, repr=False)
    queue_delays: np.ndarray = field(
        default_factory=lambda: np.zeros(0), repr=False)
    task_bytes: int = 0
    state_bytes: int = 0
    tasks_shipped: int = 0
    state_publishes: int = 0

    # -- FanoutRunStats-compatible accessors ----------------------------

    def component_tail(self, q: float = 99.9) -> float:
        """q-th percentile per-component processing latency.

        ``nan`` for an empty run (every request shed): an all-shed run
        is a legitimate measurement, not an error.
        """
        if len(self.sub_latencies) == 0:
            return float("nan")
        return percentile(self.sub_latencies, q)

    def tail_ms(self, q: float = 99.9) -> float:
        return 1000.0 * self.component_tail(q)

    def mean_latency(self) -> float:
        """Mean per-component processing latency (``nan`` for empty runs)."""
        if len(self.sub_latencies) == 0:
            return float("nan")
        return float(self.sub_latencies.mean())

    # -- serving metrics -------------------------------------------------

    def throughput(self) -> float:
        """Completed requests per wall-clock second."""
        if self.duration <= 0.0:
            return 0.0
        return self.n_requests / self.duration

    def request_percentile(self, q: float) -> float:
        """q-th percentile served-request latency (``nan`` if none served)."""
        if len(self.request_latencies) == 0:
            return float("nan")
        return percentile(self.request_latencies, q)

    def p50(self) -> float:
        return self.request_percentile(50.0)

    def p95(self) -> float:
        return self.request_percentile(95.0)

    def p99(self) -> float:
        return self.request_percentile(99.0)

    def deadline_miss_rate(self, deadline: float) -> float:
        """Fraction of requests whose service latency exceeded ``deadline``."""
        if self.n_requests == 0:
            return 0.0
        return float(np.mean(self.request_latencies > deadline))

    def hedge_rate(self) -> float:
        """Realized re-issue fraction: hedges issued per shard call."""
        return self.hedges_issued / max(self.shard_calls, 1)

    def shed_rate(self) -> float:
        """Fraction of offered requests shed by admission control."""
        if not self.offered:
            return 0.0
        return self.shed / self.offered

    def class_percentile(self, request_class, q: float) -> float:
        """q-th percentile served latency of one request class.

        ``request_class`` is a :class:`~repro.serving.envelope.
        RequestClass` or its value string; ``nan`` when the class served
        nothing this run.
        """
        key = getattr(request_class, "value", request_class)
        lats = self.class_latencies.get(key)
        if lats is None or len(lats) == 0:
            return float("nan")
        return percentile(np.asarray(lats, dtype=float), q)

    def class_breakdown(self) -> dict:
        """Per-class summary rows: served/shed counts and p50/p95/p99."""
        keys = sorted(set(self.class_served) | set(self.class_shed)
                      | set(self.class_latencies))
        return {
            key: {
                "served": int(self.class_served.get(key, 0)),
                "shed": int(self.class_shed.get(key, 0)),
                "p50_s": self.class_percentile(key, 50.0),
                "p95_s": self.class_percentile(key, 95.0),
                "p99_s": self.class_percentile(key, 99.0),
            }
            for key in keys
        }

    def bytes_per_request(self) -> float:
        """Serialized payload bytes shipped per served request.

        Task payloads plus separately-shipped state, averaged over the
        run — the headline state-distribution number: O(ref size) plus
        the amortised per-epoch state cost on the remote backend.
        """
        if self.n_requests == 0:
            return 0.0
        return (self.task_bytes + self.state_bytes) / self.n_requests


@dataclass
class AccuracyPoint:
    """One point on an accuracy-vs-deadline curve."""

    deadline: float
    accuracy_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    groups_processed_mean: float


class ServingHarness:
    """Serves generated load against one service and measures it.

    Parameters
    ----------
    service:
        The live :class:`~repro.core.servable.Servable` — a single
        :class:`~repro.core.service.AccuracyTraderService`, a
        :class:`~repro.serving.router.ReplicaGroup`, or a routed
        :class:`~repro.serving.router.ShardedService`.
    deadline:
        Per-component deadline (``l_spe``) handed to every request.
    backend:
        Execution backend (instance, name, or ``None`` for the service's
        own default); backends created here from a name are closed by
        :meth:`close`.
    clock_factory:
        Per-component deadline-clock factory for each request; defaults
        to fresh wall clocks (real serving).  Pass
        :func:`~repro.core.clock.simulated_clock_factory` for
        deterministic latency accounting.
    max_concurrency:
        Maximum in-flight requests in open-loop mode (the outer dispatch
        pool; per-component parallelism belongs to ``backend``).
    time_scale:
        Multiplier applied to arrival gaps at dispatch time (< 1
        compresses a long trace into a short wall-clock run).  Latencies
        are always reported in real wall seconds.
    batch_window:
        When set, wrap the execution backend in a
        :class:`~repro.serving.backends.BatchingBackend` holding each
        coalescing bucket open this many seconds, so concurrent
        requests' same-``(component, epoch)`` tasks dispatch as one
        batched submission.  ``None`` (default) dispatches per task.
    batch_max:
        Bucket size that forces an immediate flush (only meaningful
        with ``batch_window``).
    """

    def __init__(self, service, deadline: float,
                 backend: ExecutionBackend | str | None = None,
                 clock_factory: ClockFactory | None = None,
                 max_concurrency: int = 64,
                 time_scale: float = 1.0,
                 batch_window: float | None = None,
                 batch_max: int = 32):
        if deadline < 0:
            raise ValueError("deadline must be non-negative")
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.service = service
        self.deadline = float(deadline)
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = (resolve_backend(backend)
                        if backend is not None else None)
        if batch_window is not None:
            inner = (self.backend if self.backend is not None
                     else resolve_backend(None))
            self.backend = BatchingBackend(inner, window=batch_window,
                                           max_batch=batch_max,
                                           close_inner=self._owns_backend)
            self._owns_backend = True
        self.clock_factory = (clock_factory if clock_factory is not None
                              else wall_clock_factory())
        self.max_concurrency = int(max_concurrency)
        self.time_scale = float(time_scale)

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self.backend is not None and self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ServingHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _clocks(self) -> list:
        n = self.service.n_components
        return [self.clock_factory(c) for c in range(n)]

    def _serve(self, envelope: ServingRequest):
        # The harness is the outermost instrumented layer, so it wins
        # the trace root; the "request" span covers the whole
        # client-observed service call.
        tracer = get_tracer()
        envelope = tracer.trace(envelope)
        ctx = trace_context_of(envelope)
        with tracer.span("request", ctx,
                         request_class=envelope.request_class.value) as sp:
            env = (envelope if sp.ctx is ctx
                   else attach_context(envelope, sp.ctx))
            return serve_via(self.service, env, clocks=self._clocks(),
                             backend=self.backend)

    def _apply_hedge_delta(self, stats: ServingRunStats,
                           before: dict | None) -> ServingRunStats:
        return apply_hedge_delta(stats, self.service, before)

    def _payload_backend(self):
        return payload_backend_of(self.backend, self.service)

    @staticmethod
    def _stats_from(answers, reports, latencies, duration, n_components,
                    update_log) -> ServingRunStats:
        subs = np.array([rep.total_elapsed for reps in reports for rep in reps],
                        dtype=float)
        return ServingRunStats(
            sub_latencies=subs,
            request_latencies=np.asarray(latencies, dtype=float),
            n_requests=len(answers),
            n_components=n_components,
            duration=float(duration),
            answers=list(answers),
            reports=list(reports),
            update_log=list(update_log),
        )

    # ------------------------------------------------------------------

    def run_open_loop(self, load: OpenLoopLoad,
                      updates: Sequence[tuple[float, Callable]] | None = None,
                      ) -> ServingRunStats:
        """Serve an open-loop stream, pacing dispatch by arrival times.

        ``updates`` is an optional schedule of ``(at_seconds, fn)``; each
        ``fn(service)`` runs on a background thread once ``at_seconds`` of
        (scaled) stream time have elapsed — e.g. a closure calling
        :meth:`~repro.core.service.AccuracyTraderService.add_points` —
        concurrently with in-flight requests.  Whatever ``fn`` returns is
        recorded in the stats' ``update_log``; if ``fn`` raises, the
        exception object is recorded in its slot instead and the
        remaining schedule still runs.
        """
        n = load.n_requests
        envelopes = resolve_envelopes(load.requests, self.deadline)
        answers: list[Any] = [None] * n
        reports: list[Any] = [None] * n
        latencies = np.zeros(n, dtype=float)
        queue_delays = np.zeros(n, dtype=float)
        update_log: list[tuple[float, Any]] = []
        hedge_before = collect_hedge_counters(self.service)
        payload_before = collect_payload_counters(self._payload_backend())
        t0 = monotonic()

        stop_updates = threading.Event()

        def apply_updates() -> None:
            for at, fn in sorted(updates, key=lambda p: p[0]):
                delay = t0 + at * self.time_scale - monotonic()
                if delay > 0 and stop_updates.wait(delay):
                    return
                # A failing update must not silently kill the schedule:
                # log the exception in its slot and keep going.
                try:
                    update_log.append((at, fn(self.service)))
                except Exception as exc:  # noqa: BLE001 - recorded for caller
                    update_log.append((at, exc))

        updater_thread = None
        if updates:
            updater_thread = threading.Thread(target=apply_updates,
                                              daemon=True)
            updater_thread.start()

        inflight = 0
        inflight_max = 0
        inflight_lock = threading.Lock()

        def serve(i: int, scheduled: float) -> None:
            nonlocal inflight, inflight_max
            with inflight_lock:
                inflight += 1
                inflight_max = max(inflight_max, inflight)
            t_dispatch = monotonic()
            try:
                resp = self._serve(envelopes[i])
            finally:
                with inflight_lock:
                    inflight -= 1
            done = monotonic()
            resp.queue_delay = max(0.0, t_dispatch - scheduled)
            answers[i] = resp.answer
            reports[i] = resp.reports
            latencies[i] = done - scheduled
            queue_delays[i] = resp.queue_delay

        try:
            with ThreadPoolExecutor(
                    max_workers=self.max_concurrency,
                    thread_name_prefix="repro-openloop") as pool:
                futures = []
                for i in range(n):
                    scheduled = t0 + float(load.arrivals[i]) * self.time_scale
                    delay = scheduled - monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    futures.append(pool.submit(serve, i, scheduled))
                for f in futures:
                    f.result()
        finally:
            stop_updates.set()
            if updater_thread is not None:
                updater_thread.join()

        duration = monotonic() - t0
        stats = self._stats_from(answers, reports, latencies, duration,
                                 self.service.n_components, update_log)
        stats.inflight_max = inflight_max
        stats.queue_delays = queue_delays
        apply_class_breakdown(stats, envelopes, latencies)
        apply_payload_delta(stats, self._payload_backend(), payload_before)
        return self._apply_hedge_delta(stats, hedge_before)

    # ------------------------------------------------------------------

    def run_closed_loop(self, load: ClosedLoopLoad) -> ServingRunStats:
        """Serve a closed-loop population of ``load.n_clients`` clients.

        Each client thread repeatedly claims the next request, serves it,
        records issue-to-completion latency, then thinks.
        """
        n = load.n_requests
        envelopes = resolve_envelopes(load.requests, self.deadline)
        answers: list[Any] = [None] * n
        reports: list[Any] = [None] * n
        latencies = np.zeros(n, dtype=float)
        queue_delays = np.zeros(n, dtype=float)
        next_index = 0
        claim_lock = threading.Lock()
        hedge_before = collect_hedge_counters(self.service)
        payload_before = collect_payload_counters(self._payload_backend())
        t0 = monotonic()

        inflight = 0
        inflight_max = 0

        def client() -> None:
            nonlocal next_index, inflight, inflight_max
            while True:
                with claim_lock:
                    i = next_index
                    if i >= n:
                        return
                    next_index += 1
                    inflight += 1
                    inflight_max = max(inflight_max, inflight)
                issued = monotonic()
                try:
                    resp = self._serve(envelopes[i])
                finally:
                    with claim_lock:
                        inflight -= 1
                done = monotonic()
                # A closed-loop client dispatches immediately, so the
                # queue part of its latency is whatever the stack spent
                # outside the service call proper (backend queueing).
                resp.queue_delay = max(0.0,
                                       (done - issued) - resp.service_time)
                answers[i] = resp.answer
                reports[i] = resp.reports
                latencies[i] = done - issued
                queue_delays[i] = resp.queue_delay
                think = float(load.think_times[i]) * self.time_scale
                if think > 0:
                    time.sleep(think)

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(min(load.n_clients, n) or 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        duration = monotonic() - t0
        stats = self._stats_from(answers, reports, latencies, duration,
                                 self.service.n_components, [])
        stats.inflight_max = inflight_max
        stats.queue_delays = queue_delays
        apply_class_breakdown(stats, envelopes, latencies)
        apply_payload_delta(stats, self._payload_backend(), payload_before)
        return self._apply_hedge_delta(stats, hedge_before)

    # ------------------------------------------------------------------

    def accuracy_vs_deadline(self, requests: Sequence,
                             deadlines: Sequence[float],
                             accuracy_fn: Callable[[Any, Any, Any], float],
                             ) -> list[AccuracyPoint]:
        """Measure the accuracy-latency trade-off across ``deadlines``.

        For each deadline, every request is served (through this
        harness's backend and clock factory) and scored by
        ``accuracy_fn(answer, exact_answer, request)`` against the
        service's exact ground truth, computed once per request.  Request
        latency is the slowest component's processing time — the paper's
        service-latency definition.
        """
        requests = list(requests)
        exacts = [self.service.exact(r) for r in requests]
        curve: list[AccuracyPoint] = []
        for deadline in deadlines:
            accs, lats, depths = [], [], []
            for request, exact in zip(requests, exacts):
                # The sweep deadline wins, but an envelope request keeps
                # its class/priority/hedge metadata and identity.
                resp = self._serve(as_envelope(request, float(deadline)))
                answer, reps = resp.answer, resp.reports
                accs.append(float(accuracy_fn(answer, exact, request)))
                lats.append(max(rep.total_elapsed for rep in reps))
                depths.append(np.mean([rep.groups_processed for rep in reps]))
            lats_arr = np.asarray(lats, dtype=float)
            curve.append(AccuracyPoint(
                deadline=float(deadline),
                accuracy_mean=float(np.mean(accs)),
                latency_p50=percentile(lats_arr, 50.0),
                latency_p95=percentile(lats_arr, 95.0),
                latency_p99=percentile(lats_arr, 99.0),
                groups_processed_mean=float(np.mean(depths)),
            ))
        return curve
