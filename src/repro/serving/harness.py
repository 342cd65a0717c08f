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

The thread harness here and the coroutine harness in
:mod:`repro.serving.aio` share one core: construction and backend
ownership, per-request clocks and "request" spans, and one per-run
recorder that snapshots the hedge and payload counters at start, takes
one slot per answered request, and builds the
:class:`ServingRunStats`.  Each harness keeps only its own pacing.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.clock import ClockFactory, monotonic, wall_clock_factory
from repro.serving.backends import ExecutionBackend, resolve_backend
from repro.serving.envelope import ServingRequest, as_envelope
from repro.serving.loadgen import ClosedLoopLoad, OpenLoopLoad
from repro.serving.telemetry import get_tracer
from repro.util.stats import percentile

__all__ = ["ServingRunStats", "AccuracyPoint", "ServingHarness",
           "payload_backend_of", "resolve_envelopes"]

#: Counter families a run reports as deltas: the router's hedge counters
#: and the backends' serialized-payload counters.
_RUN_COUNTERS = ("shard_calls", "hedges_issued", "hedge_wins",
                 "task_bytes", "state_bytes", "tasks_shipped",
                 "state_publishes")


def resolve_envelopes(requests, deadline: float) -> list[ServingRequest]:
    """One resolved envelope per load request, in arrival order.

    Shared by the thread and async harnesses.  A load whose requests
    are already :class:`~repro.serving.envelope.ServingRequest`
    envelopes keeps its classes, priorities and per-request deadline
    overrides (``deadline`` only fills in where an envelope left it
    unset); bare payloads are wrapped as default-class envelopes.
    """
    return [as_envelope(r).resolved(deadline) for r in requests]


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
        Router hedging counters for this run (deltas of the service's
        ``hedge_counters()``); zero for unrouted services.
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
        backends :func:`payload_backend_of` finds, read through their
        ``payload_counters()``; zero for in-process backends,
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


class _RunRecorder:
    """One run's measurements, from counter snapshots to the stats.

    Holds one aligned slot per offered request (``answers``, ``reports``,
    latency, queue delay, served flag), the run's update log and its
    in-flight peak.  Hedge and payload counters are snapshotted at
    construction, so :meth:`stats` reports this run's deltas only.
    Thread-safe: the thread harness records from many workers.
    """

    def __init__(self, harness: "_HarnessCore", envelopes: list,
                 clock: Callable[[], float] = monotonic):
        n = len(envelopes)
        self.service = harness.service
        self.backends = harness._payload_backend()
        self.envelopes = envelopes
        self.answers: list[Any] = [None] * n
        self.reports: list[Any] = [None] * n
        self.latencies = np.full(n, np.nan)
        self.queue_delays = np.full(n, np.nan)
        self.served = np.zeros(n, dtype=bool)
        self.update_log: list[tuple[float, Any]] = []
        self.inflight = self.inflight_max = 0
        self._next_index = 0
        self._lock = threading.Lock()
        self._counters0 = self._counters()
        self._clock = clock
        self.t0 = clock()

    def _counters(self) -> dict:
        """The service's hedge counters plus the backends' payload
        counters, summed (duck-typed; absent families stay absent)."""
        hedge = getattr(self.service, "hedge_counters", None)
        counters = dict(hedge()) if callable(hedge) else {}
        for backend in self.backends:
            payload = getattr(backend, "payload_counters", None)
            if callable(payload):
                for key, value in payload().items():
                    counters[key] = counters.get(key, 0) + value
        return counters

    def claim(self) -> int | None:
        """The next unclaimed request index (closed loop), or ``None``."""
        with self._lock:
            i = self._next_index
            if i >= len(self.envelopes):
                return None
            self._next_index += 1
            return i

    @contextmanager
    def in_flight(self):
        """Count one request in flight for the duration of the block."""
        with self._lock:
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            yield
        finally:
            with self._lock:
                self.inflight -= 1

    def apply_update(self, at: float, fn: Callable) -> None:
        """Run one scheduled update and log its result in ``update_log``.

        A failing update must not silently kill the schedule: its
        exception object is logged in its slot instead.
        """
        try:
            self.update_log.append((at, fn(self.service)))
        except Exception as exc:  # noqa: BLE001 - recorded for caller
            self.update_log.append((at, exc))

    def record(self, i: int, resp, latency: float,
               queue_delay: float) -> None:
        """Request ``i`` was answered by ``resp``."""
        resp.queue_delay = queue_delay
        self.answers[i] = resp.answer
        self.reports[i] = resp.reports
        self.latencies[i] = latency
        self.queue_delays[i] = queue_delay
        self.served[i] = True

    def stats(self) -> ServingRunStats:
        """This run's :class:`ServingRunStats`.

        ``answers`` and ``reports`` keep one slot per offered request
        (``None`` where shed); the latency arrays are compacted to the
        served requests, so percentiles stay finite.
        """
        served = self.served
        stats = ServingRunStats(
            sub_latencies=np.array(
                [rep.total_elapsed
                 for i in np.flatnonzero(served) for rep in self.reports[i]],
                dtype=float),
            request_latencies=self.latencies[served],
            n_requests=int(served.sum()),
            n_components=self.service.n_components,
            duration=float(self._clock() - self.t0),
            answers=list(self.answers),
            reports=list(self.reports),
            update_log=list(self.update_log),
            inflight_max=self.inflight_max,
            queue_delays=self.queue_delays[served],
        )
        by_class: dict[str, list[float]] = {}
        for i, env in enumerate(self.envelopes):
            key = env.request_class.value
            if served[i]:
                stats.class_served[key] = stats.class_served.get(key, 0) + 1
                by_class.setdefault(key, []).append(float(self.latencies[i]))
            else:
                stats.class_shed[key] = stats.class_shed.get(key, 0) + 1
        stats.class_latencies = {k: np.asarray(v, dtype=float)
                                 for k, v in by_class.items()}
        after = self._counters()
        for key in _RUN_COUNTERS:
            if key in self._counters0 and key in after:
                setattr(stats, key, after[key] - self._counters0[key])
        return stats


class _HarnessCore:
    """What the thread and coroutine harnesses share.

    Construction checks and backend ownership, :meth:`close` and the
    context manager, per-request clocks and "request" spans, and the
    per-run :class:`_RunRecorder`.
    """

    def __init__(self, service, deadline: float,
                 backend: ExecutionBackend | str | None = None,
                 clock_factory: ClockFactory | None = None):
        if deadline < 0:
            raise ValueError("deadline must be non-negative")
        self.service = service
        self.deadline = float(deadline)
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = (resolve_backend(backend)
                        if backend is not None else None)
        self.clock_factory = (clock_factory if clock_factory is not None
                              else wall_clock_factory())

    def close(self) -> None:
        if self.backend is not None and self._owns_backend:
            self.backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _clocks(self) -> list:
        n = self.service.n_components
        return [self.clock_factory(c) for c in range(n)]

    def _payload_backend(self):
        return payload_backend_of(self.backend, self.service)

    def _request_span(self, envelope: ServingRequest):
        # The harness is the outermost instrumented layer, so it wins
        # the trace root; the "request" span covers the whole
        # client-observed service call.
        return get_tracer().request_span(
            "request", envelope, request_class=envelope.request_class.value)

    def _recorder(self, load, clock: Callable[[], float] = monotonic,
                  ) -> _RunRecorder:
        return _RunRecorder(self, resolve_envelopes(load.requests,
                                                    self.deadline), clock)


class ServingHarness(_HarnessCore):
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
        :meth:`close`.  To coalesce concurrent requests' tasks, pass a
        :class:`~repro.serving.backends.BatchingBackend` wrapping the
        backend of choice.
    clock_factory:
        Per-component deadline-clock factory for each request; defaults
        to fresh wall clocks (real serving).  Pass
        :func:`~repro.core.clock.simulated_clock_factory` for
        deterministic latency accounting.
    max_concurrency:
        Maximum in-flight requests in open-loop mode (the outer dispatch
        pool; per-component parallelism belongs to ``backend``).
    """

    def __init__(self, service, deadline: float,
                 backend: ExecutionBackend | str | None = None,
                 clock_factory: ClockFactory | None = None,
                 max_concurrency: int = 64):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        super().__init__(service, deadline, backend, clock_factory)
        self.max_concurrency = int(max_concurrency)

    def _serve(self, envelope: ServingRequest):
        with self._request_span(envelope) as (env, _):
            return self.service.serve(env, clocks=self._clocks(),
                                      backend=self.backend)

    # ------------------------------------------------------------------

    def run_open_loop(self, load: OpenLoopLoad,
                      updates: Sequence[tuple[float, Callable]] | None = None,
                      ) -> ServingRunStats:
        """Serve an open-loop stream, pacing dispatch by arrival times.

        ``updates`` is an optional schedule of ``(at_seconds, fn)``; each
        ``fn(service)`` runs on a background thread once ``at_seconds`` of
        stream time have elapsed — e.g. a closure calling
        :meth:`~repro.core.service.AccuracyTraderService.add_points` —
        concurrently with in-flight requests.  Whatever ``fn`` returns is
        recorded in the stats' ``update_log``; if ``fn`` raises, the
        exception object is recorded in its slot instead and the
        remaining schedule still runs.
        """
        rec = self._recorder(load)
        stop_updates = threading.Event()

        def apply_updates() -> None:
            for at, fn in sorted(updates, key=lambda p: p[0]):
                delay = rec.t0 + at - monotonic()
                if delay > 0 and stop_updates.wait(delay):
                    return
                rec.apply_update(at, fn)

        updater_thread = None
        if updates:
            updater_thread = threading.Thread(target=apply_updates,
                                              daemon=True)
            updater_thread.start()

        def serve(i: int, scheduled: float) -> None:
            t_dispatch = monotonic()
            with rec.in_flight():
                resp = self._serve(rec.envelopes[i])
            rec.record(i, resp, monotonic() - scheduled,
                       max(0.0, t_dispatch - scheduled))

        try:
            with ThreadPoolExecutor(
                    max_workers=self.max_concurrency,
                    thread_name_prefix="repro-openloop") as pool:
                futures = []
                for i in range(load.n_requests):
                    scheduled = rec.t0 + float(load.arrivals[i])
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
        return rec.stats()

    # ------------------------------------------------------------------

    def run_closed_loop(self, load: ClosedLoopLoad) -> ServingRunStats:
        """Serve a closed-loop population of ``load.n_clients`` clients.

        Each client thread repeatedly claims the next request, serves it,
        records issue-to-completion latency, then thinks.
        """
        rec = self._recorder(load)

        def client() -> None:
            while (i := rec.claim()) is not None:
                issued = monotonic()
                with rec.in_flight():
                    resp = self._serve(rec.envelopes[i])
                latency = monotonic() - issued
                # A closed-loop client dispatches immediately, so the
                # queue part of its latency is whatever the stack spent
                # outside the service call proper (backend queueing).
                rec.record(i, resp, latency,
                           max(0.0, latency - resp.service_time))
                think = float(load.think_times[i])
                if think > 0:
                    time.sleep(think)

        n_clients = min(load.n_clients, load.n_requests) or 1
        with ThreadPoolExecutor(max_workers=n_clients,
                                thread_name_prefix="repro-closedloop") as pool:
            for f in [pool.submit(client) for _ in range(n_clients)]:
                f.result()  # a failed request fails the run
        return rec.stats()

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
