"""The four live stacks, and the bench-owned proxies that observe them.

Nothing under ``src/`` is instrumented for the benchmark.  Layers are
measured from outside, the way ``IOStallAdapter`` decorates an adapter:

- :class:`TimedBackend` — a delegating ``ExecutionBackend`` at the
  router's backend seam.  It times every ``run_tasks`` call, opens a
  ``backend.run_tasks`` span around it and re-parents the tasks' trace
  context under that span, so kernel / wire / coalesce spans nest below
  the backend in the traced run.
- :class:`TimedServable` — a delegating ``Servable`` between harness and
  router that keeps the ``service_time`` every response already carries.
- :class:`LatenessRecorder` — a ``ShedPolicy`` that never sheds; it keeps
  the ``waited`` value admission is handed at arrival, which is exactly
  how late the open-loop generator ran.

The proxies exist only in instrumented (``--trace 1``) stacks, except the
lateness recorder, which the validity guard needs on every run.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.clock import monotonic
from repro.core.service import AccuracyTraderService
from repro.serving.admission import (AdmissionController, RejectOnFull,
                                     ShedPolicy)
from repro.serving.aio import AsyncServingHarness
from repro.serving.backends import (BatchingBackend, ExecutionBackend,
                                    SequentialBackend)
from repro.serving.envelope import ServingRequest
from repro.serving.harness import ServingHarness
from repro.serving.loadgen import ClosedLoopLoad, OpenLoopLoad
from repro.serving.router import ReplicaGroup, ShardedService
from repro.serving.telemetry import (attach_context, get_tracer,
                                     trace_context_of)
from repro.serving.transport import RemoteBackend, RemoteServable
from repro.util.rng import make_rng

from e2e_inputs import Inputs, UpdateStream
from e2e_spec import Workload

__all__ = ["TimedBackend", "TimedServable", "LatenessRecorder", "Stack",
           "Phase", "build_stack"]

N_SHARDS = 2
BATCH_WINDOW_S = 0.002
BATCH_MAX = 8
MAX_PENDING = 256
MAX_INFLIGHT = 8
SYNC_CONCURRENCY = 2
FIRST_REQUESTS = 8       # answered inside set-up: publishes the first state
CLOSED_CHUNK = 64        # requests per harness call of a timed closed loop


class TimedBackend(ExecutionBackend):
    """Delegating backend proxy: times and spans every ``run_tasks``."""

    name = "timed"

    def __init__(self, inner: ExecutionBackend, parallel: bool):
        self.inner = inner
        # Whether a call's tasks overlap (critical path = slowest task)
        # or run back to back (critical path = their sum).
        self.parallel = parallel
        # (request_id, t0, t1, kernel critical path seconds, n_tasks)
        self.calls: list[tuple] = []

    def run_tasks(self, tasks):
        tasks = list(tasks)
        envelope = tasks[0].envelope if tasks else None
        ctx = trace_context_of(envelope) if envelope is not None else None
        with get_tracer().span("backend.run_tasks", ctx,
                               n_tasks=len(tasks)) as sp:
            if sp.ctx is not ctx:
                tasks = [replace(t, envelope=attach_context(t.envelope,
                                                            sp.ctx))
                         for t in tasks]
            t0 = monotonic()
            outcomes = self.inner.run_tasks(tasks)
            t1 = monotonic()
        elapsed = [o.report.total_elapsed for o in outcomes]
        kernel = (max(elapsed) if self.parallel else sum(elapsed)) \
            if elapsed else 0.0
        rid = envelope.request_id if envelope is not None else None
        self.calls.append((rid, t0, t1, kernel, len(tasks)))
        return outcomes

    def submit_task(self, task):
        return self.inner.submit_task(task)

    def submit_batch(self, tasks):
        return self.inner.submit_batch(tasks)

    def payload_counters(self) -> dict:
        return self.inner.payload_counters()

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name):
        # batch_stats(), transport_counters(), ... of the wrapped backend.
        return getattr(self.inner, name)


class TimedServable:
    """Delegating servable proxy: keeps each response's service time."""

    def __init__(self, inner):
        self.inner = inner
        self.service_times: dict[int, float] = {}

    def serve(self, request, clocks=None, backend=None):
        resp = self.inner.serve(request, clocks=clocks, backend=backend)
        self.service_times[request.request_id] = resp.service_time
        return resp

    async def aserve(self, request, clocks=None, backend=None):
        resp = await self.inner.aserve(request, clocks=clocks,
                                       backend=backend)
        self.service_times[request.request_id] = resp.service_time
        return resp

    def __getattr__(self, name):
        return getattr(self.inner, name)


class LatenessRecorder(ShedPolicy):
    """Never sheds; records how late each request reached admission."""

    def __init__(self):
        self.waited: list[float] = []

    def on_arrival(self, snapshot):
        self.waited.append(snapshot.waited)
        return None


@dataclass
class Phase:
    """What one driven stretch of load produced (one slot per offered
    request; ``None`` answers/reports where admission shed it)."""

    request_ids: list
    pool_index: np.ndarray
    answers: list
    reports: list
    latencies: np.ndarray          # served requests only, seconds
    queue_delays: np.ndarray       # aligned with ``latencies``
    times: np.ndarray              # aligned too: seconds into the stretch
    #   (open loop: the scheduled arrival; closed loop: the completion)
    served: np.ndarray             # bool per offered request
    duration: float
    arrivals: np.ndarray | None = None   # open loop: scheduled times
    shed: int = 0
    queue_depth_max: int = 0
    inflight_max: int = 0
    update_log: list = field(default_factory=list)
    lateness: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def offered(self) -> int:
        return len(self.request_ids)

    @property
    def answered(self) -> int:
        return int(self.served.sum())


class Stack:
    """One workload's live serving stack plus its load driver."""

    def __init__(self, workload: Workload, inputs: Inputs, instrument: bool):
        self.workload = workload
        self.inputs = inputs
        self.remotes: list[RemoteServable] = []
        self.remote_backend: RemoteBackend | None = None
        self.batching: BatchingBackend | None = None
        self.admission: AdmissionController | None = None
        self.lateness = LatenessRecorder()
        self.timed_backend: TimedBackend | None = None
        self.updates: UpdateStream | None = None
        self._next_request = 0
        w = workload
        svc_kwargs = dict(config=inputs.config, i_max=w.i_max,
                          i_max_fraction=w.i_max_fraction)
        parts = inputs.partitions
        per_shard = len(parts) // N_SHARDS
        shard_parts = [parts[s * per_shard:(s + 1) * per_shard]
                       for s in range(N_SHARDS)]
        if w.mode == "open_sync":
            # One service process per shard behind the in-process router.
            for sp in shard_parts:
                self.remotes.append(RemoteServable.spawn(
                    AccuracyTraderService, inputs.adapter, sp, n_links=1,
                    **svc_kwargs))
            shards = [ReplicaGroup([r]) for r in self.remotes]
            backend: ExecutionBackend = SequentialBackend()
            parallel = False
        else:
            shards = [ReplicaGroup([AccuracyTraderService(
                inputs.adapter, sp, **svc_kwargs)]) for sp in shard_parts]
            if w.mode == "open_async":
                self.remote_backend = RemoteBackend(n_workers=2)
                self.batching = BatchingBackend(
                    self.remote_backend, window=BATCH_WINDOW_S,
                    max_batch=BATCH_MAX, close_inner=True)
                backend = self.batching
                parallel = True
            else:
                backend = SequentialBackend()
                parallel = False
        if instrument:
            backend = self.timed_backend = TimedBackend(backend, parallel)
        self.backend = backend
        self.service = ShardedService(shards, backend=backend)
        self.front = TimedServable(self.service) if instrument \
            else self.service
        if w.mode == "open_async":
            self.admission = AdmissionController(
                max_pending=MAX_PENDING, max_inflight=MAX_INFLIGHT,
                policies=[RejectOnFull(), self.lateness])
            # backend= is passed explicitly: the harness would otherwise
            # serve through the service's default, and batch_window=
            # without backend= silently swaps in a sequential one.
            self.harness = AsyncServingHarness(
                self.front, w.deadline_s, backend=backend,
                admission=self.admission)
            self.updates = UpdateStream(inputs)
        else:
            self.harness = ServingHarness(
                self.front, w.deadline_s,
                max_concurrency=SYNC_CONCURRENCY)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self.harness.close()
        self.service.close()        # closes replicas (remote ones too)
        self.backend.close()        # caller-owned: the router leaves it

    def workers_alive(self) -> bool:
        """Every process this stack spawned is still running."""
        alive = [p for p in multiprocessing.active_children()
                 if p.is_alive()]
        return len(alive) >= self.expected_children

    def component_epochs(self) -> list[int]:
        epochs = []
        for group in self.service.shards:
            replica = group.replicas[0]
            epochs.extend(replica.component_epoch(c)
                          for c in range(replica.n_components))
        return epochs

    def mark_spawned(self) -> None:
        """Record process count and epochs once workers are all up."""
        self.expected_children = len(multiprocessing.active_children())
        self.initial_epochs = self.component_epochs()
        self.partition_at = {
            (c, epoch): self.inputs.partitions[c]
            for c, epoch in enumerate(self.initial_epochs)}
        self.update_epochs = [[] for _ in self.initial_epochs]

    # -- load -------------------------------------------------------------

    def _envelopes(self, n: int):
        start = self._next_request
        self._next_request += n
        idx = np.arange(start, start + n) % len(self.inputs.pool)
        return idx, [ServingRequest(payload=self.inputs.pool[int(p)])
                     for p in idx]

    def serve_closed(self, n: int, n_clients: int = 1) -> Phase:
        """``n`` requests through the harness's closed loop."""
        idx, envs = self._envelopes(n)
        stats = self.harness.run_closed_loop(ClosedLoopLoad(
            n_clients=n_clients, requests=envs, think_times=np.zeros(n)))
        return Phase(
            request_ids=[e.request_id for e in envs], pool_index=idx,
            answers=stats.answers, reports=stats.reports,
            latencies=np.asarray(stats.request_latencies, dtype=float),
            queue_delays=np.asarray(stats.queue_delays, dtype=float),
            # One client: a request completes when those before it have.
            times=np.cumsum(stats.request_latencies),
            served=np.ones(n, dtype=bool), duration=stats.duration,
            inflight_max=stats.inflight_max)

    def serve_closed_for(self, seconds: float) -> Phase:
        """Closed loop, one client, until ``seconds`` have been measured.

        The harness's closed loop is count-bound, so the stretch is
        driven as back-to-back chunks; only time inside the chunks
        counts as measured wall time.
        """
        phases = []
        measured = 0.0
        while measured < seconds:
            phase = self.serve_closed(CLOSED_CHUNK)
            phase.times = phase.times + measured
            phases.append(phase)
            measured += phase.duration
        return Phase(
            request_ids=[r for p in phases for r in p.request_ids],
            pool_index=np.concatenate([p.pool_index for p in phases]),
            answers=[a for p in phases for a in p.answers],
            reports=[r for p in phases for r in p.reports],
            latencies=np.concatenate([p.latencies for p in phases]),
            queue_delays=np.concatenate([p.queue_delays for p in phases]),
            times=np.concatenate([p.times for p in phases]),
            served=np.concatenate([p.served for p in phases]),
            duration=measured,
            inflight_max=max(p.inflight_max for p in phases))

    def _apply_update(self, service):
        """One synopsis update; returns (kind, wall seconds, reports)."""
        kind, component, partition, ids = self.updates.next()
        t0 = monotonic()
        if kind == "change":
            reports = service.change_points(partition, ids,
                                            component=component)
        else:
            reports = service.add_points(partition, ids,
                                         component=component)
        seconds = monotonic() - t0
        # Which partition answers under the new epoch: the accuracy
        # check needs the exact answer over the state a request saw.
        epoch = self.component_epochs()[component]
        self.partition_at[(component, epoch)] = partition
        self.update_epochs[component].append(epoch)
        return kind, seconds, reports

    def serve_open_for(self, seconds: float,
                       rate: float | None = None) -> Phase:
        """Open loop at the workload's offered rate for ``seconds`` (the
        calibration sweep passes other rates).

        Arrivals are a Poisson process conditioned on its count: exactly
        ``round(rate * seconds)`` uniform arrival times, sorted.  Fixing
        the count keeps the offered load identical across seeds, so
        throughput does not inherit the sqrt(n) noise of the draw.
        """
        w = self.workload
        rate = w.rate_rps if rate is None else rate
        n = max(1, int(round(rate * seconds)))
        rng = make_rng(self.inputs.seed, "e2e-arrivals", self._next_request)
        arrivals = np.sort(rng.uniform(0.0, seconds, n))
        idx, envs = self._envelopes(n)
        load = OpenLoopLoad(arrivals=arrivals, requests=envs)
        updates = None
        if self.updates is not None:
            every = w.update_every_s
            updates = [(k * every, self._apply_update)
                       for k in range(1, int(seconds / every))]
        n_late0 = len(self.lateness.waited)
        stats = self.harness.run_open_loop(load, updates)
        served = np.array([a is not None for a in stats.answers],
                          dtype=bool)
        return Phase(
            request_ids=[e.request_id for e in envs], pool_index=idx,
            answers=stats.answers, reports=stats.reports,
            latencies=np.asarray(stats.request_latencies, dtype=float),
            queue_delays=np.asarray(stats.queue_delays, dtype=float),
            times=arrivals[served],
            served=served, duration=stats.duration, arrivals=arrivals,
            shed=stats.shed, queue_depth_max=stats.queue_depth_max,
            inflight_max=stats.inflight_max,
            update_log=[entry for _, entry in stats.update_log],
            lateness=np.asarray(self.lateness.waited[n_late0:],
                                dtype=float))

    def serve_for(self, seconds: float) -> Phase:
        if self.workload.mode == "closed":
            return self.serve_closed_for(seconds)
        return self.serve_open_for(seconds)


def build_stack(workload: Workload, inputs: Inputs,
                instrument: bool = False) -> Stack:
    """Set one stack up end to end: build every synopsis, spawn workers,
    and answer the first requests (which publishes the first state)."""
    stack = Stack(workload, inputs, instrument)
    try:
        stack.serve_closed(FIRST_REQUESTS)
        stack.mark_spawned()
    except BaseException:
        stack.close()
        raise
    return stack
