"""High-level facade: a partitioned AccuracyTrader service in one object.

Wires together what the examples assemble by hand — partitioning, synopsis
creation, per-component processors, result merging — behind the smallest
API a downstream user needs:

    service = AccuracyTraderService(adapter, partitions)
    response = service.serve(as_envelope(request, deadline=0.1))

Per-component execution is delegated to a pluggable
:class:`~repro.serving.backends.ExecutionBackend` (sequential by default;
a thread pool, or remote worker processes for real fan-out
parallelism).  The fan-out *queueing* behaviour still belongs to
:mod:`repro.cluster`, which is about predicting latency, not producing
answers; driving live request streams belongs to :mod:`repro.serving`.

Concurrency model (epoch-versioned copy-on-swap)
------------------------------------------------

Each component's mutable state is published through a
:class:`~repro.core.state.StateStore` as one immutable
:class:`~repro.core.state.ComponentState` snapshot — a ``(partition,
synopsis)`` pair, never mutated after publication, tagged with a
monotonically increasing :data:`~repro.core.state.StateEpoch` id.
``serve`` captures one pinned :class:`~repro.core.state.StateRef` per
component at dispatch and hands the backend tasks that reference state
by ``(component, epoch)``, so an in-flight request keeps computing
against its dispatch-time snapshot even while ``add_points`` /
``change_points`` / ``replace_partition`` publish new epochs.  Updates
run under a per-component lock (serialising writers) and finish by
publishing a *new* snapshot — a single swap under the store lock — so
concurrent readers observe either the old epoch or the new one, never a
torn mix.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.core.adapters import ServiceAdapter
from repro.core.builder import SynopsisBuilder, SynopsisConfig
from repro.core.clock import DeadlineClock, SimulatedClock, monotonic
from repro.core.servable import default_merge, merge_outcomes
from repro.core.state import (ComponentState, StateEpoch, StateStore,
                              UpdateHint)
from repro.core.synopsis import Synopsis
from repro.core.updater import SynopsisUpdater

__all__ = ["ComponentState", "AccuracyTraderService"]


class AccuracyTraderService:
    """A complete n-component AccuracyTrader deployment over one dataset.

    Parameters
    ----------
    adapter:
        Service adapter (:class:`CFAdapter` or :class:`SearchAdapter`,
        or any custom :class:`ServiceAdapter` — possibly wrapped, e.g.
        :class:`~repro.serving.adapters.IOStallAdapter`).
    partitions:
        The input data, already divided into per-component subsets.
    config:
        Synopsis-creation configuration (shared by all components).
    i_max / i_max_fraction:
        Algorithm 1's refinement cap (see
        :class:`~repro.core.processor.AccuracyAwareProcessor`).
    merge:
        Combines the per-component results into the service answer.
        Defaults: CF -> merged :class:`~repro.recommender.cf.CFPrediction`;
        search -> global top-k via :func:`~repro.search.engine.merge_topk`.
    backend:
        Default :class:`~repro.serving.backends.ExecutionBackend` (or its
        name: ``"sequential"``, ``"thread"``, ``"async"``, ``"remote"``)
        used by :meth:`process` when no per-call backend is given.
    """

    def __init__(self, adapter: ServiceAdapter, partitions,
                 config: SynopsisConfig | None = None,
                 i_max: int | None = None,
                 i_max_fraction: float | None = None,
                 merge: Callable | None = None,
                 backend=None):
        from repro.serving.backends import ExecutionBackend, resolve_backend

        self.adapter = adapter
        partitions = list(partitions)
        if not partitions:
            raise ValueError("need at least one partition")
        for i, part in enumerate(partitions):
            if len(adapter.record_ids(part)) == 0:
                raise ValueError(
                    f"partition {i} of {len(partitions)} has no records; "
                    "splitting a dataset into more parts than records "
                    "produces empty components — use fewer parts")
        self.config = config if config is not None else SynopsisConfig()
        self._i_max = i_max
        self._i_max_fraction = i_max_fraction
        self._builder = SynopsisBuilder(adapter, self.config)
        self.store = StateStore()
        self.updaters: list[SynopsisUpdater] = []
        for c, part in enumerate(partitions):
            synopsis, artifacts = self._builder.build(part)
            self.updaters.append(SynopsisUpdater(adapter, self.config, part,
                                                 synopsis, artifacts))
            self.store.publish(c, ComponentState(partition=part,
                                                 synopsis=synopsis))
        self._update_locks = [threading.Lock() for _ in partitions]
        self._merge = merge if merge is not None else default_merge(adapter)
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the default backend if this service created it.

        A backend passed in as an instance is shared caller-owned state
        and is left alone; one resolved here from a name (or ``None``)
        is owned by the service and shut down (idempotent).
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "AccuracyTraderService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def n_components(self) -> int:
        return len(self.updaters)

    @property
    def merge(self) -> Callable:
        """The merge function combining per-component results."""
        return self._merge

    @property
    def partitions(self) -> list:
        """Current per-component partitions (snapshot view)."""
        return [self.store.current_state(c).partition
                for c in range(self.n_components)]

    @property
    def synopses(self) -> list[Synopsis]:
        """Current per-component synopses (snapshot view)."""
        return [self.store.current_state(c).synopsis
                for c in range(self.n_components)]

    def component_state(self, component: int) -> ComponentState:
        """The component's current published snapshot."""
        return self.store.current_state(component)

    def component_epoch(self, component: int) -> StateEpoch:
        """The component's current state epoch."""
        return self.store.current_epoch(component)

    # ------------------------------------------------------------------

    def build_tasks(self, request, deadline: float | None = None,
                    clocks: list[DeadlineClock] | None = None) -> list:
        """Self-contained per-component tasks for one request.

        ``request`` is either a :class:`~repro.serving.envelope.
        ServingRequest` envelope (its payload is dispatched; its
        detached, payload-free copy rides each task so reports carry the
        request's id and class) or a bare payload.  ``deadline``, when
        given, wins over the envelope's own (the router passes per-shard
        budget-scaled deadlines this way); with an envelope it may be
        omitted.

        Each task references the component's current published snapshot
        by a pinned ``(component, epoch)`` :class:`~repro.core.state.
        StateRef`, so the list is safe to execute on any backend, at any
        later time, concurrently with updates — execution always
        resolves the dispatch-time epoch.  The router tier uses this to
        dispatch (and hedge) a service's components without going
        through :meth:`serve`.
        """
        from repro.serving.backends import ComponentTask
        from repro.serving.envelope import ServingRequest

        envelope = None
        payload = request
        if isinstance(request, ServingRequest):
            envelope = request.detached()
            payload = request.payload
            if deadline is None:
                deadline = request.deadline
        if deadline is None:
            raise ValueError(
                "a deadline is required: set it on the envelope or pass "
                "deadline= explicitly")
        if clocks is None:
            clocks = [SimulatedClock(speed=1e12)
                      for _ in range(self.n_components)]
        if len(clocks) != self.n_components:
            raise ValueError("need one clock per component")
        refs = [self.store.ref(c) for c in range(self.n_components)]
        return [
            ComponentTask(
                component=c,
                adapter=self.adapter,
                request=payload,
                deadline=deadline,
                state_ref=ref,
                clock=clock,
                i_max=self._i_max,
                i_max_fraction=self._i_max_fraction,
                envelope=envelope,
            )
            for c, (ref, clock) in enumerate(zip(refs, clocks))
        ]

    # -- the native envelope path --------------------------------------

    def serve(self, request, clocks: list[DeadlineClock] | None = None,
              backend=None):
        """Answer one :class:`~repro.serving.envelope.ServingRequest`.

        The native typed entry point: the envelope's deadline applies
        per component, ``clocks`` supplies one deadline clock per
        component (default: fresh effectively-infinite simulated
        clocks), and ``backend`` overrides the service's default
        execution backend for this call.  Returns a
        :class:`~repro.serving.envelope.ServingResponse` whose reports
        carry the envelope's id/class and the answering state epochs.

        Safe to call from many threads concurrently, including while
        updates are being applied: each component's work runs against
        the consistent snapshot current at dispatch.

        Tracing: the request is rooted in a trace here if nothing
        upstream (harness, router) already did, a ``serve`` span covers
        dispatch-to-merge, and worker-side spans piggybacked on the
        outcomes are stitched into the live tracer.
        """
        from repro.serving.envelope import ServingResponse
        from repro.serving.telemetry import get_tracer

        t_dispatch = monotonic()
        with get_tracer().request_span(
                "serve", request, components=self.n_components) as (env, _):
            tasks = self.build_tasks(env, clocks=clocks)
            exec_backend = self.backend if backend is None else backend
            outcomes = exec_backend.run_tasks(tasks)
            answer, reports = merge_outcomes(self._merge, outcomes, request)
        return ServingResponse(
            answer=answer, reports=reports,
            request=request, service_time=monotonic() - t_dispatch)

    async def aserve(self, request,
                     clocks: list[DeadlineClock] | None = None,
                     backend=None):
        """Async :meth:`serve` — same contract, awaitable execution.

        On an :class:`~repro.serving.aio.AsyncExecutionBackend` the
        component tasks run natively on the calling event loop; any
        other backend is bridged through an executor so the loop never
        blocks.  Bit-identical to :meth:`serve` over the same snapshots
        and clocks.
        """
        from repro.serving.aio import arun_tasks
        from repro.serving.envelope import ServingResponse
        from repro.serving.telemetry import get_tracer

        t_dispatch = monotonic()
        with get_tracer().request_span(
                "serve", request, components=self.n_components) as (env, _):
            tasks = self.build_tasks(env, clocks=clocks)
            exec_backend = self.backend if backend is None else backend
            outcomes = await arun_tasks(exec_backend, tasks)
            answer, reports = merge_outcomes(self._merge, outcomes, request)
        return ServingResponse(
            answer=answer, reports=reports,
            request=request, service_time=monotonic() - t_dispatch)

    def exact_components(self, request) -> list:
        """Unmerged exact per-component results (for cross-shard merging)."""
        from repro.serving.envelope import payload_of

        payload = payload_of(request)
        return [self.adapter.exact(p, payload) for p in self.partitions]

    def exact(self, request) -> Any:
        """Full exact computation across all partitions (ground truth)."""
        from repro.serving.envelope import payload_of

        payload = payload_of(request)
        return self._merge(self.exact_components(payload), payload)

    # ------------------------------------------------------------------

    def add_points(self, component: int, partition, new_record_ids):
        """Apply an add-points update to one component's synopsis.

        Thread-safe with respect to concurrent :meth:`process` calls and
        updates to other components; updates to the *same* component are
        serialised by a per-component lock.  Publishes a new state epoch;
        in-flight requests keep their dispatch-time epoch.
        """
        with self._update_locks[component]:
            report = self.updaters[component].add_points(partition,
                                                         new_record_ids)
            self.store.publish(
                component,
                ComponentState(partition=partition,
                               synopsis=self.updaters[component].synopsis),
                hint=UpdateHint(reaggregated=report.reaggregated_slots,
                                index_changed=report.index_changed))
        return report

    def change_points(self, component: int, partition, changed_record_ids):
        """Apply a change-points update to one component's synopsis.

        Same concurrency contract as :meth:`add_points`.
        """
        with self._update_locks[component]:
            report = self.updaters[component].change_points(
                partition, changed_record_ids)
            self.store.publish(
                component,
                ComponentState(partition=partition,
                               synopsis=self.updaters[component].synopsis),
                hint=UpdateHint(reaggregated=report.reaggregated_slots,
                                index_changed=report.index_changed))
        return report

    def replace_partition(self, component: int, partition) -> StateEpoch:
        """Replace one component's partition wholesale (shard rebalancing).

        Rebuilds the component's synopsis from scratch with the service's
        own deterministic builder — so a replaced component is
        bit-identical to one built cold over the same partition — and
        publishes the result as a new state epoch.  Requests in flight
        keep draining against their dispatch-time snapshots.  Returns
        the new epoch id.
        """
        if len(self.adapter.record_ids(partition)) == 0:
            raise ValueError(
                f"replacement partition for component {component} has no "
                "records; a rebalance must not empty a component")
        with self._update_locks[component]:
            synopsis, artifacts = self._builder.build(partition)
            self.updaters[component] = SynopsisUpdater(
                self.adapter, self.config, partition, synopsis, artifacts)
            return self.store.publish(component, ComponentState(
                partition=partition, synopsis=synopsis))
