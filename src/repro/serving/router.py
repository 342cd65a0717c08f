"""Router tier: scale-out serving over sharded, replicated services.

After PR 1 the live path served one monolithic
:class:`~repro.core.service.AccuracyTraderService`; only the *simulator*
(:mod:`repro.cluster.hedged`) knew about shards, replicas, and hedging.
This module closes that gap with two more :class:`~repro.core.servable.
Servable` implementations, so :class:`~repro.serving.harness.
ServingHarness` and :class:`~repro.serving.loadgen.LoadGenerator` drive
a routed cluster completely unchanged:

- :class:`ReplicaGroup` — N replica services over the *same* partitions.
  Requests round-robin across replicas; synopsis updates fan out to all
  of them, keeping every replica able to answer for the group.
- :class:`ShardedService` — a router over many replica groups, each
  owning one shard of the data (build shards with the
  :class:`~repro.workloads.partitioning.ShardMap` helpers).  A request
  fans out to every shard with a per-shard deadline budget, and the
  per-component results merge across shards through the same associative
  merge functions a single service uses — so a routed answer is
  bit-identical to the unsharded one over the same partitions.

Both are envelope-native :class:`~repro.core.servable.Servable`
implementations: requests travel as typed
:class:`~repro.serving.envelope.ServingRequest` envelopes through
``serve`` / ``aserve`` (the envelope's ``hedge`` field opts a single
request out of re-issue).  The two share validation, replica placement,
the ``router.serve`` span and the merge, and differ only in how the
shard calls run.  To coalesce tasks across shards and requests, pass a
:class:`~repro.serving.backends.BatchingBackend` as ``backend``.

Live hedged re-issue
--------------------

With a :class:`~repro.strategies.reissue.ReissueStrategy` attached, the
router mirrors :class:`~repro.cluster.hedged.HedgedFanoutSimulator`
semantics on the live path (Dean & Barroso's tied requests, paper §4.1):

- a shard call outstanding longer than the strategy's adaptive p95
  threshold is re-issued once on a sibling replica — chosen by the
  group's placement strategy (fixed next-in-ring, or power-of-two-
  choices over observed per-replica latency);
- re-issues are bounded by a **hedge budget** (Dean & Barroso's ~5%
  rule, ``hedge_budget``): the realized re-issue fraction never exceeds
  the configured cap, so a systemic slowdown — where every call looks
  like a straggler — cannot double cluster load;
- the first copy to complete wins.  On the sync path the loser is
  cancelled *best-effort* — a queued copy is dropped
  (``Future.cancel``), a copy already executing runs to completion and
  its answer is discarded.  On the async path (``aserve``) the loser
  is *really* cancelled: its next await raises ``CancelledError`` and
  its remaining stalls never run;
- every shard call's effective latency (first copy to finish) feeds the
  strategy's threshold estimator, so measured and simulated hedging are
  directly comparable.

Updates route through an optional component
:class:`~repro.workloads.partitioning.ShardMap`: ``add_points`` /
``change_points`` take *global* record ids and resolve the owning shard
and component themselves (see the update section below).

Online shard rebalancing (:meth:`ShardedService.rebalance`) moves
records between live shards: the minimal set of affected components is
rebuilt bit-identically to a cold build over the new map and published
as fresh state epochs on every replica, while in-flight requests keep
draining against their dispatch-time snapshots (epoch pinning — see
:mod:`repro.core.state`).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.clock import ClockFactory, fresh_like, monotonic, \
    wall_clock_factory
from repro.core.servable import merge_outcomes
from repro.core.service import AccuracyTraderService
from repro.serving.backends import ExecutionBackend, resolve_backend
from repro.serving.envelope import ServingRequest, ServingResponse, \
    payload_of
from repro.serving.telemetry import MetricsRegistry, get_tracer, \
    trace_context_of
from repro.strategies.reissue import ReissueStrategy
from repro.workloads.partitioning import reshard_partitions

__all__ = ["ReplicaGroup", "ShardedService", "RebalanceReport"]


@dataclass
class RebalanceReport:
    """What one :meth:`ShardedService.rebalance` call did.

    ``epochs`` maps each affected *global* component to the state epochs
    its replicas published (one per replica); untouched components keep
    serving their existing epochs throughout.
    """

    n_moved: int
    affected_components: list[int]
    epochs: dict[int, list] = field(default_factory=dict, repr=False)


class ReplicaGroup:
    """N replica services over the same partitions — one logical shard.

    All replicas must agree on component count; with the deterministic
    seeded synopsis build, replicas constructed from the same inputs hold
    bit-identical state, so any replica can answer for the group.
    Replicas may still differ *operationally* (e.g. one wrapped in
    :class:`~repro.serving.adapters.IOStallAdapter` to model a slow
    node), which is what live hedging exploits.

    Parameters
    ----------
    replicas:
        Pre-built :class:`~repro.core.service.AccuracyTraderService`
        instances (use :meth:`build` to construct identical ones).
    hedge_placement:
        How a straggling call picks its hedge sibling: ``"ring"`` (the
        fixed next replica, the original behaviour) or ``"p2c"``
        (power-of-two-choices: sample two candidate siblings, hedge to
        the one with the lower observed latency — unobserved replicas
        are preferred, so every replica gets explored).  With two
        replicas the strategies coincide.
    placement_seed:
        Seed for the ``"p2c"`` candidate sampling.
    """

    _PLACEMENTS = ("ring", "p2c")
    _EWMA_ALPHA = 0.3

    def __init__(self, replicas: Sequence[AccuracyTraderService],
                 hedge_placement: str = "ring", placement_seed: int = 0):
        replicas = list(replicas)
        if not replicas:
            raise ValueError("need at least one replica")
        n0 = replicas[0].n_components
        if any(r.n_components != n0 for r in replicas):
            raise ValueError("replicas must have the same component count")
        if hedge_placement not in self._PLACEMENTS:
            raise ValueError(
                f"unknown hedge placement {hedge_placement!r}; "
                f"expected one of {self._PLACEMENTS}")
        self.replicas = replicas
        self.hedge_placement = hedge_placement
        self._next = 0
        self._pick_lock = threading.Lock()
        self._latency: list[float | None] = [None] * len(replicas)
        self._latency_lock = threading.Lock()
        from repro.util.rng import make_rng

        self._placement_rng = make_rng(placement_seed, "hedge-placement")

    @classmethod
    def build(cls, adapter, partitions, n_replicas: int,
              hedge_placement: str = "ring", placement_seed: int = 0,
              **service_kwargs) -> "ReplicaGroup":
        """Construct ``n_replicas`` identical services over ``partitions``."""
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        partitions = list(partitions)
        return cls([AccuracyTraderService(adapter, partitions,
                                          **service_kwargs)
                    for _ in range(n_replicas)],
                   hedge_placement=hedge_placement,
                   placement_seed=placement_seed)

    # ------------------------------------------------------------------

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def n_components(self) -> int:
        return self.replicas[0].n_components

    @property
    def merge(self) -> Callable:
        return self.replicas[0].merge

    def next_replica(self) -> int:
        """Round-robin replica index for the next request (thread-safe)."""
        with self._pick_lock:
            i = self._next % self.n_replicas
            self._next += 1
            return i

    def sibling_of(self, replica: int) -> int:
        """The fixed next-in-ring sibling of ``replica``."""
        return (replica + 1) % self.n_replicas

    def observe_latency(self, replica: int, latency: float) -> None:
        """Record one observed shard-call latency on ``replica`` (EWMA)."""
        with self._latency_lock:
            prev = self._latency[replica]
            self._latency[replica] = (
                float(latency) if prev is None
                else (1.0 - self._EWMA_ALPHA) * prev
                + self._EWMA_ALPHA * float(latency))

    def replica_latency(self, replica: int) -> float | None:
        """Current latency estimate for ``replica`` (``None``: unobserved)."""
        with self._latency_lock:
            return self._latency[replica]

    def hedge_sibling(self, primary: int) -> int:
        """The replica a straggling call on ``primary`` is hedged to.

        ``"ring"`` placement returns the fixed next replica.  ``"p2c"``
        samples two distinct candidate siblings and hedges to the one
        with the lower observed-latency estimate — the classic
        power-of-two-choices load-aware pick, with unobserved replicas
        preferred so estimates exist for every replica eventually.
        """
        n = self.n_replicas
        if n < 2:
            raise ValueError("a single-replica group has no hedge sibling")
        if self.hedge_placement == "ring" or n == 2:
            return self.sibling_of(primary)
        candidates = [r for r in range(n) if r != primary]
        with self._pick_lock:
            picks = self._placement_rng.choice(len(candidates), size=2,
                                               replace=False)
        a, b = candidates[int(picks[0])], candidates[int(picks[1])]

        def estimate(replica: int) -> float:
            lat = self.replica_latency(replica)
            return float("-inf") if lat is None else lat

        return min(a, b, key=lambda r: (estimate(r), r))

    # -- Servable ------------------------------------------------------

    def serve(self, request: ServingRequest, clocks=None, backend=None,
              ) -> ServingResponse:
        """Answer one envelope on the next replica in round-robin order."""
        replica = self.replicas[self.next_replica()]
        return replica.serve(request, clocks=clocks, backend=backend)

    async def aserve(self, request: ServingRequest, clocks=None,
                     backend=None) -> ServingResponse:
        """Async :meth:`serve` on the next replica in round-robin order."""
        replica = self.replicas[self.next_replica()]
        return await replica.aserve(request, clocks=clocks, backend=backend)

    def exact_components(self, request) -> list:
        return self.replicas[0].exact_components(request)

    def exact(self, request) -> Any:
        return self.replicas[0].exact(request)

    # -- updates: fan out so replicas stay interchangeable -------------

    def add_points(self, component: int, partition, new_record_ids) -> list:
        """Apply an add-points update on *every* replica; list of reports."""
        return [r.add_points(component, partition, new_record_ids)
                for r in self.replicas]

    def change_points(self, component: int, partition,
                      changed_record_ids) -> list:
        """Apply a change-points update on *every* replica; list of reports."""
        return [r.change_points(component, partition, changed_record_ids)
                for r in self.replicas]

    def replace_partition(self, component: int, partition) -> list:
        """Replace one component's partition on *every* replica.

        The shard-rebalancing primitive: each replica rebuilds the
        component's synopsis deterministically and publishes it as a new
        state epoch (see :meth:`~repro.core.service.AccuracyTraderService.
        replace_partition`).  Returns the new epoch per replica.
        """
        return [r.replace_partition(component, partition)
                for r in self.replicas]

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        for r in self.replicas:
            r.close()

    def __enter__(self) -> "ReplicaGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedService:
    """A routed cluster of replica groups, itself a ``Servable``.

    Parameters
    ----------
    shards:
        One :class:`ReplicaGroup` (or bare ``AccuracyTraderService``,
        wrapped as a single-replica group) per shard.  Global component
        index is the concatenation in shard order, so clocks, reports and
        merges line up with an unsharded service over the same partition
        sequence.
    merge:
        Cross-shard merge; defaults to shard 0's merge function (the
        paper merges are associative, so component-level merging across
        shards equals the unsharded merge).
    deadline_budgets:
        Per-shard multipliers on the request deadline (default 1.0 each):
        shard s's components run under ``deadline * budgets[s]``, letting
        a deployment grant slow/large shards more refinement time.
    backend:
        Default :class:`~repro.serving.backends.ExecutionBackend`
        (instance, name, or ``None``); one resolved here from a spec is
        owned and closed by :meth:`close`.
    hedge:
        Optional :class:`~repro.strategies.reissue.ReissueStrategy`
        enabling live hedged re-issue (see module docstring).  Needs at
        least one shard with two replicas; in-process replicas also need
        a backend with real queues (thread/process/async), remote ones
        hedge from any backend — a shard copy is submitted as one unit.
    hedge_budget:
        Cap on the fraction of shard calls that may be re-issued (Dean &
        Barroso's ~5% rule, the default): a hedge is only issued while
        ``hedges_issued + 1 <= hedge_budget * shard_calls``, so a
        *systemic* slowdown — where every call looks like a straggler —
        cannot double cluster load.  ``None`` disables the cap.  The
        realized rate is :attr:`hedge_rate` and is surfaced per run in
        :class:`~repro.serving.harness.ServingRunStats`.
    clock_factory:
        Supplies fresh per-component deadline clocks for *hedged* copies
        (primary copies use the ``clocks`` passed to :meth:`process`).
        Defaults to wall clocks — the live-serving setting where hedging
        is meaningful.
    component_map:
        Optional :class:`~repro.workloads.partitioning.ShardMap`
        assigning global record ids to *global components* (its
        ``n_shards`` must equal this cluster's ``n_components``).  With
        a map attached, :meth:`add_points` / :meth:`change_points`
        accept global record ids and route to the owning shard and
        component themselves — the caller never addresses a shard index.
    """

    def __init__(self, shards: Sequence,
                 merge: Callable | None = None,
                 deadline_budgets: Sequence[float] | None = None,
                 backend: ExecutionBackend | str | None = None,
                 hedge: ReissueStrategy | None = None,
                 hedge_budget: float | None = 0.05,
                 clock_factory: ClockFactory | None = None,
                 component_map=None):
        groups = []
        for shard in shards:
            if isinstance(shard, ReplicaGroup):
                groups.append(shard)
            elif isinstance(shard, AccuracyTraderService):
                groups.append(ReplicaGroup([shard]))
            else:
                raise TypeError(
                    f"cannot interpret {shard!r} as a shard; expected a "
                    "ReplicaGroup or AccuracyTraderService")
        if not groups:
            raise ValueError("need at least one shard")
        self.shards: list[ReplicaGroup] = groups
        if deadline_budgets is None:
            self._budgets = [1.0] * len(groups)
        else:
            self._budgets = [float(b) for b in deadline_budgets]
            if len(self._budgets) != len(groups):
                raise ValueError("need one deadline budget per shard")
            if any(b <= 0 for b in self._budgets):
                raise ValueError("deadline budgets must be positive")
        # Global component index = concatenation in shard order.
        self._offsets = []
        off = 0
        for g in groups:
            self._offsets.append(off)
            off += g.n_components
        self._total_components = off
        self.merge = merge if merge is not None else groups[0].merge
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend)
        self.hedge = hedge
        if hedge_budget is not None and not (0.0 < hedge_budget <= 1.0):
            raise ValueError("hedge_budget must be in (0, 1] or None")
        self.hedge_budget = hedge_budget
        self._clock_factory = (clock_factory if clock_factory is not None
                               else wall_clock_factory())
        self._hedge_lock = threading.Lock()
        # The hedging counters live in the unified metrics registry; the
        # public int attributes below are read-through properties and
        # ``hedge_counters()`` snapshots the same registry values, so
        # both views are bit-identical by construction.  Mutations still
        # happen under ``_hedge_lock`` — the budget invariant needs
        # ``shard_calls``/``hedges_issued`` to move consistently.
        self.metrics = MetricsRegistry()
        self._shard_calls = self.metrics.counter("shard_calls")
        self._hedges_issued = self.metrics.counter("hedges_issued")
        self._hedge_wins = self.metrics.counter("hedge_wins")
        if component_map is not None and \
                component_map.n_shards != self._total_components:
            raise ValueError(
                f"component map routes records to {component_map.n_shards} "
                f"components but the cluster has {self._total_components}")
        self.component_map = component_map
        # Serialises updates against rebalancing: an update that routed
        # under the old map must publish before a rebalance captures the
        # live partitions (or after it commits the new map), or the
        # rebuild would silently discard it.  Requests never take this
        # lock — they drain against pinned snapshots.
        self._state_write_lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_components(self) -> int:
        return self._total_components

    @property
    def deadline_budgets(self) -> list[float]:
        return list(self._budgets)

    @property
    def shard_calls(self) -> int:
        """Cumulative shard calls issued (registry-backed)."""
        return self._shard_calls.value

    @property
    def hedges_issued(self) -> int:
        """Cumulative hedge copies issued (registry-backed)."""
        return self._hedges_issued.value

    @property
    def hedge_wins(self) -> int:
        """Cumulative shard calls won by the hedge copy (registry-backed)."""
        return self._hedge_wins.value

    @property
    def hedge_rate(self) -> float:
        """Realized re-issue fraction over this service's lifetime."""
        with self._hedge_lock:
            return self._hedges_issued.value / max(self._shard_calls.value, 1)

    def hedge_counters(self) -> dict:
        """Snapshot of the cumulative hedging counters (thread-safe)."""
        with self._hedge_lock:
            return {"shard_calls": self._shard_calls.value,
                    "hedges_issued": self._hedges_issued.value,
                    "hedge_wins": self._hedge_wins.value}

    def _budget_allows_locked(self) -> bool:
        """Whether one more hedge fits the budget (``_hedge_lock`` held).

        The invariant ``hedges_issued <= hedge_budget * shard_calls``
        holds at every instant, so the realized :attr:`hedge_rate` never
        exceeds the configured fraction — the cost is that no hedge can
        fire until ``1 / hedge_budget`` shard calls have been issued.
        """
        if self.hedge_budget is None:
            return True
        return (self._hedges_issued.value + 1
                <= self.hedge_budget * self._shard_calls.value)

    def _shard_clocks(self, clocks, shard: int):
        if clocks is None:
            return None
        off = self._offsets[shard]
        return list(clocks[off:off + self.shards[shard].n_components])

    def _hedge_clocks(self, clocks, shard: int) -> list:
        """Fresh per-component clocks for a hedged copy of one shard call.

        A per-call ``clocks=`` override is threaded through the hedge
        path: each hedge-copy clock is a fresh, uncharged clone of the
        caller's clock for that component (:func:`~repro.core.clock.
        fresh_like`), so a request served under simulated clocks never
        silently hedges on wall clocks.  Without an override, the
        service's ``clock_factory`` supplies the copies (wall clocks by
        default — the live-serving setting).
        """
        shard_clocks = self._shard_clocks(clocks, shard)
        if shard_clocks is not None:
            return [fresh_like(c) for c in shard_clocks]
        off = self._offsets[shard]
        return [self._clock_factory(off + c)
                for c in range(self.shards[shard].n_components)]

    # -- Servable ------------------------------------------------------

    def _start_call(self, request, clocks, backend) -> tuple:
        """Validate one serve call and place it: ``(deadline, backend,
        replica picks, hedged)``, the picks counted as shard calls."""
        if not isinstance(request, ServingRequest):
            raise TypeError(
                "serve() takes a ServingRequest envelope; wrap bare "
                "payloads with as_envelope()")
        if request.deadline is None:
            raise ValueError(
                "serve() needs the envelope deadline resolved; use "
                "request.resolved(default) or with_deadline()")
        if clocks is not None and len(clocks) != self.n_components:
            raise ValueError("need one clock per component")
        picks = [g.next_replica() for g in self.shards]
        with self._hedge_lock:
            self._shard_calls.inc(self.n_shards)
        return (request.deadline,
                self.backend if backend is None else backend,
                picks, self._hedge_enabled(request))

    def _hedge_enabled(self, request: ServingRequest) -> bool:
        """Whether this request may hedge (strategy + per-request override).

        ``request.hedge=False`` opts one request out of hedged re-issue
        entirely; ``True``/``None`` follow the service configuration (a
        ``True`` without an attached strategy still cannot hedge — there
        is no trigger threshold to race).
        """
        return self.hedge is not None and request.hedge is not False

    def serve(self, request: ServingRequest, clocks=None, backend=None,
              ) -> ServingResponse:
        """Fan one envelope out to every shard and merge the answers.

        ``clocks`` (optional) supplies one clock per *global* component.
        The envelope's ``hedge`` field opts a single request out of (or
        into) hedged re-issue; everything else follows the service
        configuration.  Thread-safe: concurrent calls round-robin
        replicas independently and hedging state is lock-protected.
        """
        t_dispatch = monotonic()
        deadline, exec_backend, picks, hedged = self._start_call(
            request, clocks, backend)
        with get_tracer().request_span("router.serve", request,
                                       shards=self.n_shards,
                                       hedged=hedged) as (env, _):
            outcomes = (self._run_hedged if hedged else self._run_unhedged)(
                env, deadline, clocks, exec_backend, picks)
            answer, reports = merge_outcomes(self.merge, outcomes, request)
        return ServingResponse(
            answer=answer, reports=reports,
            request=request, service_time=monotonic() - t_dispatch)

    async def aserve(self, request: ServingRequest, clocks=None,
                     backend=None) -> ServingResponse:
        """Async :meth:`serve`: shard fan-out as concurrent coroutines.

        The hedged variant is the event-loop version of the tied-request
        protocol: each shard call is an awaitable copy raced with
        ``asyncio.wait(FIRST_COMPLETED)``, and the losing copy is
        *really* cancelled — its next await raises ``CancelledError``
        and its remaining stalls never run, where the thread tier can
        only drop a still-queued future.  Budget, placement, and
        counters are shared with the sync path.
        """
        t_dispatch = monotonic()
        deadline, exec_backend, picks, hedged = self._start_call(
            request, clocks, backend)
        with get_tracer().request_span("router.serve", request,
                                       shards=self.n_shards,
                                       hedged=hedged) as (env, _):
            outcomes = await self._arun_shards(
                env, deadline, clocks, exec_backend, picks, hedged)
            answer, reports = merge_outcomes(self.merge, outcomes, request)
        return ServingResponse(
            answer=answer, reports=reports,
            request=request, service_time=monotonic() - t_dispatch)

    async def _arun_shards(self, request, deadline, clocks, exec_backend,
                           picks, hedged: bool) -> list:
        """Await every shard's call concurrently; outcomes in global
        component order."""
        run = self._arun_hedged_shard if hedged else self._arun_shard_copy
        per_shard = await asyncio.gather(
            *(run(request, deadline, clocks, s, picks[s], exec_backend)
              for s in range(self.n_shards)))
        return [o for shard in per_shard for o in shard]

    async def _arun_shard_copy(self, request, deadline, clocks, shard: int,
                               replica: int, exec_backend) -> list:
        """Await one copy of one shard call on ``replica``."""
        from repro.serving.aio import arun_tasks

        group = self.shards[shard]
        t0 = monotonic()
        outcomes = await arun_tasks(
            exec_backend,
            group.replicas[replica].build_tasks(
                request, deadline * self._budgets[shard],
                self._shard_clocks(clocks, shard)))
        now = monotonic()
        group.observe_latency(replica, now - t0)
        get_tracer().record("shard.call", trace_context_of(request), t0, now,
                            shard=shard, replica=replica)
        return outcomes

    async def _arun_hedged_shard(self, request, deadline, clocks,
                                 shard: int, replica: int,
                                 exec_backend) -> list:
        """One shard call with live hedged re-issue, async edition."""
        from repro.serving.aio import arun_tasks

        group = self.shards[shard]
        t0 = monotonic()

        async def run_copy(rep: int, fresh_clocks) -> list:
            tasks = group.replicas[rep].build_tasks(
                request, deadline * self._budgets[shard], fresh_clocks)
            return await arun_tasks(exec_backend, tasks)

        primary = asyncio.ensure_future(
            run_copy(replica, self._shard_clocks(clocks, shard)))
        hedge_task = None
        hedge_replica = None
        hedge_t0 = None
        try:
            if group.n_replicas > 1:
                # Race the primary against the adaptive-p95 threshold.
                timeout = max(0.0, self.hedge.threshold
                              - (monotonic() - t0))
                done, _ = await asyncio.wait({primary}, timeout=timeout)
                if not done:
                    with self._hedge_lock:
                        allowed = self._budget_allows_locked()
                        if allowed:
                            self._hedges_issued.inc()
                    if allowed:
                        hedge_replica = group.hedge_sibling(replica)
                        fresh = self._hedge_clocks(clocks, shard)
                        hedge_t0 = monotonic()
                        hedge_task = asyncio.ensure_future(
                            run_copy(hedge_replica, fresh))
            if hedge_task is None:
                outcomes = await primary
                winner_replica, copy_t0 = replica, t0
                hedge_won = False
            else:
                done, _ = await asyncio.wait({primary, hedge_task},
                                             return_when=FIRST_COMPLETED)
                if primary in done:
                    winner, loser = primary, hedge_task
                    winner_replica, copy_t0 = replica, t0
                    hedge_won = False
                else:
                    winner, loser = hedge_task, primary
                    winner_replica, copy_t0 = hedge_replica, hedge_t0
                    hedge_won = True
                    with self._hedge_lock:
                        self._hedge_wins.inc()
                # Real tied-request cancellation: the losing copy's next
                # await raises CancelledError; reap it before returning.
                loser.cancel()
                await asyncio.gather(loser, return_exceptions=True)
                outcomes = winner.result()
        except asyncio.CancelledError:
            for copy in (primary, hedge_task):
                if copy is not None:
                    copy.cancel()
            await asyncio.gather(
                *(c for c in (primary, hedge_task) if c is not None),
                return_exceptions=True)
            raise
        now = monotonic()
        with self._hedge_lock:
            # Effective shard-call latency (from submission) feeds the
            # threshold estimator; the winning copy's own service time
            # feeds the placement EWMA (see the sync path).
            self.hedge.observe(now - t0)
        group.observe_latency(winner_replica, now - copy_t0)
        ctx = trace_context_of(request)
        if ctx is not None and ctx.sampled:
            tracer = get_tracer()
            tracer.record("shard.primary", ctx, t0, now, shard=shard,
                          replica=replica, winner=not hedge_won,
                          cancelled=hedge_won)
            if hedge_task is not None:
                tracer.record("shard.hedge", ctx, hedge_t0, now, shard=shard,
                              replica=hedge_replica, winner=hedge_won,
                              cancelled=not hedge_won)
        return outcomes

    def exact_components(self, request) -> list:
        payload = payload_of(request)
        return [r for g in self.shards for r in g.exact_components(payload)]

    def exact(self, request) -> Any:
        payload = payload_of(request)
        return self.merge(self.exact_components(payload), payload)

    # -- dispatch ------------------------------------------------------

    def _build_tasks(self, request, deadline: float, clocks, shard: int,
                     replica: int) -> list:
        group = self.shards[shard]
        return group.replicas[replica].build_tasks(
            request, deadline * self._budgets[shard],
            self._shard_clocks(clocks, shard))

    def _run_unhedged(self, request, deadline, clocks, exec_backend,
                      picks) -> list:
        # One flat dispatch: all shards' components fan out together, so
        # a parallel backend overlaps work across shards, not just within.
        tasks = [t for s in range(self.n_shards)
                 for t in self._build_tasks(request, deadline, clocks, s,
                                            picks[s])]
        return exec_backend.run_tasks(tasks)

    def _run_hedged(self, request, deadline, clocks, exec_backend,
                    picks) -> list:
        t0 = monotonic()
        ctx = trace_context_of(request)
        tracer = get_tracer()
        primary = []
        for s in range(self.n_shards):
            tasks = self._build_tasks(request, deadline, clocks, s, picks[s])
            primary.append(exec_backend.submit_tasks(tasks))
        hedges: list[list | None] = [None] * self.n_shards
        hedge_replicas: list[int | None] = [None] * self.n_shards
        hedge_issued_at: list[float | None] = [None] * self.n_shards
        winners: list[list | None] = [None] * self.n_shards
        unfinished = set(range(self.n_shards))
        denied: set[int] = set()  # budget refused; single-shot per request

        while unfinished:
            # Completion first: first copy whose components all finished
            # wins (an already-answered shard call must never hedge).
            for s in list(unfinished):
                if all(f.done() for f in primary[s]):
                    winners[s], loser = primary[s], hedges[s]
                    winner_replica, copy_t0 = picks[s], t0
                    hedge_won = False
                elif hedges[s] is not None and \
                        all(f.done() for f in hedges[s]):
                    winners[s], loser = hedges[s], primary[s]
                    winner_replica, copy_t0 = \
                        hedge_replicas[s], hedge_issued_at[s]
                    hedge_won = True
                    with self._hedge_lock:
                        self._hedge_wins.inc()
                else:
                    continue
                unfinished.discard(s)
                now = monotonic()
                with self._hedge_lock:
                    # The strategy estimates *effective* shard-call
                    # latency: first copy to finish, measured from
                    # submission (hedge wait included).
                    self.hedge.observe(now - t0)
                # The placement EWMA instead wants the winning copy's
                # *own* service time, or a hedge target would be
                # charged the trigger wait it never caused.
                self.shards[s].observe_latency(winner_replica,
                                               now - copy_t0)
                if ctx is not None and ctx.sampled:
                    # Sibling spans: both copies of the shard call, the
                    # winner marked, the loser marked cancelled.
                    tracer.record("shard.primary", ctx, t0, now, shard=s,
                                  replica=picks[s], winner=not hedge_won,
                                  cancelled=hedge_won)
                    if hedges[s] is not None:
                        tracer.record("shard.hedge", ctx,
                                      hedge_issued_at[s], now, shard=s,
                                      replica=hedge_replicas[s],
                                      winner=hedge_won,
                                      cancelled=not hedge_won)
                if loser:
                    # Best-effort tied-request cancellation: a queued
                    # copy is dropped and a remote copy's one RPC is
                    # abandoned; a copy running in this process completes
                    # and its answer is discarded.
                    for f in loser:
                        f.cancel()
            if not unfinished:
                break
            now = monotonic()
            threshold = self.hedge.threshold
            # Trigger: shard call outstanding beyond the adaptive p95 —
            # and within the hedge budget (a denied shard stays denied
            # for this request; re-checking would busy-spin).
            issued_now = False
            for s in list(unfinished):
                group = self.shards[s]
                if (hedges[s] is None and s not in denied
                        and group.n_replicas > 1 and now - t0 >= threshold):
                    with self._hedge_lock:
                        allowed = self._budget_allows_locked()
                        if allowed:
                            self._hedges_issued.inc()
                    if not allowed:
                        denied.add(s)
                        continue
                    sibling = group.hedge_sibling(picks[s])
                    hedge_replicas[s] = sibling
                    hedge_issued_at[s] = monotonic()
                    fresh = self._hedge_clocks(clocks, s)
                    tasks = group.replicas[sibling].build_tasks(
                        request, deadline * self._budgets[s], fresh)
                    hedges[s] = exec_backend.submit_tasks(tasks)
                    issued_now = True
            if issued_now:
                # A hedge copy may already have completed while it was
                # being issued; re-run the completion check before
                # blocking, or we would wait on the losing primary.
                continue
            outstanding = [
                f for s in unfinished
                for f in [*primary[s], *(hedges[s] or [])]
                if not f.done()
            ]
            can_hedge_more = any(
                hedges[s] is None and s not in denied
                and self.shards[s].n_replicas > 1
                for s in unfinished)
            timeout = (max(0.0, threshold - (monotonic() - t0))
                       if can_hedge_more else None)
            if outstanding:
                wait(outstanding, timeout=timeout,
                     return_when=FIRST_COMPLETED)
        return [f.result() for s in range(self.n_shards)
                for f in winners[s]]

    # -- updates: routed by the component map, fanned out by the group --

    def locate_component(self, component: int) -> tuple[int, int]:
        """Map a *global* component index to ``(shard, local component)``."""
        if not (0 <= component < self._total_components):
            raise IndexError(
                f"component {component} out of range "
                f"[0, {self._total_components})")
        shard = 0
        for s in range(self.n_shards):
            if component >= self._offsets[s]:
                shard = s
        return shard, component - self._offsets[shard]

    def locate_record(self, record_id: int) -> tuple[int, int, int]:
        """``(shard, local component, local record id)`` of a global id."""
        if self.component_map is None:
            raise ValueError("record routing requires a component_map")
        component = self.component_map.shard_of(record_id)
        shard, local_component = self.locate_component(component)
        return shard, local_component, self.component_map.local_id(record_id)

    def _route_update(self, record_ids, grow: bool):
        """Resolve global ``record_ids`` to one component's local ids.

        ``grow`` extends the component map over previously-unseen ids
        (add-points); change-points of an unknown id is an error.  All
        ids must land on the same component — per-component synopsis
        updates are atomic units, so a multi-component batch must be
        split by the caller (use :meth:`locate_record` to group them).

        Returns ``(shard, local_component, local_ids, grown_map)``; the
        caller commits ``grown_map`` to :attr:`component_map` only once
        the update succeeded, so a rejected or failed update never
        leaves the map claiming records no component holds.
        """
        if self.component_map is None:
            raise ValueError(
                "shard-map update routing requires a component_map; "
                "pass component= to address a component explicitly")
        ids = [int(r) for r in record_ids]
        if not ids:
            raise ValueError("need at least one record id")
        top = max(ids)
        grown = self.component_map
        if top >= grown.n_records:
            if not grow:
                raise IndexError(
                    f"record {top} is beyond the component map "
                    f"({grown.n_records} records)")
            # Growth must be gap-free: every id the map would newly
            # cover has to be in this batch, or the map would claim
            # records no component ever received.
            missing = sorted(set(range(grown.n_records, top + 1))
                             - set(ids))
            if missing:
                raise ValueError(
                    f"new record ids skip {missing[:5]}"
                    f"{'...' if len(missing) > 5 else ''}; the id space "
                    "grows contiguously from "
                    f"{grown.n_records}")
            grown = grown.with_records_added(top + 1 - grown.n_records)
        components = {grown.shard_of(r) for r in ids}
        if len(components) != 1:
            raise ValueError(
                f"record ids span components {sorted(components)}; split "
                "the update per component (see locate_record)")
        component = components.pop()
        shard, local_component = self.locate_component(component)
        return shard, local_component, \
            [grown.local_id(r) for r in ids], grown

    def add_points(self, partition, new_record_ids,
                   component: int | None = None) -> list:
        """Add-points on the owning component, on every replica.

        With ``component`` given (a *global* component index),
        ``new_record_ids`` are that component's local record ids — the
        explicit addressing mode.  Otherwise the update routes through
        the component map: ``new_record_ids`` are global record ids (the
        map grows over new ids), and the owning shard and component are
        resolved here.  ``partition`` is the component's new partition
        in both modes.  Serialised against :meth:`rebalance` (an update
        routed under a map must land before a move recaptures state).
        """
        with self._state_write_lock:
            if component is not None:
                shard, local_component = self.locate_component(component)
                return self.shards[shard].add_points(
                    local_component, partition, new_record_ids)
            shard, local_component, local_ids, grown = \
                self._route_update(new_record_ids, grow=True)
            reports = self.shards[shard].add_points(local_component,
                                                    partition, local_ids)
            self.component_map = grown
            return reports

    def change_points(self, partition, changed_record_ids,
                      component: int | None = None) -> list:
        """Change-points on the owning component, on every replica.

        Addressing modes as in :meth:`add_points`; changed ids must
        already be covered by the component map.  Serialised against
        :meth:`rebalance`.
        """
        with self._state_write_lock:
            if component is not None:
                shard, local_component = self.locate_component(component)
                return self.shards[shard].change_points(
                    local_component, partition, changed_record_ids)
            shard, local_component, local_ids, _ = \
                self._route_update(changed_record_ids, grow=False)
            return self.shards[shard].change_points(local_component,
                                                    partition, local_ids)

    # -- online rebalancing: move records between live shards ----------

    def rebalance(self, moves) -> RebalanceReport:
        """Move records between live shards; requests keep serving.

        ``moves`` maps global record ids to destination *global
        components* (dict or ``(record_id, component)`` pairs — the
        component map's granularity, so a destination addresses both a
        shard and a component within it).  The operation:

        1. derives the new component map and the minimal set of
           affected components (:meth:`~repro.workloads.partitioning.
           ShardMap.rebalance`);
        2. rebuilds exactly those components' partitions from the live
           ones (:func:`~repro.workloads.partitioning.
           reshard_partitions` — bit-identical to a cold build over the
           new map);
        3. publishes each rebuilt partition as a **new state epoch** on
           every replica of the owning shards, while in-flight requests
           keep draining against their dispatch-time epochs — no torn
           component reads, no pause.  (Requests dispatched *during*
           this publication loop may pin a mix of pre- and post-move
           components — each internally consistent; an atomic
           cross-component cut is a ROADMAP follow-on);
        4. commits the new component map, so subsequent updates route
           to the records' new homes.

        Bit-identity guarantees: requests dispatched before the move
        complete with their pre-move answers (epoch pinning), and the
        post-move cluster state is bit-identical to one built cold over
        the new map — rebalancing never introduces state drift.  All
        validation happens before step 3, so a rejected move (unknown
        record, emptied component) leaves the cluster untouched.

        Serialised against :meth:`add_points` / :meth:`change_points`
        (``_state_write_lock``): an update that routed under the old
        map publishes before this move captures the live partitions, or
        waits for the new map — it is never silently discarded by the
        rebuild.  Requests are unaffected: they never take the lock.
        """
        if self.component_map is None:
            raise ValueError("rebalancing requires a component_map")
        with self._state_write_lock:
            new_map, affected = self.component_map.rebalance(moves)
            if not affected:
                return RebalanceReport(n_moved=0, affected_components=[])
            counts = new_map.counts()
            empty = [c for c in affected if int(counts[c]) == 0]
            if empty:
                raise ValueError(
                    f"rebalance would empty component(s) {empty}; every "
                    "component must keep at least one record")
            old_map = self.component_map
            n_moved = int(np.count_nonzero(
                new_map.assignments != old_map.assignments))
            parts = [self._component_partition(c)
                     for c in range(self.n_components)]
            rebuilt = reshard_partitions(parts, old_map, new_map, affected)
            epochs: dict[int, list] = {}
            for c in affected:
                shard, local_component = self.locate_component(c)
                epochs[c] = self.shards[shard].replace_partition(
                    local_component, rebuilt[c])
            self.component_map = new_map
            return RebalanceReport(n_moved=n_moved,
                                   affected_components=list(affected),
                                   epochs=epochs)

    def _component_partition(self, component: int):
        """The live partition of a global component (replica 0's view).

        Replicas hold bit-identical logical state, so replica 0 stands
        for the group.
        """
        shard, local_component = self.locate_component(component)
        group = self.shards[shard]
        return group.replicas[0].component_state(local_component).partition

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the owned backend and every shard's replicas."""
        if self._owns_backend:
            self.backend.close()
        for g in self.shards:
            g.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
