"""Online accuracy-aware approximate processing — Algorithm 1 (paper §2.3).

Two stages on each component, per request:

1. process the synopsis -> initial approximate result + per-group
   correlations to this request's result accuracy;
2. rank the groups by correlation (descending) and iteratively refine the
   result with each group's *original* data points while
   ``elapsed < deadline`` and fewer than ``i_max`` groups were processed.

Stage 2 hands the adapter runs ("chunks") of ranked groups, checking the
stop rule before each: exactly the run the per-group rule would refine
under a simulated clock, what half the remaining budget buys at the
measured cost under a wall clock, one group otherwise (see
:func:`_chunk_end`).

The processor is generic over the service adapter and the deadline clock,
so the identical control flow serves the runnable examples (wall clock)
and the tail-latency experiments (simulated clock).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.adapters import ServiceAdapter
from repro.core.clock import DeadlineClock, SimulatedClock, WallClock
from repro.core.synopsis import Synopsis

__all__ = ["ProcessingReport", "AccuracyAwareProcessor", "refine_to_depth",
           "process_component", "process_component_batch", "effective_i_max",
           "wall_chunk_end", "RefineCost", "REFINE_COST"]


def effective_i_max(n_groups: int, i_max: int | None,
                    i_max_fraction: float | None) -> int:
    """The effective ranked-group refinement cap for one execution.

    Shared by the sync processor and the async mirror
    (:func:`repro.serving.aio.aprocess_component`) so both enforce the
    identical cap.  Validates the mutually-exclusive pair.
    """
    if i_max is not None and i_max_fraction is not None:
        raise ValueError("pass at most one of i_max / i_max_fraction")
    if i_max is not None:
        if i_max < 0:
            raise ValueError("i_max must be non-negative")
        return min(i_max, n_groups)
    if i_max_fraction is not None:
        if not (0.0 <= i_max_fraction <= 1.0):
            raise ValueError("i_max_fraction must be within [0, 1]")
        return min(n_groups, int(np.ceil(i_max_fraction * n_groups)))
    return n_groups


def wall_chunk_end(works, start: int, stop: int, remaining: float,
                   seconds_per_unit: float | None) -> int:
    """End (exclusive) of the next chunk of ranked groups under a wall clock.

    The chunk starts at ``start`` and takes groups while their summed
    ``works``, at ``seconds_per_unit``, fit in half the ``remaining``
    budget (seconds): a right estimate leaves the other half for the
    next check of the deadline, and one up to 2x too low still ends the
    chunk inside the budget.  It is never shorter than one group and
    never runs past ``stop`` (the cap or the last group); with no
    estimate yet it is one group.
    """
    end = start + 1
    if seconds_per_unit is None:
        return end
    budget = 0.5 * remaining / seconds_per_unit
    spent = works[start]
    while end < stop and spent + works[end] <= budget:
        spent += works[end]
        end += 1
    return end


_COST_WEIGHT = 0.25   # weight of the newest sample in the moving average


class RefineCost:
    """Wall seconds one work unit of ``refine_many`` costs, per adapter
    class: a moving average (EWMA) of every measured call.

    One per process (:data:`REFINE_COST`), like the kernel slot: a
    remote task ships its own pickled adapter, so the estimate cannot
    live on an adapter instance.  Updates are lock-guarded
    read-modify-writes.
    """

    def __init__(self) -> None:
        self._rates: dict[type, float] = {}
        self._lock = threading.Lock()

    def rate(self, adapter_cls: type) -> float | None:
        return self._rates.get(adapter_cls)

    def observe(self, adapter_cls: type, seconds: float,
                work: float) -> None:
        if seconds <= 0.0 or work <= 0.0:
            return
        sample = seconds / work
        with self._lock:
            old = self._rates.get(adapter_cls)
            self._rates[adapter_cls] = (
                sample if old is None else old + _COST_WEIGHT * (sample - old))


REFINE_COST = RefineCost()


def _chunk_end(clock: DeadlineClock, adapter_cls: type, works, start: int,
               stop: int, now: float, t_submit: float,
               deadline: float) -> int:
    """End (exclusive) of the next ``refine_many`` chunk for an adapter
    that refines runs of groups.

    Under a :class:`SimulatedClock` the chunk ends exactly where the
    one-group-at-a-time loop would stop: the clock's own additions are
    replayed (``charge`` adds ``work / speed``), so reports and clock
    state are identical to that loop's.  Under a :class:`WallClock`,
    :func:`wall_chunk_end` at the class's measured cost.  Any other
    clock's ``now`` cannot be predicted: one group.
    """
    if type(clock) is SimulatedClock:
        speed = clock.speed
        now += works[start] / speed
        end = start + 1
        while end < stop and now - t_submit < deadline:
            now += works[end] / speed
            end += 1
        return end
    if type(clock) is WallClock:
        return wall_chunk_end(works, start, stop,
                              deadline - (now - t_submit),
                              REFINE_COST.rate(adapter_cls))
    return start + 1


def process_component(adapter: ServiceAdapter, partition, synopsis: Synopsis,
                      request, deadline: float,
                      clock: DeadlineClock | None = None,
                      i_max: int | None = None,
                      i_max_fraction: float | None = None,
                      start_time: float | None = None):
    """Run Algorithm 1 once over an explicit ``(partition, synopsis)`` pair.

    This is the stateless, picklable unit of work the serving backends
    dispatch: everything the computation touches is an argument, so the
    same call runs inline, on a worker thread, or in a worker process, and
    a caller holding a consistent snapshot of a component's state never
    races with concurrent synopsis updates (see
    :meth:`repro.core.service.AccuracyTraderService.process`).

    Returns ``(result, report)`` exactly like
    :meth:`AccuracyAwareProcessor.process`.
    """
    proc = AccuracyAwareProcessor(adapter, partition, synopsis,
                                  i_max=i_max, i_max_fraction=i_max_fraction)
    return proc.process(request, deadline, clock=clock, start_time=start_time)


def process_component_batch(adapter: ServiceAdapter, partition,
                            synopsis: Synopsis, requests, deadlines,
                            clocks=None,
                            i_max: int | None = None,
                            i_max_fraction: float | None = None,
                            start_times=None) -> list:
    """Run Algorithm 1 for several requests against one state snapshot.

    The batched counterpart of :func:`process_component`: stage 1 runs
    once for the whole batch through the adapter's vectorized
    ``initial_result_batch`` (per-request loop for adapters without
    one), then stage-2 refinement proceeds per request with its own
    clock, deadline and report.  Results and reports are bit-identical
    to per-request :func:`process_component` calls under deterministic
    clocks — this is what lets a coalesced dispatch batch stand in for
    unbatched execution.

    Returns one ``(result, report)`` pair per request, in order.
    """
    requests = list(requests)
    n = len(requests)
    deadlines = list(deadlines)
    clocks = list(clocks) if clocks is not None else [None] * n
    start_times = (list(start_times) if start_times is not None
                   else [None] * n)
    if not (len(deadlines) == len(clocks) == len(start_times) == n):
        raise ValueError("requests/deadlines/clocks/start_times length mismatch")
    initials = (adapter.initial_result_batch(synopsis, requests)
                if n > 1 else None)
    out = []
    for k, request in enumerate(requests):
        proc = AccuracyAwareProcessor(adapter, partition, synopsis,
                                      i_max=i_max,
                                      i_max_fraction=i_max_fraction)
        out.append(proc.process(request, deadlines[k], clock=clocks[k],
                                start_time=start_times[k],
                                initial=initials[k] if initials else None))
    return out


def refine_to_depth(adapter: ServiceAdapter, partition, synopsis: Synopsis,
                    request, depth: int):
    """Run Algorithm 1 with a *fixed* refinement depth instead of a clock.

    The coupled experiments first simulate latency to learn how many
    ranked groups each component had time for, then replay exactly that
    depth through the real service code to measure accuracy (see
    :mod:`repro.experiments.coupling`).  ``depth`` is clamped to the
    number of groups, which are refined in one ``refine_many`` call.

    Returns the finalized component result.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    state, correlations = adapter.initial_result(synopsis, request)
    order = np.argsort(-np.asarray(correlations), kind="stable")
    state = adapter.refine_many(partition, synopsis, order[:depth].tolist(),
                                request, state)
    return adapter.finalize(state, request)


@dataclass
class ProcessingReport:
    """Trace of one Algorithm-1 execution on one component."""

    groups_ranked: list = field(default_factory=list)   # group ids, best first
    groups_processed: int = 0
    refine_calls: int = field(default=0, compare=False)  # refine_many
    #   calls the groups were refined in: how the run was chunked, not
    #   what it computed, hence outside equality
    work_units: float = 0.0
    synopsis_elapsed: float = 0.0   # seconds spent in stage 1
    total_elapsed: float = 0.0      # stage 1 + refinement
    deadline: float = 0.0
    hit_deadline: bool = False      # stopped because time ran out
    hit_imax: bool = False          # stopped because i_max was reached
    exhausted: bool = False         # processed every group
    cancelled: bool = False         # refinement interrupted by cancellation
    #   (async tier only: the execution was cancelled mid-refinement and
    #   finalized from the groups processed so far — see repro.serving.aio)
    state_epoch: int | None = None  # which published state snapshot the
    #   execution ran against (None for tasks with inline state); the
    #   epoch-pinning tests assert dispatch-time epochs through here
    request_id: int | None = None   # envelope identity: which
    #   ServingRequest this execution served (None for bare-payload
    #   tasks built outside the envelope path)
    request_class: str | None = None  # the envelope's RequestClass value
    #   string ("accuracy_critical" / "latency_critical" /
    #   "best_effort"); kept as a string so reports stay plainly
    #   picklable across process backends


class AccuracyAwareProcessor:
    """Runs Algorithm 1 for one component (one partition + its synopsis).

    Parameters
    ----------
    adapter:
        Service adapter supplying the computations and work costs.
    partition:
        The component's share of the input data.
    synopsis:
        The partition's synopsis (see :class:`repro.core.builder.SynopsisBuilder`).
    i_max:
        Maximum number of ranked groups to refine with.  ``None`` means
        no cap (process-all, the recommender setting); the search setting
        uses the top 40% of groups — pass ``i_max_fraction=0.4``.
    i_max_fraction:
        Convenience alternative to ``i_max``: cap at
        ``ceil(fraction * n_groups)``.  Mutually exclusive with ``i_max``.
    """

    def __init__(self, adapter: ServiceAdapter, partition, synopsis: Synopsis,
                 i_max: int | None = None, i_max_fraction: float | None = None):
        effective_i_max(0, i_max, i_max_fraction)  # validates the pair
        self.adapter = adapter
        self.partition = partition
        self.synopsis = synopsis
        self._i_max = i_max
        self._i_max_fraction = i_max_fraction

    @property
    def i_max(self) -> int:
        """Effective group cap for the current synopsis."""
        return effective_i_max(self.synopsis.n_aggregated,
                               self._i_max, self._i_max_fraction)

    # ------------------------------------------------------------------

    def process(self, request, deadline: float,
                clock: DeadlineClock | None = None,
                start_time: float | None = None,
                initial: tuple[Any, Any] | None = None) -> tuple[Any, ProcessingReport]:
        """Produce this component's (approximate) result for ``request``.

        Parameters
        ----------
        request:
            Service-specific request object (``CFRequest`` / ``SearchQuery``).
        deadline:
            Specified service latency ``l_spe`` in seconds, measured from
            ``start_time``.
        clock:
            Deadline clock; defaults to a fresh :class:`WallClock`.
        start_time:
            Request submission time on the clock.  Defaults to ``clock.now()``
            — but in the queueing experiments the caller passes the arrival
            time so queueing delay counts against the deadline, as in the
            paper's latency definition.
        initial:
            Optional precomputed ``(state, correlations)`` stage-1 pair,
            as produced by the adapter's ``initial_result`` /
            ``initial_result_batch`` for this request.  Stage-1 work is
            still charged to the clock; this is how
            :func:`process_component_batch` shares one vectorized
            synopsis pass across a batch without changing per-request
            semantics.

        Returns
        -------
        (result, report):
            The finalized component result and the execution trace.

        Notes
        -----
        Stage 1 always runs to completion even if the deadline already
        passed while queueing — the component must produce *some* result.
        This is why the paper observes actual latencies slightly above the
        100 ms requirement under extreme load.
        """
        if deadline < 0:
            raise ValueError("deadline must be non-negative")
        clock = clock if clock is not None else WallClock()
        t_submit = clock.now() if start_time is None else float(start_time)

        report = ProcessingReport(deadline=deadline)
        t_begin = clock.now()

        # Stage 1: initial result + correlations from the synopsis.
        syn_work = self.adapter.synopsis_work(self.synopsis)
        if initial is None:
            state, correlations = self.adapter.initial_result(self.synopsis,
                                                              request)
        else:
            state, correlations = initial
        clock.charge(syn_work)
        report.work_units += syn_work
        report.synopsis_elapsed = clock.now() - t_begin

        # Stage 2: rank groups by correlation, refine best-first.
        # Stable argsort on -corr: ties broken by group id for determinism.
        order = np.argsort(-np.asarray(correlations), kind="stable")
        ranked = report.groups_ranked = order.tolist()

        i_max = self.i_max
        stop = min(len(ranked), i_max)
        works = [self.adapter.group_work(self.synopsis, g)
                 for g in ranked[:stop]]
        chunked = (type(self.adapter).refine_many
                   is not ServiceAdapter.refine_many)
        measured = chunked and type(clock) is WallClock
        i = 0
        while True:
            if i >= len(ranked):
                report.exhausted = True
                break
            if i >= i_max:
                report.hit_imax = True
                break
            now = clock.now()
            if now - t_submit >= deadline:
                report.hit_deadline = True
                break
            end = (_chunk_end(clock, type(self.adapter), works, i, stop,
                              now, t_submit, deadline)
                   if chunked else i + 1)
            state = self.adapter.refine_many(self.partition, self.synopsis,
                                             ranked[i:end], request, state)
            if measured:
                REFINE_COST.observe(type(self.adapter), clock.now() - now,
                                    sum(works[i:end]))
            for work in works[i:end]:
                clock.charge(work)
                report.work_units += work
            report.refine_calls += 1
            i = end

        report.groups_processed = i
        report.total_elapsed = clock.now() - t_begin
        result = self.adapter.finalize(state, request)
        return result, report
