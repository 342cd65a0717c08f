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
:meth:`Algorithm1._chunk_end`).

The control flow is written once, in the step machine :class:`Algorithm1`,
generic over the service adapter and the deadline clock.  Every driver only
makes the adapter calls between its steps — the sync
:meth:`AccuracyAwareProcessor.process` (behind :func:`process_component`,
:func:`process_component_batch` and the fixed-depth :func:`refine_to_depth`)
and the async :func:`repro.serving.aio.aprocess_component` — so the
identical control flow serves the runnable examples (wall clock) and the
tail-latency experiments (simulated clock).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.adapters import ServiceAdapter
from repro.core.clock import DeadlineClock, SimulatedClock, WallClock
from repro.core.synopsis import Synopsis

__all__ = ["ProcessingReport", "Algorithm1", "AccuracyAwareProcessor",
           "refine_to_depth", "process_component", "process_component_batch",
           "effective_i_max", "wall_chunk_end", "RefineCost", "REFINE_COST"]


def effective_i_max(n_groups: int, i_max: int | None,
                    i_max_fraction: float | None) -> int:
    """The effective ranked-group refinement cap for one execution.

    Every driver computes the cap it hands :class:`Algorithm1` here, before
    stage 1, so a bad pair fails before any work.  Validates the
    mutually-exclusive pair.
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
    proc = AccuracyAwareProcessor(adapter, partition, synopsis, i_max=i_max,
                                  i_max_fraction=i_max_fraction)
    initials = (adapter.initial_result_batch(synopsis, requests)
                if n > 1 else None)
    return [proc.process(request, deadlines[k], clock=clocks[k],
                         start_time=start_times[k],
                         initial=initials[k] if initials else None)
            for k, request in enumerate(requests)]


def refine_to_depth(adapter: ServiceAdapter, partition, synopsis: Synopsis,
                    request, depth: int):
    """Run Algorithm 1 with a *fixed* refinement depth instead of a clock.

    The coupled experiments first simulate latency to learn how many
    ranked groups each component had time for, then replay exactly that
    depth through the real service code to measure accuracy (see
    :mod:`repro.experiments.coupling`).  ``depth`` is clamped to the
    number of groups.  It is :func:`process_component` with the depth as
    ``i_max`` and an unbounded deadline on a simulated clock, so the
    groups are refined in one ``refine_many`` call.

    Returns the finalized component result.
    """
    return process_component(adapter, partition, synopsis, request,
                             float("inf"), clock=SimulatedClock(),
                             i_max=depth)[0]


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


class Algorithm1:
    """Algorithm 1's control flow for one execution, without the adapter.

    A driver builds it before stage 1, calls :meth:`ranked` after stage
    1, refines each :meth:`next_chunk` and then calls :meth:`refined`,
    and takes the report from :meth:`finish` before ``finalize``.  The
    machine owns the clock (a fresh :class:`WallClock` when ``None``),
    the ranking, the stop rule — every group, ``cap`` groups, or
    ``deadline`` seconds since ``start_time`` (default: now) —, the
    chunk rule (one group unless ``chunked``), :data:`REFINE_COST` and
    the report.
    """

    def __init__(self, adapter: ServiceAdapter, synopsis: Synopsis,
                 deadline: float, clock: DeadlineClock | None, cap: int,
                 start_time: float | None, chunked: bool):
        if deadline < 0:
            raise ValueError("deadline must be non-negative")
        self.clock = clock = clock if clock is not None else WallClock()
        self.deadline = deadline
        self._t_submit = (clock.now() if start_time is None
                          else float(start_time))
        self.report = ProcessingReport(deadline=deadline)
        self._adapter, self._synopsis, self._cap = adapter, synopsis, cap
        self._chunked = chunked
        self._done = self._end = 0   # groups refined / end of the chunk
        self._t_begin = clock.now()

    def _expired(self, now: float) -> bool:
        """The deadline check, the one place it is written."""
        return now - self._t_submit >= self.deadline

    def ranked(self, correlations) -> None:
        """Charge stage 1 and rank the groups by ``correlations``."""
        work = self._adapter.synopsis_work(self._synopsis)
        self.clock.charge(work)
        report = self.report
        report.work_units += work
        report.synopsis_elapsed = self.clock.now() - self._t_begin
        # Stable argsort on -corr: ties broken by group id for determinism.
        ranked = report.groups_ranked = np.argsort(
            -np.asarray(correlations), kind="stable").tolist()
        self._works = self._adapter.group_works(self._synopsis,
                                                ranked[:self._cap])

    def next_chunk(self) -> list | None:
        """The next run of ranked groups to refine, or ``None`` to stop."""
        i, report = self._done, self.report
        if i >= len(report.groups_ranked):
            report.exhausted = True
            return None
        if i >= self._cap:
            report.hit_imax = True
            return None
        now = self._t_chunk = self.clock.now()
        if self._expired(now):
            report.hit_deadline = True
            return None
        self._end = self._chunk_end(i, now) if self._chunked else i + 1
        return report.groups_ranked[i:self._end]

    def refined(self) -> None:
        """The chunk :meth:`next_chunk` returned is refined: charge it."""
        works = self._works[self._done:self._end]
        if self._chunked and type(self.clock) is WallClock:
            REFINE_COST.observe(type(self._adapter),
                                self.clock.now() - self._t_chunk, sum(works))
        for work in works:
            self.clock.charge(work)
            self.report.work_units += work
        self.report.refine_calls += 1
        self._done = self._end

    def finish(self, cancelled: bool = False) -> ProcessingReport:
        """The report, before ``finalize``; ``cancelled``: cut mid-chunk."""
        report = self.report
        if cancelled:
            report.cancelled = report.hit_deadline = True
        report.groups_processed = self._done
        report.total_elapsed = self.clock.now() - self._t_begin
        return report

    def _chunk_end(self, start: int, now: float) -> int:
        """End (exclusive) of the next chunk for a ``chunked`` adapter.

        Simulated clock: exactly where the one-group loop would stop —
        its ``work / speed`` additions replayed against the same deadline
        check, so reports and clock state match that loop's.  Wall clock:
        :func:`wall_chunk_end` at the class's measured cost.  Any other
        clock's ``now`` cannot be predicted: one group.
        """
        clock, works, stop = self.clock, self._works, len(self._works)
        if type(clock) is SimulatedClock:
            speed = clock.speed
            now += works[start] / speed
            end = start + 1
            while end < stop and not self._expired(now):
                now += works[end] / speed
                end += 1
            return end
        if type(clock) is WallClock:
            return wall_chunk_end(works, start, stop,
                                  self.deadline - (now - self._t_submit),
                                  REFINE_COST.rate(type(self._adapter)))
        return start + 1


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
        adapter, synopsis = self.adapter, self.synopsis
        run = Algorithm1(adapter, synopsis, deadline, clock, self.i_max,
                         start_time, chunked=type(adapter).refine_many
                         is not ServiceAdapter.refine_many)
        state, correlations = (adapter.initial_result(synopsis, request)
                               if initial is None else initial)
        run.ranked(correlations)
        while (groups := run.next_chunk()) is not None:
            state = adapter.refine_many(self.partition, synopsis, groups,
                                        request, state)
            run.refined()
        report = run.finish()
        return adapter.finalize(state, request), report
