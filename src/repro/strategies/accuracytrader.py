"""AccuracyTrader's work model for the cluster simulator.

Implements the *timing* side of Algorithm 1: a component always pays the
synopsis pass, then refines with ranked groups while the elapsed service
time (queueing included) is below the deadline and fewer than ``i_max``
groups were processed.  The number of groups that fit is computed in
O(log m) from the prefix sums of the (ranked) group work sizes.

The model records the per-sub-operation refinement depth, which the
experiment runners feed back into the *real* Algorithm-1 execution to
measure accuracy — one consistent run produces both latency and accuracy
(see :mod:`repro.experiments.coupling`).
"""

from __future__ import annotations

import numpy as np

from repro.strategies.base import ComponentWorkModel

__all__ = ["AccuracyTraderStrategy"]


class AccuracyTraderStrategy(ComponentWorkModel):
    """Deadline-aware synopsis + ranked-refinement work model.

    Parameters
    ----------
    synopsis_work:
        Work units of the stage-1 synopsis pass (= synopsis size m).
    group_works:
        Work units of each refinement group in *rank order* (the sizes of
        the ranked original-point sets D'_1..D'_m).  Group sizes are
        membership counts, which are rank-independent to first order, so
        a single representative ordering is used for all requests.
    deadline:
        Specified service latency l_spe in seconds, from submission.
    i_max:
        Maximum number of groups to refine with (``None`` = all).

    Attributes
    ----------
    groups_processed:
        After a run: array (n_requests, n_components) of refinement depth
        per sub-operation.
    """

    def __init__(self, synopsis_work: float, group_works, deadline: float,
                 i_max: int | None = None, group_overhead: float = 0.0):
        if synopsis_work < 0:
            raise ValueError("synopsis_work must be non-negative")
        if deadline < 0:
            raise ValueError("deadline must be non-negative")
        if group_overhead < 0:
            raise ValueError("group_overhead must be non-negative")
        self.synopsis_work = float(synopsis_work)
        gw = np.asarray(group_works, dtype=float)
        if gw.ndim != 1:
            raise ValueError("group_works must be 1-D")
        if np.any(gw < 0):
            raise ValueError("group works must be non-negative")
        self.deadline = float(deadline)
        self.group_overhead = float(group_overhead)
        m = gw.size
        self.i_max = m if i_max is None else min(int(i_max), m)
        if self.i_max < 0:
            raise ValueError("i_max must be non-negative")
        # cum[k] = work of the first k ranked groups (each charged its
        # per-round framework overhead: result merging, scheduling —
        # the paper's AT is slightly *slower* than a plain scan when the
        # deadline never binds, Table 1 rate 20); cum[0] = 0.
        self._cum = np.concatenate(
            [[0.0], np.cumsum(gw[: self.i_max] + self.group_overhead)])
        self.groups_processed = np.empty((0, 0), dtype=np.int16)

    def begin_run(self, n_requests: int, n_components: int) -> None:
        self.groups_processed = np.zeros((n_requests, n_components), dtype=np.int16)

    def service_work(self, request: int, component: int,
                     arrival: float, start: float, speed: float) -> float:
        # Budget of *work* available before the deadline, after the
        # mandatory synopsis pass.  Group k starts iff the elapsed time at
        # its start is < deadline <=> cum[k] < budget.
        budget = (self.deadline - (start - arrival)) * speed - self.synopsis_work
        # Number of groups whose start falls before the deadline = count of
        # k in [0, i_max) with cum[k] < budget (cum[0] = 0, so a group that
        # merely *starts* in time still runs to completion, which is why
        # actual latency can slightly exceed the deadline, as in the paper).
        k = int(np.searchsorted(self._cum[: self.i_max], budget, side="left"))
        self.groups_processed[request, component] = k
        return self.synopsis_work + float(self._cum[k])

    # ------------------------------------------------------------------

    def refinement_depths(self) -> np.ndarray:
        """Per-sub-operation refinement depth of the last run."""
        if self.groups_processed.size == 0:
            raise RuntimeError("no run recorded")
        return self.groups_processed

    def mean_refined_fraction(self) -> float:
        """Mean fraction of the group cap processed across the run."""
        if self.i_max == 0:
            return 1.0
        return float(self.groups_processed.mean() / self.i_max)
