"""Serving-side adapter wrappers.

:class:`IOStallAdapter` decorates any :class:`~repro.core.adapters.
ServiceAdapter` with a real wall-clock stall per online operation,
modelling what the simulator abstracts away: in the paper's deployment a
component is a *remote* node, and every synopsis probe or group
refinement pays a storage/network round trip.  Stalls sleep — yielding
the GIL and the process's kernel slot (:mod:`repro.core.slot`) — so a
thread-pool backend overlaps them across components even on a single
core — the effect the serving benchmark quantifies.

Offline operations (creation, aggregation) and work accounting are
delegated untouched, so a wrapped adapter builds identical synopses and
identical simulated-clock traces to its inner adapter; only *wall* time
changes.
"""

from __future__ import annotations

import numpy as np

from repro.core.adapters import ServiceAdapter
from repro.core.slot import KERNEL_SLOT

__all__ = ["IOStallAdapter"]


class IOStallAdapter(ServiceAdapter):
    """Delegating adapter that sleeps per online operation.

    Parameters
    ----------
    inner:
        The real service adapter.
    synopsis_stall:
        Seconds slept inside :meth:`initial_result` (one synopsis fetch).
    group_stall:
        Seconds slept inside each :meth:`refine` call (one group fetch).
    """

    def __init__(self, inner: ServiceAdapter, synopsis_stall: float = 0.0,
                 group_stall: float = 0.0):
        if synopsis_stall < 0 or group_stall < 0:
            raise ValueError("stalls must be non-negative")
        self.inner = inner
        self.synopsis_stall = float(synopsis_stall)
        self.group_stall = float(group_stall)

    # -- offline: pure delegation --------------------------------------

    def record_ids(self, partition) -> np.ndarray:
        return self.inner.record_ids(partition)

    def svd_triples(self, partition, record_ids=None):
        return self.inner.svd_triples(partition, record_ids)

    def postprocess_reduced(self, factors: np.ndarray) -> np.ndarray:
        return self.inner.postprocess_reduced(factors)

    def aggregate_group(self, partition, member_ids):
        return self.inner.aggregate_group(partition, member_ids)

    def assemble_payload(self, partition, group_vectors: list):
        return self.inner.assemble_payload(partition, group_vectors)

    # -- online: delegation plus stalls --------------------------------

    def initial_result(self, synopsis, request):
        if self.synopsis_stall:
            KERNEL_SLOT.sleep(self.synopsis_stall)
        return self.inner.initial_result(synopsis, request)

    def refine(self, partition, synopsis, group_id: int, request, state):
        if self.group_stall:
            KERNEL_SLOT.sleep(self.group_stall)
        return self.inner.refine(partition, synopsis, group_id, request, state)

    def finalize(self, state, request):
        return self.inner.finalize(state, request)

    def exact(self, partition, request):
        return self.inner.exact(partition, request)

    # -- work accounting: delegation -----------------------------------

    def synopsis_work(self, synopsis) -> float:
        return self.inner.synopsis_work(synopsis)

    def group_work(self, synopsis, group_id: int) -> float:
        return self.inner.group_work(synopsis, group_id)

    def group_works(self, synopsis, group_ids) -> list[float]:
        return self.inner.group_works(synopsis, group_ids)

    def full_work(self, partition) -> float:
        return self.inner.full_work(partition)
