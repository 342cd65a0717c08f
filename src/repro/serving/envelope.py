"""The typed request envelope: what one request *is* on the serving path.

Before this module the whole stack threaded a bare payload plus loose
keyword arguments through service → router → admission → harness
(``process(request, deadline, clocks=None, backend=None)``), so a
request carried no class, priority, budget override, or identity — which
is exactly what blocked priority-aware shedding and per-class SLOs.  The
paper's central trade-off distinguishes accuracy-critical from
latency-critical requests; the envelope makes that distinction a
first-class, typed property of every request:

- :class:`RequestClass` — the paper's request taxonomy:
  ``ACCURACY_CRITICAL`` (the answer must be as exact as possible; shed
  last), ``LATENCY_CRITICAL`` (the deadline matters more than the last
  refinement step; the serving default), ``BEST_EFFORT`` (background /
  speculative traffic; shed first under overload).
- :class:`ServingRequest` — one immutable request envelope: the payload,
  its deadline, class, priority, per-request hedging override, a
  monotonically assigned ``request_id``, and its arrival timestamp.
- :class:`ServingResponse` — the typed reply: the merged answer, the
  per-component :class:`~repro.core.processor.ProcessingReport` list,
  the state epochs that answered, and the queue/service timing
  breakdown.

Every :class:`~repro.core.servable.Servable` implementation serves
envelopes natively via ``serve`` / ``aserve``; bare payloads are
wrapped with :func:`as_envelope` before dispatch.  (The positional
``process`` / ``aprocess`` shims that once bridged the pre-envelope
API were removed after their deprecation cycle.)

This module deliberately imports nothing from the rest of
:mod:`repro.serving`, so the core service classes can reach it lazily
without import cycles.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.clock import monotonic
from repro.core.processor import ProcessingReport

__all__ = [
    "RequestClass",
    "ServingRequest",
    "ServingResponse",
    "as_envelope",
    "payload_of",
]


class RequestClass(enum.Enum):
    """The paper's request taxonomy, as a typed class on every envelope.

    Ordering is expressed by two derived properties rather than enum
    order, so neither can silently drift:

    - :attr:`default_priority` — urgency (lower is more urgent), used as
      the envelope's priority when none is given;
    - :attr:`shed_rank` — the order overload shedding consumes classes
      (lower sheds first): ``BEST_EFFORT`` before ``LATENCY_CRITICAL``
      before ``ACCURACY_CRITICAL``.
    """

    ACCURACY_CRITICAL = "accuracy_critical"
    LATENCY_CRITICAL = "latency_critical"
    BEST_EFFORT = "best_effort"

    @property
    def default_priority(self) -> int:
        """Default within-queue urgency for this class (lower = sooner)."""
        return _DEFAULT_PRIORITY[self]

    @property
    def shed_rank(self) -> int:
        """Overload shedding order (lower = shed first)."""
        return _SHED_RANK[self]

    @classmethod
    def coerce(cls, value) -> "RequestClass":
        """Accept a :class:`RequestClass`, a value string, or a name."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                try:
                    return cls[value.upper()]
                except KeyError:
                    pass
        raise ValueError(
            f"cannot interpret {value!r} as a RequestClass; expected one "
            f"of {[c.value for c in cls]}")


_DEFAULT_PRIORITY = {
    RequestClass.ACCURACY_CRITICAL: 0,
    RequestClass.LATENCY_CRITICAL: 1,
    RequestClass.BEST_EFFORT: 2,
}

_SHED_RANK = {
    RequestClass.BEST_EFFORT: 0,
    RequestClass.LATENCY_CRITICAL: 1,
    RequestClass.ACCURACY_CRITICAL: 2,
}

# Monotonic, process-wide request identity.  ``itertools.count().__next__``
# is atomic under CPython, so ids are unique and ordered without a lock.
_REQUEST_IDS = itertools.count()


def _next_request_id() -> int:
    return next(_REQUEST_IDS)


@dataclass(frozen=True)
class ServingRequest:
    """One immutable request envelope.

    Attributes
    ----------
    payload:
        The workload request proper (e.g. a :class:`~repro.core.adapters.
        CFRequest` or :class:`~repro.core.adapters.SearchQuery`) — what
        adapters and merge functions see.
    deadline:
        Per-component deadline in seconds, or ``None`` to inherit the
        callee's default (harnesses resolve it before dispatch; the
        ``serve`` entry points require it resolved).
    request_class:
        :class:`RequestClass` (a value string like ``"best_effort"`` is
        coerced).  Defaults to ``LATENCY_CRITICAL`` — the class the
        legacy positional API implicitly always was.
    priority:
        Within-class urgency (lower = more urgent); defaults to the
        class's :attr:`~RequestClass.default_priority`.
    hedge:
        Per-request hedging override: ``False`` disables hedged
        re-issue for this request even on a hedging router; ``True``
        marks it eligible (still subject to the router's strategy,
        trigger, and budget); ``None`` (default) follows the service
        configuration.
    request_id:
        Monotonically assigned process-wide id (dispatch order of
        envelope *creation*); stamped into every per-component
        :class:`~repro.core.processor.ProcessingReport`.
    arrival_time:
        The monotonic wall reading at envelope creation; admission
        control counts waiting from here unless told otherwise.
    trace:
        Propagated span context (a :class:`~repro.serving.telemetry.
        TraceContext`, treated as opaque data here), or ``None`` when
        the request has not (yet) been rooted in a trace.  Rides the
        detached envelope across every process boundary, which is what
        stitches worker-side spans into the parent trace.  Excluded
        from equality — tracing never changes request identity.
    """

    payload: Any
    deadline: float | None = None
    request_class: RequestClass = RequestClass.LATENCY_CRITICAL
    priority: int | None = None
    hedge: bool | None = None
    request_id: int = field(default_factory=_next_request_id)
    arrival_time: float = field(default_factory=monotonic)
    trace: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "request_class",
                           RequestClass.coerce(self.request_class))
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be non-negative")
        if self.priority is None:
            object.__setattr__(self, "priority",
                               self.request_class.default_priority)

    # ------------------------------------------------------------------

    def resolved(self, default_deadline: float) -> "ServingRequest":
        """This envelope with its deadline defaulted if unset."""
        if self.deadline is not None:
            return self
        return replace(self, deadline=float(default_deadline))

    def with_deadline(self, deadline: float) -> "ServingRequest":
        """A copy of this envelope carrying ``deadline`` (same identity)."""
        return replace(self, deadline=float(deadline))

    def detached(self) -> "ServingRequest":
        """A payload-free copy carrying only envelope identity/metadata.

        This is what rides along each per-component
        :class:`~repro.serving.backends.ComponentTask` (whose ``request``
        field already carries the payload), so crossing a process
        boundary never serialises the payload twice.
        """
        return replace(self, payload=None)


@dataclass
class ServingResponse:
    """The typed reply to one :class:`ServingRequest`.

    Attributes
    ----------
    answer:
        The merged service answer.
    reports:
        One :class:`~repro.core.processor.ProcessingReport` per
        component (per shard call on a routed service), in global
        component order.
    request:
        The envelope this response answers.
    queue_delay:
        Seconds the request spent waiting before dispatch (admission /
        arrival queueing; filled by the harness — a bare ``serve`` call
        has no queue, so it stays 0).
    service_time:
        Wall seconds from dispatch to the merged answer.
    """

    answer: Any
    reports: list[ProcessingReport]
    request: ServingRequest
    queue_delay: float = 0.0
    service_time: float = 0.0

    @property
    def state_epochs(self) -> list[int | None]:
        """Which published state epoch answered, per component."""
        return [r.state_epoch for r in self.reports]

    @property
    def latency(self) -> float:
        """Queue delay plus service time — the client-observed latency."""
        return self.queue_delay + self.service_time

    def as_tuple(self) -> tuple[Any, list[ProcessingReport]]:
        """The legacy ``(answer, reports)`` shape (migration shims)."""
        return self.answer, self.reports


# ---------------------------------------------------------------------------
# Migration helpers
# ---------------------------------------------------------------------------


def as_envelope(request, deadline: float | None = None, **kwargs,
                ) -> ServingRequest:
    """Coerce a legacy ``(request, deadline)`` pair into an envelope.

    An existing :class:`ServingRequest` passes through with its identity
    and metadata intact; an explicit ``deadline`` **wins** over the
    envelope's own (the call site's positional deadline is the more
    specific instruction — the same precedence ``build_tasks`` applies),
    and only fills in when omitted.  Anything else becomes the payload
    of a fresh default-class envelope.  This is the entire back-compat
    shim: callers holding a bare ``(payload, deadline)`` pair funnel
    through here and then down the one envelope-native path.
    """
    if isinstance(request, ServingRequest):
        if deadline is None or request.deadline == deadline:
            return request
        return request.with_deadline(deadline)
    return ServingRequest(payload=request, deadline=deadline, **kwargs)


def payload_of(request) -> Any:
    """The workload payload of an envelope — or the bare request itself."""
    if isinstance(request, ServingRequest):
        return request.payload
    return request
