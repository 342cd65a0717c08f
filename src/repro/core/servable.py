"""The ``Servable`` protocol: what it means to be "a service" here.

The repo grows services in layers — a single partitioned
:class:`~repro.core.service.AccuracyTraderService`, replica groups over
one partition set, and a sharded router tier over many of them
(:mod:`repro.serving.router`).  Everything that *drives* a service — the
:class:`~repro.serving.harness.ServingHarness`, the load generators, the
benchmarks, the examples — depends only on this protocol, so a routed
64-component cluster and a 2-component toy service are interchangeable
behind the same three members.

The merge helpers also live here: combining per-component results into
one service answer is part of the serving *contract* (the router merges
across shards with the very same functions a single service uses across
its components), not an implementation detail of one class.

Request-envelope contract: the native request path is typed.  A request
travels as one immutable :class:`~repro.serving.envelope.ServingRequest`
(payload, deadline, request class, priority, per-request overrides,
monotonic id, arrival timestamp) through :meth:`Servable.serve` /
:meth:`Servable.aserve`, and the reply is a
:class:`~repro.serving.envelope.ServingResponse` (answer, per-component
reports, state epochs, queue/service timing).  Bare payloads are
wrapped with :func:`~repro.serving.envelope.as_envelope` before
dispatch.  (The positional ``process`` / ``aprocess`` shims that once
bridged the pre-envelope API were removed after their deprecation
cycle.)

State-plane contract: every implementation serves requests from
immutable, epoch-versioned component snapshots
(:mod:`repro.core.state`).  A request is pinned at dispatch to each
component's then-current epoch, so a concurrent update can never tear
an in-flight answer: each component's state is always internally
consistent, and a request dispatched before a multi-component
operation (e.g. a shard rebalance) drains entirely against pre-move
epochs.  The one deliberately weaker case: a request dispatched *while*
a rebalance is publishing its affected components may pin a mix of
pre- and post-move epochs — each component still torn-free, but the
cross-component cut not atomic (see the rebalance docstring and the
ROADMAP's atomic-cut follow-on).  The dispatched epoch is reported
back per component via
:attr:`~repro.core.processor.ProcessingReport.state_epoch`.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.core.adapters import CFAdapter, SearchAdapter

__all__ = ["Servable", "unwrap_adapter", "default_merge", "merge_outcomes"]


@runtime_checkable
class Servable(Protocol):
    """A deployed service: n components answering deadline-bound requests.

    Implementations: :class:`~repro.core.service.AccuracyTraderService`
    (one partitioned deployment), :class:`~repro.serving.router.ReplicaGroup`
    (replicated deployment) and :class:`~repro.serving.router.ShardedService`
    (routed cluster of replica groups).
    """

    @property
    def n_components(self) -> int:
        """Total partition-processing components behind this service."""
        ...

    def serve(self, request: "ServingRequest", clocks=None, backend=None,
              ) -> "ServingResponse":
        """Answer one typed request envelope — the native entry point.

        ``request`` is a :class:`~repro.serving.envelope.ServingRequest`
        with its deadline resolved (harnesses fill defaults before
        dispatch).  ``clocks`` optionally supplies one
        :class:`~repro.core.clock.DeadlineClock` per component;
        ``backend`` overrides the service's default
        :class:`~repro.serving.backends.ExecutionBackend` for this call.
        Returns a :class:`~repro.serving.envelope.ServingResponse`;
        execution is pinned to each component's dispatch-time state
        epoch (see the module docstring's state-plane contract), and
        every per-component report carries the envelope's
        ``request_id`` / ``request_class``.
        """
        ...

    async def aserve(self, request: "ServingRequest", clocks=None,
                     backend=None) -> "ServingResponse":
        """Async :meth:`serve`: same contract, awaitable execution.

        On an :class:`~repro.serving.aio.AsyncExecutionBackend` the
        per-component work is awaited natively (one event loop holds
        thousands of in-flight requests); any other backend is bridged
        through an executor so the caller's loop never blocks.  Results
        are bit-identical to :meth:`serve` over the same state.
        """
        ...

    def exact(self, request) -> Any:
        """Full exact computation (ground truth for accuracy scoring)."""
        ...


def unwrap_adapter(adapter):
    """Strip delegating wrappers (e.g. ``IOStallAdapter``) off an adapter.

    Wrappers expose the wrapped adapter as ``.inner``; unwrapping stops at
    the first concrete paper adapter (CF or search) so merge selection and
    workload detection see the underlying service semantics.
    """
    while not isinstance(adapter, (CFAdapter, SearchAdapter)) and \
            hasattr(adapter, "inner"):
        adapter = adapter.inner
    return adapter


def default_merge(adapter) -> Callable:
    """The canonical merge function for ``adapter``'s workload.

    CF components (and shards) merge via
    :func:`~repro.recommender.cf.merge_predictions`; search via
    :func:`~repro.search.engine.merge_topk`.  Both are associative, which
    is what lets the router merge across shards with the same function a
    single service uses across components.  Custom adapters must supply
    their own merge.
    """
    adapter = unwrap_adapter(adapter)
    if isinstance(adapter, CFAdapter):
        from repro.recommender.cf import merge_predictions

        def merge_cf(results, request):
            return merge_predictions(results,
                                     active_mean=request.active_mean)

        return merge_cf
    if isinstance(adapter, SearchAdapter):
        from repro.search.engine import merge_topk

        def merge_search(results, request):
            return merge_topk(results, request.k)

        return merge_search
    raise ValueError("custom adapters must supply a merge function")


def merge_outcomes(merge: Callable, outcomes, request) -> tuple[Any, list]:
    """Merge one request's component outcomes: ``(answer, reports)``.

    The shared tail of every ``serve`` / ``aserve``: worker-side spans
    piggybacked on ``outcomes`` are stitched into the live tracer, then
    the results merge under ``request``'s payload.
    """
    from repro.serving.telemetry import get_tracer

    get_tracer().ingest_outcomes(outcomes)
    answer = merge([o.result for o in outcomes], request.payload)
    return answer, [o.report for o in outcomes]
