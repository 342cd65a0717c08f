"""The typed request envelope and its serving contract.

Two layers of pinning:

- the envelope types themselves (monotonic ids, class coercion,
  priority defaults, immutability, deadline resolution);
- the serving guarantee: every ``Servable`` implementation answers
  **bit-identically** through the envelope path across all four
  execution backends, and reports carry the envelope's identity end to
  end (including across a process boundary).  The legacy positional
  ``process`` / ``aprocess`` shims finished their deprecation cycle
  and are pinned *absent*.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.core.builder import SynopsisConfig
from repro.core.clock import SimulatedClock
from repro.core.service import AccuracyTraderService
from repro.serving.backends import SequentialBackend, ThreadPoolBackend
from repro.serving.envelope import (
    RequestClass,
    ServingRequest,
    ServingResponse,
    as_envelope,
    payload_of,
)
from repro.serving.router import ReplicaGroup, ShardedService
from repro.serving.transport import RemoteBackend
from repro.workloads.partitioning import split_ratings

DEADLINE = 0.05
SPEED = 400.0  # tight enough that the deadline bites (see test_backends)
CF_CONFIG = SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7)


def sim_clocks(n, speed=SPEED):
    return [SimulatedClock(speed=speed) for _ in range(n)]


def report_key(report):
    """Everything except per-call envelope identity (ids always differ)."""
    return (report.groups_ranked, report.groups_processed, report.work_units,
            report.synopsis_elapsed, report.total_elapsed, report.deadline,
            report.hit_deadline, report.hit_imax, report.exhausted,
            report.state_epoch)


class TestRequestClass:
    def test_coercion(self):
        assert RequestClass.coerce("best_effort") is RequestClass.BEST_EFFORT
        assert RequestClass.coerce("ACCURACY_CRITICAL") is \
            RequestClass.ACCURACY_CRITICAL
        assert RequestClass.coerce(RequestClass.LATENCY_CRITICAL) is \
            RequestClass.LATENCY_CRITICAL
        with pytest.raises(ValueError):
            RequestClass.coerce("bulk")
        with pytest.raises(ValueError):
            RequestClass.coerce(3)

    def test_shed_order_and_priority(self):
        # Best-effort sheds first; accuracy-critical is most urgent.
        ranks = [RequestClass.BEST_EFFORT, RequestClass.LATENCY_CRITICAL,
                 RequestClass.ACCURACY_CRITICAL]
        assert [c.shed_rank for c in ranks] == [0, 1, 2]
        assert RequestClass.ACCURACY_CRITICAL.default_priority < \
            RequestClass.LATENCY_CRITICAL.default_priority < \
            RequestClass.BEST_EFFORT.default_priority


class TestServingRequest:
    def test_defaults(self):
        env = ServingRequest(payload="req")
        assert env.request_class is RequestClass.LATENCY_CRITICAL
        assert env.priority == RequestClass.LATENCY_CRITICAL.default_priority
        assert env.deadline is None
        assert env.hedge is None
        assert env.arrival_time > 0.0

    def test_ids_monotonic(self):
        ids = [ServingRequest(payload=i).request_id for i in range(32)]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_class_string_coerced(self):
        env = ServingRequest(payload=None, request_class="best_effort")
        assert env.request_class is RequestClass.BEST_EFFORT
        assert env.priority == RequestClass.BEST_EFFORT.default_priority

    def test_explicit_priority_wins(self):
        env = ServingRequest(payload=None, request_class="best_effort",
                             priority=0)
        assert env.priority == 0

    def test_frozen(self):
        env = ServingRequest(payload=None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            env.deadline = 1.0

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            ServingRequest(payload=None, deadline=-0.1)

    def test_resolved_and_with_deadline_keep_identity(self):
        env = ServingRequest(payload="p")
        filled = env.resolved(0.25)
        assert filled.deadline == 0.25
        assert filled.request_id == env.request_id
        assert filled.arrival_time == env.arrival_time
        # An already-set deadline is kept as-is (same object).
        assert filled.resolved(9.0) is filled
        override = filled.with_deadline(0.5)
        assert override.deadline == 0.5
        assert override.request_id == env.request_id

    def test_detached_strips_payload_only(self):
        env = ServingRequest(payload=object(), deadline=0.1,
                             request_class="accuracy_critical")
        meta = env.detached()
        assert meta.payload is None
        assert meta.request_id == env.request_id
        assert meta.request_class is RequestClass.ACCURACY_CRITICAL
        assert meta.deadline == 0.1

    def test_as_envelope(self):
        env = as_envelope("payload", 0.2)
        assert env.payload == "payload" and env.deadline == 0.2
        # An envelope passes through with identity intact; an explicit
        # deadline *wins* over the envelope's own (build_tasks
        # precedence: the call site's positional deadline is the more
        # specific instruction).
        explicit = ServingRequest(payload="p", deadline=0.7)
        assert as_envelope(explicit) is explicit
        assert as_envelope(explicit, 0.7) is explicit
        override = as_envelope(explicit, 0.2)
        assert override.deadline == 0.2
        assert override.request_id == explicit.request_id
        # An unset deadline is filled in.
        assert as_envelope(ServingRequest(payload="p"), 0.2).deadline == 0.2
        assert payload_of(explicit) == "p"
        assert payload_of("bare") == "bare"


class TestServingResponse:
    def test_accessors(self, cf_serving_service, cf_request):
        env = ServingRequest(payload=cf_request, deadline=DEADLINE)
        resp = cf_serving_service.serve(env, clocks=sim_clocks(2))
        assert isinstance(resp, ServingResponse)
        assert resp.request is env
        assert len(resp.reports) == 2
        assert resp.state_epochs == [r.state_epoch for r in resp.reports]
        assert all(e is not None for e in resp.state_epochs)
        assert resp.service_time > 0.0
        assert resp.queue_delay == 0.0  # bare serve: no queue in front
        assert resp.latency == resp.queue_delay + resp.service_time
        answer, reports = resp.as_tuple()
        assert answer is resp.answer and reports is resp.reports

    def test_reports_carry_envelope_identity(self, cf_serving_service,
                                             cf_request):
        env = ServingRequest(payload=cf_request, deadline=DEADLINE,
                             request_class="accuracy_critical")
        resp = cf_serving_service.serve(env, clocks=sim_clocks(2))
        for report in resp.reports:
            assert report.request_id == env.request_id
            assert report.request_class == "accuracy_critical"


# ---------------------------------------------------------------------------
# The serving guarantee: the envelope path is bit-identical on every
# backend (sequential is the reference).
# ---------------------------------------------------------------------------


BACKENDS = ["sequential", "thread", "process", "async"]


@pytest.fixture(scope="module", params=BACKENDS)
def any_backend(request):
    if request.param == "sequential":
        backend = SequentialBackend()
    elif request.param == "thread":
        backend = ThreadPoolBackend(max_workers=4)
    elif request.param == "process":
        # Worker processes: the remote backend over localhost TCP.
        backend = RemoteBackend(n_workers=2)
    else:
        from repro.serving.aio import AsyncExecutionBackend

        backend = AsyncExecutionBackend()
    yield backend
    backend.close()


def answers_equal(a, b) -> bool:
    return a.active_mean == b.active_mean and a.numer == b.numer and \
        a.denom == b.denom


class TestEnvelopeBackendIdentity:
    """The envelope path answers bit-identically on all four backends."""

    def test_single_service(self, cf_serving_service, cf_request,
                            any_backend):
        base = cf_serving_service.serve(
            ServingRequest(payload=cf_request, deadline=DEADLINE),
            clocks=sim_clocks(2))
        resp = cf_serving_service.serve(
            ServingRequest(payload=cf_request, deadline=DEADLINE),
            clocks=sim_clocks(2), backend=any_backend)
        assert answers_equal(resp.answer, base.answer)
        assert [report_key(r) for r in resp.reports] == \
            [report_key(r) for r in base.reports]

    def test_single_service_async(self, cf_serving_service, cf_request,
                                  any_backend):
        base = cf_serving_service.serve(
            ServingRequest(payload=cf_request, deadline=DEADLINE),
            clocks=sim_clocks(2))
        resp = asyncio.run(cf_serving_service.aserve(
            ServingRequest(payload=cf_request, deadline=DEADLINE),
            clocks=sim_clocks(2), backend=any_backend))
        assert answers_equal(resp.answer, base.answer)
        assert [report_key(r) for r in resp.reports] == \
            [report_key(r) for r in base.reports]

    def test_search_service(self, search_serving_service, search_query,
                            any_backend):
        base = search_serving_service.serve(
            ServingRequest(payload=search_query, deadline=DEADLINE),
            clocks=sim_clocks(2))
        resp = search_serving_service.serve(
            ServingRequest(payload=search_query, deadline=DEADLINE),
            clocks=sim_clocks(2), backend=any_backend)
        assert [(h.doc_id, h.score) for h in resp.answer] == \
            [(h.doc_id, h.score) for h in base.answer]
        assert [report_key(r) for r in resp.reports] == \
            [report_key(r) for r in base.reports]

    def test_positional_shims_removed(self, cf_serving_service):
        # The DeprecationWarning cycle is over: the shims must be gone,
        # not silently reintroduced.
        assert not hasattr(cf_serving_service, "process")
        assert not hasattr(cf_serving_service, "aprocess")

    def test_deadline_truncation_covered(self, cf_serving_service,
                                         cf_request):
        # Guard: the parity above must exercise the truncated-refinement
        # path, not just process-everything.
        resp = cf_serving_service.serve(
            ServingRequest(payload=cf_request, deadline=DEADLINE),
            clocks=sim_clocks(2))
        assert any(r.hit_deadline for r in resp.reports)


class TestRouterEnvelopePath:
    @pytest.fixture(scope="class")
    def cf_parts(self, small_ratings):
        return split_ratings(small_ratings.matrix, 4)

    @pytest.fixture(scope="class")
    def routed(self, cf_adapter, cf_parts):
        svc = ShardedService([
            ReplicaGroup.build(cf_adapter, cf_parts[0:2], 2,
                               config=CF_CONFIG),
            ReplicaGroup.build(cf_adapter, cf_parts[2:4], 1,
                               config=CF_CONFIG),
        ])
        yield svc
        svc.close()

    def test_sharded_aserve_matches_serve(self, routed, cf_request):
        base = routed.serve(
            ServingRequest(payload=cf_request, deadline=DEADLINE),
            clocks=sim_clocks(routed.n_components))
        resp = asyncio.run(routed.aserve(
            ServingRequest(payload=cf_request, deadline=DEADLINE),
            clocks=sim_clocks(routed.n_components)))
        assert answers_equal(resp.answer, base.answer)
        assert [report_key(r) for r in resp.reports] == \
            [report_key(r) for r in base.reports]

    def test_sharded_shims_removed(self, routed):
        assert not hasattr(routed, "process")
        assert not hasattr(routed, "aprocess")

    def test_replica_group_serve(self, cf_adapter, cf_parts, cf_request):
        with ReplicaGroup.build(cf_adapter, cf_parts[0:2], 2,
                                config=CF_CONFIG) as group:
            first = group.serve(
                ServingRequest(payload=cf_request, deadline=DEADLINE),
                clocks=sim_clocks(2))
            resp = group.serve(
                ServingRequest(payload=cf_request, deadline=DEADLINE),
                clocks=sim_clocks(2))
            # Round-robin advanced one replica between the calls, but the
            # replicas hold bit-identical state.
            assert answers_equal(resp.answer, first.answer)
            for report in resp.reports:
                assert report.request_id == resp.request.request_id

    def test_serve_requires_envelope_and_deadline(self, routed, cf_request):
        with pytest.raises(TypeError):
            routed.serve(cf_request)
        with pytest.raises(ValueError):
            routed.serve(ServingRequest(payload=cf_request))

    def test_exact_accepts_envelope(self, routed, cf_request):
        bare = routed.exact(cf_request)
        via_env = routed.exact(ServingRequest(payload=cf_request))
        assert answers_equal(bare, via_env)


class TestEnvelopeAcrossProcessBoundary:
    def test_identity_survives_pickling(self, cf_adapter, small_ratings,
                                        cf_request):
        svc = AccuracyTraderService(
            cf_adapter, split_ratings(small_ratings.matrix, 2),
            config=CF_CONFIG)
        env = ServingRequest(payload=cf_request, deadline=DEADLINE,
                             request_class="best_effort")
        with svc, RemoteBackend(n_workers=2) as backend:
            resp = svc.serve(env, clocks=sim_clocks(2), backend=backend)
        for report in resp.reports:
            assert report.request_id == env.request_id
            assert report.request_class == "best_effort"
