"""Observability plane: tracing, metrics, and cross-process stitching.

The acceptance contract pinned here:

- head sampling is deterministic and exact at rates 0 and 1 (and obeys
  the ``floor(n * rate)`` law at fractional rates);
- the metrics registry's counters / gauges / histograms are int-exact
  where the legacy dicts were, and the registry-backed counter dicts
  (`hedge_counters`, admission stats, payload counters) keep their
  historical shapes;
- one request served through ``ShardedService`` -> ``ReplicaGroup`` ->
  ``RemoteServable`` yields a single stitched trace whose spans come
  from more than one OS process, with valid parent links throughout;
- hedged requests get sibling ``shard.primary`` / ``shard.hedge`` spans
  with exactly one winner;
- all-shed and empty runs still export well-formed traces, and the
  Chrome export is loadable ``trace_event`` JSON.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.builder import SynopsisConfig
from repro.core.service import AccuracyTraderService
from repro.serving.adapters import IOStallAdapter
from repro.serving.admission import AdmissionController, DeadlineAwareDrop
from repro.serving.aio import (AsyncExecutionBackend, AsyncServingHarness,
                               AsyncStallAdapter)
from repro.serving.backends import SequentialBackend, ThreadPoolBackend
from repro.serving.envelope import RequestClass, ServingRequest, as_envelope
from repro.serving.harness import ServingHarness
from repro.serving.loadgen import LoadGenerator
from repro.serving.router import ReplicaGroup, ShardedService
from repro.serving.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    attach_context,
    get_tracer,
    trace_context_of,
    use_tracer,
)
from repro.serving.transport import RemoteServable
from repro.strategies.reissue import ReissueStrategy
from repro.workloads.partitioning import split_ratings

from tests.serving.test_envelope import DEADLINE, sim_clocks
from tests.serving.test_harness import cf_request_factory

CF_CONFIG = SynopsisConfig(n_iters=20, target_ratio=15.0, seed=7)


def fresh_envelope(i: int = 0,
                   request_class=RequestClass.LATENCY_CRITICAL):
    return ServingRequest(payload=("p", i), deadline=0.05,
                          request_class=request_class)


def assert_parent_links_valid(spans):
    """Every non-root span's parent is another span of the same trace."""
    ids = {s.span_id for s in spans}
    for s in spans:
        assert s.end >= s.start
        if s.parent_id is not None:
            assert s.parent_id in ids, (s.name, s.parent_id)


# ---------------------------------------------------------------------------
# sampling


class TestSampling:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(default_rate=1.0)
        for i in range(20):
            ctx = trace_context_of(tracer.trace(fresh_envelope(i)))
            assert ctx is not None and ctx.sampled

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(default_rate=0.0)
        for i in range(20):
            ctx = trace_context_of(tracer.trace(fresh_envelope(i)))
            assert ctx is not None and not ctx.sampled
        # Unsampled requests record no spans anywhere.
        ctx = trace_context_of(tracer.trace(fresh_envelope(99)))
        with tracer.span("request", ctx) as sp:
            sp.tag(anything=1)
        assert tracer.trace_ids() == []

    @pytest.mark.parametrize("rate", [0.1, 0.25, 0.5, 0.75])
    def test_fractional_rate_is_exact_floor_law(self, rate):
        tracer = Tracer(default_rate=rate)
        sampled = [trace_context_of(tracer.trace(fresh_envelope(i))).sampled
                   for i in range(100)]
        for n in range(1, 101):
            assert sum(sampled[:n]) == math.floor(n * rate)

    def test_per_class_rates(self):
        tracer = Tracer(sample_rates={"best_effort": 0.0}, default_rate=1.0)
        be = trace_context_of(tracer.trace(
            fresh_envelope(0, RequestClass.BEST_EFFORT)))
        lc = trace_context_of(tracer.trace(fresh_envelope(1)))
        assert not be.sampled
        assert lc.sampled

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            Tracer(default_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rates={"best_effort": -0.1})


# ---------------------------------------------------------------------------
# tracer mechanics


class TestTracerMechanics:
    def test_root_attached_in_place_and_idempotent(self):
        tracer = Tracer()
        env = fresh_envelope()
        out = tracer.trace(env)
        assert out is env                      # identity preserved
        ctx = trace_context_of(env)
        assert ctx.trace_id == env.request_id and ctx.span_id == 0
        again = tracer.trace(env)
        assert again is env
        assert trace_context_of(again) is ctx  # second root is a no-op

    def test_disabled_tracer_is_a_passthrough(self):
        tracer = Tracer(enabled=False)
        env = fresh_envelope()
        assert tracer.trace(env) is env
        assert trace_context_of(env) is None
        with tracer.span("x", None) as sp:
            assert sp.ctx is None
        assert tracer.trace_ids() == []

    def test_span_nesting_links_parents(self):
        tracer = Tracer()
        env = tracer.trace(fresh_envelope())
        ctx = trace_context_of(env)
        with tracer.span("outer", ctx) as outer:
            assert outer.ctx is not ctx        # child context minted
            with tracer.span("inner", outer.ctx) as inner:
                inner.tag(depth=2)
        spans = {s.name: s for s in tracer.spans_of(ctx.trace_id)}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].tags["depth"] == 2
        assert_parent_links_valid(list(spans.values()))

    def test_attach_context_copies_preserve_payload(self):
        tracer = Tracer()
        env = tracer.trace(fresh_envelope())
        ctx = trace_context_of(env)
        with tracer.span("outer", ctx) as sp:
            child = attach_context(env, sp.ctx)
        assert child.payload == env.payload
        assert child.request_id == env.request_id
        assert trace_context_of(child) is sp.ctx

    def test_record_posthoc_span(self):
        tracer = Tracer()
        env = tracer.trace(fresh_envelope())
        ctx = trace_context_of(env)
        tracer.record("shard.hedge", ctx, 1.0, 2.5, winner=True)
        (span,) = tracer.spans_of(ctx.trace_id)
        assert span.name == "shard.hedge"
        assert span.start == 1.0 and span.end == 2.5
        assert span.duration == 1.5
        assert span.tags == {"winner": True}

    def test_error_spans_tagged_not_swallowed(self):
        tracer = Tracer()
        env = tracer.trace(fresh_envelope())
        ctx = trace_context_of(env)
        with pytest.raises(RuntimeError):
            with tracer.span("boom", ctx):
                raise RuntimeError("kernel failed")
        (span,) = tracer.spans_of(ctx.trace_id)
        assert span.tags["error"] == "RuntimeError"

    def test_ingest_is_idempotent(self):
        tracer = Tracer()
        foreign = [Span(trace_id=7, span_id=1, parent_id=None, name="w",
                        start=0.0, end=1.0),
                   Span(trace_id=7, span_id=2, parent_id=1, name="k",
                        start=0.2, end=0.8)]
        assert tracer.ingest(foreign) == 2
        assert tracer.ingest(foreign) == 0
        assert len(tracer.spans_of(7)) == 2

    def test_max_traces_evicts_oldest(self):
        tracer = Tracer(max_traces=2)
        envs = [tracer.trace(fresh_envelope(i)) for i in range(3)]
        for env in envs:
            ctx = trace_context_of(env)
            with tracer.span("request", ctx):
                pass
        assert len(tracer.trace_ids()) == 2
        assert tracer.traces_evicted == 1
        assert envs[0].request_id not in tracer.trace_ids()


# ---------------------------------------------------------------------------
# metrics registry


class TestMetricsPrimitives:
    def test_counter_is_int_exact(self):
        c = Counter("n")
        c.inc()
        c.inc(41)
        assert c.value == 42 and isinstance(c.value, int)
        with pytest.raises(ValueError):
            c.inc(-1)
        c.reset()
        assert c.value == 0

    def test_gauge_tracks_high_watermark(self):
        g = Gauge("depth")
        g.inc(3)
        g.dec()
        g.inc()
        assert g.value == 3 and g.max == 3
        g.dec(3)
        g.reset_max()
        assert g.max == g.value == 0
        g.set(5)
        assert g.max == 5

    def test_histogram_buckets_and_percentiles(self):
        h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(5.605)
        snap = h.snapshot()
        assert sum(snap["counts"]) == 5
        assert h.percentile(0.0) <= h.percentile(0.5) <= h.percentile(1.0)

    def test_registry_timer_uses_injected_clock(self):
        ticks = iter([10.0, 10.25])
        reg = MetricsRegistry(clock=lambda: next(ticks))
        with reg.timer("op"):
            pass
        h = reg.histogram("op")
        assert h.count == 1
        assert h.sum == pytest.approx(0.25)

    def test_registry_interns_by_name_and_labels(self):
        reg = MetricsRegistry()
        assert reg.counter("shed", reason="queue_full") is \
            reg.counter("shed", reason="queue_full")
        assert reg.counter("shed", reason="queue_full") is not \
            reg.counter("shed", reason="deadline_expired")
        reg.counter("shed", reason="queue_full").inc(3)
        named = reg.counters_named("shed")
        assert sum(named.values()) == 3

    def test_registry_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(7)
        snap = reg.snapshot()
        assert snap["a"] == 2
        assert snap["b"] == {"value": 7, "max": 7}
        reg.reset()
        assert reg.counter("a").value == 0


class TestRegistryBackedLegacyCounters:
    """The historical counter dicts read through the registry unchanged."""

    def test_hedge_counters_shape(self, cf_adapter, small_ratings):
        parts = split_ratings(small_ratings.matrix, 2)
        svc = ShardedService([
            ReplicaGroup([AccuracyTraderService(cf_adapter, [part],
                                                config=CF_CONFIG)])
            for part in parts])
        env = as_envelope(cf_request_factory(small_ratings.matrix)(
            0, np.random.default_rng(0)), DEADLINE)
        svc.serve(env, clocks=sim_clocks(2))
        counters = svc.hedge_counters()
        assert counters == {"shard_calls": 2, "hedges_issued": 0,
                            "hedge_wins": 0}
        assert svc.shard_calls == svc.metrics.counter("shard_calls").value

    def test_admission_stats_shape(self):
        ctl = AdmissionController(max_pending=4, max_inflight=2)
        stats = ctl.stats()
        assert stats.offered == stats.admitted == stats.shed == 0
        assert stats.shed_reasons == {}
        assert ctl.metrics.counter("offered").value == 0


# ---------------------------------------------------------------------------
# end-to-end stitching (in process)


@pytest.fixture(scope="module")
def cf_parts(small_ratings):
    return split_ratings(small_ratings.matrix, 2)


@pytest.fixture(scope="module")
def cf_cluster(cf_adapter, cf_parts):
    return ShardedService([
        ReplicaGroup([AccuracyTraderService(cf_adapter, [part],
                                            config=CF_CONFIG)])
        for part in cf_parts])


@pytest.fixture(scope="module")
def cf_loadgen(small_ratings):
    return LoadGenerator(cf_request_factory(small_ratings.matrix), seed=29)


class TestInProcessStitching:
    def test_one_request_yields_one_stitched_trace(self, cf_cluster,
                                                   cf_loadgen):
        tracer = Tracer()
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        with use_tracer(tracer):
            resp = cf_cluster.serve(as_envelope(request, DEADLINE),
                                    clocks=sim_clocks(2))
        assert resp.answer is not None
        (trace_id,) = tracer.trace_ids()
        assert trace_id == resp.request.request_id
        spans = tracer.spans_of(trace_id)
        names = {s.name for s in spans}
        assert "router.serve" in names
        assert "kernel" in names       # worker execution stitched in
        assert "state.fetch" in names
        assert_parent_links_valid(spans)

    def test_kernel_span_tags_the_refine_chunking(self, cf_cluster,
                                                  cf_loadgen):
        tracer = Tracer()
        request = cf_loadgen.request_factory(0, np.random.default_rng(0))
        with use_tracer(tracer):
            resp = cf_cluster.serve(as_envelope(request, DEADLINE),
                                    clocks=sim_clocks(2, speed=1e9))
        (trace_id,) = tracer.trace_ids()
        tags = [s.tags for s in tracer.spans_of(trace_id)
                if s.name == "kernel"]
        assert sorted((t["groups_processed"], t["refine_calls"])
                      for t in tags) == \
            sorted((r.groups_processed, r.refine_calls)
                   for r in resp.reports)
        # Simulated clocks: each kernel refines its groups in one call.
        assert all(t["groups_processed"] > 1 and t["refine_calls"] == 1
                   for t in tags)

    def test_harness_roots_the_request_span(self, cf_cluster, cf_loadgen):
        tracer = Tracer()
        load = cf_loadgen.closed_loop(n_clients=1, n_requests=3)
        with use_tracer(tracer):
            harness = ServingHarness(cf_cluster, deadline=DEADLINE)
            stats = harness.run_closed_loop(load)
        assert stats.n_requests == 3
        assert len(tracer.trace_ids()) == 3
        for tid in tracer.trace_ids():
            spans = tracer.spans_of(tid)
            roots = [s for s in spans if s.parent_id is None]
            assert [r.name for r in roots] == ["request"]
            assert_parent_links_valid(spans)

    def test_closed_loop_populates_queue_delays(self, cf_cluster,
                                                cf_loadgen):
        load = cf_loadgen.closed_loop(n_clients=2, n_requests=6)
        harness = ServingHarness(cf_cluster, deadline=DEADLINE)
        stats = harness.run_closed_loop(load)
        assert stats.queue_delays.shape == (6,)
        assert np.all(stats.queue_delays >= 0.0)
        assert np.all(np.isfinite(stats.queue_delays))


class TestHedgeSiblingSpans:
    def test_hedge_copies_get_sibling_spans_with_one_winner(
            self, cf_adapter, cf_parts, cf_loadgen):
        stall = IOStallAdapter(cf_adapter, synopsis_stall=0.03,
                               group_stall=0.03)
        shard0 = ReplicaGroup([
            AccuracyTraderService(stall, [cf_parts[0]], config=CF_CONFIG,
                                  i_max=3),
            AccuracyTraderService(cf_adapter, [cf_parts[0]],
                                  config=CF_CONFIG, i_max=3)])
        tracer = Tracer()
        with ThreadPoolBackend(max_workers=8) as backend:
            svc = ShardedService(
                [shard0], backend=backend,
                hedge=ReissueStrategy(100.0,
                                      initial_expected_latency=0.02),
                hedge_budget=None)
            with use_tracer(tracer):
                harness = ServingHarness(svc, deadline=10.0)
                harness.run_closed_loop(
                    cf_loadgen.closed_loop(n_clients=1, n_requests=4))
        assert svc.hedges_issued > 0
        hedged_traces = [
            tid for tid in tracer.trace_ids()
            if any(s.name == "shard.hedge" for s in tracer.spans_of(tid))]
        assert hedged_traces
        for tid in hedged_traces:
            spans = tracer.spans_of(tid)
            primaries = [s for s in spans if s.name == "shard.primary"]
            hedges = [s for s in spans if s.name == "shard.hedge"]
            for hedge in hedges:
                shard = hedge.tags["shard"]
                (primary,) = [s for s in primaries
                              if s.tags["shard"] == shard]
                # Siblings: same parent, exactly one winner.
                assert primary.parent_id == hedge.parent_id
                assert primary.tags["winner"] != hedge.tags["winner"]
                assert primary.tags["cancelled"] == \
                    (not primary.tags["winner"])
            assert_parent_links_valid(spans)


# ---------------------------------------------------------------------------
# cross-process stitching (RemoteServable)


class TestRemoteStitching:
    @pytest.fixture(scope="class")
    def remote_cluster(self, cf_adapter, cf_parts):
        remotes = [RemoteServable.spawn(AccuracyTraderService, cf_adapter,
                                        [part], config=CF_CONFIG)
                   for part in cf_parts]
        cluster = ShardedService([ReplicaGroup([r]) for r in remotes])
        yield cluster
        for remote in remotes:
            remote.close()

    def test_spans_stitch_across_process_boundaries(self, remote_cluster,
                                                    cf_loadgen):
        tracer = Tracer()
        request = cf_loadgen.request_factory(0, np.random.default_rng(1))
        with use_tracer(tracer):
            resp = remote_cluster.serve(as_envelope(request, DEADLINE),
                                        clocks=sim_clocks(2))
        assert resp.answer is not None
        (trace_id,) = tracer.trace_ids()
        spans = tracer.spans_of(trace_id)
        names = {s.name for s in spans}
        assert "router.serve" in names
        assert "wire.rpc" in names
        assert "kernel" in names
        # Worker spans really crossed a process boundary.
        pids = {s.pid for s in spans}
        assert len(pids) >= 2, names
        kernel_pids = {s.pid for s in spans if s.name == "kernel"}
        assert kernel_pids.isdisjoint(
            {s.pid for s in spans if s.name == "router.serve"})
        # Wire spans carry byte counts.
        for s in spans:
            if s.name == "wire.rpc":
                assert s.tags["bytes_sent"] > 0
                assert s.tags["bytes_received"] > 0


# ---------------------------------------------------------------------------
# degenerate traces + exports


class TestDegenerateTraces:
    def test_empty_tracer_exports_well_formed(self, tmp_path):
        tracer = Tracer()
        assert tracer.export_json() == {"traces": []}
        chrome = tracer.chrome_trace(str(tmp_path / "t.json"))
        assert chrome["traceEvents"] == []
        json.load(open(tmp_path / "t.json"))

    def test_all_shed_run_yields_well_formed_traces(self, cf_adapter,
                                                    small_ratings):
        parts = split_ratings(small_ratings.matrix, 1)
        stall = AsyncStallAdapter(cf_adapter, synopsis_stall=0.05,
                                  group_stall=0.0)
        svc = AccuracyTraderService(stall, parts, config=CF_CONFIG, i_max=0)
        loadgen = LoadGenerator(cf_request_factory(small_ratings.matrix),
                                seed=5)
        # Zero deadline + deadline-aware drop: every request sheds on
        # arrival; the trace still records a root span per request.
        admission = AdmissionController(
            max_pending=4, max_inflight=1,
            policies=[DeadlineAwareDrop(max_wait_fraction=1.0)])
        tracer = Tracer()
        with use_tracer(tracer), AsyncExecutionBackend() as backend:
            harness = AsyncServingHarness(svc, deadline=0.0,
                                          backend=backend,
                                          admission=admission)
            stats = harness.run_open_loop(loadgen.fixed(np.zeros(5)))
        svc.close()
        assert stats.n_requests == 0 and stats.shed == 5
        assert len(tracer.trace_ids()) == 5
        for tid in tracer.trace_ids():
            spans = tracer.spans_of(tid)
            assert spans, "shed request must still trace"
            (root,) = [s for s in spans if s.parent_id is None]
            assert root.name == "request"
            assert root.tags["outcome"].startswith("shed:")
            assert_parent_links_valid(spans)
        # Exports stay loadable.
        data = tracer.export_json()
        assert len(data["traces"]) == 5
        json.dumps(tracer.chrome_trace())

    def test_chrome_trace_structure(self, cf_cluster, cf_loadgen,
                                    tmp_path):
        tracer = Tracer()
        request = cf_loadgen.request_factory(2, np.random.default_rng(2))
        with use_tracer(tracer):
            cf_cluster.serve(as_envelope(request, DEADLINE),
                             clocks=sim_clocks(2))
        path = tmp_path / "chrome.json"
        tracer.chrome_trace(str(path))
        data = json.load(open(path))
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert complete and meta
        for e in complete:
            assert isinstance(e["ts"], float) and e["dur"] >= 0.0
            assert {"pid", "tid", "name", "args"} <= e.keys()
            assert "trace_id" in e["args"]
        assert {e["name"] for e in meta} == {"process_name"}

    def test_global_tracer_swap_is_scoped(self):
        original = get_tracer()
        inner = Tracer()
        with use_tracer(inner):
            assert get_tracer() is inner
        assert get_tracer() is original
