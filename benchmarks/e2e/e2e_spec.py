"""The benchmark's names: workloads, frozen constants, metrics.

Every later claim about this repository's performance is made in the
names defined here.  ``BENCHMARK.json`` at the repo root repeats the
metric tables (the smoke test checks the two agree); the frozen
per-workload constants live only here because ``BENCHMARK.json`` has a
fixed key set.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "Metric", "END_TO_END", "PER_LAYER",
           "TRACE_LAYERS", "GUARDS", "SETUP_REPS", "WARMUP_REQUESTS",
           "ORACLE_REQUESTS", "DEFAULT_SEED"]

DEFAULT_SEED = 23

# Set-ups per run (setup_s is their median), before and after the
# measured phase: in-process set-ups take a fraction of a second, the
# ones that spawn processes over a second.  A neighbour's burst on the
# shared host lasts seconds and would cover every set-up of a run that
# did them back to back; spread over the run, it covers a minority.
SETUP_REPS = {"closed": (5, 4), "open_async": (3, 2), "open_sync": (3, 2)}
WARMUP_REQUESTS = 64     # served before the measured phase, outside it
ORACLE_REQUESTS = 64     # requests compared bit-for-bit with the oracle


@dataclass(frozen=True)
class Workload:
    """One named workload and its frozen constants.

    The constants were derived with ``run.py --calibrate`` on the commit
    that introduced the benchmark and are identical for every later
    parent/change comparison; re-deriving them is a benchmark change,
    not part of a performance claim.
    """

    name: str
    why: str
    family: str                       # "cf" | "search"
    mode: str                         # "closed" | "open_async" | "open_sync"
    deadline_s: float                 # per-component l_spe
    i_max: int | None = None
    i_max_fraction: float | None = None
    rate_rps: float | None = None     # open loop: offered rate
    slo_ms: float = 0.0               # client latency limit
    min_samples: int = 1000           # fewer answered requests: invalid run
    update_every_s: float | None = None

    @property
    def deadline_bound(self) -> bool:
        return self.mode != "closed"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cf_local",
        why="CF kernel + service/router dispatch do all the work in one "
            "thread; transport, admission and state plane do none: the "
            "repeatable cost of one request",
        family="cf", mode="closed", deadline_s=10.0, i_max=16, slo_ms=45.0,
        min_samples=800),
    Workload(
        name="search_local",
        why="same stack as cf_local with sparse postings and top-k merge; "
            "a CF-only kernel change must show as no change here",
        family="search", mode="closed", deadline_s=10.0, i_max=32,
        slo_ms=45.0, min_samples=800),
    Workload(
        name="cf_workers_updates",
        why="writes beside reads: updater, state deltas, epoch shipping, "
            "batch framing, admission and the async tier are all on the "
            "path, so a state-plane gain that taxes reads shows here",
        family="cf", mode="open_async", deadline_s=0.012, rate_rps=30.0,
        slo_ms=150.0, update_every_s=1.0, min_samples=500),
    Workload(
        name="search_cluster",
        why="RPC wire and sync router carry every request while the state "
            "plane idles: bypass case for state work, exercise case for "
            "frame and serialisation work",
        family="search", mode="open_sync", deadline_s=0.0035,
        i_max_fraction=0.4, rate_rps=52.0, slo_ms=75.0),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float | None = None   # end-to-end only: allowed relative worsening
    meaning: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "median of the run's set-ups: build every synopsis, spawn the "
           "workers, answer the first 8 requests (first state publish "
           "included)"),
    Metric("throughput_rps", "req/s", "higher", 0.25,
           "answered requests per second of measured wall time; closed "
           "loop: the loop's rate in its quiet-decile 1-s window (see "
           "e2e_stats.quiet_window), open loop: over the whole run"),
    Metric("latency_p50_ms", "ms", "lower", 0.25,
           "client latency median of the quiet-decile 1-s window; open "
           "loop: timed from the scheduled arrival"),
    Metric("accuracy_pct", "%", "higher", 0.15,
           "100 - accuracy_loss_pct: closeness of the answer returned at "
           "the deadline to the exact answer over the same state (search: "
           "top-k overlap; CF: 100 - 100*RMSE(approx, exact)/0.5 stars)"),
    Metric("slo_attainment_pct", "%", "higher", 0.05,
           "offered requests answered within slo_ms, the run's worst tenth "
           "of 1-s windows left out (e2e_stats.share_within; a shed or "
           "failed request misses; e2e.slo_miss_pct is the pooled figure)"),
)

# Layers of the traced run's latency budget, in the order they nest.
TRACE_LAYERS = ("harness", "admission", "router", "backend", "coalesce",
                "wire", "state_fetch", "kernel")


def _layer(prefix_unit_names):
    return tuple(Metric(n, u, b) for n, u, b in prefix_unit_names)


PER_LAYER = _layer([
    # user-visible figures that cannot be bounded end-to-end metrics:
    # they can be 0, exist on one workload only, or spread wider than
    # any bound (the tail) -- see README "What moved off the list"
    ("e2e.latency_tail_ms", "ms", "lower"),
    ("e2e.latency_tail_percentile", "count", "higher"),
    ("e2e.latency_p50_pooled_ms", "ms", "lower"),
    ("e2e.accuracy_loss_pct", "%", "lower"),
    ("e2e.slo_miss_pct", "%", "lower"),
    ("e2e.failed_pct", "%", "lower"),
    ("e2e.samples", "count", "higher"),
    # core.builder
    ("builder.build_s", "s", "lower"),
    ("builder.groups_per_component", "count", "higher"),
    ("builder.synopsis_bytes_ratio", "ratio", "lower"),
    # core.updater
    ("updater.apply_ms", "ms", "lower"),
    ("updater.change_ms", "ms", "lower"),
    ("updater.add_ms", "ms", "lower"),
    ("updater.reaggregated_slots_mean", "count", "lower"),
    # core.state
    ("state.publish_bytes_per_update", "bytes", "lower"),
    ("state.semantic_publishes", "count", "higher"),
    ("state.cdc_publishes", "count", "lower"),
    ("state.full_publishes", "count", "lower"),
    ("state.encode_ms", "ms", "lower"),
    ("state.apply_ms", "ms", "lower"),
    # core.processor + core.adapters
    ("kernel.stage1_ms", "ms", "lower"),
    ("kernel.stage1_batch8_ms_per_req", "ms", "lower"),
    ("kernel.refine_group_us", "us", "lower"),
    ("kernel.finalize_us", "us", "lower"),
    ("kernel.exact_ms", "ms", "lower"),
    ("kernel.process_component_ms", "ms", "lower"),
    ("kernel.busy_ms_per_req", "ms", "lower"),
    ("kernel.stage1_share", "ratio", "lower"),
    ("kernel.refine_depth_frac", "ratio", "higher"),
    ("kernel.groups_processed_mean", "count", "higher"),
    ("kernel.cf_rmse_loss_vs_truth_pct", "%", "lower"),
    # core.service
    ("service.build_tasks_us", "us", "lower"),
    ("service.merge_us", "us", "lower"),
    ("service.serve_overhead_ms", "ms", "lower"),
    # serving.backends
    ("backends.task_wait_ms", "ms", "lower"),
    ("backends.thread_vs_sequential_ratio", "ratio", "higher"),
    ("backends.batch_size_mean", "count", "higher"),
    ("backends.batches_submitted", "count", "lower"),
    ("backends.coalesce_wait_ms", "ms", "lower"),
    # serving.router
    ("router.self_ms", "ms", "lower"),
    ("router.shard_calls", "count", "lower"),
    # serving.transport
    ("transport.wire_bytes_per_req", "bytes", "lower"),
    ("transport.frames_per_req", "count", "lower"),
    ("transport.rpc_overhead_ms", "ms", "lower"),
    ("transport.frame_encode_us", "us", "lower"),
    ("transport.frame_decode_us", "us", "lower"),
    ("transport.state_fetch_ms", "ms", "lower"),
    # serving.admission / serving.aio
    ("admission.queue_wait_ms_p50", "ms", "lower"),
    ("admission.queue_wait_ms_p99", "ms", "lower"),
    ("admission.shed_pct", "%", "lower"),
    ("admission.queue_depth_max", "count", "lower"),
    ("admission.inflight_max", "count", "lower"),
    ("aio.dispatch_ms", "ms", "lower"),
    # serving.loadgen / serving.harness (validity, not targets)
    ("loadgen.lateness_ms_p99", "ms", "lower"),
    ("loadgen.backlog_growth", "ratio", "lower"),
    ("harness.overhead_ms", "ms", "lower"),
    # serving.telemetry
    ("telemetry.overhead_pct", "%", "lower"),
    ("telemetry.spans_per_request", "count", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.unattributed_ms", "ms", "lower"),
]) + tuple(
    Metric(f"trace.{layer}.self_ms_{which}", "ms", "lower")
    for layer in TRACE_LAYERS for which in ("p50", "slow1pct"))


@dataclass(frozen=True)
class Guards:
    """Validity limits.  A measured phase outside them is driven once
    more (a neighbour's burst passes); a second one exits non-zero."""

    lateness_ms_p99: float = 25.0
    backlog_growth: float = 2.0


GUARDS = Guards()
