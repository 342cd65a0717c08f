"""The per-layer budget: the traced run and the single-layer probes.

Three sources, none of them inside ``src/``:

- *fields the stack already returns* — ``ProcessingReport``,
  ``ServingRunStats``, ``transport_counters()``, ``batch_stats()``,
  admission statistics, ``hedge_counters()``;
- *the spans the tracer already emits*, read through its public API in
  the traced stretch only, plus the ``backend.run_tasks`` span of the
  bench's own backend proxy;
- *direct calls* into one layer's public functions on a reference
  service holding the same state (the ``probe_*`` functions).

Layer metrics that have no meaning on a workload (admission on a closed
loop, wire bytes in-process, CF-only figures on search) read 0 there.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace

import numpy as np

from repro.core.clock import WallClock
from repro.core.processor import process_component
from repro.core.state import (PICKLE_PROTOCOL, apply_delta,
                              apply_semantic_delta, compute_delta,
                              compute_semantic_delta)
from repro.serving.backends import (SequentialBackend, ThreadPoolBackend,
                                    run_component_task)
from repro.serving.envelope import ServingRequest
from repro.serving.telemetry import Tracer, use_tracer
from repro.serving.transport import (KIND_OUTCOME, KIND_TASK, decode_frame,
                                     encode_frame)

from e2e_inputs import UpdateStream
from e2e_measure import (backlog_growth, check_conservation,
                         generator_lateness_ms_p99, metric_entry,
                         report_cap,
                         user_visible)
from e2e_spec import PER_LAYER, TRACE_LAYERS, Workload
from e2e_stacks import Phase, Stack
from e2e_stats import interval_union, layer_times, percentile

__all__ = ["traced_run", "live_layer_metrics", "trace_metrics",
           "probe_metrics"]

PROBE_REQUESTS = 32


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _timeit(fn, repeat: int) -> float:
    """Mean wall seconds of ``fn()`` over ``repeat`` calls."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - t0) / repeat


def _counters(stack: Stack) -> dict:
    """Cumulative counters of every layer that keeps some."""
    out = dict(stack.service.hedge_counters())
    if stack.remote_backend is not None:
        out.update(stack.remote_backend.transport_counters())
        out.update(stack.batching.batch_stats())
    if stack.remotes:
        for key in ("bytes_sent", "bytes_received"):
            out[key] = sum(r.transport_counters()[key]
                           for r in stack.remotes)
    return out


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0) - before.get(key, 0))


# ---------------------------------------------------------------------------
# Live metrics: one driven stretch on the instrumented stack
# ---------------------------------------------------------------------------


def live_layer_metrics(w: Workload, stack: Stack, phase: Phase,
                       before: dict, after: dict) -> dict:
    served_reports = [r for r in phase.reports if r is not None]
    answered = max(phase.answered, 1)
    m: dict[str, float] = {}

    # core.processor, from the reports every response carries
    busy = [sum(r.total_elapsed for r in reps) for reps in served_reports]
    stage1 = sum(r.synopsis_elapsed for reps in served_reports for r in reps)
    m["kernel.busy_ms_per_req"] = 1000.0 * _mean(busy)
    m["kernel.stage1_share"] = stage1 / sum(busy) if sum(busy) else 0.0
    m["kernel.refine_depth_frac"] = _mean(
        r.groups_processed / report_cap(w, r)
        for reps in served_reports for r in reps)
    m["kernel.groups_processed_mean"] = _mean(
        r.groups_processed for reps in served_reports for r in reps)

    # serving.backends / serving.router, from the proxies
    ids = set(phase.request_ids)
    calls = [c for c in stack.timed_backend.calls if c[0] in ids]
    waits = [(t1 - t0) - kernel for _, t0, t1, kernel, _ in calls]
    m["backends.task_wait_ms"] = 1000.0 * _mean(waits)
    by_request: dict[int, list] = {}
    for rid, t0, t1, _, _ in calls:
        by_request.setdefault(rid, []).append((t0, t1))
    service_times = stack.front.service_times
    m["router.self_ms"] = 1000.0 * _mean(
        service_times[rid] - interval_union(spans)
        for rid, spans in by_request.items() if rid in service_times)
    m["router.shard_calls"] = _delta(after, before, "shard_calls")
    batches = _delta(after, before, "batches_submitted")
    m["backends.batches_submitted"] = batches
    m["backends.batch_size_mean"] = (
        _delta(after, before, "tasks_coalesced") / batches if batches
        else 0.0)

    # serving.transport, from transport_counters()
    wire = (_delta(after, before, "bytes_sent")
            + _delta(after, before, "bytes_received"))
    m["transport.wire_bytes_per_req"] = wire / answered
    publishes = sum(_delta(after, before, k) for k in (
        "state_full_publishes", "state_delta_publishes",
        "state_semantic_publishes"))
    if stack.remote_backend is not None:
        # One frame out per flushed bucket plus its reply, and one per
        # state publication.
        frames = 2.0 * batches + publishes
    elif stack.remotes:
        frames = 2.0 * sum(n for *_, n in calls)   # one RPC per task
    else:
        frames = 0.0
    m["transport.frames_per_req"] = frames / answered

    # core.state, from the same counters
    n_updates = len(phase.update_log)
    state_bytes = sum(_delta(after, before, k) for k in (
        "state_full_bytes", "state_delta_bytes", "state_semantic_bytes"))
    m["state.publish_bytes_per_update"] = (state_bytes / n_updates
                                           if n_updates else 0.0)
    m["state.semantic_publishes"] = _delta(after, before,
                                           "state_semantic_publishes")
    m["state.cdc_publishes"] = _delta(after, before,
                                      "state_delta_publishes")
    m["state.full_publishes"] = _delta(after, before,
                                       "state_full_publishes")
    applied = [u for u in phase.update_log
               if not isinstance(u, BaseException)]
    m["updater.apply_ms"] = 1000.0 * (
        float(np.median([s for _, s, _ in applied])) if applied else 0.0)

    # serving.admission / loadgen / harness
    open_loop = phase.arrivals is not None
    qd_ms = phase.queue_delays * 1000.0
    m["admission.queue_wait_ms_p50"] = (percentile(qd_ms, 50.0)
                                        if open_loop else 0.0)
    m["admission.queue_wait_ms_p99"] = (percentile(qd_ms, 99.0)
                                        if open_loop else 0.0)
    m["admission.shed_pct"] = 100.0 * phase.shed / phase.offered
    m["admission.queue_depth_max"] = phase.queue_depth_max
    m["admission.inflight_max"] = phase.inflight_max
    served_ids = [rid for rid, ok in zip(phase.request_ids, phase.served)
                  if ok]
    if open_loop:
        overhead = [lat - qd - service_times[rid]
                    for lat, qd, rid in zip(phase.latencies,
                                            phase.queue_delays, served_ids)
                    if rid in service_times]
    else:
        overhead = phase.queue_delays    # latency - service_time already
    m["harness.overhead_ms"] = 1000.0 * _mean(overhead)
    return m


# ---------------------------------------------------------------------------
# Trace metrics: where one request's wall time goes
# ---------------------------------------------------------------------------


def trace_metrics(tracer: Tracer, phase: Phase, is_async: bool,
                  is_remote: bool, task_wait_ms: float) -> dict:
    latency_of = {rid: lat for rid, lat in zip(
        (r for r, ok in zip(phase.request_ids, phase.served) if ok),
        phase.latencies)}
    per_layer: dict[str, list] = {layer: [] for layer in TRACE_LAYERS}
    coverage, unattributed, n_spans = [], [], []
    coalesce, fetch, dispatch, slow_key = [], [], [], []
    for rid, latency in latency_of.items():
        spans = tracer.spans_of(rid)
        if not spans:
            continue
        n_spans.append(len(spans))
        times = layer_times(spans)
        for layer in TRACE_LAYERS:
            per_layer[layer].append(times.get(layer, 0.0))
        # The root "request" span is the harness's own frame: what it
        # does not hand to an instrumented layer is not attributed.
        attributed = sum(v for k, v in times.items() if k != "harness")
        coverage.append(attributed / latency if latency > 0 else 0.0)
        unattributed.append(latency - attributed)
        slow_key.append(latency)
        coalesce.extend(s.duration for s in spans
                        if s.name == "batch.coalesce")
        fetch.append(sum(s.duration for s in spans
                         if s.name == "state.fetch"))
        if is_async:
            router = [s for s in spans if s.name == "router.serve"]
            first = min((s.start for s in spans
                         if s.name == "backend.run_tasks"), default=None)
            if router and first is not None:
                dispatch.append(first - router[0].start)
    m: dict[str, float] = {}
    if not slow_key:
        raise RuntimeError("the traced stretch recorded no traces")
    # The slowest 1% of requests (at least one).
    order = np.argsort(slow_key)
    slow = order[-max(1, len(order) // 100):]
    for layer in TRACE_LAYERS:
        vals = np.asarray(per_layer[layer]) * 1000.0
        m[f"trace.{layer}.self_ms_p50"] = percentile(vals, 50.0)
        m[f"trace.{layer}.self_ms_slow1pct"] = float(np.mean(vals[slow]))
    m["trace.coverage_pct"] = 100.0 * _mean(coverage)
    m["trace.unattributed_ms"] = 1000.0 * _mean(unattributed)
    m["telemetry.spans_per_request"] = _mean(n_spans)
    m["backends.coalesce_wait_ms"] = 1000.0 * _mean(coalesce)
    m["transport.state_fetch_ms"] = 1000.0 * _mean(fetch)
    m["aio.dispatch_ms"] = 1000.0 * _mean(dispatch)
    # What the client side of a remote task waits beyond the worker's
    # own elapsed time, less the wait batching added on purpose.
    m["transport.rpc_overhead_ms"] = max(
        0.0, task_wait_ms - m["backends.coalesce_wait_ms"]) \
        if is_remote else 0.0
    return m


# ---------------------------------------------------------------------------
# Probes: one layer at a time, by direct calls
# ---------------------------------------------------------------------------


def probe_metrics(w: Workload, ref) -> dict:
    """Single-layer figures from direct calls on the reference service
    (same inputs, same synopses as the stack; no serving layers)."""
    svc = ref.service
    inputs = ref.inputs
    adapter = svc.adapter
    pool = inputs.pool[:PROBE_REQUESTS]
    part, syn = svc.partitions[0], svc.synopses[0]
    m: dict[str, float] = {}

    # core.builder
    m["builder.build_s"] = ref.build_s
    m["builder.groups_per_component"] = _mean(
        s.n_aggregated for s in svc.synopses)
    m["builder.synopsis_bytes_ratio"] = (
        len(pickle.dumps(syn, PICKLE_PROTOCOL))
        / len(pickle.dumps(part, PICKLE_PROTOCOL)))

    # core.processor + core.adapters on component 0
    t_stage1, t_refine, t_final, t_exact, t_proc = [], [], [], [], []
    for payload in pool:
        t0 = time.perf_counter()
        state, corr = adapter.initial_result(syn, payload)
        t1 = time.perf_counter()
        order = np.argsort(-np.asarray(corr), kind="stable")[:16]
        for g in order:
            state = adapter.refine(part, syn, int(g), payload, state)
        t2 = time.perf_counter()
        adapter.finalize(state, payload)
        t3 = time.perf_counter()
        adapter.exact(part, payload)
        t4 = time.perf_counter()
        process_component(adapter, part, syn, payload, w.deadline_s,
                          clock=WallClock(), i_max=w.i_max,
                          i_max_fraction=w.i_max_fraction)
        t5 = time.perf_counter()
        t_stage1.append(t1 - t0)
        t_refine.append((t2 - t1) / max(len(order), 1))
        t_final.append(t3 - t2)
        t_exact.append(t4 - t3)
        t_proc.append(t5 - t4)
    m["kernel.stage1_ms"] = 1e3 * _mean(t_stage1)
    m["kernel.refine_group_us"] = 1e6 * _mean(t_refine)
    m["kernel.finalize_us"] = 1e6 * _mean(t_final)
    m["kernel.exact_ms"] = 1e3 * _mean(t_exact)
    m["kernel.process_component_ms"] = 1e3 * _mean(t_proc)
    batches = [pool[i:i + 8] for i in range(0, len(pool), 8)]
    m["kernel.stage1_batch8_ms_per_req"] = 1e3 * _mean(
        _timeit(lambda b=b: adapter.initial_result_batch(syn, b), 1) / len(b)
        for b in batches)

    # core.service
    n = svc.n_components
    envelope = ServingRequest(payload=pool[0], deadline=w.deadline_s)
    clocks = [WallClock() for _ in range(n)]
    m["service.build_tasks_us"] = 1e6 * _timeit(
        lambda: svc.build_tasks(envelope, clocks=clocks), 200)
    outcomes = SequentialBackend().run_tasks(
        svc.build_tasks(envelope, clocks=clocks))
    results = [o.result for o in outcomes]
    m["service.merge_us"] = 1e6 * _timeit(
        lambda: svc.merge(results, pool[0]), 100)
    overhead = []
    for payload in pool:
        resp = ref.oracle(payload)
        overhead.append(resp.service_time
                        - sum(r.total_elapsed for r in resp.reports))
    m["service.serve_overhead_ms"] = 1e3 * _mean(overhead)

    # serving.backends: what a thread pool buys (or costs) this kernel
    def closed_loop_s(backend) -> float:
        t0 = time.perf_counter()
        for payload in pool:
            svc.serve(ServingRequest(payload=payload, deadline=w.deadline_s),
                      clocks=[WallClock() for _ in range(n)],
                      backend=backend)
        return time.perf_counter() - t0

    with ThreadPoolBackend(max_workers=n) as threads:
        closed_loop_s(threads)                       # start the pool
        t_threads = closed_loop_s(threads)
    m["backends.thread_vs_sequential_ratio"] = (
        closed_loop_s(SequentialBackend()) / t_threads)

    # serving.transport: one representative task and outcome, framed
    task = svc.build_tasks(envelope, clocks=clocks)[0]
    outcome = run_component_task(task)
    wire_task = replace(task, state_ref=task.state_ref.detached())
    frames = [encode_frame(KIND_TASK, 1, wire_task),
              encode_frame(KIND_OUTCOME, 1, outcome)]
    m["transport.frame_encode_us"] = 1e6 * 0.5 * (
        _timeit(lambda: encode_frame(KIND_TASK, 1, wire_task), 200)
        + _timeit(lambda: encode_frame(KIND_OUTCOME, 1, outcome), 200))
    m["transport.frame_decode_us"] = 1e6 * 0.5 * sum(
        _timeit(lambda f=f: decode_frame(f), 200) for f in frames)

    # core.updater + core.state: updates on the reference service, and
    # the delta codecs on the before/after blobs of the first change.
    m.update(_probe_updates(ref))
    return m


def _probe_updates(ref) -> dict:
    svc, inputs = ref.service, ref.inputs
    change_s, add_s, slots = [], [], []
    pair = None
    if inputs.family == "cf":
        stream = UpdateStream(inputs)
        plan = [stream.next() for _ in range(8)]
    else:
        # A search partition is mutable, so the probe re-submits pages
        # unchanged: the updater still refits, re-inserts and
        # re-aggregates them.  There is no add_points probe for search.
        ids = [int(i) for i in svc.adapter.record_ids(svc.partitions[0])[:8]]
        plan = [("change", 0, svc.partitions[0], ids)]
    for kind, component, partition, ids in plan:
        before = pickle.dumps(svc.component_state(component),
                              PICKLE_PROTOCOL)
        base_epoch = svc.component_epoch(component)
        t0 = time.perf_counter()
        report = (svc.change_points if kind == "change"
                  else svc.add_points)(component, partition, ids)
        (change_s if kind == "change" else add_s).append(
            time.perf_counter() - t0)
        slots.append(len(report.reaggregated_slots))
        if pair is None and kind == "change":
            pair = (component, base_epoch, before)
    m = {"updater.change_ms": 1e3 * _mean(change_s),
         "updater.add_ms": 1e3 * _mean(add_s),
         "updater.reaggregated_slots_mean": _mean(slots)}
    component, base_epoch, before = pair
    # Only the first update of that component: one epoch transition.
    history = svc.store.epochs(component)
    target_epoch = history[history.index(base_epoch) + 1]
    target = svc.store.get(component, target_epoch)
    after = pickle.dumps(target, PICKLE_PROTOCOL)
    hint = svc.store.transition_hint(component, base_epoch, target_epoch)
    t0 = time.perf_counter()
    cdc = compute_delta(before, after)
    semantic = (compute_semantic_delta(svc.adapter, before, target, hint)
                if hint is not None else None)
    m["state.encode_ms"] = 1e3 * (time.perf_counter() - t0)
    t0 = time.perf_counter()
    if semantic is not None:
        apply_semantic_delta(before, semantic[0])
    else:
        apply_delta(before, cdc)
    m["state.apply_ms"] = 1e3 * (time.perf_counter() - t0)
    return m


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def traced_run(w: Workload, stack: Stack, ref, evaluator, seconds: float,
               problems: list, notes: dict):
    """Untraced stretch, traced stretch, probes: the per-layer metrics.

    Both stretches run on the instrumented stack, so their p50
    difference is the cost of tracing alone.  Each is a third of
    ``seconds``; the probes take the rest.
    """
    stretch = seconds / 3.0
    plain = stack.serve_for(stretch)
    failed = check_conservation(plain, problems)
    before = _counters(stack)
    expected = int(2 * (w.rate_rps or 400.0) * stretch) + 1024
    tracer = Tracer(default_rate=1.0, max_traces=expected)
    with use_tracer(tracer):
        traced = stack.serve_for(stretch)
    after = _counters(stack)
    failed += check_conservation(traced, problems)
    if tracer.traces_evicted:
        problems.append(f"tracer evicted {tracer.traces_evicted} traces; "
                        "raise max_traces")
    if not stack.workers_alive():
        problems.append("invalid: a worker process died")
    evaluator.score_phase(traced, once_per_entry=not w.deadline_bound)

    values = live_layer_metrics(w, stack, traced, before, after)
    values.update({k: v for k, v in user_visible(
        w, traced, evaluator.loss_pct()).items() if k.startswith("e2e.")})
    values.update(trace_metrics(
        tracer, traced, is_async=w.mode == "open_async",
        is_remote=w.mode != "closed",
        task_wait_ms=values["backends.task_wait_ms"]))
    values["loadgen.lateness_ms_p99"] = generator_lateness_ms_p99(traced)
    values["loadgen.backlog_growth"] = backlog_growth(traced)
    p50_plain = percentile(plain.latencies, 50.0)
    values["telemetry.overhead_pct"] = 100.0 * (
        percentile(traced.latencies, 50.0) - p50_plain) / p50_plain
    values["kernel.cf_rmse_loss_vs_truth_pct"] = \
        evaluator.cf_rmse_loss_vs_truth_pct()
    values.update(probe_metrics(w, ref))

    notes.update(samples_untraced=plain.answered,
                 samples_traced=traced.answered,
                 traces=len(tracer.trace_ids()),
                 accuracy_loss_pct=evaluator.loss_pct())
    attempted = (plain.offered + traced.offered
                 + len(plain.update_log) + len(traced.update_log))
    metrics = {m.name: metric_entry(values[m.name], m.unit)
               for m in PER_LAYER if m.name in values}
    return attempted, failed, metrics, tracer
