"""Run one workload: set-up, warm-up, measured phase, checks, metrics.

``--trace 0`` measures the end-to-end metrics on the bare stack under a
disabled tracer.  ``--trace 1`` builds the same stack with the bench's
proxies in place, drives an untraced and a traced stretch (their p50
difference is the tracing overhead) and then probes single layers by
direct calls; it reports the per-layer metrics.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.adapters import SearchQuery
from repro.core.clock import SimulatedClock, WallClock
from repro.core.processor import effective_i_max, refine_to_depth
from repro.core.servable import default_merge
from repro.core.service import AccuracyTraderService
from repro.search.metrics import topk_overlap
from repro.serving.backends import SequentialBackend
from repro.serving.envelope import ServingRequest
from repro.serving.telemetry import Tracer, use_tracer

from e2e_inputs import FULL, Inputs, Scale, make_inputs
from e2e_spec import (END_TO_END, GUARDS, ORACLE_REQUESTS, PER_LAYER,
                      SETUP_REPS, WARMUP_REQUESTS, WORKLOADS, Guards,
                      Workload)
from e2e_stacks import SYNC_CONCURRENCY, Phase, Stack, build_stack
from e2e_stats import (percentile, quiet_window, share_within,
                       tail_percentile)

__all__ = ["RunResult", "run_workload", "Reference", "AccuracyEvaluator",
           "user_visible",
           "answer_loss", "report_key", "backlog_growth",
           "generator_lateness_ms_p99", "metric_entry", "check_conservation",
           "report_cap"]

# The CF loss is the RMSE between approximate and exact predictions as a
# share of half a star, the step ratings are given in: an answer that far
# off names the wrong rating.  (As a share of the 4-star span the whole
# way from stage 1 to exact is 6 points of 100 against search's 93, and
# no one relative bound on accuracy_pct fits both families.)
CF_LOSS_UNIT = 0.5
MEASURE_ATTEMPTS = 2     # measured phases driven before a run is invalid
# Every n-th pool entry is scored for accuracy (an exact CF answer costs
# as much as serving the request), and every GATE_STRIDE-th entry also
# feeds the accuracy-bounds gate.  Strides, not prefixes: any stretch of
# the request cycle then holds its share of scored entries.
EVAL_STRIDE = {"cf": 2, "search": 1}
GATE_STRIDE = 8


def report_key(report) -> tuple:
    """What must be bit-identical between a stack and its oracle (the
    timing fields and the store-local epoch id cannot be)."""
    return (tuple(report.groups_ranked), report.groups_processed,
            report.work_units, report.hit_deadline, report.hit_imax,
            report.exhausted)


def report_cap(w: Workload, report) -> int:
    """The refinement cap of the synopsis one execution ran against (an
    add_points update may have grown its group count since set-up)."""
    return effective_i_max(len(report.groups_ranked), w.i_max,
                           w.i_max_fraction)


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    trace: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    tracer: object = None     # the traced stretch's spans (--trace 1)

    def as_line(self) -> dict:
        """The contract's last-line JSON object."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}

    def as_dict(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": self.trace,
                **self.as_line(), "problems": self.problems,
                "notes": self.notes}


class Reference:
    """An unsharded in-process service over the same partitions.

    Synopsis builds are deterministic, so this holds bit-identical state
    to every stack built from the same inputs.  It is the oracle of the
    correctness gate, the source of the accuracy bounds and the object
    the single-layer probes call into.
    """

    def __init__(self, workload: Workload, inputs: Inputs):
        t0 = time.perf_counter()
        self.service = AccuracyTraderService(
            inputs.adapter, inputs.partitions, config=inputs.config,
            i_max=workload.i_max, i_max_fraction=workload.i_max_fraction,
            backend=SequentialBackend())
        self.build_s = time.perf_counter() - t0
        self.workload = workload
        self.inputs = inputs

    def close(self) -> None:
        self.service.close()

    def caps(self) -> list[int]:
        w = self.workload
        return [effective_i_max(s.n_aggregated, w.i_max, w.i_max_fraction)
                for s in self.service.synopses]

    def answer_at_depth(self, payload, depth_of_cap: float):
        """The merged answer with every component refined to a fixed
        share of its cap (0 = stage 1 only, 1 = the cap)."""
        svc = self.service
        results = [
            refine_to_depth(svc.adapter, part, syn, payload,
                            int(round(depth_of_cap * cap)))
            for part, syn, cap in zip(svc.partitions, svc.synopses,
                                      self.caps())]
        return svc.merge(results, payload)

    def oracle(self, payload):
        svc = self.service
        return svc.serve(
            ServingRequest(payload=payload,
                           deadline=self.workload.deadline_s),
            clocks=[WallClock() for _ in range(svc.n_components)])


def answer_loss(payload, answer, exact) -> float:
    """Accuracy loss (%) of one answer against the exact one: search
    ``100 * (1 - top-k overlap)``; CF the RMSE between the two sets of
    predictions as a share of ``CF_LOSS_UNIT``."""
    if isinstance(payload, SearchQuery):
        return 100.0 * (1.0 - topk_overlap(
            [h.doc_id for h in answer], [h.doc_id for h in exact],
            k=payload.k))
    err = (answer.predict_many(payload.target_items)
           - exact.predict_many(payload.target_items))
    return 100.0 * float(np.sqrt(np.mean(err * err))) / CF_LOSS_UNIT


class AccuracyEvaluator:
    """Scores answers against the exact answer over the same state.

    The exact answer is computed here, from the bench's own copy of the
    partitions (per state epoch, so a request served between two updates
    is scored against what it could have seen), with a private adapter
    so the program's memo caches are never touched.
    """

    def __init__(self, stack: Stack):
        inputs = stack.inputs
        self.family = inputs.family
        self.inputs = inputs
        self.stack = stack
        self.adapter = type(inputs.adapter)()
        self.merge = default_merge(self.adapter)
        self._exact_part: dict[tuple, object] = {}
        self.losses: list[float] = []
        self.by_pool: dict[int, list[float]] = {}
        # CF accumulators: squared error vs exact, vs truth (approx and
        # exact), and the number of predictions they cover.
        self._se = self._se_truth = self._se_exact_truth = 0.0
        self._n = 0

    def exact(self, pool_idx: int, epochs) -> object:
        payload = self.inputs.pool[pool_idx]
        parts = []
        for c, epoch in enumerate(epochs):
            key = (pool_idx, c, epoch)
            if key not in self._exact_part:
                self._exact_part[key] = self.adapter.exact(
                    self.stack.partition_at[(c, epoch)], payload)
            parts.append(self._exact_part[key])
        return self.merge(parts, payload)

    def score(self, pool_idx: int, answer, exact) -> float:
        """Accuracy loss (%) of one answer; also feeds the accumulators."""
        payload = self.inputs.pool[pool_idx]
        if self.family == "cf":
            approx = answer.predict_many(payload.target_items)
            exact_pred = exact.predict_many(payload.target_items)
            truth = self.inputs.truths[pool_idx]
            self._se += float((approx - exact_pred) @ (approx - exact_pred))
            self._se_truth += float((approx - truth) @ (approx - truth))
            self._se_exact_truth += float(
                (exact_pred - truth) @ (exact_pred - truth))
            self._n += len(approx)
        loss = answer_loss(payload, answer, exact)
        self.losses.append(loss)
        self.by_pool.setdefault(pool_idx, []).append(loss)
        return loss

    def score_phase(self, phase: Phase, once_per_entry: bool) -> None:
        """Score the phase's answers whose pool entry is in the scored
        subset (``once_per_entry``: work-bound answers repeat exactly)."""
        stride = EVAL_STRIDE[self.family]
        seen = set()
        for i in range(phase.offered):
            p = int(phase.pool_index[i])
            if p % stride or not phase.served[i]:
                continue
            if once_per_entry:
                if p in seen:
                    continue
                seen.add(p)
            epochs = [r.state_epoch for r in phase.reports[i]]
            self.score(p, phase.answers[i], self.exact(p, epochs))

    def loss_pct(self) -> float:
        """The workload's accuracy loss: CF pooled RMSE, search mean."""
        if self.family == "cf":
            if not self._n:
                return float("nan")
            return 100.0 * float(np.sqrt(self._se / self._n)) / CF_LOSS_UNIT
        return float(np.mean(self.losses)) if self.losses else float("nan")

    def cf_rmse_loss_vs_truth_pct(self) -> float:
        """The paper's CF figure: pooled RMSE vs ground truth, as a loss
        over exact processing (not gated: non-monotone in depth)."""
        if self.family != "cf" or not self._n or not self._se_exact_truth:
            return 0.0
        return 100.0 * (np.sqrt(self._se_truth / self._n)
                        / np.sqrt(self._se_exact_truth / self._n) - 1.0)


# ---------------------------------------------------------------------------
# Validity of an open-loop run
# ---------------------------------------------------------------------------


def backlog_growth(phase: Phase) -> float:
    """Queue delay in the last third of the run over the first third.

    A backlog that grows means the offered rate is above capacity and
    the latency figures describe the run length, not the system.  Mean
    delays below a quarter of the median latency are floored there, so
    that a queue that is idle at both ends reads 1.0.
    """
    if phase.arrivals is None or len(phase.queue_delays) < 6:
        return 1.0
    arrivals = phase.times
    third = (arrivals.max() - arrivals.min()) / 3.0
    first = phase.queue_delays[arrivals <= arrivals.min() + third]
    last = phase.queue_delays[arrivals >= arrivals.max() - third]
    floor = 0.25 * float(np.median(phase.latencies))
    return float(max(np.mean(last), floor) / max(np.mean(first), floor))


def generator_lateness_ms_p99(phase: Phase) -> float:
    """How late the open-loop generator itself dispatched (p99, ms).

    The async harness hands admission each request's lateness, which
    the stack's recorder kept.  The thread harness does not expose its
    dispatcher's lateness, so it is taken from the requests that found
    a free dispatch thread at their scheduled time: with fewer than
    ``SYNC_CONCURRENCY`` requests still in flight, all of the queue
    delay is the generator's.  0 for a closed loop.
    """
    if phase.arrivals is None:
        return 0.0
    late = phase.lateness
    if not len(late):
        done = phase.times + phase.latencies
        late = [phase.queue_delays[i] for i, at in enumerate(phase.times)
                if np.count_nonzero(done[:i] > at) < SYNC_CONCURRENCY]
    return percentile(np.asarray(late) * 1000.0, 99.0) if len(late) else 0.0


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def metric_entry(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def failed_operations(phase: Phase) -> int:
    """Requests shed or lost, plus updates that raised."""
    return (phase.offered - phase.answered) + sum(
        isinstance(entry, BaseException) for entry in phase.update_log)


def user_visible(w: Workload, phase: Phase, loss_pct: float) -> dict:
    """What a client of the service sees, from one driven stretch.

    The median and the closed-loop service rate come from the run's
    quiet-decile one-second window (:func:`e2e_stats.quiet_window`) and
    the share within the latency limit leaves the run's worst tenth of
    windows out (:func:`e2e_stats.share_within`); goodput of an open
    loop, accuracy and every ``e2e.*`` figure are pooled over all of it.
    """
    lat_ms = phase.latencies * 1000.0
    if w.mode == "closed":
        # One client, no think time: the loop completes 1/mean(latency)
        # requests a second.
        throughput = quiet_window(
            phase.times, phase.latencies,
            lambda v: len(v) / sum(v), "higher")
    else:
        throughput = phase.answered / phase.duration
    tail_q = tail_percentile(phase.answered)
    # A shed or failed request misses the limit.
    met = np.zeros(phase.offered, dtype=bool)
    met[phase.served] = lat_ms <= w.slo_ms
    within = int(np.count_nonzero(met))
    due = phase.times if phase.arrivals is None else phase.arrivals
    return {
        "throughput_rps": throughput,
        "latency_p50_ms": quiet_window(
            phase.times, lat_ms, lambda v: percentile(v, 50.0), "lower"),
        "accuracy_pct": 100.0 - loss_pct,
        "slo_attainment_pct": share_within(due, met),
        "e2e.latency_tail_ms": percentile(lat_ms, tail_q),
        "e2e.latency_tail_percentile": tail_q,
        "e2e.latency_p50_pooled_ms": percentile(lat_ms, 50.0),
        "e2e.accuracy_loss_pct": loss_pct,
        "e2e.slo_miss_pct": 100.0 * (phase.offered - within) / phase.offered,
        "e2e.failed_pct": 100.0 * failed_operations(phase) / (
            phase.offered + len(phase.update_log)),
        "e2e.samples": phase.answered,
    }


def check_conservation(phase: Phase, problems: list) -> int:
    """offered = answered + shed + failed; returns the failed count."""
    failed = phase.offered - phase.answered - phase.shed
    if failed < 0 or phase.answered != len(phase.latencies):
        problems.append(
            f"conservation broken: offered={phase.offered} answered="
            f"{phase.answered} shed={phase.shed} latencies="
            f"{len(phase.latencies)}")
    return failed_operations(phase)


def check_oracle(stack: Stack, ref: Reference, phase: Phase,
                 problems: list) -> None:
    """Work-bound answers and reports are bit-identical to the oracle's."""
    for i in range(min(ORACLE_REQUESTS, phase.offered)):
        payload = stack.inputs.pool[int(phase.pool_index[i])]
        want = ref.oracle(payload)
        if phase.answers[i] != want.answer:
            problems.append(f"request {i}: answer differs from the oracle")
            return
        got_keys = [report_key(r) for r in phase.reports[i]]
        if got_keys != [report_key(r) for r in want.reports]:
            problems.append(f"request {i}: reports differ from the oracle")
            return


def check_deadline_bound(stack: Stack, ref: Reference, phase: Phase,
                         evaluator: AccuracyEvaluator,
                         problems: list) -> dict:
    """loss(cap depth) <= measured loss <= loss(stage 1 only), and no
    component refined past its cap.  Both ends come from fixed-depth
    replays over the set-up state, on the pool entries the measured mean
    is restricted to."""
    w = stack.workload
    for reports in phase.reports:
        for c, r in enumerate(reports or ()):
            cap = report_cap(w, r)
            if r.groups_processed > cap:
                problems.append(
                    f"component {c} refined {r.groups_processed} groups, "
                    f"cap is {cap}")
                return {}
    caps = ref.caps()
    scored = sorted(p for p in evaluator.by_pool if p % GATE_STRIDE == 0)
    if not scored:
        problems.append("no scored answers for the accuracy-bounds gate")
        return {}
    # With no cap the deepest refinement is the exact computation.
    capped = any(cap < s.n_aggregated
                 for cap, s in zip(caps, ref.service.synopses))
    lower, upper = [], []
    for p in scored:
        payload = stack.inputs.pool[p]
        exact = evaluator.exact(p, stack.initial_epochs)
        upper.append(answer_loss(
            payload, ref.answer_at_depth(payload, 0.0), exact))
        lower.append(answer_loss(
            payload, ref.answer_at_depth(payload, 1.0), exact)
            if capped else 0.0)
    upper_loss, lower_loss = float(np.mean(upper)), float(np.mean(lower))
    measured = float(np.mean(
        [np.mean(evaluator.by_pool[p]) for p in scored]))
    # Updates drift the state away from the set-up snapshot the bounds
    # were replayed on; allow a tenth either way.
    slack = 0.10 * upper_loss + 1e-9
    if not (lower_loss - slack <= measured <= upper_loss + slack):
        problems.append(
            f"accuracy loss {measured:.4f}% outside "
            f"[{lower_loss:.4f}, {upper_loss:.4f}]% (cap depth, stage 1)")
    return {"loss_at_cap_pct": lower_loss, "loss_stage1_pct": upper_loss,
            "loss_gate_subset_pct": measured}


def check_updates(stack: Stack, phase: Phase, problems: list) -> None:
    """After the update workload: epochs advanced exactly as updates were
    applied, and a remote answer over the final state is bit-identical
    to the in-process one."""
    applied = stack.updates.counts
    now = stack.component_epochs()
    for c, epoch in enumerate(now):
        history = stack.update_epochs[c]
        if len(history) != applied[c]:
            problems.append(f"component {c}: {applied[c]} updates but "
                            f"{len(history)} epochs recorded")
        expect = history[-1] if history else stack.initial_epochs[c]
        if epoch != expect:
            problems.append(f"component {c}: epoch {epoch}, expected "
                            f"{expect} after {applied[c]} updates")
    # Epoch ids are store-wide (one store per shard): each shard's
    # newest epoch must have advanced by exactly its update count.
    per_shard = len(now) // len(stack.service.shards)
    for s in range(len(stack.service.shards)):
        sl = slice(s * per_shard, (s + 1) * per_shard)
        advanced = max(now[sl]) - max(stack.initial_epochs[sl])
        if advanced != sum(applied[sl]):
            problems.append(f"shard {s}: epochs advanced {advanced}, "
                            f"{sum(applied[sl])} updates applied")
    payload = stack.inputs.pool[0]
    n = stack.service.n_components

    def ask(backend):
        return stack.service.serve(
            ServingRequest(payload=payload, deadline=10.0),
            clocks=[SimulatedClock(speed=1e12) for _ in range(n)],
            backend=backend)

    remote, local = ask(stack.remote_backend), ask(SequentialBackend())
    if remote.answer != local.answer or \
            [report_key(r) + (r.state_epoch,) for r in remote.reports] != \
            [report_key(r) + (r.state_epoch,) for r in local.reports]:
        problems.append("post-run remote answer differs from in-process")


def check_validity(w: Workload, stack: Stack, phase: Phase, guards: Guards,
                   problems: list) -> dict:
    late_p99 = generator_lateness_ms_p99(phase)
    growth = backlog_growth(phase)
    if phase.answered < w.min_samples:
        problems.append(f"invalid: {phase.answered} samples, need "
                        f"{w.min_samples}")
    if late_p99 > guards.lateness_ms_p99:
        problems.append(f"invalid: generator lateness p99 {late_p99:.2f} ms"
                        f" > {guards.lateness_ms_p99} ms")
    if growth > guards.backlog_growth:
        problems.append(f"invalid: backlog grew {growth:.2f}x over the run")
    if not stack.workers_alive():
        problems.append("invalid: a worker process died")
    return {"lateness_ms_p99": late_p99, "backlog_growth": growth}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 scale: Scale = FULL,
                 guards: Guards | None = GUARDS) -> RunResult:
    """One run of one workload.  ``guards=None`` skips the validity
    guards (the toy scale of the smoke test)."""
    w = WORKLOADS[name]
    inputs = make_inputs(w.family, seed, scale)
    problems: list[str] = []
    notes: dict = {}
    tracer = None
    with use_tracer(Tracer(enabled=False)):
        setup_times = []
        stack = None
        for _ in range(1 if trace else SETUP_REPS[w.mode][0]):
            if stack is not None:
                stack.close()
            t0 = time.perf_counter()
            stack = build_stack(w, inputs, instrument=bool(trace))
            setup_times.append(time.perf_counter() - t0)
        ref = None
        try:
            ref = Reference(w, inputs)
            evaluator = AccuracyEvaluator(stack)
            warm = stack.serve_closed(WARMUP_REQUESTS)
            if not w.deadline_bound:
                check_oracle(stack, ref, warm, problems)
            if trace:
                from e2e_layers import traced_run
                attempted, failed, metrics, tracer = traced_run(
                    w, stack, ref, evaluator, seconds, problems, notes)
            else:
                # A phase the validity guards reject is discarded whole
                # and driven again: a neighbour's burst passes, an
                # overloaded stack fails twice.
                for attempt in range(1, MEASURE_ATTEMPTS + 1):
                    phase = stack.serve_for(seconds)
                    invalid: list[str] = []
                    if guards is not None:
                        notes.update(check_validity(w, stack, phase, guards,
                                                    invalid))
                    if not invalid:
                        break
                problems.extend(invalid)
                notes["measured_phases"] = attempt
                failed = check_conservation(phase, problems)
                attempted = phase.offered + len(phase.update_log)
                evaluator.score_phase(phase,
                                      once_per_entry=not w.deadline_bound)
                if w.deadline_bound:
                    notes.update(check_deadline_bound(
                        stack, ref, phase, evaluator, problems))
                if stack.updates is not None:
                    check_updates(stack, phase, problems)
                # The rest of the run's set-ups (see SETUP_REPS).
                for _ in range(SETUP_REPS[w.mode][1]):
                    t0 = time.perf_counter()
                    again = build_stack(w, inputs)
                    setup_times.append(time.perf_counter() - t0)
                    again.close()
                values = user_visible(w, phase, evaluator.loss_pct())
                values["setup_s"] = statistics.median(setup_times)
                metrics = {m.name: metric_entry(values[m.name], m.unit)
                           for m in END_TO_END}
                # Not bounded, so not in the metrics of this mode; kept
                # with the run for the reader.
                notes.update(
                    {k: v for k, v in values.items() if k.startswith("e2e.")},
                    offered=phase.offered, shed=phase.shed,
                    setup_times_s=setup_times,
                    updates=len(phase.update_log))
            if failed:
                problems.append(f"{failed} of {attempted} operations failed")
        finally:
            if ref is not None:
                ref.close()
            stack.close()
    names = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    missing = [n for n in names if n not in metrics
               or not np.isfinite(metrics[n]["value"])]
    if missing:
        problems.append(f"metrics missing or not finite: {missing}")
    return RunResult(workload=w.name, seed=seed, seconds=seconds,
                     trace=int(trace), correct=not problems,
                     attempted=int(attempted), failed=int(failed),
                     metrics=metrics, problems=problems, notes=notes,
                     tracer=tracer)
