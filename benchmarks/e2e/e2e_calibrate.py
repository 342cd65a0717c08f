"""``run.py --calibrate``: derive the frozen constants, apply nothing.

For one workload this prints

- the stack's closed-loop capacity with 2 clients,
- for the open-loop workloads, a sweep of 4 offered rates x 15 s with
  the latency at each and the highest rate that meets ``slo_ms`` without
  a growing backlog,
- a deadline sweep reporting ``kernel.refine_depth_frac`` at each.

The constants in ``e2e_spec.WORKLOADS`` were chosen from this output on
the commit that introduced the benchmark: the deadline where the mean
refinement depth sits in the accuracy curve's sloped part, the offered
rate at about 0.6 of the 2-client capacity, ``slo_ms`` at the latency
the baseline's tail percentile reads at that rate (open loops; three to
five times the p50 on the closed loops).  Changing them is a change to
the benchmark.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.serving.telemetry import Tracer, use_tracer

from e2e_inputs import make_inputs
from e2e_measure import backlog_growth, report_cap
from e2e_spec import GUARDS, WARMUP_REQUESTS, WORKLOADS, Workload
from e2e_stacks import Phase, build_stack
from e2e_stats import percentile

__all__ = ["calibrate"]

CAPACITY_REQUESTS = 256
SWEEP_SECONDS = 15.0
DEADLINE_SWEEP_SECONDS = 6.0
RATE_SHARES = (0.4, 0.6, 0.8, 1.0)
DEADLINE_FACTORS = (0.5, 0.75, 1.0, 1.5, 2.0)


def _depth_frac(w: Workload, phase: Phase) -> float:
    return float(np.mean([r.groups_processed / report_cap(w, r)
                          for reports in phase.reports
                          for r in reports or ()]))


def _line(label: str, w: Workload, phase: Phase) -> str:
    lat = phase.latencies * 1000.0
    within = 100.0 * np.count_nonzero(lat <= w.slo_ms) / phase.offered
    return (f"  {label:<22} n={phase.answered:<5} "
            f"rps={phase.answered / phase.duration:7.1f}  "
            f"p50={percentile(lat, 50):7.2f} ms  "
            f"p99={percentile(lat, 99):7.2f} ms  "
            f"within_slo={within:5.1f}%  shed={phase.shed:<3} "
            f"backlog={backlog_growth(phase):4.2f}  "
            f"depth_frac={_depth_frac(w, phase):.3f}")


def calibrate(name: str, seed: int) -> None:
    w = WORKLOADS[name]
    inputs = make_inputs(w.family, seed)
    print(f"== calibrate {name} (seed {seed}); frozen today: "
          f"deadline={w.deadline_s * 1000:g} ms  rate={w.rate_rps} req/s  "
          f"slo={w.slo_ms:g} ms")
    with use_tracer(Tracer(enabled=False)):
        stack = build_stack(w, inputs)
        try:
            stack.serve_closed(WARMUP_REQUESTS)
            one = stack.serve_closed(CAPACITY_REQUESTS, n_clients=1)
            two = stack.serve_closed(CAPACITY_REQUESTS, n_clients=2)
            print(_line("closed loop, 1 client", w, one))
            print(_line("closed loop, 2 clients", w, two))
            capacity = two.answered / two.duration
            p50 = percentile(one.latencies * 1000.0, 50)
            print(f"  -> capacity {capacity:.1f} req/s; 0.6 x capacity = "
                  f"{0.6 * capacity:.1f} req/s; 3 x p50 = {3 * p50:.1f} ms")
            if w.mode == "closed":
                return
            best = None
            for share in RATE_SHARES:
                rate = share * capacity
                phase = stack.serve_open_for(SWEEP_SECONDS, rate=rate)
                print(_line(f"open loop {rate:6.1f} req/s", w, phase))
                tail = percentile(phase.latencies * 1000.0, 99)
                if (tail <= w.slo_ms and phase.shed == 0
                        and backlog_growth(phase) <= GUARDS.backlog_growth):
                    best = rate
            print("  -> highest swept rate meeting slo_ms at p99 without "
                  f"backlog: {best if best is None else round(best, 1)}")
        finally:
            stack.close()
        for factor in DEADLINE_FACTORS:
            trial = replace(w, deadline_s=w.deadline_s * factor)
            stack = build_stack(trial, inputs)
            try:
                stack.serve_closed(WARMUP_REQUESTS)
                phase = stack.serve_open_for(DEADLINE_SWEEP_SECONDS)
                print(_line(f"deadline {trial.deadline_s * 1000:6.2f} ms",
                            trial, phase))
            finally:
                stack.close()
