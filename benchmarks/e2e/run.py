"""The repository's one benchmark: ``python3 benchmarks/e2e/run.py``.

Drives one named workload through the live serving stack, prints every
metric by name with its unit, checks the answers, and ends with one JSON
line (``correct`` / ``attempted`` / ``failed`` / ``metrics``).  With no
``--workload`` it runs all four, end-to-end and traced.  Exit code 0
means every run was correct and valid.

    python3 benchmarks/e2e/run.py --workload cf_local --seed 23 \\
        --seconds 20 --trace 0 [--out result.json]
    python3 benchmarks/e2e/run.py --calibrate [--workload search_cluster]
    python3 benchmarks/e2e/compare.py parent.json change.json

Also runnable as ``python -m benchmarks.e2e.run`` from the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
# The bench's own modules sit beside this file; the program under test is
# the repository's src/ tree.  Worker processes are spawned through
# forkserver and re-import both, so the path is exported as well.
sys.path[:0] = [str(HERE), str(REPO / "src")]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(HERE), str(REPO / "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

import numpy as np  # noqa: E402

from e2e_procs import (adopt_orphans, exit_on_sigterm,  # noqa: E402
                       stop_all)
from e2e_spec import (DEFAULT_SEED, END_TO_END, PER_LAYER,  # noqa: E402
                      WORKLOADS)

BENCHMARK_JSON = REPO / "BENCHMARK.json"


def default_seconds() -> float:
    return float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])


def environment() -> dict:
    """Where the numbers were taken (recorded with every result file)."""
    commit = "unknown"
    head = REPO / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = REPO / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "commit": commit}


def print_result(result) -> None:
    """Every metric by name with its unit, then the verdict."""
    kind = "per-layer (traced run)" if result.trace else "end-to-end"
    print(f"== {result.workload}  seed={result.seed}  "
          f"seconds={result.seconds:g}  {kind}")
    for name, entry in result.metrics.items():
        print(f"  {name:<36} {entry['value']:>14.4f} {entry['unit']}")
    notes = result.notes
    if "e2e.latency_tail_ms" in notes:
        print(f"  latency tail: p{notes['e2e.latency_tail_percentile']:g} = "
              f"{notes['e2e.latency_tail_ms']:.4f} ms over "
              f"{notes['e2e.samples']:g} samples (pooled; not bounded)")
    print(f"  notes: {json.dumps(notes, default=float)}")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    print(f"  {'correct' if result.correct else 'NOT CORRECT'}: "
          f"{result.attempted} attempted, {result.failed} failed")


def write_traces(result, out: Path) -> None:
    if result.tracer is None:
        return
    stem = out.with_suffix("")
    result.tracer.export_json(f"{stem}.{result.workload}.spans.json")
    result.tracer.chrome_trace(f"{stem}.{result.workload}.chrome.json")


def main(argv=None) -> int:
    """Run, then stop and reap every process the run started -- the
    fork server and resource tracker of ``multiprocessing`` included,
    which would otherwise outlive this process by a moment."""
    adopt_orphans()
    exit_on_sigterm()
    try:
        return run(argv)
    finally:
        stop_all()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase length (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both, one run each)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="independent runs per workload and mode")
    parser.add_argument("--out", type=Path,
                        help="write every run (and the traced spans, as "
                             "JSON and Chrome trace) beside this path")
    parser.add_argument("--calibrate", action="store_true",
                        help="derive and print the frozen constants; "
                             "applies nothing")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else default_seconds()
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.calibrate:
        from e2e_calibrate import calibrate
        for name in names:
            calibrate(name, args.seed)
        return 0

    from e2e_measure import run_workload

    traces = [args.trace] if args.trace is not None else [0, 1]
    results = []
    for name in names:
        for trace in traces:
            for _ in range(args.repeat):
                result = run_workload(name, args.seed, seconds, trace)
                results.append(result)
                print_result(result)
                if args.out is not None:
                    write_traces(result, args.out)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "environment": environment(),
            "end_to_end": [m.name for m in END_TO_END],
            "per_layer": [m.name for m in PER_LAYER],
            "runs": [r.as_dict() for r in results]}, indent=1,
            default=float))
    # The contract's last line: one JSON object for the (last) run.
    print(json.dumps(results[-1].as_line()))
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    # The guard matters: forkserver workers re-import __main__.
    sys.exit(main())
