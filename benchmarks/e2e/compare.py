"""Compare two result files of ``run.py --out``: parent first, change second.

    python3 benchmarks/e2e/compare.py parent.json change.json

For every end-to-end metric and workload it prints both medians, the
relative worsening, the bound and one verdict:

- ``ok``         the change is no worse than the parent by more than the bound;
- ``worse``      it is;
- ``unresolved`` it is not, but either side's run-to-run spread (interquartile
  range over median, needs ``--repeat`` >= 2) is wider than the bound, so
  "no worse" cannot be told from noise.

Exit code 1 if any pairing is ``worse``.  Per-layer metrics have no bound;
where both files hold traced runs they are listed below with their change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2e_spec import END_TO_END, PER_LAYER  # noqa: E402
from e2e_stats import spread, verdict  # noqa: E402


def load(path: Path, trace: int) -> dict:
    """``{(workload, metric): [values...]}`` of one result file."""
    out: dict[tuple, list] = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"] != trace:
            continue
        for name, entry in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(
                entry["value"])
    return out


def compare(parent: dict, change: dict, metrics) -> list[tuple]:
    rows = []
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        for m in metrics:
            a = parent.get((workload, m.name))
            b = change.get((workload, m.name))
            if not a or not b:
                continue
            if m.bound is None:
                pm, cm = statistics.median(a), statistics.median(b)
                rows.append((workload, m, pm, cm,
                             (cm - pm) / abs(pm) if pm else 0.0, "", 0.0))
                continue
            worse_by, status = verdict(a, b, m.better, m.bound)
            rows.append((workload, m, statistics.median(a),
                         statistics.median(b), worse_by, status,
                         max(spread(a), spread(b))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load(args.parent, 0), load(args.change, 0), END_TO_END)
    print(f"{'workload':<20} {'metric':<20} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload, m, pm, cm, worse_by, status, spr in rows:
        print(f"{workload:<20} {m.name:<20} {pm:>12.4f} {cm:>12.4f} "
              f"{100 * worse_by:>8.2f}% {100 * m.bound:>5.1f}% "
              f"{100 * spr:>6.2f}%  {status}")
    layers = compare(load(args.parent, 1), load(args.change, 1), PER_LAYER)
    if layers:
        print()
    for workload, m, pm, cm, rel, _, _ in layers:
        print(f"{workload:<20} {m.name:<36} {pm:>14.4f} {cm:>14.4f} "
              f"{100 * rel:>+8.2f}% {m.unit}")
    return 1 if any(r[5] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
