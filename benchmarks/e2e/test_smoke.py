"""Smoke + unit tests for the end-to-end benchmark (toy scale, seconds).

The timing figures of a toy run mean nothing; what is pinned here is the
benchmark's shape — every metric it promises is emitted under the
promised name and unit, nothing fails, requests are conserved — and the
pure statistics behind its numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from e2e_inputs import TOY  # noqa: E402
from e2e_measure import run_workload  # noqa: E402
from e2e_spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from e2e_stats import (attribute_time, layer_times, percentile,  # noqa: E402
                       quiet_window, share_within, spread, tail_percentile,
                       verdict)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_run(result, metrics) -> None:
    assert result.problems == []
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert set(result.metrics) == {m.name for m in metrics}
    for m in metrics:
        entry = result.metrics[m.name]
        assert entry["unit"] == m.unit
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("name", ["cf_local", "search_local"])
def test_end_to_end_metrics_in_process(name):
    result = run_workload(name, seed=7, seconds=0.5, trace=0, scale=TOY,
                          guards=None)
    check_run(result, END_TO_END)
    assert result.notes["offered"] == result.notes["e2e.samples"]
    assert result.metrics["slo_attainment_pct"]["value"] > 0.0


def test_per_layer_metrics_in_process():
    result = run_workload("cf_local", seed=7, seconds=1.5, trace=1,
                          scale=TOY, guards=None)
    check_run(result, PER_LAYER)
    assert result.metrics["e2e.failed_pct"]["value"] == 0.0
    assert result.metrics["transport.wire_bytes_per_req"]["value"] == 0.0
    assert result.metrics["trace.kernel.self_ms_p50"]["value"] > 0.0


def test_per_layer_metrics_remote():
    """One multi-process workload: the wire metrics come alive."""
    result = run_workload("search_cluster", seed=7, seconds=1.5, trace=1,
                          scale=TOY, guards=None)
    check_run(result, PER_LAYER)
    assert result.metrics["e2e.failed_pct"]["value"] == 0.0
    assert result.metrics["transport.wire_bytes_per_req"]["value"] > 0.0
    assert result.metrics["transport.frames_per_req"]["value"] == 8.0
    assert result.metrics["trace.wire.self_ms_p50"]["value"] > 0.0


def test_benchmark_json_matches_the_spec():
    doc = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in PER_LAYER]
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(0.0 < m.bound <= 0.25 for m in END_TO_END)
    assert "setup_s" in {m.name for m in END_TO_END}


# -- the percentile-selection rule ------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 99
    assert tail_percentile(999) == 98
    assert tail_percentile(500) == 98
    assert tail_percentile(200) == 95
    assert tail_percentile(100_000) == 99      # whole percentiles, capped
    assert tail_percentile(15) == 50           # floored at the median
    for n in (40, 137, 600, 2500):
        q = tail_percentile(n)
        assert n * (100 - q) / 100.0 >= 10 or q == 50


def test_quiet_window_rejects_slow_bursts_but_not_regressions():
    # 20 one-second windows of 10 requests at 10 ms; a neighbour slows
    # windows 5-11 (a third of the run) by half.
    times = [w + i / 10.0 for w in range(20) for i in range(10)]
    base = [10.0] * len(times)
    burst = [15.0 if 5 <= int(t) < 12 else 10.0 for t in times]

    def median(v):
        return percentile(v, 50.0)

    assert quiet_window(times, base, median, "lower") == pytest.approx(10.0)
    assert quiet_window(times, burst, median, "lower") == pytest.approx(10.0)
    assert percentile(burst, 50.0) == pytest.approx(10.0)   # pooled: lucky
    assert percentile(burst, 70.0) == pytest.approx(15.0)   # ...not robust
    # A real 20% regression moves every window, so it moves the decile.
    slower = [1.2 * v for v in burst]
    assert quiet_window(times, slower, median, "lower") == pytest.approx(12.0)
    # Higher-is-better figures take the decile on the other side.
    rate = quiet_window(times, [v / 1000.0 for v in burst],
                        lambda v: len(v) / sum(v), "higher")
    assert rate == pytest.approx(100.0)


def test_share_within_forgives_a_burst_but_not_a_recurring_stall():
    # 20 one-second windows of 50 requests.
    times = [w + i / 50.0 for w in range(20) for i in range(50)]
    clean = [True] * len(times)
    assert share_within(times, clean) == pytest.approx(100.0)
    # A neighbour's burst: 30 requests late in windows 7 and 8.
    burst = [not (7 <= t < 8.2 and t % 1 < 0.5) for t in times]
    assert sum(burst) < len(burst)
    assert share_within(times, burst) == pytest.approx(100.0)
    # A stall in every window (one request in ten late) counts in full.
    stall = [i % 10 != 0 for i in range(len(times))]
    assert share_within(times, stall) == pytest.approx(90.0)
    # ...and a burst that outlasts the forgiven tenth is counted.
    long_burst = [not 5 <= t < 9 for t in times]
    assert share_within(times, long_burst) == pytest.approx(
        100.0 * 16 / 18)


# -- self time on a synthetic span tree --------------------------------------


@dataclass
class FakeSpan:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


def test_self_time_on_a_nested_tree_is_duration_minus_children():
    spans = [
        FakeSpan(1, None, "request", 0.0, 10.0),
        FakeSpan(2, 1, "router.serve", 1.0, 9.0),
        FakeSpan(3, 2, "backend.run_tasks", 2.0, 8.0),
        FakeSpan(4, 3, "kernel", 2.5, 4.5),
        FakeSpan(5, 3, "kernel", 5.0, 7.0),
    ]
    own = attribute_time(spans)
    assert own == pytest.approx({1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0, 5: 2.0})
    assert layer_times(spans) == pytest.approx(
        {"harness": 2.0, "router": 2.0, "backend": 2.0, "kernel": 4.0})


def test_self_time_never_counts_overlapping_siblings_twice():
    # Two workers' kernels overlap for a second; a post-hoc shard.call
    # span shadows the backend span under the same parent.
    spans = [
        FakeSpan(1, None, "request", 0.0, 10.0),
        FakeSpan(2, 1, "router.serve", 0.0, 10.0),
        FakeSpan(6, 2, "shard.call", 1.0, 9.0),
        FakeSpan(3, 2, "backend.run_tasks", 1.5, 9.0),
        FakeSpan(4, 3, "kernel", 2.0, 6.0),
        FakeSpan(5, 3, "kernel", 5.0, 8.0),
    ]
    times = layer_times(spans)
    assert sum(times.values()) == pytest.approx(10.0)
    assert times["kernel"] == pytest.approx(6.0)      # 2..8, once
    assert times["backend"] == pytest.approx(1.5)     # 1.5..2 and 8..9
    assert times["router"] == pytest.approx(2.5)      # 0..1.5 and 9..10


# -- compare verdicts ---------------------------------------------------------


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, [10.2, 10.3, 10.1, 10.2], "lower", 0.10)[1] == "ok"
    assert verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower", 0.10)[1] \
        == "worse"
    # Better is never "worse", whatever the direction.
    assert verdict(steady, [5.0, 5.1, 4.9, 5.0], "lower", 0.10)[1] == "ok"
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher", 0.10)[1] == "worse"
    assert verdict(steady, [12.0, 12.1, 11.9, 12.0], "higher", 0.10)[1] \
        == "ok"
    # A pass inside noise wider than the bound is not a pass.
    noisy = [8.0, 12.0, 9.0, 11.5]
    assert spread(noisy) > 0.10
    assert verdict(noisy, steady, "lower", 0.10)[1] == "unresolved"
    worse_by, status = verdict([100.0], [103.0], "lower", 0.02)
    assert status == "worse" and worse_by == pytest.approx(0.03)


# -- no process outlives a run ------------------------------------------------

ORPHAN_SCRIPT = """
import multiprocessing as mp, sys, time
from pathlib import Path
sys.path.insert(0, {here!r})
from e2e_procs import adopt_orphans, children, stop_all
if __name__ == "__main__":
    adopt_orphans()
    worker = mp.get_context("forkserver").Process(
        target=time.sleep, args=(60,), daemon=True)
    worker.start()                      # and never joined
    assert len(children()) == 2         # fork server + resource tracker
    stop_all()
    assert children() == []
    assert not Path("/proc", str(worker.pid)).exists()
    print("clean")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc")
def test_stop_all_reaps_helpers_and_an_unjoined_worker(tmp_path):
    script = tmp_path / "orphan.py"
    script.write_text(ORPHAN_SCRIPT.format(here=str(HERE)))
    done = subprocess.run([sys.executable, str(script)], timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "clean"
