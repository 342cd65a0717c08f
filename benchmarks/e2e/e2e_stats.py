"""Pure statistics behind the benchmark's numbers (unit-tested).

Deliberately free of ``repro`` imports: the yardstick must not move when
the program under test does.

- the percentile-selection rule for tail latency,
- the attribution of a traced request's wall time to its spans,
- spread across repeated runs, and the ``compare`` verdicts.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

import numpy as np

__all__ = ["tail_percentile", "percentile", "quiet_window", "share_within",
           "attribute_time", "LAYER_OF", "layer_times", "spread", "verdict",
           "interval_union"]


MIN_BEYOND = 10          # samples a tail estimate needs on its far side
WINDOW_S = 1.0           # quiet_window: length of one window
WINDOW_MIN_COUNT = 5     # quiet_window: windows with fewer values are skipped
QUIET_DECILE = 10.0
BURST_WINDOWS = 0.10     # share_within: share of a run's windows left out


def tail_percentile(n_samples: int) -> int:
    """The highest whole percentile with ``MIN_BEYOND`` samples beyond it.

    A tail estimate needs samples on its far side: p99 of 300 values
    rests on three of them.  Capped at 99 (the metric is named for whole
    percentiles) and floored at 50.
    """
    if n_samples <= 0:
        return 50
    q = math.floor(100.0 * (1.0 - MIN_BEYOND / n_samples))
    return int(max(50, min(99, q)))


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` (linear interpolation), ``nan`` if empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(values, q))


def quiet_window(times: Sequence[float], values: Sequence[float],
                 statistic, better: str) -> float:
    """``statistic`` over the quiet-decile window of a run.

    The run is cut into ``WINDOW_S`` windows by ``times``; ``statistic``
    (a function of one window's values) is taken per window, and the
    decile on the *better* side across windows is returned: the 10th
    percentile window for a lower-is-better figure, the 90th for higher.

    Why not the pooled figure: on the shared two-core VMs this runs on,
    a neighbour slows stretches of seconds by 10-40%, never speeds one
    up.  Noise that is one-sided and comes in bursts is best rejected
    the way ``timeit`` does it — prefer the undisturbed repeats — while a
    real regression moves every window and so moves any quantile of
    them.
    """
    if len(times) != len(values):
        raise ValueError("times/values length mismatch")
    buckets: dict[int, list] = {}
    for t, v in zip(times, values):
        buckets.setdefault(int(t // WINDOW_S), []).append(v)
    per_window = [statistic(vs) for vs in buckets.values()
                  if len(vs) >= WINDOW_MIN_COUNT]
    if not per_window:
        return float("nan")
    return percentile(per_window, QUIET_DECILE if better == "lower"
                      else 100.0 - QUIET_DECILE)


def share_within(times: Sequence[float], met: Sequence[bool]) -> float:
    """Share (%) of a run's requests that met a limit, bursts left out.

    ``met[i]`` says whether the request due at ``times[i]`` met the
    limit.  The run is cut into ``WINDOW_S`` windows, the tenth of them
    with the lowest share is left out and the rest are pooled.  The same
    one-sided noise as in :func:`quiet_window`: one neighbour's burst puts
    2-4% of a 20-second run's requests past a limit set at its p99.  A
    stall that recurs (an update every second, a lock, a collector) is
    in more windows than are left out and is counted in full; the pooled
    figure is reported beside this one.
    """
    if len(times) != len(met):
        raise ValueError("times/met length mismatch")
    windows: dict[int, list] = {}
    for t, ok in zip(times, met):
        window = windows.setdefault(int(t // WINDOW_S), [0, 0])
        window[0] += bool(ok)
        window[1] += 1
    if not windows:
        return float("nan")
    kept = sorted(windows.values(), key=lambda w: w[0] / w[1])[
        int(BURST_WINDOWS * len(windows)):]
    return 100.0 * sum(w[0] for w in kept) / sum(w[1] for w in kept)


def interval_union(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def attribute_time(spans: Sequence) -> dict[int, float]:
    """Self time per span id: who owns each instant of one trace.

    Every instant covered by at least one span is given to the *deepest*
    span active then (depth by parent links; among equals, the one that
    started last).  On a properly nested tree this is the usual
    definition — a span's duration minus the part its children cover —
    and it stays a partition of the covered wall time when siblings
    overlap (parallel kernels on two workers, a post-hoc ``shard.call``
    span shadowing the backend span), so layer times never sum to more
    than the request took.

    ``spans`` need ``span_id``, ``parent_id``, ``start`` and ``end``.
    """
    by_id = {s.span_id: s for s in spans}
    depth: dict[int, int] = {}

    def depth_of(span) -> int:
        d = depth.get(span.span_id)
        if d is None:
            parent = by_id.get(span.parent_id)
            # A cycle cannot occur: ids are unique and parents precede.
            d = 0 if parent is None else depth_of(parent) + 1
            depth[span.span_id] = d
        return d

    live = [s for s in spans if s.end > s.start]
    for s in live:
        depth_of(s)
    cuts = sorted({t for s in live for t in (s.start, s.end)})
    out = {s.span_id: 0.0 for s in spans}
    for lo, hi in zip(cuts, cuts[1:]):
        owner = None
        for s in live:
            if s.start <= lo and s.end >= hi:
                key = (depth[s.span_id], s.start)
                if owner is None or key > owner[0]:
                    owner = (key, s.span_id)
        if owner is not None:
            out[owner[1]] += hi - lo
    return out


# Span name -> layer of the latency budget.
LAYER_OF = {
    "request": "harness",
    "admission.queue": "admission",
    "router.serve": "router",
    "shard.call": "router",
    "shard.primary": "router",
    "shard.hedge": "router",
    "serve": "router",
    "backend.run_tasks": "backend",
    "async.dispatch": "backend",
    "batch.coalesce": "coalesce",
    "wire.send": "wire",
    "wire.rpc": "wire",
    "state.fetch": "state_fetch",
    "kernel": "kernel",
}


def layer_times(spans: Sequence) -> dict[str, float]:
    """One trace's wall seconds per layer (see :func:`attribute_time`)."""
    own = attribute_time(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = LAYER_OF.get(s.name, "other")
        out[layer] = out.get(layer, 0.0) + own[s.span_id]
    return out


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> tuple[float, str]:
    """``(relative worsening, ok | worse | unresolved)`` for one metric.

    The change's median may be worse than the parent's by at most
    ``bound`` (a share of the parent's median).  Where either side's
    run-to-run spread is wider than the bound, a pass is reported as
    *unresolved*, not as unchanged.
    """
    pm = statistics.median(parent)
    cm = statistics.median(change)
    if pm == 0:
        worse_by = 0.0 if cm == pm else float("inf")
    elif better == "lower":
        worse_by = (cm - pm) / abs(pm)
    else:
        worse_by = (pm - cm) / abs(pm)
    if worse_by > bound:
        return worse_by, "worse"
    if max(spread(parent), spread(change)) > bound:
        return worse_by, "unresolved"
    return worse_by, "ok"
