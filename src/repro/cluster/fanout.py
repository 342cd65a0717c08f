"""Fast fan-out simulator for uncoupled strategies.

Each request fans out one sub-operation to every component; each component
is a FIFO single-server queue.  Because Basic, Partial execution and
AccuracyTrader never move work *between* components, each component's
timeline is an independent recurrence::

    start_i = max(arrival_i, done_{i-1})
    done_i  = start_i + work(arrival_i, start_i, speed(start_i)) / speed(start_i)

which this simulator evaluates exactly, component by component, without an
event queue.  The component's speed is sampled at service start (a
sub-operation is short relative to interference epochs).

Latency definitions follow the paper: a sub-operation's latency counts
from request *submission* (queueing delay included); the request's service
latency is its slowest component's sub-operation latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.interference import ConstantSpeed, NodeSpeedModel
from repro.cluster.topology import ClusterSpec
from repro.strategies.base import ComponentWorkModel
from repro.util.stats import percentile

__all__ = ["FanoutRunStats", "FanoutSimulator"]


@dataclass
class FanoutRunStats:
    """Latency outcome of one simulated run.

    Attributes
    ----------
    sub_latencies:
        All sub-operation latencies (seconds), in (component-major) order.
    request_latencies:
        Per-request max sub-operation latency (= service latency).
    n_requests, n_components:
        Run dimensions.
    """

    sub_latencies: np.ndarray
    request_latencies: np.ndarray
    n_requests: int
    n_components: int

    def component_tail(self, q: float = 99.9) -> float:
        """The paper's headline metric: q-th percentile sub-op latency."""
        return percentile(self.sub_latencies, q)

    def tail_ms(self, q: float = 99.9) -> float:
        return 1000.0 * self.component_tail(q)

    def mean_latency(self) -> float:
        return float(self.sub_latencies.mean())


class FanoutSimulator:
    """Exact FIFO fan-out simulation for uncoupled work models."""

    def __init__(self, cluster: ClusterSpec,
                 speed_model: NodeSpeedModel | None = None):
        self.cluster = cluster
        self.speed_model = speed_model if speed_model is not None else ConstantSpeed()

    def run(self, arrivals, strategy: ComponentWorkModel) -> FanoutRunStats:
        """Simulate ``arrivals`` (sorted submission times) under ``strategy``.

        Returns the latency statistics; any strategy-specific accounting
        (skip counts, refinement depths) is left inside ``strategy``.
        """
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.ndim != 1:
            raise ValueError("arrivals must be a 1-D array of times")
        if arrivals.size > 1 and np.any(np.diff(arrivals) < 0):
            raise ValueError("arrivals must be sorted")
        n_req = arrivals.size
        n_comp = self.cluster.n_components
        strategy.begin_run(n_req, n_comp)

        sub_latencies = np.empty(n_req * n_comp, dtype=float)
        request_latencies = np.zeros(n_req, dtype=float)

        speeds = self.cluster.component_speeds
        nodes = self.cluster.component_nodes
        mult = self.speed_model.multiplier
        work_of = strategy.service_work
        done_cb = strategy.on_complete

        pos = 0
        for c in range(n_comp):
            comp_speed = float(speeds[c])
            node = int(nodes[c])
            busy = -np.inf
            for r in range(n_req):
                a = float(arrivals[r])
                start = a if a > busy else busy
                speed = comp_speed * mult(node, start)
                work = work_of(r, c, a, start, speed)
                done = start + work / speed
                busy = done
                lat = done - a
                sub_latencies[pos] = lat
                pos += 1
                if lat > request_latencies[r]:
                    request_latencies[r] = lat
                done_cb(r, c, a, done)

        return FanoutRunStats(
            sub_latencies=sub_latencies,
            request_latencies=request_latencies,
            n_requests=n_req,
            n_components=n_comp,
        )
