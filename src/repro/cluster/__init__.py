"""Discrete-event cluster substrate for tail-latency experiments.

The paper measured a 110-VM Xen/JStorm deployment; we reproduce the same
queueing mechanics in simulation: an online service fans each request
out to ``n`` parallel components, each a FIFO single-server queue whose
speed varies over time with co-located MapReduce interference.  Latency
is therefore queueing delay + work / current-speed — exactly the two
ingredients the paper identifies as the source of component tail
latency.

Two simulators are provided:

- :class:`~repro.cluster.fanout.FanoutSimulator` — O(1)-per-sub-operation
  FIFO recurrence, exact for strategies without cross-component coupling
  (Basic, Partial execution, AccuracyTrader).
- :class:`~repro.cluster.hedged.HedgedFanoutSimulator` — event-driven
  simulator for the request-reissue baseline, whose replica sub-operations
  couple mirror components.
"""

from repro.cluster.topology import ClusterSpec
from repro.cluster.interference import (
    ConstantSpeed,
    InterferenceTimeline,
    NodeSpeedModel,
)
from repro.cluster.fanout import FanoutSimulator, FanoutRunStats
from repro.cluster.hedged import HedgedFanoutSimulator, HedgedRunStats

__all__ = [
    "ClusterSpec",
    "ConstantSpeed",
    "InterferenceTimeline",
    "NodeSpeedModel",
    "FanoutSimulator",
    "FanoutRunStats",
    "HedgedFanoutSimulator",
    "HedgedRunStats",
]
