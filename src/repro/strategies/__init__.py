"""Request-processing strategies compared in the paper's evaluation (§4.1).

- :class:`BasicStrategy` — exact processing, no tail-latency technique;
- :class:`ReissueStrategy` — request reissue / hedging: replicas of
  straggling sub-operations after the class's 95th-percentile latency
  (Dean & Barroso; Jalaparti et al.);
- :class:`PartialExecutionStrategy` — approximate: only components that
  answer before the deadline contribute (He et al. Zeta);
- :class:`AccuracyTraderStrategy` — synopsis pass + correlation-ranked
  refinement within the deadline (this paper).

These are *work models* consumed by the cluster simulators: they say how
many work units a component spends on a sub-operation and record the
bookkeeping their accuracy accounting needs.  The real result-producing
code paths live in :mod:`repro.core`; experiment runners couple the two
(see :mod:`repro.experiments.coupling`).
"""

from repro.strategies.base import ComponentWorkModel
from repro.strategies.basic import BasicStrategy
from repro.strategies.partial import PartialExecutionStrategy
from repro.strategies.accuracytrader import AccuracyTraderStrategy
from repro.strategies.reissue import ReissueStrategy

__all__ = [
    "ComponentWorkModel",
    "BasicStrategy",
    "PartialExecutionStrategy",
    "AccuracyTraderStrategy",
    "ReissueStrategy",
]
