"""AccuracyTrader core: synopsis management + accuracy-aware processing.

This package is the paper's contribution proper:

- :mod:`repro.core.synopsis` — the synopsis / index-file data model;
- :mod:`repro.core.builder` — offline synopsis creation (SVD reduction ->
  R-tree grouping -> information aggregation, §2.2 steps 1-3);
- :mod:`repro.core.updater` — incremental synopsis updating (add new
  points / change existing points, §2.2);
- :mod:`repro.core.processor` — the online two-stage accuracy-aware
  approximate processing of Algorithm 1 (§2.3);
- :mod:`repro.core.adapters` — service adapters binding the generic
  pipeline to the CF recommender and the web search engine;
- :mod:`repro.core.clock` — real and simulated deadline clocks, so the
  same Algorithm 1 code runs under wall-clock deadlines (examples) and
  simulated time (tail-latency experiments);
- :mod:`repro.core.state` — the epoch-versioned state plane: the
  :class:`StateStore` publishes immutable per-component snapshots under
  monotonically increasing epochs, and :class:`StateRef` handles pin
  in-flight requests to their dispatch-time state.

Executing per-component work in parallel (thread/process backends, load
generation, live serving) lives in :mod:`repro.serving`;
:class:`AccuracyTraderService` delegates execution placement there.
"""

from repro.core.synopsis import IndexFile, Synopsis
from repro.core.builder import SynopsisBuilder, SynopsisConfig
from repro.core.updater import SynopsisUpdater, UpdateReport
from repro.core.processor import AccuracyAwareProcessor, ProcessingReport
from repro.core.clock import DeadlineClock, SimulatedClock, WallClock
from repro.core.adapters import CFAdapter, CFRequest, SearchAdapter, SearchQuery
from repro.core.servable import Servable, default_merge, unwrap_adapter
from repro.core.state import (
    ComponentState,
    StaleEpochError,
    StateEpoch,
    StateRef,
    StateStore,
)
from repro.core.service import AccuracyTraderService

__all__ = [
    "IndexFile",
    "Synopsis",
    "SynopsisBuilder",
    "SynopsisConfig",
    "SynopsisUpdater",
    "UpdateReport",
    "AccuracyAwareProcessor",
    "ProcessingReport",
    "DeadlineClock",
    "SimulatedClock",
    "WallClock",
    "CFAdapter",
    "CFRequest",
    "SearchAdapter",
    "SearchQuery",
    "AccuracyTraderService",
    "ComponentState",
    "StateEpoch",
    "StateRef",
    "StateStore",
    "StaleEpochError",
    "Servable",
    "default_merge",
    "unwrap_adapter",
]
