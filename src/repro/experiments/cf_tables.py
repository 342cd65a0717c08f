"""Tables 1 & 2: the CF-workload comparison (paper §4.3).

Table 1 — 99.9th-percentile component latency (ms) of Basic / Request
reissue / AccuracyTrader at arrival rates 20..100 req/s.  Table 2 —
accuracy-loss percentages of Partial execution vs AccuracyTrader for the
same runs.  One latency simulation per rate drives both tables
(see :mod:`repro.experiments.coupling`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.common import (
    ExperimentScale,
    ServiceLatencyProfile,
    run_techniques,
)
from repro.experiments.coupling import at_depth_fractions, partial_used_fractions
from repro.experiments.cf_service import CFAccuracyService
from repro.experiments.formatting import format_table
from repro.util.rng import make_rng
from repro.workloads.arrival import poisson_arrivals

__all__ = ["CFTablesResult", "run_cf_tables"]


@dataclass
class CFTablesResult:
    """Both tables' rows plus the headline ratios derived from them."""

    rates: list[int]
    latency_ms: dict[str, list[float]] = field(default_factory=dict)   # Table 1
    loss_percent: dict[str, list[float]] = field(default_factory=dict)  # Table 2

    def table1_text(self) -> str:
        headers = ["Request arrival rate"] + [str(r) for r in self.rates]
        rows = [
            ["Basic"] + self.latency_ms["basic"],
            ["Request reissue"] + self.latency_ms["reissue"],
            ["AccuracyTrader"] + self.latency_ms["at"],
        ]
        return format_table(headers, rows,
                            title="Table 1: 99.9th percentile component latency (ms), CF workloads")

    def table2_text(self) -> str:
        headers = ["Request arrival rate"] + [str(r) for r in self.rates]
        rows = [
            ["Partial execution"] + self.loss_percent["partial"],
            ["AccuracyTrader"] + self.loss_percent["at"],
        ]
        return format_table(headers, rows,
                            title="Table 2: accuracy losses (%), CF workloads")

    def reissue_over_at_latency(self) -> float:
        """Mean Reissue/AT tail ratio (paper headline: 133.38x)."""
        re = np.asarray(self.latency_ms["reissue"])
        at = np.asarray(self.latency_ms["at"])
        return float(np.mean(re / at))

    def partial_over_at_loss(self) -> float:
        """Mean Partial/AT accuracy-loss ratio (paper headline: 15.12x)."""
        pe = np.asarray(self.loss_percent["partial"])
        at = np.maximum(np.asarray(self.loss_percent["at"]), 1e-3)
        return float(np.mean(pe / at))


def run_cf_tables(rates=(20, 40, 60, 80, 100),
                  profile: ServiceLatencyProfile | None = None,
                  scale: ExperimentScale | None = None,
                  service: CFAccuracyService | None = None,
                  seed: int = 0) -> CFTablesResult:
    """Run the CF comparison at each arrival rate.

    Parameters
    ----------
    rates:
        Request arrival rates in req/s (paper: 20, 40, 60, 80, 100).
    profile, scale:
        Latency geometry and cluster size (paper-shaped defaults).
    service:
        The accuracy substrate; built on demand (expensive) if omitted.
    seed:
        Arrival/coupling randomness seed.
    """
    profile = profile if profile is not None else ServiceLatencyProfile.cf()
    scale = scale if scale is not None else ExperimentScale()
    service = service if service is not None else CFAccuracyService()

    result = CFTablesResult(rates=[int(r) for r in rates])
    for name in ("basic", "reissue", "at"):
        result.latency_ms[name] = []
    result.loss_percent = {"partial": [], "at": []}

    n_req = service.config.n_requests
    for rate in rates:
        arrivals = poisson_arrivals(float(rate), scale.session_s,
                                    make_rng(seed, "cf-arrivals", rate))
        runs = run_techniques(arrivals, profile, scale)
        for name in ("basic", "reissue", "at"):
            result.latency_ms[name].append(runs[name].tail_ms())

        rng = make_rng(seed, "cf-coupling", rate)
        at_frac = at_depth_fractions(runs["at"].strategy, n_req,
                                     service.n_partitions, rng)
        pe_frac = partial_used_fractions(runs["partial"].strategy, n_req, rng)
        result.loss_percent["at"].append(
            service.loss_percent(service.at_rmse(at_frac)))
        result.loss_percent["partial"].append(
            service.loss_percent(service.partial_rmse(pe_frac)))
    return result
