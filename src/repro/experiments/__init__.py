"""Experiment runners reproducing every table and figure of §4.

Each module regenerates one paper artifact (indexed below); the
benchmarks under ``benchmarks/`` are thin wrappers that call these
runners and print the paper-shaped rows/series.

- :mod:`repro.experiments.common` — latency profiles, cluster scale,
  technique runner shared by all latency experiments;
- :mod:`repro.experiments.cf_service` / :mod:`repro.experiments.search_service`
  — scaled "accuracy substrates": real service instances whose refinement
  depths / skip fractions are driven by the latency simulation
  (see :mod:`repro.experiments.coupling`);
- :mod:`repro.experiments.cf_tables` — Tables 1 & 2;
- :mod:`repro.experiments.fig3` — synopsis-updating overheads;
- :mod:`repro.experiments.fig4` — synopsis effectiveness sections;
- :mod:`repro.experiments.hourly` — Figures 5 & 6 (hours 9, 10, 24);
- :mod:`repro.experiments.daily` — Figures 7 & 8 (24 hours);
- :mod:`repro.experiments.headline` — the abstract's headline ratios.
"""

from repro.experiments.common import (
    ExperimentScale,
    ServiceLatencyProfile,
    TechniqueRun,
    run_techniques,
)

__all__ = [
    "ExperimentScale",
    "ServiceLatencyProfile",
    "TechniqueRun",
    "run_techniques",
]
