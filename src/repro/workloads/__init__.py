"""Workload generators standing in for the paper's datasets and traces.

Each generator documents the real artifact it substitutes and which
properties it preserves:

- :mod:`repro.workloads.movielens` — MovieLens 10M rating matrix;
- :mod:`repro.workloads.corpus` — Sogou web-page collection;
- :mod:`repro.workloads.sogou` — Sogou 24-hour user-query log (terms +
  diurnal arrival rates);
- :mod:`repro.workloads.mapreduce` — SWIM/Facebook MapReduce co-location
  trace (interference);
- :mod:`repro.workloads.arrival` — Poisson / nonhomogeneous-Poisson /
  bursty open-loop request arrival processes;
- :mod:`repro.workloads.partitioning` — shard maps (round-robin / hash /
  locality) splitting workload data across service components and shards.
"""

from repro.workloads.arrival import bursty_arrivals, poisson_arrivals, nhpp_arrivals
from repro.workloads.partitioning import (
    ShardMap,
    make_shard_map,
    reshard_corpus,
    reshard_partitions,
    reshard_ratings,
    shard_corpus,
    shard_ratings,
    split_corpus,
    split_ratings,
)
from repro.workloads.movielens import MovieLensConfig, SyntheticRatings, generate_ratings
from repro.workloads.corpus import CorpusConfig, SyntheticCorpus, generate_corpus
from repro.workloads.sogou import (
    HOURLY_RATE_PROFILE,
    QueryLogConfig,
    SyntheticQueryLog,
    generate_query_log,
    hour_arrival_rate,
)
from repro.workloads.mapreduce import MapReduceTraceConfig, generate_interference_jobs

__all__ = [
    "poisson_arrivals",
    "nhpp_arrivals",
    "bursty_arrivals",
    "split_ratings",
    "split_corpus",
    "ShardMap",
    "make_shard_map",
    "shard_ratings",
    "shard_corpus",
    "reshard_ratings",
    "reshard_corpus",
    "reshard_partitions",
    "MovieLensConfig",
    "SyntheticRatings",
    "generate_ratings",
    "CorpusConfig",
    "SyntheticCorpus",
    "generate_corpus",
    "HOURLY_RATE_PROFILE",
    "QueryLogConfig",
    "SyntheticQueryLog",
    "generate_query_log",
    "hour_arrival_rate",
    "MapReduceTraceConfig",
    "generate_interference_jobs",
]
