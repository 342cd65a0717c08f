"""AccuracyTrader reproduction (ICPP 2016, Han et al.).

Accuracy-aware approximate processing for low tail latency and high
result accuracy in cloud online services, reproduced as a pure-Python
library: the synopsis pipeline (incremental SVD -> R-tree grouping ->
information aggregation), the two-stage online Algorithm 1, both example
services (a user-based CF recommender and a TF-IDF web search engine), a
discrete-event cluster substrate for the tail-latency experiments, the
compared baseline techniques, workload generators, and experiment runners
for every table and figure of the paper's evaluation.

Quickstart::

    from repro.core import (AccuracyAwareProcessor, CFAdapter, CFRequest,
                            SynopsisBuilder, SynopsisConfig)
    from repro.workloads import generate_ratings

    data = generate_ratings()                  # synthetic MovieLens-like
    adapter = CFAdapter()
    synopsis, _ = SynopsisBuilder(adapter, SynopsisConfig()).build(data.matrix)
    processor = AccuracyAwareProcessor(adapter, data.matrix, synopsis)
    # result, report = processor.process(request, deadline=0.1)

The root README's "Architecture map" is the system inventory.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "rtree",
    "svd",
    "recommender",
    "search",
    "cluster",
    "serving",
    "strategies",
    "workloads",
    "experiments",
    "util",
]
