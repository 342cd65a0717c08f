"""Parallel serving: one service, three execution backends, live updates.

Builds a 4-component recommender service whose adapter pays a real
storage stall per synopsis/group fetch (the cost the simulator models as
work units), then:

1. serves the same latency-bound request stream through the sequential,
   thread-pool, and remote (worker-process) backends and prints the
   throughput and latency each achieves;
2. serves an open-loop Poisson stream while synopsis updates land
   concurrently, demonstrating that copy-on-swap snapshots keep every
   in-flight answer consistent.

Run:  PYTHONPATH=src python examples/parallel_serving.py

The remote backend starts its workers with ``forkserver`` where
available, which re-imports ``__main__``: keep the ``__main__`` guard.
"""

from __future__ import annotations

import numpy as np

from repro.core import AccuracyTraderService, CFAdapter, CFRequest, SynopsisConfig
from repro.serving import (
    IOStallAdapter,
    LoadGenerator,
    RemoteBackend,
    SequentialBackend,
    ServingHarness,
    ThreadPoolBackend,
)
from repro.workloads import MovieLensConfig, generate_ratings, split_ratings

N_COMPONENTS = 4
STALL_S = 2e-3


def build_service() -> AccuracyTraderService:
    data = generate_ratings(MovieLensConfig(
        n_users=600, n_items=80, density=0.2, n_clusters=6, seed=23))
    parts = split_ratings(data.matrix, N_COMPONENTS)
    adapter = IOStallAdapter(CFAdapter(), synopsis_stall=STALL_S,
                             group_stall=STALL_S)
    return AccuracyTraderService(adapter, parts, config=SynopsisConfig(
        n_iters=30, target_ratio=15.0, seed=23))


def make_loadgen(service: AccuracyTraderService) -> LoadGenerator:
    matrix = service.partitions[0]

    def factory(i, rng):
        ids, vals = matrix.user_ratings(i % matrix.n_users)
        targets = [int(t) for t in rng.choice(matrix.n_items, size=4,
                                              replace=False)]
        return CFRequest(active_items=ids, active_vals=vals,
                         target_items=targets)

    return LoadGenerator(factory, seed=23)


def main() -> None:
    service = build_service()
    loadgen = make_loadgen(service)
    print(f"{N_COMPONENTS}-component CF service, "
          f"{1e3 * STALL_S:.0f} ms storage stall per fetch")

    # --- backend comparison, latency-bound (one closed-loop client) ----
    load = loadgen.closed_loop(n_clients=1, n_requests=16)
    backends = [SequentialBackend(), ThreadPoolBackend(N_COMPONENTS),
                RemoteBackend(n_workers=2)]
    print(f"\n{'backend':<12}{'req/s':>8}{'p50 ms':>9}{'p95 ms':>9}")
    baseline = None
    for backend in backends:
        with backend:
            harness = ServingHarness(service, deadline=10.0, backend=backend)
            stats = harness.run_closed_loop(load)
        if baseline is None:
            baseline = stats.throughput()
        print(f"{backend.name:<12}{stats.throughput():>8.1f}"
              f"{1e3 * stats.p50():>9.1f}{1e3 * stats.p95():>9.1f}"
              f"   ({stats.throughput() / baseline:.2f}x)")

    # --- open loop with concurrent synopsis updates --------------------
    def add_users(svc: AccuracyTraderService):
        part = svc.partitions[0]
        new = part.with_rows_appended(
            np.zeros(4, dtype=np.int64), np.arange(4), np.full(4, 4.0))
        return svc.add_points(0, new, [part.n_users])

    stream = loadgen.poisson(rate=40.0, duration=1.0)
    with ThreadPoolBackend(N_COMPONENTS) as backend:
        harness = ServingHarness(service, deadline=10.0, backend=backend,
                                 max_concurrency=16)
        stats = harness.run_open_loop(
            stream, updates=[(0.3, add_users), (0.6, add_users)])
    print(f"\nopen loop: {stats.n_requests} requests at 40 req/s with "
          f"{len(stats.update_log)} concurrent add-point updates")
    print(f"  throughput {stats.throughput():.1f} req/s, "
          f"p50 {1e3 * stats.p50():.1f} ms, p95 {1e3 * stats.p95():.1f} ms, "
          f"p99 {1e3 * stats.p99():.1f} ms")
    for at, report in stats.update_log:
        print(f"  update at t={at:.1f}s: +{report.n_points} points, "
              f"{report.n_groups_before} -> {report.n_groups_after} groups, "
              f"{report.n_groups_reaggregated} re-aggregated "
              f"in {1e3 * report.seconds:.0f} ms")
    print("\nall in-flight answers were computed against consistent "
          "(partition, synopsis) snapshots — see repro.serving docs.")


if __name__ == "__main__":
    main()
