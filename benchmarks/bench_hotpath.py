"""Algorithm 1 hot path: batched dispatch + vectorized kernels.

Profile-first measurement of the serving hot path on both paper
workloads, comparing two single-core configurations over the *same*
request set:

- **before** — the scalar baseline: per-request dispatch (one backend
  submission per component task) with the per-group/per-posting python
  reference kernels (``pearson_weights_scalar``,
  ``initial_result_scalar``, and a search stage 1 through
  ``score_query_scalar``) patched in.  This
  is the pre-optimization hot path, preserved in-tree as the bit-exact
  test oracle.
- **after** — the shipped path: vectorized CSR kernels plus dispatch
  coalescing through :class:`~repro.serving.backends.BatchingBackend`
  (bursts of ``burst`` requests collapse into one submission per
  component, served by ``run_component_batch`` /
  ``initial_result_batch`` in one pass).

Three things are reported per workload:

- closed-loop **requests/sec per core** for both configurations and the
  speedup (the acceptance gate: >= 5x on CF at full scale);
- a cProfile **dispatch-vs-kernel breakdown** of each configuration —
  seconds spent in the numeric kernels vs dispatch/serialization
  machinery vs everything else — showing *where* the time went before
  and after;
- a **bit-identity** flag: the optimized path must return exactly the
  answers of the scalar baseline (dict equality on CF numerators /
  denominators, exact (doc, score) lists for search), because both
  accumulate the same sufficient statistics in the same order.

Emits machine-readable ``BENCH_hotpath.json`` for the CI smoke run.

Run:  PYTHONPATH=src python benchmarks/bench_hotpath.py [--toy]
          [--out BENCH_hotpath.json]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.adapters import (
    CFAdapter,
    CFRequest,
    SearchAdapter,
    SearchQuery,
)
from repro.core.builder import SynopsisConfig
from repro.core.clock import SimulatedClock
from repro.core.service import AccuracyTraderService
from repro.recommender import similarity
from repro.recommender.similarity import pearson_weights_scalar
from repro.search.scoring import score_query_scalar
from repro.serving import BatchingBackend, SequentialBackend, as_envelope
from repro.workloads.corpus import CorpusConfig, generate_corpus
from repro.workloads.movielens import MovieLensConfig, generate_ratings
from repro.workloads.partitioning import split_corpus, split_ratings

DEADLINE_S = 10.0
N_COMPONENTS = 2
I_MAX = 1                 # latency-critical anytime operation: stage 1
#                           dominates, which is exactly the batched path
CF_SPEEDUP_FLOOR = 5.0    # acceptance gate at full scale

# Module prefixes used to bucket cProfile samples.  "kernel" is the
# numeric work Algorithm 1 actually asks for; "dispatch" is the price of
# getting it to a worker and back.
KERNEL_MODULES = ("repro/recommender/", "repro/search/",
                  "repro/core/processor", "repro/core/adapters")
DISPATCH_MODULES = ("repro/serving/", "repro/core/service",
                    "concurrent/futures/", "threading", "queue", "pickle")


@dataclass
class Scale:
    n_requests: int   # total closed-loop requests (a multiple of burst)
    burst: int        # requests submitted per coalescing window
    n_users: int
    n_items: int
    n_docs: int
    vocab: int


FULL = Scale(n_requests=192, burst=32, n_users=4000, n_items=160,
             n_docs=4000, vocab=6000)
TOY = Scale(n_requests=48, burst=16, n_users=800, n_items=80,
            n_docs=800, vocab=2400)

CF_CONFIG = SynopsisConfig(n_iters=25, target_ratio=8.0, seed=23)
SEARCH_CONFIG = SynopsisConfig(n_iters=25, target_ratio=8.0, seed=23)


def sim_clocks():
    return [SimulatedClock(speed=1e12) for _ in range(N_COMPONENTS)]


def cf_workload(scale: Scale):
    ratings = generate_ratings(MovieLensConfig(
        n_users=scale.n_users, n_items=scale.n_items, density=0.2,
        n_clusters=6, cluster_spread=0.3, noise=0.3, seed=23))
    svc = AccuracyTraderService(
        CFAdapter(), split_ratings(ratings.matrix, N_COMPONENTS),
        config=CF_CONFIG, i_max=I_MAX)
    envelopes = []
    for i in range(scale.n_requests):
        ids, vals = ratings.matrix.user_ratings(i % scale.n_users)
        targets = [t for t in range(12)
                   if t not in set(ids.tolist())][:5] or [0]
        envelopes.append(as_envelope(
            CFRequest(active_items=ids, active_vals=vals,
                      target_items=targets), DEADLINE_S))
    return svc, envelopes


def search_workload(scale: Scale):
    corpus = generate_corpus(CorpusConfig(
        n_docs=scale.n_docs, n_topics=10, vocab_size=scale.vocab,
        words_per_topic=200, doc_length_mean=60.0, seed=23))
    svc = AccuracyTraderService(
        SearchAdapter(), split_corpus(corpus.partition, N_COMPONENTS),
        config=SEARCH_CONFIG, i_max=I_MAX)
    envelopes = []
    for i in range(scale.n_requests):
        terms = corpus.partition.tokens_of(i % scale.n_docs)[:8]
        envelopes.append(as_envelope(SearchQuery(terms=terms, k=10),
                                     DEADLINE_S))
    return svc, envelopes


def search_initial_result_scalar(adapter, synopsis, request):
    """Search stage 1 scored by the per-posting oracle: the synopsis
    index's doc ids are the group ids."""
    m = synopsis.n_aggregated
    correlations, matched = np.zeros(m), np.zeros(m, dtype=bool)
    for g, score in score_query_scalar(synopsis.payload.index,
                                       request.terms).items():
        correlations[g], matched[g] = score, True
    return adapter._stage1_state(synopsis, correlations, matched)


class scalar_kernels:
    """Patch the pre-optimization reference kernels into the hot path."""

    def __enter__(self):
        self._saved = (similarity.pearson_weights, CFAdapter.initial_result,
                       SearchAdapter.initial_result)
        similarity.pearson_weights = pearson_weights_scalar
        CFAdapter.initial_result = CFAdapter.initial_result_scalar
        SearchAdapter.initial_result = search_initial_result_scalar
        return self

    def __exit__(self, *exc):
        (similarity.pearson_weights, CFAdapter.initial_result,
         SearchAdapter.initial_result) = self._saved
        return False


def serve_unbatched(svc, envelopes):
    """Per-request dispatch: one submission per component task."""
    backend = SequentialBackend()
    return [svc.serve(env, clocks=sim_clocks(), backend=backend).answer
            for env in envelopes]


def serve_batched(svc, envelopes, burst: int):
    """Burst dispatch: each burst coalesces into one batch per component.

    Driven from one thread: ``max_batch`` equals the burst size, so the
    last submission of each burst flushes the batch inline and the
    window never has to expire.
    """
    backend = BatchingBackend(SequentialBackend(), window=30.0,
                              max_batch=burst, close_inner=True)
    answers = []
    try:
        for lo in range(0, len(envelopes), burst):
            chunk = envelopes[lo:lo + burst]
            task_lists = [svc.build_tasks(env, clocks=sim_clocks())
                          for env in chunk]
            futures = [backend.submit_task(t)
                       for c in range(N_COMPONENTS)
                       for tasks in task_lists
                       for t in (tasks[c],)]
            outcomes = [f.result() for f in futures]
            for k, env in enumerate(chunk):
                results = [outcomes[c * len(chunk) + k].result
                           for c in range(N_COMPONENTS)]
                answers.append(svc.merge(results, env.payload))
        return answers, backend.batch_stats()
    finally:
        backend.close()


def profile_breakdown(fn) -> dict:
    """Seconds in kernels vs dispatch vs other, from a profiled run."""
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    stats = pstats.Stats(prof)
    buckets = {"kernel_s": 0.0, "dispatch_s": 0.0, "other_s": 0.0}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) \
            in stats.stats.items():
        path = filename.replace("\\", "/")
        if any(m in path for m in KERNEL_MODULES):
            buckets["kernel_s"] += tottime
        elif any(m in path for m in DISPATCH_MODULES):
            buckets["dispatch_s"] += tottime
        else:
            buckets["other_s"] += tottime
    return {k: round(v, 4) for k, v in buckets.items()}


def cf_identical(a, b) -> bool:
    return (a.numer == b.numer and a.denom == b.denom
            and a.active_mean == b.active_mean)


def search_identical(a, b) -> bool:
    return [(h.doc_id, h.score) for h in a] == \
        [(h.doc_id, h.score) for h in b]


def best_of(fn, repeats: int):
    """Result of the first run + the fastest wall time of ``repeats`` runs.

    Closed-loop single-core timings jitter by +-10-20% on a shared
    machine; min-of-N is the standard way to report the achievable rate.
    """
    result, best_s = None, float("inf")
    for k in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        if k == 0:
            result = out
        best_s = min(best_s, elapsed)
    return result, best_s


def run_workload(name: str, svc, envelopes, burst: int, same,
                 repeats: int = 3) -> dict:
    n = len(envelopes)
    with svc:
        # warm-up (synopsis fault-in, code paths) outside the timings
        with scalar_kernels():
            serve_unbatched(svc, envelopes[:burst])
        serve_batched(svc, envelopes[:burst], burst)

        with scalar_kernels():
            before_answers, before_s = best_of(
                lambda: serve_unbatched(svc, envelopes), repeats)
            before_profile = profile_breakdown(
                lambda: serve_unbatched(svc, envelopes))

        (after_answers, batch_stats), after_s = best_of(
            lambda: serve_batched(svc, envelopes, burst), repeats)
        after_profile = profile_breakdown(
            lambda: serve_batched(svc, envelopes, burst))

    identical = all(same(a, b)
                    for a, b in zip(after_answers, before_answers))
    return {
        "workload": name,
        "n_requests": n,
        "burst": burst,
        "before": {"rps_per_core": n / before_s,
                   "elapsed_s": before_s,
                   "profile": before_profile},
        "after": {"rps_per_core": n / after_s,
                  "elapsed_s": after_s,
                  "profile": after_profile,
                  "batch_stats": batch_stats},
        "speedup": (n / after_s) / (n / before_s),
        "bit_identical": bool(identical),
    }


def run(scale: Scale) -> dict:
    cf_svc, cf_envs = cf_workload(scale)
    cf = run_workload("cf", cf_svc, cf_envs, scale.burst, cf_identical)
    search_svc, search_envs = search_workload(scale)
    search = run_workload("search", search_svc, search_envs, scale.burst,
                          search_identical)
    return {
        "bench": "hotpath",
        "scale": {"n_requests": scale.n_requests, "burst": scale.burst,
                  "n_users": scale.n_users, "n_items": scale.n_items,
                  "n_docs": scale.n_docs, "vocab": scale.vocab,
                  "n_components": N_COMPONENTS, "i_max": I_MAX},
        "cf": cf,
        "search": search,
    }


def print_table(result: dict) -> None:
    print("hot path — scalar+per-task dispatch vs vectorized+batched")
    print(f"{'workload':>9}{'mode':>8}{'req/s/core':>12}{'kernel s':>10}"
          f"{'dispatch s':>12}{'other s':>9}")
    for name in ("cf", "search"):
        row = result[name]
        for mode in ("before", "after"):
            prof = row[mode]["profile"]
            print(f"{name:>9}{mode:>8}"
                  f"{row[mode]['rps_per_core']:>12.0f}"
                  f"{prof['kernel_s']:>10.3f}{prof['dispatch_s']:>12.3f}"
                  f"{prof['other_s']:>9.3f}")
        stats = row["after"]["batch_stats"]
        print(f"{'':>9}speedup {row['speedup']:.1f}x, "
              f"bit-identical {row['bit_identical']}, "
              f"{stats['tasks_coalesced']} tasks in "
              f"{stats['batches_submitted']} batches")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--toy", action="store_true",
                        help="tiny configuration for CI smoke runs")
    parser.add_argument("--out", default="BENCH_hotpath.json",
                        help="path of the machine-readable result")
    args = parser.parse_args(argv)

    result = run(TOY if args.toy else FULL)
    result["scale_name"] = "toy" if args.toy else "full"
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
    print_table(result)
    print(f"\nwrote {args.out}")

    failures = []
    for name in ("cf", "search"):
        row = result[name]
        if not row["bit_identical"]:
            failures.append(f"{name}: optimized answers differ from the "
                            "scalar baseline")
        # Toy scale exempts search from the throughput gate: its
        # vectorized kernels carry fixed numpy call overhead that only
        # amortizes at realistic corpus sizes, so the smoke run checks
        # correctness there and speed on CF (which wins at any scale).
        if row["speedup"] < 1.0 and not (args.toy and name == "search"):
            failures.append(f"{name}: batched+vectorized is slower than "
                            f"the baseline ({row['speedup']:.2f}x)")
        stats = row["after"]["batch_stats"]
        if stats["batches_submitted"] >= stats["tasks_coalesced"]:
            failures.append(f"{name}: dispatch never coalesced")
    if not args.toy and result["cf"]["speedup"] < CF_SPEEDUP_FLOOR:
        failures.append(
            f"cf speedup {result['cf']['speedup']:.1f}x is below the "
            f"{CF_SPEEDUP_FLOOR}x acceptance floor")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
