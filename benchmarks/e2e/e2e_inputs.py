"""Seeded inputs for the end-to-end benchmark.

Everything the program under test sees is generated here from ``--seed``:
the datasets, their partitions, the request pools and the update stream.
The same seed always gives the same inputs; the benchmark never reads a
file.  Request construction mirrors ``repro.experiments.cf_service`` /
``search_service`` ``_build_requests`` (jittered prototype user with 60
revealed ratings and 10 targets; Zipf-topic queries with Poisson term
counts), rebuilt here so the pool size and seed are the bench's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adapters import CFAdapter, CFRequest, SearchAdapter, SearchQuery
from repro.core.builder import SynopsisConfig
from repro.util.rng import make_rng
from repro.util.zipf import ZipfSampler
from repro.workloads.corpus import CorpusConfig, generate_corpus
from repro.workloads.movielens import MovieLensConfig, generate_ratings
from repro.workloads.partitioning import split_corpus, split_ratings

__all__ = ["Scale", "FULL", "TOY", "Inputs", "make_inputs", "UpdateStream"]

N_COMPONENTS = 4   # always 2 shards x 1 replica x 2 components


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the committed scale every claim is made
    at; ``TOY`` exists only so the smoke test finishes in seconds."""

    cf_users: int
    cf_items: int
    cf_density: float
    cf_iters: int
    cf_pool: int
    cf_reveal: int
    cf_targets: int
    search_docs: int
    search_topics: int
    search_vocab: int
    search_words_per_topic: int
    search_doc_len: float
    search_iters: int
    search_pool: int
    target_ratio: float


FULL = Scale(cf_users=2000, cf_items=250, cf_density=0.12, cf_iters=40,
             cf_pool=512, cf_reveal=60, cf_targets=10,
             search_docs=4000, search_topics=10, search_vocab=6000,
             search_words_per_topic=200, search_doc_len=60.0,
             search_iters=25, search_pool=512, target_ratio=8.0)

TOY = Scale(cf_users=400, cf_items=60, cf_density=0.2, cf_iters=8,
            cf_pool=32, cf_reveal=20, cf_targets=5,
            search_docs=400, search_topics=5, search_vocab=600,
            search_words_per_topic=100, search_doc_len=30.0,
            search_iters=6, search_pool=32, target_ratio=8.0)


@dataclass
class Inputs:
    """One workload family's generated inputs."""

    family: str                 # "cf" | "search"
    seed: int
    adapter: object
    partitions: list            # N_COMPONENTS per-component partitions
    config: SynopsisConfig
    pool: list                  # request payloads, cycled by the load
    truths: list | None         # CF only: noiseless ratings of the targets
    data: object                # the generator's output (for the updates)


def _cf_inputs(seed: int, scale: Scale) -> Inputs:
    data = generate_ratings(MovieLensConfig(
        n_users=scale.cf_users, n_items=scale.cf_items,
        density=scale.cf_density, seed=seed))
    cfg = data.config
    span = cfg.rating_max - cfg.rating_min
    rng = make_rng(seed, "e2e-cf-requests")
    pool, truths = [], []
    for _ in range(scale.cf_pool):
        proto = int(rng.integers(0, data.user_factors.shape[0]))
        factors = data.user_factors[proto] + rng.normal(
            0.0, 0.2, data.user_factors.shape[1])
        chosen = rng.choice(scale.cf_items,
                            size=scale.cf_reveal + scale.cf_targets,
                            replace=False)
        reveal, targets = chosen[:scale.cf_reveal], chosen[scale.cf_reveal:]
        raw = data.item_factors[reveal] @ factors
        vals = np.clip(cfg.rating_min + span / (1.0 + np.exp(-raw))
                       + rng.normal(0.0, cfg.noise, raw.shape),
                       cfg.rating_min, cfg.rating_max)
        raw_t = data.item_factors[targets] @ factors
        pool.append(CFRequest(active_items=reveal, active_vals=vals,
                              target_items=[int(i) for i in targets]))
        truths.append(cfg.rating_min + span / (1.0 + np.exp(-raw_t)))
    return Inputs(
        family="cf", seed=seed, adapter=CFAdapter(),
        partitions=split_ratings(data.matrix, N_COMPONENTS),
        config=SynopsisConfig(n_iters=scale.cf_iters,
                              target_ratio=scale.target_ratio, seed=seed),
        pool=pool, truths=truths, data=data)


def _search_inputs(seed: int, scale: Scale) -> Inputs:
    corpus = generate_corpus(CorpusConfig(
        n_docs=scale.search_docs, n_topics=scale.search_topics,
        vocab_size=scale.search_vocab,
        words_per_topic=scale.search_words_per_topic,
        doc_length_mean=scale.search_doc_len, seed=seed))
    rng = make_rng(seed, "e2e-search-requests")
    topics = ZipfSampler(scale.search_topics, 0.9, rng)
    pool = []
    for _ in range(scale.search_pool):
        topic = int(topics.sample())
        n_terms = max(1, int(rng.poisson(1.6)) + 1)
        pool.append(SearchQuery(
            terms=corpus.topic_words(topic, n=n_terms, rng=rng), k=10))
    return Inputs(
        family="search", seed=seed, adapter=SearchAdapter(),
        partitions=split_corpus(corpus.partition, N_COMPONENTS),
        config=SynopsisConfig(n_iters=scale.search_iters,
                              target_ratio=scale.target_ratio, seed=seed),
        pool=pool, truths=None, data=corpus)


def make_inputs(family: str, seed: int, scale: Scale = FULL) -> Inputs:
    if family == "cf":
        return _cf_inputs(seed, scale)
    if family == "search":
        return _search_inputs(seed, scale)
    raise ValueError(f"unknown workload family {family!r}")


class UpdateStream:
    """The CF synopsis-update stream: one update per call, seeded.

    Update ``k`` goes to component ``k % 4``; kinds alternate so that
    every component sees both ``change_points`` (8 existing users get
    fresh rating vectors) and ``add_points`` (4 new users are appended).
    The stream owns the per-component "current partition" the service
    API expects the caller to supply.
    """

    N_CHANGED = 8
    N_ADDED = 4

    def __init__(self, inputs: Inputs):
        if inputs.family != "cf":
            raise ValueError("the update stream is CF-only")
        self._rng = make_rng(inputs.seed, "e2e-updates")
        self._cfg = inputs.data.config
        self._n_items = inputs.partitions[0].n_items
        self.partitions = list(inputs.partitions)
        self.counts = [0] * len(self.partitions)
        self._k = 0

    def _rating_vector(self):
        cfg = self._cfg
        n = max(2, int(self._rng.binomial(self._n_items, cfg.density)))
        items = np.sort(self._rng.choice(self._n_items, size=n,
                                         replace=False))
        vals = np.clip(np.round(self._rng.uniform(
            cfg.rating_min, cfg.rating_max, n) * 2.0) / 2.0,
            cfg.rating_min, cfg.rating_max)
        return items, vals

    def next(self):
        """``(kind, component, new_partition, record_ids)`` of update k."""
        k = self._k
        self._k += 1
        component = k % len(self.partitions)
        kind = "change" if (k + k // len(self.partitions)) % 2 == 0 else "add"
        part = self.partitions[component]
        if kind == "change":
            ids = np.sort(self._rng.choice(part.n_users, size=self.N_CHANGED,
                                           replace=False))
            new = part.with_users_replaced(
                {int(u): self._rating_vector() for u in ids})
            ids = [int(u) for u in ids]
        else:
            users, items, vals = [], [], []
            for j in range(self.N_ADDED):
                it, va = self._rating_vector()
                users.append(np.full(it.size, j, dtype=np.int64))
                items.append(it)
                vals.append(va)
            new = part.with_rows_appended(np.concatenate(users),
                                          np.concatenate(items),
                                          np.concatenate(vals))
            ids = list(range(part.n_users, part.n_users + self.N_ADDED))
        self.partitions[component] = new
        self.counts[component] += 1
        return kind, component, new, ids
