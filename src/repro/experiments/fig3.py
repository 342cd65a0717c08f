"""Figure 3: synopsis-updating overheads (paper §4.2).

Two categories of input-data change, each at i = 1..10% of the partition:

- **add**: i% new data points (users / web pages) appended;
- **change**: i% existing data points' attributes / contents changed.

The paper's findings to reproduce: (i) every update completes much faster
than creating the synopsis from scratch; (ii) the add-only category is
faster than the change category (changes delete *and* re-insert R-tree
leaves).

Measured with real wall-clock time over our own algorithms — the one
place in the reproduction where wall time is honest (pure algorithmic
cost, no concurrency).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.adapters import CFAdapter, SearchAdapter
from repro.core.builder import SynopsisBuilder, SynopsisConfig
from repro.core.updater import SynopsisUpdater
from repro.experiments.formatting import format_table
from repro.util.rng import make_rng
from repro.workloads.corpus import CorpusConfig, generate_corpus
from repro.workloads.movielens import MovieLensConfig, generate_ratings

__all__ = ["Fig3Result", "run_fig3_cf", "run_fig3_search"]


@dataclass
class Fig3Result:
    """Update timings for one service."""

    service: str
    creation_s: float
    percents: list[int] = field(default_factory=list)
    add_s: list[float] = field(default_factory=list)
    change_s: list[float] = field(default_factory=list)

    def text(self) -> str:
        rows = [[p, a, c] for p, a, c in
                zip(self.percents, self.add_s, self.change_s)]
        table = format_table(["i (%)", "add (s)", "change (s)"], rows,
                             title=f"Figure 3 ({self.service}): synopsis updating time "
                                   f"(creation took {self.creation_s:.2f}s)")
        return table

    def updates_faster_than_creation(self) -> bool:
        return max(self.add_s + self.change_s, default=0.0) < self.creation_s

    def add_faster_than_change(self) -> bool:
        """Paper finding (ii), on the run's average."""
        return float(np.mean(self.add_s)) < float(np.mean(self.change_s))


def run_fig3_cf(n_users: int = 2000, n_items: int = 300,
                percents=range(1, 11), repeats: int = 3,
                n_iters: int = 100, seed: int = 0) -> Fig3Result:
    """CF-service updating experiment.

    ``n_iters`` defaults to the paper's 100 SVD iterations per dimension;
    creation cost is dominated by the full-data SVD + aggregation, which
    is exactly why incremental updating wins (its SVD work touches only
    the changed rows).
    """
    adapter = CFAdapter()
    config = SynopsisConfig(n_iters=n_iters, target_ratio=25.0, seed=seed)
    data = generate_ratings(MovieLensConfig(n_users=n_users, n_items=n_items,
                                            seed=seed))
    matrix = data.matrix

    t0 = time.perf_counter()
    synopsis, artifacts = SynopsisBuilder(adapter, config).build(matrix)
    creation_s = time.perf_counter() - t0

    result = Fig3Result(service="recommender", creation_s=creation_s)
    rng = make_rng(seed, "fig3-cf")
    for pct in percents:
        k = max(1, int(round(n_users * pct / 100.0)))
        add_times, change_times = [], []
        for rep in range(repeats):
            # Category 1: add k new users drawn from the same taste model.
            upd = SynopsisUpdater(adapter, config, matrix,
                                  copy.deepcopy(synopsis), copy.deepcopy(artifacts))
            new_u, new_i, new_v = _new_users(data, k, rng)
            m2 = matrix.with_rows_appended(new_u, new_i, new_v)
            rep_add = upd.add_points(m2, np.arange(n_users, n_users + k))
            add_times.append(rep_add.seconds)

            # Category 2: change k existing users' ratings.
            upd = SynopsisUpdater(adapter, config, matrix,
                                  copy.deepcopy(synopsis), copy.deepcopy(artifacts))
            changed = rng.choice(n_users, size=k, replace=False)
            replaced = {}
            for u in changed:
                ids, _ = matrix.user_ratings(int(u))
                replaced[int(u)] = (ids, rng.uniform(1.0, 5.0, ids.size))
            m3 = matrix.with_users_replaced(replaced)
            rep_chg = upd.change_points(m3, changed)
            change_times.append(rep_chg.seconds)
        result.percents.append(int(pct))
        result.add_s.append(float(np.mean(add_times)))
        result.change_s.append(float(np.mean(change_times)))
    return result


def _new_users(data, k: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw k new users' ratings from the generator's latent model."""
    cfg = data.config
    protos = rng.integers(0, data.user_factors.shape[0], size=k)
    users_l, items_l, vals_l = [], [], []
    per_user = max(3, int(cfg.density * cfg.n_items))
    span = cfg.rating_max - cfg.rating_min
    for local, proto in enumerate(protos):
        factors = data.user_factors[proto] + rng.normal(0.0, 0.2,
                                                        data.user_factors.shape[1])
        items = rng.choice(cfg.n_items, size=per_user, replace=False)
        raw = data.item_factors[items] @ factors
        vals = np.clip(cfg.rating_min + span / (1.0 + np.exp(-raw))
                       + rng.normal(0.0, cfg.noise, raw.shape),
                       cfg.rating_min, cfg.rating_max)
        users_l.append(np.full(per_user, local, dtype=np.int64))
        items_l.append(np.asarray(items, dtype=np.int64))
        vals_l.append(vals)
    return (np.concatenate(users_l), np.concatenate(items_l),
            np.concatenate(vals_l))


def run_fig3_search(n_docs: int = 1500, percents=range(1, 11),
                    repeats: int = 3, n_iters: int = 100,
                    seed: int = 0) -> Fig3Result:
    """Search-service updating experiment (see :func:`run_fig3_cf`)."""
    adapter = SearchAdapter()
    config = SynopsisConfig(n_iters=n_iters, target_ratio=30.0, seed=seed)
    corpus = generate_corpus(CorpusConfig(n_docs=n_docs, seed=seed))

    t0 = time.perf_counter()
    synopsis, artifacts = SynopsisBuilder(adapter, config).build(corpus.partition)
    creation_s = time.perf_counter() - t0

    result = Fig3Result(service="search", creation_s=creation_s)
    rng = make_rng(seed, "fig3-search")
    gen_rng_seq = iter(range(10_000))
    for pct in percents:
        k = max(1, int(round(n_docs * pct / 100.0)))
        add_times, change_times = [], []
        for rep in range(repeats):
            # Category 1: add k new pages from fresh topic draws.
            part = copy.deepcopy(corpus.partition)
            upd = SynopsisUpdater(adapter, config, part,
                                  copy.deepcopy(synopsis), copy.deepcopy(artifacts))
            extra = generate_corpus(
                CorpusConfig(n_docs=k, n_topics=corpus.config.n_topics,
                             vocab_size=corpus.config.vocab_size,
                             words_per_topic=corpus.config.words_per_topic,
                             seed=seed),
                seed=seed + 7919 + next(gen_rng_seq))
            new_ids = part.add_pages(
                extra.partition.tokens_of(d) for d in range(k))
            rep_add = upd.add_points(part, new_ids)
            add_times.append(rep_add.seconds)

            # Category 2: change k existing pages' contents.
            part = copy.deepcopy(corpus.partition)
            upd = SynopsisUpdater(adapter, config, part,
                                  copy.deepcopy(synopsis), copy.deepcopy(artifacts))
            changed = rng.choice(n_docs, size=k, replace=False)
            fresh = generate_corpus(
                CorpusConfig(n_docs=k, n_topics=corpus.config.n_topics,
                             vocab_size=corpus.config.vocab_size,
                             words_per_topic=corpus.config.words_per_topic,
                             seed=seed),
                seed=seed + 104729 + next(gen_rng_seq))
            for local, d in enumerate(changed):
                part.replace_page(int(d), fresh.partition.tokens_of(local))
            rep_chg = upd.change_points(part, changed)
            change_times.append(rep_chg.seconds)
        result.percents.append(int(pct))
        result.add_s.append(float(np.mean(add_times)))
        result.change_s.append(float(np.mean(change_times)))
    return result
