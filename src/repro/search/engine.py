"""Per-partition search component and top-k merging.

A :class:`SearchComponent` owns one partition's inverted index and answers
queries with scored hits; :func:`merge_topk` combines hits from many
components into a global top-k, deterministically tie-broken by doc id.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.search.index import InvertedIndex
from repro.search.scoring import score_arrays

__all__ = ["SearchHit", "SearchComponent", "hits_best_first", "merge_topk"]


@dataclass(frozen=True, order=True)
class SearchHit:
    """One scored document.  Ordering: higher score first, then lower id.

    The dataclass order is (sort_key asc), so we store the negated score —
    heapq and sorted() then yield best-first without custom comparators.
    """

    neg_score: float
    doc_id: int

    @property
    def score(self) -> float:
        return -self.neg_score

    @staticmethod
    def make(doc_id: int, score: float) -> "SearchHit":
        return SearchHit(neg_score=-float(score), doc_id=int(doc_id))


def hits_best_first(doc_ids, scores, k: int | None = None) -> list[SearchHit]:
    """Hits for parallel ``doc_ids`` / ``scores`` arrays, best first.

    One ``lexsort`` puts them in :class:`SearchHit`'s own total order
    (higher score first, then lower doc id) before any hit object
    exists, so nothing is compared in Python.  ``k`` truncates.
    """
    neg = -np.asarray(scores, dtype=float)
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    order = np.lexsort((doc_ids, neg))
    if k is not None:
        order = order[:k]
    return [SearchHit(neg_score=n, doc_id=d)
            for n, d in zip(neg[order].tolist(), doc_ids[order].tolist())]


class SearchComponent:
    """One component's share of the corpus: an inverted index over pages."""

    def __init__(self, index: InvertedIndex | None = None):
        self.index = index if index is not None else InvertedIndex()

    @property
    def n_docs(self) -> int:
        return self.index.n_docs

    def add_page(self, doc_id: int, terms) -> None:
        self.index.add_document(doc_id, terms)

    def search(self, query_terms, k: int | None = None,
               doc_ids=None) -> list[SearchHit]:
        """Score the partition (or a subset) and return hits best-first.

        Parameters
        ----------
        query_terms:
            Tokenised query.
        k:
            If given, truncate to the best k hits.
        doc_ids:
            Restrict scoring to these documents (refinement subsets).
        """
        if k is not None and k < 0:
            raise ValueError("k must be non-negative")
        return hits_best_first(
            *score_arrays(self.index, query_terms, doc_ids=doc_ids), k)


def merge_topk(hit_lists, k: int) -> list[SearchHit]:
    """Global top-k across several hit lists.

    If the same doc id appears in multiple lists (e.g. a synopsis estimate
    superseded by an exact refinement score), the *highest* score wins —
    refinement can only sharpen a hit, never count it twice.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    best: dict[int, SearchHit] = {}
    for hits in hit_lists:
        for h in hits:
            cur = best.get(h.doc_id)
            if cur is None or h.score > cur.score:
                best[h.doc_id] = h
    return heapq.nsmallest(k, best.values())
