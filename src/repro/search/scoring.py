"""TF-IDF similarity scoring (Lucene-classic flavour).

Lucene's classic ``TFIDFSimilarity`` scores a document *d* for query *q*
roughly as ``sum over t in q of tf(t, d) * idf(t)^2 / norm(d)`` with
``tf = sqrt(term_freq)``, ``idf = 1 + ln(N / (df + 1))`` and
``norm = sqrt(doc_len)``.  We implement exactly that shape; what the
experiments need is the *same* scoring function applied to original pages
and aggregated pages, so relative ranks are meaningful.
"""

from __future__ import annotations

import numpy as np

from repro.util.spans import span_indices

__all__ = ["tf_weight", "idf_weight", "score_matrix", "score_arrays",
           "score_query", "score_query_scalar", "score_queries",
           "GroupedPostings"]


def tf_weight(term_freq) -> np.ndarray:
    """Sub-linear term-frequency weight: sqrt(tf)."""
    tf = np.asarray(term_freq, dtype=float)
    if np.any(tf < 0):
        raise ValueError("term frequency must be non-negative")
    return np.sqrt(tf)


def idf_weight(n_docs: int, doc_freq: int) -> float:
    """Inverse document frequency: 1 + ln(N / (df + 1)), floored at 0.

    The +1 smoothing keeps the weight finite for df = 0 and the floor
    avoids negative weights for terms present in nearly every document.
    """
    if n_docs < 0 or doc_freq < 0:
        raise ValueError("counts must be non-negative")
    if n_docs == 0:
        return 0.0
    return max(0.0, 1.0 + float(np.log(n_docs / (doc_freq + 1.0))))


class _ScoringView:
    """One index version's scoring view, kept by :meth:`InvertedIndex.derived`.

    Docs are numbered by their position in ascending id order (their
    *slot*): ``ids[slot]`` is the doc id and ``norms[slot]`` its length
    norm.  Per term (on first use, under no lock: racing builders store
    equal entries): its postings' slots, ``sqrt(tf)``, the term's
    ``idf**2`` and the product ``sqrt(tf) * idf**2`` — the contribution
    of a term the query holds once.
    """

    __slots__ = ("ids", "norms", "terms")

    def __init__(self, index) -> None:
        self.ids, self.norms = index.sorted_norms()
        self.terms: dict[str, tuple | None] = {}

    def term(self, index, term: str):
        try:
            return self.terms[term]
        except KeyError:
            pass
        docs, tfs = index.postings(term)
        entry = None
        idf = idf_weight(index.n_docs, docs.size) if docs.size else 0.0
        if idf != 0.0:
            sqrt_tf, idf2 = tf_weight(tfs), idf * idf
            entry = (np.searchsorted(self.ids, docs), sqrt_tf, idf2,
                     sqrt_tf * idf2)
        self.terms[term] = entry
        return entry


def score_matrix(index, queries) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
    """Every query's score for every doc of ``index``: the one scorer.

    Returns ``(ids, scores, matched)``: the index's doc ids ascending,
    shape ``(n,)``; and per query (row) the docs' length-normalised
    scores and whether any query term matched them, shape
    ``(len(queries), n)``.  A doc no term matches scores 0.0.

    All queries' postings go through one ``bincount`` over folded
    ``query * n + slot`` keys, concatenated query-major in first-seen
    term order: each doc's score is accumulated in query-term order, as
    :func:`score_query_scalar` adds it, and divided once by the same
    ``sqrt(doc length)`` — the scores are bit-identical to the oracle's.
    """
    view = index.derived(_ScoringView)
    n, n_q = view.ids.size, len(queries)
    # Seeded empty, so a batch no term of which scores needs no branch.
    keys, contribs = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for q, terms in enumerate(queries):
        for term, q_tf in _term_counts(terms).items():
            entry = view.term(index, term)
            if entry is None:
                continue
            slots, sqrt_tf, idf2, once = entry
            keys.append(slots + q * n if q else slots)
            # (q_tf * sqrt_tf) * idf2, the oracle's association: the
            # cached product equals it only for q_tf == 1.
            contribs.append(once if q_tf == 1 else q_tf * sqrt_tf * idf2)
    key = np.concatenate(keys)
    totals = np.bincount(key, weights=np.concatenate(contribs),
                         minlength=n_q * n)
    matched = np.bincount(key, minlength=n_q * n) > 0
    return (view.ids, totals.reshape(n_q, n) / view.norms,
            matched.reshape(n_q, n))


def score_arrays(index, query_terms, doc_ids=None) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """``(doc_ids, scores)`` of the docs matching ``query_terms``, ids
    ascending: one row of :func:`score_matrix`, restricted to
    ``doc_ids`` if given (see :func:`score_query`)."""
    ids, scores, matched = score_matrix(index, [query_terms])
    keep = matched[0] & _allowed(ids, doc_ids)
    return ids[keep], scores[0, keep]


def score_query(index, query_terms, doc_ids=None) -> dict[int, float]:
    """Score documents of ``index`` against ``query_terms``.

    Parameters
    ----------
    index:
        An :class:`repro.search.index.InvertedIndex`.
    query_terms:
        Tokenised query (duplicates count: a repeated term doubles its
        contribution, matching a bag-of-words query model).
    doc_ids:
        Optional container restricting scoring to a subset of documents
        (AccuracyTrader refinement scores one ranked group at a time).

    Returns
    -------
    dict[int, float]
        doc id -> similarity score; only docs matching at least one query
        term (and inside ``doc_ids`` if given) appear.  A dict view of
        :func:`score_arrays`.
    """
    return _as_dict(*score_arrays(index, query_terms, doc_ids))


def score_query_scalar(index, query_terms, doc_ids=None) -> dict[int, float]:
    """Per-posting Python-loop reference for :func:`score_query` (oracle).

    Accumulates each doc's score with sequential dict additions in term
    order — exactly the order ``bincount`` uses per doc in the vectorized
    path, so both return bit-identical scores.
    """
    n = index.n_docs
    restrict = None if doc_ids is None else set(int(d) for d in doc_ids)
    scores: dict[int, float] = {}
    for term, q_tf in _term_counts(query_terms).items():
        docs, tfs = index.postings(term)
        if docs.size == 0:
            continue
        idf = idf_weight(n, docs.size)
        if idf == 0.0:
            continue
        contrib = q_tf * tf_weight(tfs) * (idf * idf)
        for d, c in zip(docs.tolist(), contrib.tolist()):
            if restrict is not None and d not in restrict:
                continue
            scores[d] = scores.get(d, 0.0) + c
    # Length normalisation, applied once per matched doc.
    for d in scores:
        ln = index.doc_length(d)
        if ln > 0:
            scores[d] /= float(np.sqrt(ln))
    return scores


def score_queries(index, queries, doc_ids=None) -> list[dict[int, float]]:
    """Batched :func:`score_query`: score several queries in one pass.

    Dict views of :func:`score_matrix`'s rows, bit-identical to
    individual ``score_query`` calls.  ``doc_ids`` (if given) restricts
    every query alike.
    """
    ids, scores, matched = score_matrix(index, list(queries))
    keep = matched & _allowed(ids, doc_ids)
    return [_as_dict(ids[row], scores[q, row])
            for q, row in enumerate(keep)]


def _as_dict(doc_ids: np.ndarray, scores: np.ndarray) -> dict[int, float]:
    return dict(zip(doc_ids.tolist(), scores.tolist()))


def _term_counts(query_terms) -> dict[str, int]:
    """Query term -> multiplicity, in first-seen order."""
    counts: dict[str, int] = {}
    for t in query_terms:
        counts[t] = counts.get(t, 0) + 1
    return counts


def _allowed(ids: np.ndarray, doc_ids) -> np.ndarray | bool:
    """Which of ``ids`` are in ``doc_ids`` (None means all of them)."""
    if doc_ids is None:
        return True
    if not isinstance(doc_ids, np.ndarray):
        doc_ids = np.fromiter((int(d) for d in doc_ids), dtype=np.int64)
    return np.isin(ids, doc_ids.astype(np.int64, copy=False))


class GroupedPostings:
    """One index's postings, segmented by synopsis group.

    Algorithm 1's second stage scores one ranked group of original pages
    at a time.  ``score_query(index, terms, doc_ids=members)`` answers
    that by building every query term's contributions over the *whole*
    index and discarding all but the group's; this view does the part
    that does not depend on the group once.  Per doc (at construction):
    its group, its position in the group-by-group member layout and its
    length norm.  Per term (on first use, cached like
    the index's own scoring view): the postings stably re-ordered by group
    with each group's span, their ``sqrt(tf)`` and the term's
    ``idf**2``.  Per request (:meth:`plan`): each query term's
    contribution array.  :meth:`score_groups` then scores any number of
    groups with one gather of their spans per query term and one
    ``bincount``; :meth:`score_group` is its one-group case.

    Scores are bit-identical to ``score_query``: a doc's contributions
    are accumulated by ``bincount`` in the same query-term order and
    normalised once by the same ``sqrt(doc length)``.

    ``groups`` are the synopsis index file's member arrays (sorted
    record ids, disjoint).  Postings of docs in no group are ignored,
    as ``doc_ids=members`` ignored them.  The view is stale once
    ``index.version`` moves past :attr:`version`.
    """

    def __init__(self, index, groups):
        self.index = index
        self.version = index.version
        sizes = np.array([g.size for g in groups], dtype=np.int64)
        members = (np.concatenate(groups).astype(np.int64, copy=False)
                   if groups else np.empty(0, dtype=np.int64))
        self._members = members
        self._norms = index.doc_norms(members)
        self._n_groups = len(groups)
        # Group of each member position, and position of each doc.
        self._group_at = np.repeat(np.arange(len(groups)), sizes)
        n = int(members.max()) + 1 if members.size else 0
        self._group_of = np.full(n, -1, dtype=np.int64)
        self._group_of[members] = self._group_at
        self._pos = np.zeros(n, dtype=np.int64)
        self._pos[members] = np.arange(members.size)
        # term -> (idf**2, sqrt_tf, pos, bounds) or None; group g's
        # postings are bounds[g]:bounds[g + 1].  Filled without a lock:
        # racing builders store equal entries.
        self._terms: dict[str, tuple | None] = {}

    def _term(self, term: str):
        try:
            return self._terms[term]
        except KeyError:
            pass
        docs, tfs = self.index.postings(term)
        entry = None
        idf = idf_weight(self.index.n_docs, docs.size) if docs.size else 0.0
        if idf != 0.0:
            sqrt_tf = tf_weight(tfs)
            grouped = np.flatnonzero((docs >= 0) & (docs < self._group_of.size))
            group = self._group_of[docs[grouped]]
            grouped, group = grouped[group >= 0], group[group >= 0]
            by_group = np.argsort(group, kind="stable")
            order = grouped[by_group]
            bounds = np.searchsorted(group[by_group],
                                     np.arange(self._n_groups + 1))
            entry = (idf * idf, sqrt_tf[order], self._pos[docs[order]],
                     bounds)
        self._terms[term] = entry
        return entry

    def plan(self, query_terms) -> list:
        """The group-independent half of scoring one query.

        One ``(contributions, positions, bounds)`` triple per query term
        that can score at all (present, ``idf > 0``), in first-seen term
        order — the order ``score_query`` concatenates terms in.
        """
        plan = []
        for term, q_tf in _term_counts(query_terms).items():
            entry = self._term(term)
            if entry is not None:
                idf2, sqrt_tf, pos, bounds = entry
                plan.append((q_tf * sqrt_tf * idf2, pos, bounds))
        return plan

    def score_groups(self, plan, group_ids):
        """``(doc_ids, scores, groups)`` of several groups' matching docs.

        Each query term's spans of all the groups are gathered in plan
        order and summed by one ``bincount``: a doc belongs to one
        group, so its contributions still accumulate in query-term
        order.  Docs come group by group in layout order, ids ascending
        within a group; ``groups[i]`` is the group of ``doc_ids[i]``.
        """
        group_ids = np.asarray(group_ids, dtype=np.int64)
        positions, contribs = [], []
        for contrib, pos, bounds in plan:
            lo = bounds[group_ids]
            idx = span_indices(lo, bounds[group_ids + 1] - lo)
            if idx.size:
                positions.append(pos[idx])
                contribs.append(contrib[idx])
        if not positions:
            return (np.empty(0, dtype=np.int64), np.empty(0),
                    np.empty(0, dtype=np.int64))
        pos = positions[0] if len(positions) == 1 else np.concatenate(
            positions)
        contrib = contribs[0] if len(contribs) == 1 else np.concatenate(
            contribs)
        n = self._members.size
        totals = np.bincount(pos, weights=contrib, minlength=n)
        matched = np.bincount(pos, minlength=n).nonzero()[0]
        return (self._members[matched], totals[matched] / self._norms[matched],
                self._group_at[matched])

    def score_group(self, plan, group_id: int):
        """``(doc_ids, scores)`` of group ``group_id``'s matching docs:
        the one-group case of :meth:`score_groups`.

        Doc ids ascend; equal to the items of
        ``score_query(index, terms, doc_ids=groups[group_id])`` for the
        ``terms`` the plan was made from.
        """
        doc_ids, scores, _ = self.score_groups(plan, [group_id])
        return doc_ids, scores
