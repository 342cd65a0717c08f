"""Inverted index over a partition of web pages.

Maps term -> postings (doc id, term frequency).  Supports the operations
the paper's pipeline needs: build from tokenised docs, dynamic add /
replace of documents (for synopsis-updating experiments), document
frequency lookups for IDF, and per-document lengths for normalisation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Term -> postings-list index with document add/replace.

    Postings are kept as parallel Python lists during building and exposed
    as NumPy arrays on query (cached per term, invalidated on mutation):
    build cost stays linear while query-time scoring is vectorised.
    Every mutation also bumps :attr:`version`, which is how derived
    structures notice that they are stale: those :meth:`derived` keeps
    (the per-doc norm array, the scoring view of
    :mod:`repro.search.scoring`) and those held outside the index (the
    group-segmented postings).
    """

    def __init__(self) -> None:
        self._postings: dict[str, list[tuple[int, int]]] = {}
        self._doc_len: dict[int, int] = {}
        self._doc_terms: dict[int, dict[str, int]] = {}
        self._cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._version = 0
        self._derived: dict = {}   # build -> (version, value)

    def __getstate__(self):
        # The version counter, the postings cache and the derived
        # structures are per-process state: leaving them out (the cache
        # as an empty dict) keeps a snapshot's pickled bytes a function
        # of its contents alone, whatever was queried before.
        state = dict(self.__dict__)
        del state["_version"], state["_derived"]
        state["_cache"] = {}
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._version = 0
        self._derived = {}

    # ------------------------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self._doc_len)

    @property
    def n_terms(self) -> int:
        return len(self._postings)

    @property
    def version(self) -> int:
        """Mutation counter: changes whenever a document is added/removed."""
        return self._version

    def doc_ids(self) -> list[int]:
        return sorted(self._doc_len)

    def doc_length(self, doc_id: int) -> int:
        """Token count of a document (0 for unknown ids)."""
        return self._doc_len.get(doc_id, 0)

    def derived(self, build):
        """``build(self)``, kept until the next mutation.

        For structures derived from the whole index (the norm array
        here, the scoring view of :mod:`repro.search.scoring`): built on
        first use, rebuilt once :attr:`version` moves, per process and
        never pickled.  Racing builders store equal values.
        """
        cached = self._derived.get(build)
        if cached is None or cached[0] != self._version:
            cached = self._derived[build] = (self._version, build(self))
        return cached[1]

    def doc_norms(self, doc_ids) -> np.ndarray:
        """Length-normalisation divisor of each doc: ``sqrt(token count)``.

        1.0 for empty and unknown docs, so dividing by it leaves their
        score untouched.  Read from one sorted ``(ids, norms)`` array
        pair (:meth:`sorted_norms`).
        """
        ids, norms = self.sorted_norms()
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if ids.size == 0:
            return np.ones(doc_ids.size)
        pos = np.minimum(np.searchsorted(ids, doc_ids), ids.size - 1)
        return np.where(ids[pos] == doc_ids, norms[pos], 1.0)

    def sorted_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, norms)``: every doc id ascending, and its
        :meth:`doc_norms` divisor (read-only, rebuilt after a mutation)."""
        return self.derived(_sorted_norms)

    def doc_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def term_frequency(self, term: str, doc_id: int) -> int:
        return self._doc_terms.get(doc_id, {}).get(term, 0)

    def document_counts(self, doc_id: int) -> dict[str, int]:
        """``doc_id``'s term -> count bag, in stored (insertion) order.

        The exact dict :meth:`add_document_counts` indexed — re-indexing
        it into a fresh index reproduces this document bit-identically.
        """
        counts = self._doc_terms.get(int(doc_id))
        if counts is None:
            raise KeyError(f"document {doc_id} not indexed")
        return dict(counts)

    # ------------------------------------------------------------------

    def add_document(self, doc_id: int, terms) -> None:
        """Index a tokenised document under ``doc_id``.

        Raises
        ------
        KeyError
            If ``doc_id`` is already indexed (use :meth:`replace_document`).
        """
        doc_id = int(doc_id)
        if doc_id in self._doc_len:
            raise KeyError(f"document {doc_id} already indexed")
        counts: dict[str, int] = {}
        n = 0
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
            n += 1
        for t, c in counts.items():
            self._postings.setdefault(t, []).append((doc_id, c))
            self._cache.pop(t, None)
        self._doc_len[doc_id] = n
        self._doc_terms[doc_id] = counts
        self._version += 1

    def add_document_counts(self, doc_id: int, counts: dict[str, int]) -> None:
        """Index a document given term -> count directly (no token list).

        Used when assembling aggregated pages, whose "content" is already
        a merged term-count bag.
        """
        doc_id = int(doc_id)
        if doc_id in self._doc_len:
            raise KeyError(f"document {doc_id} already indexed")
        counts = {t: int(c) for t, c in counts.items() if c > 0}
        for t, c in counts.items():
            self._postings.setdefault(t, []).append((doc_id, c))
            self._cache.pop(t, None)
        self._doc_len[doc_id] = sum(counts.values())
        self._doc_terms[doc_id] = counts
        self._version += 1

    def remove_document(self, doc_id: int) -> None:
        doc_id = int(doc_id)
        counts = self._doc_terms.pop(doc_id, None)
        if counts is None:
            raise KeyError(f"document {doc_id} not indexed")
        del self._doc_len[doc_id]
        for t in counts:
            plist = self._postings[t]
            plist[:] = [(d, c) for d, c in plist if d != doc_id]
            if not plist:
                del self._postings[t]
            self._cache.pop(t, None)
        self._version += 1

    def replace_document(self, doc_id: int, terms) -> None:
        """Atomically re-index a document (changed web page)."""
        self.remove_document(doc_id)
        self.add_document(doc_id, terms)

    # ------------------------------------------------------------------

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, term_freqs) arrays for ``term`` (empty if absent)."""
        cached = self._cache.get(term)
        if cached is not None:
            return cached
        plist = self._postings.get(term)
        if not plist:
            empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            return empty
        docs = np.fromiter((d for d, _ in plist), dtype=np.int64, count=len(plist))
        tfs = np.fromiter((c for _, c in plist), dtype=np.int64, count=len(plist))
        self._cache[term] = (docs, tfs)
        return docs, tfs

    def vocabulary(self) -> list[str]:
        return sorted(self._postings)


def _sorted_norms(index: InvertedIndex) -> tuple[np.ndarray, np.ndarray]:
    n = index.n_docs
    ids = np.fromiter(index._doc_len, dtype=np.int64, count=n)
    lens = np.fromiter(index._doc_len.values(), dtype=float, count=n)
    order = np.argsort(ids)
    ids, lens = ids[order], lens[order]
    norms = np.where(lens > 0, np.sqrt(lens), 1.0)
    ids.flags.writeable = norms.flags.writeable = False
    return ids, norms
