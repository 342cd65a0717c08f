"""Search stage 1 and ``finalize`` on arrays vs the materialised oracles.

Stage 1 is one dense ``bincount`` over the synopsis index
(:func:`repro.search.scoring.score_matrix`), and the run's estimates are
the resulting correlations plus ``matched`` / ``pending`` masks
(:class:`repro.core.adapters.EstimatedHits`).  Pinned here, bit for bit:

- the correlations and the matched set equal the synopsis index's own
  search (``SearchComponent.search`` and ``score_query_scalar``);
- ``initial_result`` is ``initial_result_batch(s, [r])[0]``, and a batch
  equals its single-request calls;
- ``finalize`` after refining the top ``d`` ranked groups, for every
  ``d``, equals the padding rule applied to fully materialised member
  hits with ``merge_topk``;

over empty queries, duplicate and absent terms, terms whose ``idf`` is
0, empty groups and ``k`` beyond the number of matches.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adapters import SearchAdapter, SearchQuery
from repro.core.processor import refine_to_depth
from repro.search import scoring
from repro.search.engine import SearchComponent, SearchHit, merge_topk
from repro.search.partition import SearchPartition
from repro.search.scoring import score_matrix, score_query_scalar
from tests.core.test_refine_layout import draw_groups, synopsis_over

VOCAB = [f"t{i}" for i in range(6)]

docs_st = st.lists(st.lists(st.sampled_from(VOCAB), max_size=8),
                   min_size=1, max_size=12)
# Empty queries, duplicate terms and a term no page holds included.
terms_st = st.lists(st.sampled_from(VOCAB + ["zz"]), max_size=6)


def build(docs, n_groups, data):
    partition = SearchPartition()
    partition.add_pages(docs)
    adapter = SearchAdapter()
    # draw_groups leaves a group empty whenever no page draws it.
    synopsis = synopsis_over(adapter, partition,
                             draw_groups(data, len(docs), n_groups))
    return adapter, partition, synopsis


def hit_pairs(hits):
    return [(h.doc_id, h.score) for h in hits]


def stage1_key(initial):
    state, corr = initial
    estimated = state["estimated"]
    return (corr.tobytes(), estimated.matched.tobytes(),
            estimated.pending.tobytes(), list(estimated.keys()))


def oracle_finalize(partition, synopsis, terms, k, depth):
    """``finalize`` after refining the ``depth`` best groups, from the
    oracle scorer and per-member hit objects merged by ``merge_topk``."""
    index = synopsis.index
    group_scores = score_query_scalar(synopsis.payload.index, terms)
    corr = np.zeros(synopsis.n_aggregated)
    for g, score in group_scores.items():
        corr[g] = score
    ranked = np.argsort(-corr, kind="stable").tolist()
    done = ranked[:depth]
    refined = merge_topk(
        [[SearchHit.make(d, s) for d, s in score_query_scalar(
            partition.index, terms, doc_ids=index.members(g)).items()]
         for g in done], k)
    if len(refined) >= k:
        return refined
    pad = merge_topk(
        [[SearchHit.make(d, group_scores[g]) for d in index.members(g)]
         for g in ranked[depth:] if g in group_scores], k - len(refined))
    seen = {h.doc_id for h in refined}
    return refined + [h for h in pad if h.doc_id not in seen]


class TestStage1MatchesSynopsisSearch:
    @settings(max_examples=150, deadline=None)
    @given(docs=docs_st, terms=terms_st, n_groups=st.integers(1, 5),
           data=st.data())
    def test_correlations_and_matched_set(self, docs, terms, n_groups, data):
        adapter, _, synopsis = build(docs, n_groups, data)
        state, corr = adapter.initial_result(synopsis, SearchQuery(terms))
        hits = SearchComponent(synopsis.payload.index).search(terms)
        expect = np.zeros(n_groups)
        for h in hits:
            expect[h.doc_id] = h.score
        assert corr.tolist() == expect.tolist()
        estimated = state["estimated"]
        assert set(np.flatnonzero(estimated.matched).tolist()) == \
            {h.doc_id for h in hits}
        assert dict(zip(np.flatnonzero(estimated.matched).tolist(),
                        corr[estimated.matched].tolist())) == \
            score_query_scalar(synopsis.payload.index, terms)
        # Every group is pending; a matched group's entry is its members
        # at its score, an unmatched one's is empty.
        assert list(estimated) == list(range(n_groups))
        for g in range(n_groups):
            members, score = estimated[g]
            if estimated.matched[g]:
                assert members.tolist() == synopsis.index.members(g).tolist()
                assert score == corr[g]
            else:
                assert members.size == 0 and score == 0.0

    @settings(max_examples=100, deadline=None)
    @given(docs=docs_st, queries=st.lists(terms_st, min_size=1, max_size=4),
           n_groups=st.integers(1, 5), data=st.data())
    def test_single_request_is_a_batch_of_one(self, docs, queries, n_groups,
                                              data):
        adapter, _, synopsis = build(docs, n_groups, data)
        requests = [SearchQuery(terms) for terms in queries]
        batch = adapter.initial_result_batch(synopsis, requests)
        for request, batched in zip(requests, batch):
            single = adapter.initial_result(synopsis, request)
            assert stage1_key(single) == stage1_key(batched)
            assert stage1_key(single) == stage1_key(
                adapter.initial_result_batch(synopsis, [request])[0])

    def test_batch_states_are_independent(self, search_synopsis,
                                          search_query):
        synopsis, _ = search_synopsis
        adapter = SearchAdapter()
        (a, _), (b, _) = adapter.initial_result_batch(
            synopsis, [search_query, search_query])
        a["estimated"].pop(0)
        assert 0 not in a["estimated"] and 0 in b["estimated"]

    @settings(max_examples=100, deadline=None)
    @given(docs=docs_st, terms=terms_st, data=st.data())
    def test_idf_zero_terms_score_nothing(self, docs, terms, data):
        # A real index never floors a present term's idf at 0; force it
        # for the terms on every page, on both paths.
        idf = scoring.idf_weight

        def floored(n_docs, doc_freq):
            return 0.0 if doc_freq == n_docs else idf(n_docs, doc_freq)

        partition = SearchPartition()
        partition.add_pages(docs)
        index = partition.index
        with mock.patch.object(scoring, "idf_weight", floored):
            ids, scores, matched = score_matrix(index, [terms])
            got = dict(zip(ids[matched[0]].tolist(),
                           scores[0, matched[0]].tolist()))
            assert got == score_query_scalar(index, terms)


class TestColdCachesUnderThreads:
    def test_racing_first_queries_agree_with_sequential(self, small_corpus):
        # The scoring view, its term entries and the flat members layout
        # are built on first use with no lock; racing builders must
        # store equal values.
        import pickle
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.builder import SynopsisBuilder, SynopsisConfig

        adapter = SearchAdapter()
        synopsis, _ = SynopsisBuilder(adapter, SynopsisConfig(
            n_iters=10, target_ratio=12.0, seed=7)).build(
                small_corpus.partition)
        queries = [SearchQuery(small_corpus.topic_words(t % 8, n=3), k=10)
                   for t in range(24)]

        def answers(snapshot):
            return [hit_pairs(refine_to_depth(adapter, small_corpus.partition,
                                              snapshot, q, 2))
                    for q in queries]

        expect = answers(pickle.loads(pickle.dumps(synopsis)))
        cold = pickle.loads(pickle.dumps(synopsis))   # caches left out
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(answers, cold) for _ in range(8)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert got == [expect] * 8


class TestFinalizeMatchesMaterialisedPad:
    @settings(max_examples=150, deadline=None)
    @given(docs=docs_st, terms=terms_st, n_groups=st.integers(1, 5),
           k=st.integers(1, 15), data=st.data())
    def test_every_depth(self, docs, terms, n_groups, k, data):
        adapter, partition, synopsis = build(docs, n_groups, data)
        query = SearchQuery(terms, k=k)
        for depth in range(n_groups + 1):
            assert hit_pairs(refine_to_depth(
                adapter, partition, synopsis, query, depth)) == \
                hit_pairs(oracle_finalize(partition, synopsis, terms, k,
                                          depth))


class TestEstimatedHitsMapping:
    def test_pop_in_and_keys(self, small_corpus, search_synopsis,
                             search_query):
        synopsis, _ = search_synopsis
        adapter = SearchAdapter()
        state, corr = adapter.initial_result(synopsis, search_query)
        estimated = state["estimated"]
        g = int(np.argmax(corr))
        members, score = estimated.pop(g)
        assert members.tolist() == synopsis.index.members(g).tolist()
        assert score == corr[g]
        assert g not in estimated and estimated.pop(g, None) is None
        with pytest.raises(KeyError):
            estimated.pop(g)
        assert len(estimated) == synopsis.n_aggregated - 1
        assert set(estimated.keys()) == \
            set(range(synopsis.n_aggregated)) - {g}
        for outside in (-1, synopsis.n_aggregated, "0"):
            assert outside not in estimated
        state = adapter.refine(small_corpus.partition, synopsis, 0,
                               search_query, state)
        assert 0 not in estimated
