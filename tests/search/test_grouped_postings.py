"""Group-segmented scoring vs the whole-index oracle, bit for bit.

``GroupedPostings.score_group`` must return exactly the items of
``score_query(index, terms, doc_ids=members)`` — same docs, same floats —
for any corpus, any grouping and any query; ``hits_best_first`` must
order them exactly as sorting ``SearchHit`` objects does.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.search.engine import SearchComponent, SearchHit, hits_best_first
from repro.search.index import InvertedIndex
from repro.search.scoring import (GroupedPostings, score_queries, score_query,
                                  score_query_scalar)

VOCAB = [f"t{i}" for i in range(6)]

docs_st = st.lists(st.lists(st.sampled_from(VOCAB), max_size=8),
                   min_size=1, max_size=12)
# "zz" is in no document; repeats are allowed and count.
query_st = st.lists(st.sampled_from(VOCAB + ["zz"]), min_size=1, max_size=6)


def build_index(docs) -> InvertedIndex:
    index = InvertedIndex()
    for d, terms in enumerate(docs):
        index.add_document(d, terms)
    return index


def draw_groups(data, n_docs: int, n_groups: int) -> list[np.ndarray]:
    """A random partition of ``0..n_docs-1`` into ``n_groups`` groups
    (some of them possibly empty), members sorted."""
    owner = data.draw(st.lists(st.integers(0, n_groups - 1),
                               min_size=n_docs, max_size=n_docs))
    return [np.array([d for d in range(n_docs) if owner[d] == g],
                     dtype=np.int64) for g in range(n_groups)]


def assert_group_scores_equal_oracle(index, layout, groups, terms):
    plan = layout.plan(terms)
    for g, members in enumerate(groups):
        docs, scores = layout.score_group(plan, g)
        assert docs.tolist() == sorted(docs.tolist())
        got = dict(zip(docs.tolist(), scores.tolist()))
        assert got == score_query(index, terms, doc_ids=members)
        assert got == score_query_scalar(index, terms, doc_ids=members)


class TestGroupedPostings:
    @settings(max_examples=150, deadline=None)
    @given(docs=docs_st, terms=query_st, n_groups=st.integers(1, 5),
           data=st.data())
    def test_score_group_matches_score_query(self, docs, terms, n_groups,
                                             data):
        index = build_index(docs)
        groups = draw_groups(data, len(docs), n_groups)
        layout = GroupedPostings(index, groups)
        assert_group_scores_equal_oracle(index, layout, groups, terms)
        # Term entries are cached: a second query over the same layout
        # (sharing terms with the first) still matches.
        again = data.draw(query_st)
        assert_group_scores_equal_oracle(index, layout, groups, again)

    def test_named_edge_cases(self):
        # doc 2 is empty (zero length), "cat" repeats in the query,
        # "zz" is absent, group 1 is empty, group 3 holds only the
        # empty doc.
        index = build_index([["cat", "dog", "cat"], ["dog", "fish"], [],
                             ["cat"], ["whale", "whale", "cat"]])
        groups = [np.array([0, 4]), np.array([], dtype=np.int64),
                  np.array([1, 3]), np.array([2])]
        layout = GroupedPostings(index, groups)
        terms = ["cat", "zz", "cat", "dog"]
        assert_group_scores_equal_oracle(index, layout, groups, terms)
        plan = layout.plan(terms)
        assert layout.score_group(plan, 1)[0].size == 0
        assert layout.score_group(plan, 3)[0].size == 0
        assert layout.plan(["zz"]) == []

    def test_postings_outside_every_group_are_ignored(self):
        # Pages indexed after the synopsis was built belong to no group.
        index = build_index([["a", "b"], ["a"], ["b", "b"]])
        groups = [np.array([0]), np.array([1])]
        layout = GroupedPostings(index, groups)  # idf still counts doc 2
        assert_group_scores_equal_oracle(index, layout, groups, ["a", "b"])

    def test_reordered_postings_after_replace(self):
        # replace_document moves a doc to the end of its terms' postings
        # lists, so postings are not in doc-id order.
        index = build_index([["a", "b"], ["a", "c"], ["a", "b", "b"]])
        index.replace_document(0, ["a", "a", "c"])
        groups = [np.array([0, 2]), np.array([1])]
        layout = GroupedPostings(index, groups)
        assert_group_scores_equal_oracle(index, layout, groups,
                                         ["a", "b", "c"])

    def test_version_marks_a_mutated_index(self):
        index = build_index([["a"], ["a", "b"]])
        layout = GroupedPostings(index, [np.array([0, 1])])
        assert layout.version == index.version
        index.replace_document(1, ["b"])
        assert layout.version != index.version


class TestDocNorms:
    @settings(max_examples=60, deadline=None)
    @given(docs=docs_st)
    def test_matches_doc_length(self, docs):
        index = build_index(docs)
        ids = np.arange(len(docs) + 2)  # two unknown ids at the end
        expect = [np.sqrt(float(len(d))) if d else 1.0 for d in docs]
        assert index.doc_norms(ids).tolist() == expect + [1.0, 1.0]

    def test_rebuilt_after_mutation_and_not_pickled(self):
        import pickle

        index = build_index([["a"] * 4, ["b"]])
        assert index.doc_norms([0, 1]).tolist() == [2.0, 1.0]
        index.replace_document(1, ["b"] * 9)
        assert index.doc_norms([0, 1]).tolist() == [2.0, 3.0]
        index.remove_document(0)
        assert index.doc_norms([0, 1]).tolist() == [1.0, 3.0]
        # Derived per-process state stays out of a snapshot's bytes.
        assert set(index.__getstate__()) == \
            {"_postings", "_doc_len", "_doc_terms", "_cache"}
        clone = pickle.loads(pickle.dumps(index))
        assert clone.version == 0
        assert clone.doc_norms([1]).tolist() == [3.0]

    def test_sparse_doc_ids(self):
        index = InvertedIndex()
        index.add_document(1000, ["a"] * 4)
        index.add_document(7, ["a"])
        assert index.doc_norms([7, 8, 1000]).tolist() == [1.0, 1.0, 2.0]
        assert score_query(index, ["a"]) == score_query_scalar(index, ["a"])


class TestRestrictWithArrays:
    @settings(max_examples=60, deadline=None)
    @given(docs=docs_st, terms=query_st, data=st.data())
    def test_ndarray_doc_ids_match_any_container(self, docs, terms, data):
        index = build_index(docs)
        subset = data.draw(st.lists(st.integers(0, len(docs) + 1),
                                    max_size=len(docs)))
        as_array = np.asarray(subset, dtype=np.int64)
        expect = score_query_scalar(index, terms, doc_ids=subset)
        assert score_query(index, terms, doc_ids=as_array) == expect
        assert score_query(index, terms, doc_ids=set(subset)) == expect
        assert score_queries(index, [terms, terms[:1]],
                             doc_ids=as_array)[0] == expect


class TestHitsBestFirst:
    @settings(max_examples=100, deadline=None)
    @given(pairs=st.dictionaries(
        st.integers(0, 50),
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]), max_size=20),
        k=st.one_of(st.none(), st.integers(0, 25)))
    def test_same_order_as_sorting_hits(self, pairs, k):
        ids = np.fromiter(pairs, dtype=np.int64, count=len(pairs))
        scores = np.fromiter(pairs.values(), dtype=float, count=len(pairs))
        expect = sorted(SearchHit.make(d, s) for d, s in pairs.items())
        assert hits_best_first(ids, scores, k) == \
            (expect if k is None else expect[:k])

    @settings(max_examples=60, deadline=None)
    @given(docs=docs_st, terms=query_st, k=st.one_of(st.none(),
                                                     st.integers(0, 6)))
    def test_component_search_order(self, docs, terms, k):
        comp = SearchComponent(build_index(docs))
        expect = sorted(SearchHit.make(d, s) for d, s in
                        score_query_scalar(comp.index, terms).items())
        assert comp.search(terms, k=k) == \
            (expect if k is None else expect[:k])
