"""Tests for the inverted index."""

import numpy as np
import pytest

from repro.search.index import InvertedIndex


def small_index():
    idx = InvertedIndex()
    idx.add_document(0, ["apple", "banana", "apple"])
    idx.add_document(1, ["banana", "cherry"])
    idx.add_document(2, ["durian"])
    return idx


class TestAdd:
    def test_counts(self):
        idx = small_index()
        assert idx.n_docs == 3
        assert idx.n_terms == 4
        assert idx.doc_length(0) == 3
        assert idx.term_frequency("apple", 0) == 2

    def test_duplicate_doc_id_rejected(self):
        idx = small_index()
        with pytest.raises(KeyError):
            idx.add_document(0, ["x"])

    def test_empty_document(self):
        idx = InvertedIndex()
        idx.add_document(0, [])
        assert idx.doc_length(0) == 0
        assert idx.n_docs == 1

    def test_add_document_counts(self):
        idx = InvertedIndex()
        idx.add_document_counts(5, {"a": 3, "b": 1, "zero": 0})
        assert idx.doc_length(5) == 4
        assert idx.term_frequency("a", 5) == 3
        assert idx.doc_frequency("zero") == 0  # zero counts dropped

    def test_add_counts_duplicate_rejected(self):
        idx = small_index()
        with pytest.raises(KeyError):
            idx.add_document_counts(1, {"x": 1})


class TestPostings:
    def test_postings_content(self):
        idx = small_index()
        docs, tfs = idx.postings("banana")
        assert set(docs.tolist()) == {0, 1}
        assert tfs[docs.tolist().index(0)] == 1

    def test_missing_term_empty(self):
        docs, tfs = small_index().postings("nope")
        assert docs.size == 0 and tfs.size == 0

    def test_doc_frequency(self):
        idx = small_index()
        assert idx.doc_frequency("banana") == 2
        assert idx.doc_frequency("durian") == 1
        assert idx.doc_frequency("nope") == 0

    def test_postings_cache_invalidated_on_mutation(self):
        idx = small_index()
        docs1, _ = idx.postings("banana")
        idx.add_document(3, ["banana"])
        docs2, _ = idx.postings("banana")
        assert docs2.size == docs1.size + 1


class TestPickling:
    def test_bytes_do_not_depend_on_queries(self):
        import pickle

        from repro.search.scoring import score_matrix, score_query

        idx = small_index()
        before = pickle.dumps(idx)
        idx.postings("banana")
        idx.postings("apple")
        idx.doc_norms([0, 1])
        score_matrix(idx, [["apple", "cherry"], ["durian"]])
        assert pickle.dumps(idx) == before
        clone = pickle.loads(before)
        assert score_query(clone, ["banana"]) == score_query(idx, ["banana"])


class TestRemoveReplace:
    def test_remove(self):
        idx = small_index()
        idx.remove_document(1)
        assert idx.n_docs == 2
        assert idx.doc_frequency("cherry") == 0
        assert idx.doc_frequency("banana") == 1

    def test_remove_missing(self):
        with pytest.raises(KeyError):
            small_index().remove_document(42)

    def test_replace(self):
        idx = small_index()
        idx.replace_document(0, ["elderberry"])
        assert idx.doc_frequency("apple") == 0
        assert idx.doc_frequency("elderberry") == 1
        assert idx.doc_length(0) == 1

    def test_vocabulary_sorted(self):
        idx = small_index()
        vocab = idx.vocabulary()
        assert vocab == sorted(vocab)

    def test_doc_ids(self):
        assert small_index().doc_ids() == [0, 1, 2]
