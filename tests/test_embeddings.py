"""Unit and property tests for the embedding models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import (
    EMBEDDING_MODEL_NAMES,
    HashingEmbedding,
    TfidfEmbedding,
    cosine_similarity_matrix,
    create_embedding_model,
    top_k_indices,
)
from repro.errors import EmbeddingError

CORPUS = [
    "GMRES is a Krylov method for nonsymmetric systems",
    "Conjugate gradient requires symmetric positive definite matrices",
    "Preallocation makes matrix assembly fast",
    "The Chebyshev iteration avoids global reductions",
]


class TestHashingEmbedding:
    def test_shape_and_dtype(self):
        emb = HashingEmbedding(dim=64)
        mat = emb.embed_documents(CORPUS)
        assert mat.shape == (4, 64)
        assert mat.dtype == np.float32

    def test_rows_normalized(self):
        emb = HashingEmbedding(dim=64)
        mat = emb.embed_documents(CORPUS)
        norms = np.linalg.norm(mat, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_deterministic(self):
        a = HashingEmbedding(dim=64).embed_documents(CORPUS)
        b = HashingEmbedding(dim=64).embed_documents(CORPUS)
        assert np.array_equal(a, b)

    def test_query_matches_self(self):
        emb = HashingEmbedding(dim=256)
        docs = emb.embed_documents(CORPUS)
        q = emb.embed_query(CORPUS[0])
        sims = docs @ q
        assert int(np.argmax(sims)) == 0

    def test_empty_text_is_zero_vector(self):
        emb = HashingEmbedding(dim=64)
        mat = emb.embed_documents(["", "word"])
        assert np.allclose(mat[0], 0.0)

    def test_empty_list(self):
        emb = HashingEmbedding(dim=64)
        assert emb.embed_documents([]).shape == (0, 64)

    def test_invalid_inputs(self):
        emb = HashingEmbedding(dim=64)
        with pytest.raises(EmbeddingError):
            emb.embed_documents("not a list")  # type: ignore[arg-type]
        with pytest.raises(EmbeddingError):
            emb.embed_documents([1])  # type: ignore[list-item]

    def test_invalid_params(self):
        with pytest.raises(EmbeddingError):
            HashingEmbedding(dim=4)
        with pytest.raises(EmbeddingError):
            HashingEmbedding(ngram_max=0)

    @given(st.lists(st.text(max_size=80), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_norm_at_most_one(self, texts):
        emb = HashingEmbedding(dim=32)
        mat = emb.embed_documents(texts)
        norms = np.linalg.norm(mat, axis=1)
        assert np.all(norms <= 1.0 + 1e-5)


class TestTfidfEmbedding:
    def test_requires_fit(self):
        emb = TfidfEmbedding(dim=64)
        with pytest.raises(EmbeddingError):
            emb.embed_documents(["x"])

    def test_fit_and_embed(self):
        emb = TfidfEmbedding(dim=64).fit(CORPUS)
        assert emb.is_fitted
        assert emb.vocabulary_size() > 10
        mat = emb.embed_documents(CORPUS)
        assert mat.shape == (4, 64)

    def test_fit_empty_raises(self):
        with pytest.raises(EmbeddingError):
            TfidfEmbedding().fit([])

    def test_self_similarity_highest(self):
        emb = TfidfEmbedding(dim=256).fit(CORPUS)
        docs = emb.embed_documents(CORPUS)
        for i in range(len(CORPUS)):
            sims = docs @ emb.embed_query(CORPUS[i])
            assert int(np.argmax(sims)) == i

    def test_oov_only_query_is_zero(self):
        emb = TfidfEmbedding(dim=64).fit(CORPUS)
        q = emb.embed_query("zzz qqq www")
        assert np.allclose(q, 0.0)

    def test_deterministic_across_instances(self):
        a = TfidfEmbedding(dim=64).fit(CORPUS).embed_documents(CORPUS)
        b = TfidfEmbedding(dim=64).fit(CORPUS).embed_documents(CORPUS)
        assert np.array_equal(a, b)

    def test_only_queries_keep_projection_rows(self):
        emb = TfidfEmbedding(dim=64).fit(CORPUS)
        docs = emb.embed_documents(CORPUS)
        assert emb._rows == {}
        queries = np.stack([emb.embed_query(text) for text in CORPUS])
        assert 0 < len(emb._rows) <= emb.vocabulary_size()
        # Cached and regenerated rows are the same seeded Gaussians.
        assert np.array_equal(queries, docs)
        assert np.array_equal(emb.embed_documents(CORPUS), docs)


class TestRegistry:
    def test_names(self):
        assert "petsc-embed-large" in EMBEDDING_MODEL_NAMES

    def test_large_requires_corpus(self):
        with pytest.raises(EmbeddingError):
            create_embedding_model("petsc-embed-large")

    def test_small_and_mini(self):
        small = create_embedding_model("petsc-embed-small")
        mini = create_embedding_model("petsc-embed-mini")
        assert small.dim > mini.dim

    def test_unknown(self):
        with pytest.raises(EmbeddingError):
            create_embedding_model("nope")


class TestSimilarity:
    def test_cosine_self_is_one(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        sims = cosine_similarity_matrix(a, a)
        assert np.allclose(np.diag(sims), 1.0)

    def test_orthogonal_is_zero(self):
        a = np.array([[1.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0, 1.0]], dtype=np.float32)
        assert abs(cosine_similarity_matrix(a, b)[0, 0]) < 1e-6

    def test_dim_mismatch(self):
        with pytest.raises(EmbeddingError):
            cosine_similarity_matrix(np.ones((1, 2)), np.ones((1, 3)))

    def test_zero_vector_safe(self):
        a = np.zeros((1, 4), dtype=np.float32)
        sims = cosine_similarity_matrix(a, np.ones((1, 4), dtype=np.float32))
        assert np.isfinite(sims).all()

    def test_top_k_order(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert top_k_indices(scores, 2).tolist() == [1, 3]

    def test_top_k_exceeds_length(self):
        assert len(top_k_indices(np.array([1.0, 2.0]), 10)) == 2

    def test_top_k_zero(self):
        assert len(top_k_indices(np.array([1.0]), 0)) == 0

    def test_top_k_tie_break_deterministic(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert top_k_indices(scores, 2).tolist() == [0, 1]

    def test_top_k_rejects_2d(self):
        with pytest.raises(EmbeddingError):
            top_k_indices(np.ones((2, 2)), 1)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_top_k_returns_maxima(self, values, k):
        scores = np.array(values)
        idx = top_k_indices(scores, k)
        got = sorted(scores[idx].tolist(), reverse=True)
        want = sorted(values, reverse=True)[: len(idx)]
        assert got == want
