"""Corpus-fitted TF-IDF embeddings with random projection (the "large" model)."""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.embeddings.base import EmbeddingModel
from repro.errors import EmbeddingError
from repro.utils.rng import derive_seed
from repro.utils.textproc import tokenize, word_ngrams


class TfidfEmbedding(EmbeddingModel):
    """TF-IDF vectors projected to a dense space with a fixed Gaussian map.

    Fitting builds the vocabulary and inverse document frequencies from a
    corpus; embedding computes the sparse TF-IDF vector and multiplies by
    a deterministic (seeded) Gaussian projection matrix.  By the
    Johnson-Lindenstrauss lemma the projection approximately preserves
    cosine similarities, so this behaves like a strong lexical embedding
    model, clearly better than low-dimensional feature hashing.

    The projection matrix is materialized lazily one vocabulary row at a
    time (each row is a seeded Gaussian).  Only single-text batches —
    queries — keep their rows: a multi-text batch (an index build)
    touches nearly the whole vocabulary once, so it shares rows across
    its texts and then drops them.  The fitted model thus holds a row
    per *queried* term, not one per vocabulary term (6 KB each, about
    40 MB for the default corpus).
    """

    def __init__(self, *, dim: int = 1536, ngram_max: int = 2, name: str | None = None) -> None:
        if dim < 8:
            raise EmbeddingError(f"dim must be >= 8, got {dim}")
        self.dim = dim
        self.ngram_max = ngram_max
        self.name = name or f"tfidf-{dim}-n{ngram_max}"
        self._idf: dict[str, float] = {}
        self._rows: dict[str, np.ndarray] = {}
        self._fitted = False

    # ----------------------------------------------------------------- fitting
    def fit(self, corpus_texts: list[str]) -> "TfidfEmbedding":
        """Learn vocabulary and IDF weights from ``corpus_texts``."""
        if not corpus_texts:
            raise EmbeddingError("cannot fit TF-IDF on an empty corpus")
        df: Counter[str] = Counter()
        for text in corpus_texts:
            df.update(set(self._terms(text)))
        n_docs = len(corpus_texts)
        # Smoothed IDF, matching scikit-learn's default formulation.
        self._idf = {t: float(np.log((1 + n_docs) / (1 + c)) + 1.0) for t, c in df.items()}
        self._fitted = True
        return self

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def vocabulary_size(self) -> int:
        return len(self._idf)

    # ----------------------------------------------------------------- embedding
    def _terms(self, text: str) -> list[str]:
        tokens = tokenize(text)
        terms = list(tokens)
        for n in range(2, self.ngram_max + 1):
            terms.extend(" ".join(g) for g in word_ngrams(tokens, n))
        return terms

    def _projection_row(self, term: str, rows: dict[str, np.ndarray]) -> np.ndarray:
        row = rows.get(term)
        if row is None:
            rng = np.random.default_rng(derive_seed("tfidf-proj", self.dim, term))
            row = rng.standard_normal(self.dim).astype(np.float32)
            rows[term] = row
        return row

    def _embed_batch(self, texts: list[str]) -> np.ndarray:
        if not self._fitted:
            raise EmbeddingError(f"{self.name} must be fit() before embedding")
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        rows = self._rows if len(texts) == 1 else {}
        # Out-of-vocabulary terms are dropped: they cannot match any
        # document, and giving them weight only injects projection noise
        # into the query vector.
        for row_i, text in enumerate(texts):
            counts = Counter(self._terms(text))
            terms = [t for t in counts if t in self._idf]
            if not terms:
                continue
            weights = np.array(
                [(1.0 + np.log(counts[t])) * self._idf[t] for t in terms],
                dtype=np.float32,
            )
            # Stack the needed projection rows once, then one GEMV.
            proj = np.stack([self._projection_row(t, rows) for t in terms])
            out[row_i] = weights @ proj
        return out
