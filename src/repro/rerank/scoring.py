"""Token-interaction relevance scoring shared by the rerankers.

A cross-encoder sees query and document *together*, so it can reward
exact phrase matches, rare-term coverage, and term proximity — signals a
bi-encoder (separate embeddings) necessarily blurs.  The scorer here
implements those signals explicitly:

``coverage``   IDF-weighted fraction of query terms present in the doc,
               computed over *stemmed* tokens and expanded through a
               small domain concept lexicon (a trained reranker knows
               that "measure where the time goes" is profiling)
``identifier`` exact case-sensitive match of PETSc identifiers
``bigram``     query bigrams appearing verbatim in the doc
``proximity``  smallest document window containing the matched terms
``focus``      mild penalty for very long chunks (dilute content)
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.documents import Document
from repro.rerank.features import DocFeatures, DocFeatureTable, concept_id
from repro.utils.textproc import (
    code_tokens,
    stem,
    stemmed_tokens,
    tokenize_with_stopwords,
    word_ngrams,
)


def build_idf(documents: list[Document]) -> dict[str, float]:
    """Smoothed IDF over a document collection (stem space).

    The from-scratch form of ``DocFeatureTable.idf``, which counts the
    same term sets from the table instead of stemming again.
    """
    df: Counter[str] = Counter()
    for doc in documents:
        df.update(set(stemmed_tokens(doc.text)))
    n = max(len(documents), 1)
    return {t: math.log((1 + n) / (1 + c)) + 1.0 for t, c in df.items()}


@dataclass(frozen=True, slots=True)
class _QueryFeatures:
    """The query side of every feature, computed once per batch."""

    terms: frozenset[str]
    #: ``(term, idf weight, concept id)`` in sorted term order.
    coverage: tuple[tuple[str, float, int | None], ...]
    coverage_total: float
    idents: tuple[str, ...]
    #: Distinct query bigrams as ``" a b "`` needles for ``DocFeatures.tokens``.
    bigrams: tuple[str, ...]


class InteractionScorer:
    """Computes the weighted sum of the interaction features.

    Parameters are feature weights; the two rerankers instantiate this
    with different weights (and the NVIDIA simulation adds the expensive
    proximity feature).  Document features and the IDF come from
    ``features``, the serving artifact's table; a text outside the table
    is computed on the spot.
    """

    def __init__(
        self,
        *,
        features: DocFeatureTable | None = None,
        w_coverage: float = 1.0,
        w_identifier: float = 0.8,
        w_bigram: float = 0.5,
        w_proximity: float = 0.0,
        w_focus: float = 0.15,
        focus_chars: int = 900,
    ) -> None:
        self.features = features if features is not None else DocFeatureTable()
        self.idf = self.features.idf
        self.default_idf = max(self.idf.values()) if self.idf else 1.0
        self.w_coverage = w_coverage
        self.w_identifier = w_identifier
        self.w_bigram = w_bigram
        self.w_proximity = w_proximity
        self.w_focus = w_focus
        self.focus_chars = focus_chars

    # ------------------------------------------------------------------ features
    def _query(self, query: str) -> _QueryFeatures:
        terms = frozenset(stemmed_tokens(query))
        # Sum in sorted order: float addition is non-associative, and set
        # iteration order varies with the process hash seed.
        coverage = []
        total = 0.0
        for t in sorted(terms):
            w = self.idf.get(t, self.default_idf)
            total += w
            coverage.append((t, w, concept_id(t)))
        kept = [stem(t) for t in tokenize_with_stopwords(query)]
        return _QueryFeatures(
            terms=terms,
            coverage=tuple(coverage),
            coverage_total=total,
            idents=tuple(dict.fromkeys(code_tokens(query))),
            bigrams=tuple(dict.fromkeys(f" {a} {b} " for a, b in word_ngrams(kept, 2))),
        )

    @staticmethod
    def _coverage(q: _QueryFeatures, d: DocFeatures) -> float:
        if not q.coverage:
            return 0.0
        hit = 0.0
        for t, w, gid in q.coverage:
            if t in d.terms:
                hit += w
            elif gid is not None and gid in d.concepts:
                hit += 0.7 * w  # synonym match: strong but below exact
        if q.coverage_total <= 0:
            return 0.0
        # Saturating matched-mass factor: a tiny page matching three weak
        # terms must not outscore a substantive section matching eight.
        mass = hit / (hit + 6.0)
        return (hit / q.coverage_total) * (0.4 + 1.2 * mass)

    @staticmethod
    def _identifier(q: _QueryFeatures, text: str) -> float:
        if not q.idents:
            return 0.0
        present = sum(1 for i in q.idents if i in text)
        return present / len(q.idents)

    @staticmethod
    def _bigram(q: _QueryFeatures, d: DocFeatures) -> float:
        if not q.bigrams:
            return 0.0
        return sum(1 for b in q.bigrams if b in d.tokens) / len(q.bigrams)

    @staticmethod
    def _proximity(q: _QueryFeatures, d: DocFeatures) -> float:
        """1 / window: the tightest document window covering the matched terms.

        This is the token-interaction-matrix part — O(|doc|) with a
        sliding window, the dominant cost of the heavy reranker.
        """
        targets = q.terms & d.terms
        if len(targets) < 2:
            return 1.0 if targets else 0.0
        d_tokens = d.stems.split()
        need = len(targets)
        have: Counter[str] = Counter()
        count = 0
        best = len(d_tokens) + 1
        left = 0
        for right, tok in enumerate(d_tokens):
            if tok in targets:
                have[tok] += 1
                if have[tok] == 1:
                    count += 1
            while count == need:
                best = min(best, right - left + 1)
                lt = d_tokens[left]
                if lt in targets:
                    have[lt] -= 1
                    if have[lt] == 0:
                        count -= 1
                left += 1
        if best > len(d_tokens):
            return 0.0
        return need / best  # dense co-occurrence → close to 1

    def _focus(self, text: str) -> float:
        if len(text) <= self.focus_chars:
            return 0.0
        return math.log(len(text) / self.focus_chars)

    # ------------------------------------------------------------------ scoring
    def _score(self, q: _QueryFeatures, text: str) -> float:
        d = self.features.get(text)
        s = self.w_coverage * self._coverage(q, d)
        s += self.w_identifier * self._identifier(q, text)
        s += self.w_bigram * self._bigram(q, d)
        if self.w_proximity:
            s += self.w_proximity * self._proximity(q, d)
        s -= self.w_focus * self._focus(text)
        return s

    def score(self, query: str, text: str) -> float:
        return self._score(self._query(query), text)

    def score_batch(self, query: str, texts: list[str]) -> np.ndarray:
        q = self._query(query)
        return np.array([self._score(q, t) for t in texts], dtype=np.float64)
