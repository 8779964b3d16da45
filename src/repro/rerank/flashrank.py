"""Flashrank-style lightweight CPU reranker."""

from __future__ import annotations

from repro.documents import Document
from repro.rerank.base import Reranker
from repro.rerank.features import DocFeatureTable, feature_table
from repro.rerank.scoring import InteractionScorer


class FlashrankLiteReranker(Reranker):
    """Fast lexical cross-scorer (no proximity matrix).

    Mirrors the paper's Flashrank pick: "lightweight models running on
    the CPU" that reach accuracy similar to the GPU reranker at a
    fraction of the cost.  ``corpus`` is the chunk list or, when serving,
    the artifact's prebuilt :class:`~repro.rerank.features.DocFeatureTable`.
    ``simulate_latency`` spends a small CPU cross-encoder's per-pair
    inference cost on each rerank (see :class:`~repro.rerank.base.Reranker`).
    """

    name = "flashrank-lite"
    iterations_per_pair = 2000

    def __init__(
        self,
        corpus: list[Document] | DocFeatureTable | None = None,
        *,
        simulate_latency: bool = False,
    ) -> None:
        self.simulate_latency = simulate_latency
        self._scorer = InteractionScorer(
            features=feature_table(corpus),
            w_coverage=1.2,
            w_identifier=0.5,
            w_bigram=0.5,
            w_proximity=0.0,
            w_focus=0.12,
        )

    def score_pairs(self, query: str, texts: list[str]) -> list[float]:
        return self._scorer.score_batch(query, texts).tolist()
