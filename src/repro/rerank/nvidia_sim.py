"""Simulated GPU transformer reranker (the paper's NVIDIA option).

Uses the same interaction features as the lightweight reranker *plus*
the full proximity sweep, and processes pairs in fixed-size batches the
way a GPU encoder would.  The extra feature costs real compute, so the
latency benchmark reproduces the paper's finding: similar accuracy,
slower on CPU-only hosts.
"""

from __future__ import annotations

from repro.documents import Document
from repro.rerank.base import Reranker
from repro.rerank.features import DocFeatureTable, feature_table
from repro.rerank.scoring import InteractionScorer


class NvidiaSimReranker(Reranker):
    """``corpus`` and ``simulate_latency`` are as for
    :class:`~repro.rerank.flashrank.FlashrankLiteReranker`; the simulated
    per-pair cost is three times the CPU model's."""

    name = "nvidia-sim"
    iterations_per_pair = 6000

    def __init__(
        self,
        corpus: list[Document] | DocFeatureTable | None = None,
        *,
        batch_size: int = 8,
        simulate_latency: bool = False,
    ) -> None:
        self.simulate_latency = simulate_latency
        if batch_size < 1:
            batch_size = 1
        self.batch_size = batch_size
        self._scorer = InteractionScorer(
            features=feature_table(corpus),
            w_coverage=1.2,
            w_identifier=0.5,
            w_bigram=0.45,
            w_proximity=0.2,
            w_focus=0.12,
        )

    def score_pairs(self, query: str, texts: list[str]) -> list[float]:
        scores: list[float] = []
        for start in range(0, len(texts), self.batch_size):
            batch = texts[start : start + self.batch_size]
            scores.extend(self._scorer.score_batch(query, batch).tolist())
        return scores
