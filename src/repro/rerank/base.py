"""Reranker interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import RerankError
from repro.llm.latency import burn_scalar
from repro.retrieval.base import RetrievedDocument

if TYPE_CHECKING:
    from repro.context import RequestContext


@dataclass
class RerankResult:
    """A candidate with both its first-pass and rerank scores."""

    document: "RetrievedDocument"
    rerank_score: float

    @property
    def doc_id(self) -> str:
        return self.document.doc_id


class Reranker(ABC):
    """Re-scores retrieval candidates and keeps the best ``top_n``."""

    #: Identifier used in logs and the interaction-history database.
    name: str = "reranker"
    #: A cross-encoder's inference cost per scored (query, text) pair, in
    #: logistic-map iterations (see :mod:`repro.llm.latency`).  Spent by
    #: :meth:`rerank` only when ``simulate_latency`` is set, the way the
    #: simulated chat model spends its per-token cost.
    iterations_per_pair: int = 0
    simulate_latency: bool = False

    @abstractmethod
    def score_pairs(self, query: str, texts: list[str]) -> list[float]:
        """Relevance score for each (query, text) pair."""

    def rerank(
        self,
        query: str,
        candidates: list[RetrievedDocument],
        *,
        top_n: int = 4,
        min_score: float | None = None,
        ctx: "RequestContext | None" = None,
    ) -> list[RerankResult]:
        """Return the ``top_n`` candidates by rerank score, best first.

        ``min_score`` optionally drops candidates entirely (the paper
        notes reranking may remove "less relevant material completely").
        """
        if top_n <= 0:
            raise RerankError(f"top_n must be positive, got {top_n}")
        if not candidates:
            return []
        scores = self.score_pairs(query, [c.document.text for c in candidates])
        if len(scores) != len(candidates):
            raise RerankError(
                f"{self.name} returned {len(scores)} scores for {len(candidates)} candidates"
            )
        if self.simulate_latency:
            self._burn(len(candidates), ctx)
        ranked = sorted(
            (RerankResult(document=c, rerank_score=float(s)) for c, s in zip(candidates, scores)),
            key=lambda r: -r.rerank_score,
        )
        if min_score is not None:
            ranked = [r for r in ranked if r.rerank_score >= min_score]
        return ranked[:top_n]

    def _burn(self, n_pairs: int, ctx: "RequestContext | None") -> None:
        """Spend the simulated inference work for ``n_pairs`` pairs.

        Batched serving defers it to the batch's vectorized flush, as it
        does the chat model's token burn; it counts no tokens there.
        """
        iterations = self.iterations_per_pair * n_pairs
        collector = ctx.burn_collector if ctx is not None else None
        if collector is not None:
            collector.add(0, iterations)
        else:
            burn_scalar(iterations)
