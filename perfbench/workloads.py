"""The three workloads and the layer map the traced run wraps.

Every workload drives the program only through its public entry points
(``open_workflow(...).ask``, ``ReproService.answer_many``,
``ingest_corpus``) with the simulated per-token burn switched off
(``iterations_per_token=0``), so no number below includes it.

A workload object goes through ``setup`` (timed, several times),
``warmup`` (untimed), repeated ``step`` calls (the timed phase), then
``finish`` (untimed checks).  One ``step`` is one *op*: an ask on
``cold_qa``, one batch on ``hot_batch``, one write-then-read cycle on
``ingest_mix``.  Every request in an op is timed through the workload's
``clock`` (see :mod:`calibrate`), so every time a workload keeps is
already scaled to the reference machine; an op's time is the sum of its
requests' times.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

from calibrate import Calibration
from inputs import edit_schedule, permutation_stream, question_variants, zipf_batches
from spans import Recorder

from repro.api import open_engine, open_workflow
from repro.config import ReproConfig, RetrievalConfig
from repro.corpus.builder import CorpusBundle, build_default_corpus
from repro.documents import Document
from repro.evaluation.benchmark import krylov_benchmark
from repro.evaluation.grader import BlindGrader
from repro.index import clear_index_cache, get_or_build_index
from repro.ingest import lifecycle
from repro.observability import MetricsRegistry
from repro.retrieval.keyword import ManualPageKeywordSearch

MODE = "rag+rerank"
#: ``hot_batch`` batch size and pool width (the pool matches the two
#: cores the benchmark was sized on).
BATCH_SIZE = 64
BATCH_WORKERS = 2
#: Five reads per write: the first read after each swap, which rebuilds
#: the pipeline, is a fifth of all reads, so neither p90 nor p95 of
#: read latency falls on the edge between the two kinds of read.
READS_PER_CYCLE = 5
#: The reranker memoizes per-chunk features per instance, so the first
#: few hundred cold questions run slower than the rest; time after it fills.
WARMUP_PASSES = 5
WARMUP_BATCHES = 50
WARMUP_CYCLES = 8
#: Back-to-back no-op re-ingests per side sample on the read-only workloads.
NOOP_BURST = 5
#: Answers digests and rubric means cover a fixed prefix of the timed
#: phase, so they depend on the seed alone, not on how fast the run was.
PREFIX_PASSES = 5
PREFIX_BATCHES = 100
PREFIX_CYCLES = 37
#: The corpus-fitted default embedding declines the delta lane and
#: rebuilds in full; the write workload uses the corpus-free model.
INGEST_EMBEDDING = "petsc-embed-small"


class WorkloadError(RuntimeError):
    """The run cannot produce its metrics (too short, missing output)."""


def config(embedding: str | None = None) -> ReproConfig:
    cfg = ReproConfig(iterations_per_token=0)
    if embedding is not None:
        cfg.retrieval = RetrievalConfig(embedding_model=embedding)
    return cfg


@contextmanager
def span(rec: Recorder | None, name: str):
    if rec is None:
        yield
        return
    rec.open(name)
    try:
        yield
    finally:
        rec.close()


def digest(rows: list[tuple]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    name = ""
    embedding: str | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.questions = krylov_benchmark()
        self.texts = [q.text for q in self.questions]
        self.cfg = config(self.embedding)
        #: Timed-phase tallies: requests attempted, requests failed, and
        #: the first few failure reasons.
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Problems found by the untimed end-of-run checks.
        self.problems: list[str] = []
        self.answer_ms: list[float] = []
        self.batch_ms: list[float] = []
        self.ingest_ms: list[float] = []
        self.op_ms: list[float] = []
        self.answered = 0
        #: Times every request; the runner gives each phase its own.
        self.clock = Calibration()

    # ------------------------------------------------------------ set-up
    def setup(self, rec: Recorder | None) -> None:
        """Build corpus, index, engine and pipeline from nothing."""
        clear_index_cache()
        with span(rec, "corpus.build"):
            self.bundle = build_default_corpus()
        with span(rec, "index.build"):
            get_or_build_index(self.bundle, self.cfg)
        self.workflow = open_workflow(self.cfg, bundle=self.bundle, mode=MODE)
        self.engine = self.workflow.engine
        self.service = self.workflow.service
        self.engine.pipeline(MODE)

    def reset(self) -> None:
        """Forget the warm-up's tallies before the timed phase."""
        for samples in (self.answer_ms, self.batch_ms, self.ingest_ms, self.op_ms):
            samples.clear()
        self.attempted = self.failed = self.answered = 0
        self.failures = []

    # ------------------------------------------------------------ checks
    def burn_free(self) -> bool:
        """Whether the serving model spends no per-token burn work."""
        return self.engine.pipeline(MODE).chat_model.latency.iterations_per_token == 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    @staticmethod
    def fault(result) -> str | None:
        """Why an answered request still counts as failed, if it does:
        no faults are injected, so any degradation rung is a failure."""
        if not result.answer.strip():
            return "empty answer"
        if result.degraded:
            return f"degraded {[str(e) for e in result.degraded]}"
        return None

    def ask(self, text: str):
        """One timed ``workflow.ask``; ``None`` when it failed."""
        self.attempted += 1
        try:
            out, ms = self.clock.call(self.workflow.ask, text)
        except Exception as exc:  # a request failure is counted, not fatal
            self.fail(f"{type(exc).__name__}: {exc}: {text!r}")
            return None
        self.answer_ms.append(ms)
        self.batch_ms.append(ms)
        reason = self.fault(out.result)
        if reason is not None:
            self.fail(f"{reason}: {text!r}")
            return None
        self.answered += 1
        return out

    def side(self) -> None:
        """Run between ops, timed apart from them: re-ingest the unchanged
        corpus, which must be a no-op that leaves the caches alone.  One
        sample is the mean of a short burst, so it does not hinge on how
        much of the cache the op before it happened to evict."""
        reports, ms = self.clock.call(self.noop_burst)
        for report in reports:
            if report.resolution != "noop":
                self.problems.append(f"unchanged corpus ingested as {report.resolution}")
        self.ingest_ms.append(ms / NOOP_BURST)

    def noop_burst(self) -> list:
        return [lifecycle.ingest_corpus(self.engine, self.bundle) for _ in range(NOOP_BURST)]

    def check_read_only(self) -> None:
        if self.engine.epoch != 0:
            self.problems.append(f"no-op ingests moved the epoch to {self.engine.epoch}")
        if not self.burn_free():
            self.problems.append("the serving pipeline burns tokens")

    def rubric_mean(self, graded: list[tuple[int, str]]) -> float:
        grader = BlindGrader(
            registry=self.bundle.registry,
            known_identifiers=ManualPageKeywordSearch(self.bundle).known_identifiers(),
        )
        scores = [int(grader.grade(self.questions[qi], a).score) for qi, a in graded]
        return sum(scores) / len(scores)


class ColdQA(Workload):
    """Closed loop, one caller, every question a never-seen variant."""

    name = "cold_qa"

    def setup(self, rec):
        super().setup(rec)
        self.stream = question_variants(self.texts, self.seed)
        self.prefix: list[tuple[int, str, str]] = []

    def warmup(self) -> None:
        for _ in range(WARMUP_PASSES * len(self.texts)):
            self.ask(next(self.stream)[1])
        self.problems.extend(self.failures)
        self.reset()

    def step(self, rec) -> None:
        qi, text = next(self.stream)
        first = len(self.answer_ms)
        with span(rec, "op"):
            out = self.ask(text)
        self.op_ms.extend(self.answer_ms[first:])
        if out is not None and len(self.prefix) < PREFIX_PASSES * len(self.texts):
            self.prefix.append((qi, text, out.answer))

    def finish(self) -> dict:
        if len(self.prefix) < PREFIX_PASSES * len(self.texts):
            raise WorkloadError(f"only {len(self.prefix)} answers; the digest needs "
                                f"{PREFIX_PASSES * len(self.texts)}")
        self.check_read_only()
        return {
            "digest": digest(self.prefix),
            "rubric": self.rubric_mean([(qi, a) for qi, _, a in self.prefix]),
        }


class HotBatch(Workload):
    """Batches of popular questions, all answered from the answer cache."""

    name = "hot_batch"

    def setup(self, rec):
        super().setup(rec)
        self.draws = zipf_batches(len(self.texts), self.seed, batch_size=BATCH_SIZE)
        self.batches = 0
        self.prefix: list[tuple[str, str]] = []

    def batch(self, indices: list[int]):
        return self.service.answer_many(
            [self.texts[i] for i in indices],
            mode=MODE,
            workers=BATCH_WORKERS,
            seed=self.batches,
        )

    def warmup(self) -> None:
        first = self.service.answer_many(
            self.texts, mode=MODE, workers=BATCH_WORKERS, seed=self.seed
        )
        self.warm: dict[str, str] = {}
        for it in first.items:
            reason = it.error if it.result is None else self.fault(it.result)
            if reason:
                self.problems.append(f"warm-up {reason}: {it.question!r}")
            else:
                self.warm[it.question] = it.result.answer
        for _ in range(WARMUP_BATCHES):
            self.batch(next(self.draws))
            self.batches += 1

    def step(self, rec) -> None:
        indices = next(self.draws)
        self.attempted += len(indices)
        try:
            with span(rec, "op"):
                result, ms = self.clock.call(self.batch, indices)
        except Exception as exc:  # a batch failure is counted, not fatal
            for _ in indices:
                self.fail(f"batch {type(exc).__name__}: {exc}")
            return
        self.op_ms.append(ms)
        self.batch_ms.append(ms)
        # Every question in a batch reaches its caller when the batch
        # returns, and every batch holds BATCH_SIZE questions, so the
        # per-question latency distribution is the per-batch one.
        self.answer_ms.append(ms)
        self.batches += 1
        for it in result.items:
            reason = it.error if it.result is None else self.fault(it.result)
            if reason is None and not (
                it.cached and it.result.answer == self.warm.get(it.question)
            ):
                reason = "not the cached warm-up answer"
            if reason:
                self.fail(f"{reason}: {it.question!r}")
                continue
            self.answered += 1
            if len(self.prefix) < PREFIX_BATCHES * BATCH_SIZE:
                self.prefix.append((it.question, it.result.answer))

    def finish(self) -> dict:
        if len(self.prefix) < PREFIX_BATCHES * BATCH_SIZE:
            raise WorkloadError(f"only {len(self.prefix)} answers; the digest needs "
                                f"{PREFIX_BATCHES * BATCH_SIZE}")
        self.check_read_only()
        return {
            "digest": digest(self.prefix),
            "rubric": self.rubric_mean(
                [(i, self.warm.get(t, "")) for i, t in enumerate(self.texts)]
            ),
        }


class IngestMix(Workload):
    """One caller alternating a one-document delta ingest with reads."""

    name = "ingest_mix"
    embedding = INGEST_EMBEDDING

    def setup(self, rec):
        super().setup(rec)
        self.docs = list(self.bundle.documents)
        self.pages = dict(self.bundle.manual_page_names)
        self.editable = [
            i for i, d in enumerate(self.docs) if d.metadata.get("doc_type") != "mail_thread"
        ]
        self.edits = edit_schedule(len(self.editable), self.seed)
        self.reads = permutation_stream(len(self.texts), self.seed)
        self.prefix: list[tuple] = []
        self.cycles = 0

    def revised(self) -> CorpusBundle:
        """The corpus after the next scheduled edit: the chosen document's
        original text plus the edit's note (earlier edits elsewhere stay)."""
        edit = next(self.edits)
        i = self.editable[edit.doc]
        old = self.bundle.documents[i]
        new = Document(text=f"{old.text}\n\n{edit.note}", metadata=dict(old.metadata))
        self.docs[i] = new
        if new.metadata.get("doc_type") == "manual_page":
            self.pages[str(new.metadata["title"])] = new
        return CorpusBundle(
            registry=self.bundle.registry,
            documents=list(self.docs),
            manual_page_names=dict(self.pages),
        )

    def cycle(self, rec, timed: bool) -> None:
        revised = self.revised()
        first_read = len(self.answer_ms)
        op_ms = 0.0
        with span(rec, "op"):
            self.attempted += 1
            try:
                report, ms = self.clock.call(lifecycle.ingest_corpus, self.engine, revised)
            except Exception as exc:  # an ingest failure is counted, not fatal
                self.fail(f"ingest {type(exc).__name__}: {exc}")
                report = None
            else:
                self.ingest_ms.append(ms)
                op_ms += ms
            if report is not None and report.resolution != "delta":
                self.fail(f"cycle {self.cycles} ingested as {report.resolution}")
            reads = []
            for _ in range(READS_PER_CYCLE):
                qi = next(self.reads)
                out = self.ask(self.texts[qi])
                reads.append((qi, out.answer if out is not None else ""))
        self.op_ms.append(op_ms + sum(self.answer_ms[first_read:]))
        self.final = revised
        if timed and len(self.prefix) < PREFIX_CYCLES:
            self.prefix.append((report.digest if report else "", reads))
        self.cycles += 1
        if not self.burn_free():
            self.problems.append(f"cycle {self.cycles}: the rebuilt pipeline burns tokens")

    def warmup(self) -> None:
        for _ in range(WARMUP_CYCLES):
            self.cycle(None, timed=False)
        self.problems.extend(self.failures)
        self.reset()

    def step(self, rec) -> None:
        self.cycle(rec, timed=True)

    def side(self) -> None:
        """Nothing: this workload's ingests are part of every op."""

    def finish(self) -> dict:
        if len(self.prefix) < PREFIX_CYCLES:
            raise WorkloadError(f"only {len(self.prefix)} cycles; the digest needs {PREFIX_CYCLES}")
        swapped = self.engine.answer_many(self.texts, mode=MODE, seed=0)
        clear_index_cache()
        scratch = open_engine(self.cfg, bundle=self.final, registry=MetricsRegistry())
        fresh = scratch.answer_many(self.texts, mode=MODE, seed=0)
        for a, b in zip(swapped.items, fresh.items):
            answer_a = a.result.answer if a.result is not None else a.error
            answer_b = b.result.answer if b.result is not None else b.error
            if answer_a != answer_b:
                self.problems.append(
                    f"delta-swapped answer differs from a from-scratch build: {a.question!r}"
                )
        reads = [r for _, cycle_reads in self.prefix for r in cycle_reads]
        return {
            "digest": digest(self.prefix),
            "rubric": self.rubric_mean(reads),
        }


WORKLOADS = {w.name: w for w in (ColdQA, HotBatch, IngestMix)}


def layer_targets() -> list[tuple[object, str, str, str | None]]:
    """``(owner, attribute, layer, only-within)`` for every wrapped call.

    A target with an only-within layer is traced only while a span of
    that layer is open on the same thread: fact scanning also runs at
    index build to tag chunks, which is index work, not synthesis.
    """
    import repro.index.builder as builder
    import repro.ingest.invalidation as invalidation
    import repro.ingest.lifecycle as lifecycle
    import repro.pipeline.rag as rag
    import repro.pipeline.workflow as workflow
    from repro.corpus.facts import FactRegistry
    from repro.engine.caches import CachedEmbedding
    from repro.engine.engine import QueryEngine
    from repro.history.store import InteractionStore
    from repro.llm.latency import LatencyEngine
    from repro.llm.relevance import RelevanceModel
    from repro.llm.simulated import SimulatedChatModel
    from repro.pipeline.rag import RAGPipeline
    from repro.prompts.templates import PromptTemplate
    from repro.rerank.base import Reranker
    from repro.rerank.flashrank import FlashrankLiteReranker
    from repro.retrieval.keyword import ManualPageKeywordSearch
    from repro.service.service import ReproService
    from repro.vectorstore.store import VectorStore

    return [
        (workflow.AugmentedWorkflow, "ask", "workflow", None),
        (workflow, "render_html", "postprocess.render", None),
        (workflow, "extract_code_blocks", "postprocess.render", None),
        (workflow, "check_code_block", "postprocess.render", None),
        (InteractionStore, "record_pipeline_result", "history.record", None),
        (ReproService, "answer", "service", None),
        (ReproService, "answer_many", "service", None),
        (RAGPipeline, "answer", "pipeline", None),
        (CachedEmbedding, "embed_query", "embeddings.embed_query", None),
        (VectorStore, "similarity_search_by_vector_with_score", "vectorstore.topk", None),
        (ManualPageKeywordSearch, "retrieve", "retrieval.keyword", None),
        (Reranker, "rerank", "rerank.rerank", None),
        (FlashrankLiteReranker, "__init__", "rerank.build", None),
        (rag, "format_context", "prompts.format", None),
        (PromptTemplate, "format", "prompts.format", None),
        (SimulatedChatModel, "complete", "llm.complete", None),
        (FactRegistry, "facts_in", "llm.facts_in", "llm.complete"),
        (RelevanceModel, "select", "llm.relevance", "llm.complete"),
        (LatencyEngine, "burn", "llm.burn", None),
        (lifecycle, "ingest_corpus", "ingest.resolve", None),
        (builder, "get_or_build_index", "ingest.build", None),
        (lifecycle, "diff_chunks", "ingest.diff", None),
        (QueryEngine, "swap_artifact", "ingest.swap", None),
        (invalidation, "invalidate_engine_caches", "ingest.invalidate", None),
    ]
