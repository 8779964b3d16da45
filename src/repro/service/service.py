"""The service front door: every consumer's one way in.

:class:`ReproService` runs one straight-line request lifecycle
(:meth:`ReproService._run`).  ``answer()`` is a batch of one through the
same steps as ``answer_many()`` — there is no separate sequential code
path.  CLI commands, the chatbot, the email bot, the workflow,
evaluation, and the chaos/robustness sweeps all route here; the only
``pipeline.answer()`` call sites left in the library are the execute
helpers below.

A service is backed either by a :class:`~repro.engine.QueryEngine`
(shared artifact, answer/retrieval/embedding caches, admission,
engine metrics — the normal case) or by a bare
:class:`~repro.pipeline.rag.RAGPipeline` (baseline mode, or legacy
callers holding a pipeline).  The lifecycle is identical either way;
engine-backed steps simply skip when there is no engine, which is what
makes the two historical fallback branches in the bots and the
workflow collapse into one code path.

Everything digest-relevant below — metric names, span shapes, event
payloads, error strings, commit order — is frozen by
``tests/test_service.py``'s golden fixtures.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.admission import ADMIT, QUEUE, SHED, AdmissionDecision
from repro.context import RequestContext
from repro.engine.caches import CacheTransaction
from repro.errors import ConfigurationError, ReproError, ServiceConfigurationError
from repro.llm.latency import TokenBurnCollector
from repro.observability import Tracer, get_registry
from repro.observability.trace import Trace
from repro.pipeline.rag import PipelineResult
from repro.pipeline.types import PipelineMode
from repro.resilience.policy import Deadline
from repro.service.lifecycle import (
    BATCH,
    SINGLE,
    AnswerRequest,
    AnswerResponse,
    BatchResult,
    LifecycleState,
    question_digest,
)
from repro.utils.rng import derive_seed

if TYPE_CHECKING:
    from repro.admission import AdmissionController
    from repro.engine import QueryEngine
    from repro.observability import MetricsRegistry
    from repro.pipeline.rag import RAGPipeline


@dataclass
class _CachedAnswer:
    """The replayable slice of a pipeline result (no trace, no timings)."""

    answer: str
    model: str
    contexts: tuple
    candidates: tuple
    prompt: str
    completion: object
    attempts: int
    degraded: tuple
    coverage: float = 1.0

    @classmethod
    def from_result(cls, result: PipelineResult) -> "_CachedAnswer":
        return cls(
            answer=result.answer,
            model=result.model,
            contexts=tuple(result.contexts),
            candidates=tuple(result.candidates),
            prompt=result.prompt,
            completion=result.completion,
            attempts=result.attempts,
            degraded=tuple(result.degraded),
            coverage=result.coverage,
        )

    def replay(self, question: str, mode: PipelineMode) -> PipelineResult:
        """Materialize the cached answer: fresh root span, no llm child."""
        tracer = Tracer()
        with tracer.trace(
            "pipeline", mode=str(mode), model=self.model, cached=True
        ) as trace:
            tracer.event("cache:answer-hit")
        return PipelineResult(
            question=question,
            answer=self.answer,
            mode=mode,
            model=self.model,
            contexts=list(self.contexts),
            candidates=list(self.candidates),
            prompt=self.prompt,
            completion=self.completion,
            attempts=self.attempts,
            degraded=list(self.degraded),
            coverage=self.coverage,
            trace=trace,
        )


def _shed_response(req: AnswerRequest, decision: AdmissionDecision) -> AnswerResponse:
    """A rejected request's record: no work ran, but the rejection is
    traced so shed requests show up in span digests like any other."""
    tracer = Tracer()
    with tracer.trace("admission", outcome=SHED) as trace:
        tracer.event(
            "admission:shed",
            client=decision.client,
            retry_after=round(decision.retry_after, 6),
        )
    return AnswerResponse(
        index=req.index,
        question=req.question,
        result=None,
        error=(
            f"OverloadedError: shed by admission "
            f"(retry after {decision.retry_after:.3f}s)"
        ),
        shed=True,
        retry_after=decision.retry_after,
        trace=trace,
    )


def _guarded(call) -> tuple[PipelineResult | None, str]:
    """Run one batch job, recording a pipeline failure instead of raising."""
    try:
        return call(), ""
    except ReproError as exc:
        return None, f"{type(exc).__name__}: {exc}"


class ReproService:
    """One front door over one request lifecycle."""

    def __init__(
        self,
        *,
        engine: "QueryEngine | None" = None,
        pipeline: "RAGPipeline | None" = None,
        default_mode: str | PipelineMode | None = None,
    ) -> None:
        if (engine is None) == (pipeline is None):
            raise ServiceConfigurationError(
                "ReproService needs exactly one backend: engine= or pipeline="
            )
        self.engine = engine
        self._pipeline = pipeline
        if default_mode is not None:
            self.default_mode = PipelineMode.coerce(default_mode)
        elif engine is not None:
            self.default_mode = engine.default_mode
        else:
            self.default_mode = PipelineMode.coerce(pipeline.mode)

    @classmethod
    def for_pipeline(cls, pipeline: "RAGPipeline", **kwargs) -> "ReproService":
        """An engine-less service over a bare pipeline: same lifecycle,
        but the admission/cache/engine-metrics steps have nothing to act
        on and skip, leaving behaviour byte-identical to calling the
        pipeline directly."""
        return cls(pipeline=pipeline, **kwargs)

    # ------------------------------------------------------------ plumbing
    @property
    def admission(self) -> "AdmissionController | None":
        return self.engine.admission if self.engine is not None else None

    def resolve_mode(self, mode: str | PipelineMode | None = None) -> PipelineMode:
        return PipelineMode.coerce(mode) if mode is not None else self.default_mode

    def pipeline_for(self, mode: str | PipelineMode | None = None) -> "RAGPipeline":
        """The pipeline serving ``mode`` (engine-built and cached, or
        the injected bare pipeline)."""
        mode = self.resolve_mode(mode)
        if self.engine is not None:
            return self.engine.pipeline(mode)
        if mode != self._pipeline.mode:
            raise ServiceConfigurationError(
                f"this service wraps a bare {self._pipeline.mode!r} pipeline "
                f"and cannot serve mode {str(mode)!r}; use an engine-backed service"
            )
        return self._pipeline

    def model_name(self, mode: str | PipelineMode | None = None) -> str:
        return self.pipeline_for(mode).chat_model.name

    def cache_answers_enabled(self) -> bool:
        # Fault injection is per-call state; serving a cached answer
        # would silently skip scheduled faults, so chaos builds bypass.
        if self.engine is None:
            return False
        return (
            self.engine.config.engine.answer_cache_size > 0
            and self.engine.fault_injector is None
        )

    def invalidate_query_caches(self, delta=None) -> None:
        """Invalidate the engine's query caches (no-op when engine-less)
        after mutating the store a pipeline retrieves from.

        With a :class:`~repro.ingest.delta.CorpusDelta` (and
        ``config.ingest.scoped_invalidation`` on), eviction is scoped to
        exactly the entries the change can affect; without one every
        entry is dropped, the pre-lifecycle behavior.
        """
        if self.engine is None:
            return
        if delta is not None and self.engine.config.ingest.scoped_invalidation:
            from repro.ingest.invalidation import invalidate_engine_caches

            invalidate_engine_caches(self.engine, delta, stale_digest=None)
        else:
            self.engine.clear_query_caches()

    def _registry_for(self, ctx: "RequestContext | None") -> "MetricsRegistry":
        """The run's registry: request-scoped handle first, explicit
        engine handle, then the ambient scope — resolved on the
        coordinator, never inside worker threads."""
        if ctx is not None and ctx.registry is not None:
            return ctx.registry
        if self.engine is not None and self.engine.registry is not None:
            return self.engine.registry
        return get_registry()

    # ------------------------------------------------------------ lifecycle
    def _run(self, state: LifecycleState) -> LifecycleState:
        """Serve one run in fixed order: admit the batch, count and set
        up, classify each request in input order, execute the jobs,
        record in input order, flush the batch, feed admission last."""
        batch = state.kind is BATCH
        if batch and self.admission is not None:
            self._admit(state)
        self._set_up(state)
        for req in state.requests:
            self._classify(req, state)
        if state.jobs:
            self._execute(state)
        self._record(state)
        if batch:
            self._flush(state)
        if state.decisions is not None:
            self._feed_admission(state)
        return state

    def _admit(self, state: LifecycleState) -> None:
        """Score the batch's arrival schedule; clamp workers to the AIMD limit."""
        admission = self.admission
        state.decisions = admission.admit_batch(
            [req.arrival for req in state.requests],
            [req.client_id for req in state.requests],
            registry=state.registry,
        )
        state.workers = max(1, min(state.workers, admission.concurrency_limit))
        state.registry.gauge("repro.admission.concurrency_limit").set(
            float(admission.concurrency_limit)
        )

    def _set_up(self, state: LifecycleState) -> None:
        """Request/batch counters, the shared burn collector and the
        pipeline.  Engine-less services keep the bare pipeline's exact
        metric surface, which has no ``repro.engine.*`` instruments."""
        engine = self.engine
        if engine is None:
            return
        state.use_cache = self.cache_answers_enabled()
        state.artifact_digest = engine.artifact.digest
        if state.kind is SINGLE:
            state.registry.counter("repro.engine.requests").inc()
            return
        state.registry.counter("repro.engine.batches").inc()
        state.registry.counter("repro.engine.batch_requests").inc(len(state.requests))
        state.collector = TokenBurnCollector()
        # Built on the coordinator, before classification, shared.
        state.pipeline = self.pipeline_for(state.mode)

    def _classify(self, req: AnswerRequest, state: LifecycleState) -> None:
        """Dispose of ``req`` as shed or cache hit, park it as a duplicate
        of an in-flight primary, or queue it as a job.

        The cache counts its hit or miss before dedupe looks: a repeat of
        an in-flight primary is a miss first, then ``batch_deduped``.
        """
        admission = self.admission
        if admission is not None:
            if state.kind is SINGLE:
                # Sheds raise OverloadedError (retry_safe) before any work.
                admission.admit_one(registry=state.registry)
            else:
                decision = state.decisions[req.index]
                if decision.outcome == SHED:
                    # Shed before the caches: a rejected request consumes
                    # nothing — no token, no dedupe slot, no LRU touch.
                    state.items[req.index] = _shed_response(req, decision)
                    return
        if self.engine is None:
            state.jobs.append(req)
            return
        key = req.key = (
            question_digest(req.question),
            str(state.mode),
            state.artifact_digest,
        )
        if state.use_cache:
            payload = self.engine._answer_lru.peek(key)
            if payload is not None:
                state.registry.counter("repro.engine.answer_cache.hits").inc()
                state.items[req.index] = AnswerResponse(
                    index=req.index,
                    question=req.question,
                    result=payload.replay(req.question, state.mode),
                    cached=True,
                )
                return
            state.registry.counter("repro.engine.answer_cache.misses").inc()
        first = state.primary_of.get(key)
        if first is not None:
            state.registry.counter("repro.engine.batch_deduped").inc()
            state.duplicates.append((req.index, first))
            return
        state.primary_of[key] = req.index
        state.jobs.append(req)

    def _execute(self, state: LifecycleState) -> None:
        """Run every job through the pipeline.  Single jobs let their
        errors propagate; batch jobs record them."""
        if self.engine is None:
            self._execute_bare(state)
        elif state.kind is SINGLE:
            self._execute_single(state.jobs[0], state)
        else:
            self._execute_batch(state)

    def _execute_bare(self, state: LifecycleState) -> None:
        """Engine-less serving: the pipeline owns context and tracing."""
        pipeline = self.pipeline_for(state.mode)
        for req in state.jobs:
            if state.kind is SINGLE:
                state.outcomes[req.index] = (pipeline.answer(req.question), "", None)
            else:
                result, error = _guarded(lambda: pipeline.answer(req.question))
                state.outcomes[req.index] = (result, error, None)

    def _execute_single(self, req: AnswerRequest, state: LifecycleState) -> None:
        engine = self.engine
        pipeline = self.pipeline_for(state.mode)
        ctx = req.ctx
        if ctx is None:
            ctx = RequestContext.create(
                registry=state.registry,
                deadline=(
                    Deadline(pipeline.deadline_seconds)
                    if pipeline.deadline_seconds is not None
                    else None
                ),
            )
        previous = engine.binder.ctx
        engine.binder.ctx = ctx
        try:
            result = pipeline.answer(req.question, ctx=ctx)
        finally:
            engine.binder.ctx = previous
        state.outcomes[req.index] = (result, "", None)

    def _execute_batch(self, state: LifecycleState) -> None:
        """Jobs run on a bounded pool (inline for one worker), each under
        its own deterministic context: seeded RNG, deferred cache
        transaction, shared burn collector."""
        engine = self.engine
        pipeline = state.pipeline
        deadline_seconds = pipeline.deadline_seconds
        seed = state.seed

        def run_one(index: int, question: str):
            ctx = RequestContext.create(
                request_id=f"batch{seed}-{index:05d}",
                seed=derive_seed("engine-batch", seed, index),
                registry=state.registry,
                deadline=(
                    Deadline(deadline_seconds) if deadline_seconds is not None else None
                ),
                burn_collector=state.collector,
            )
            txn = CacheTransaction()
            ctx.scratch["cache_txn"] = txn
            engine.binder.ctx = ctx
            try:
                result, error = _guarded(lambda: pipeline.answer(question, ctx=ctx))
            finally:
                engine.binder.ctx = None
            return result, error, txn

        if state.workers == 1:
            for req in state.jobs:
                state.outcomes[req.index] = run_one(req.index, req.question)
        else:
            with ThreadPoolExecutor(max_workers=state.workers) as pool:
                futures = {
                    req.index: pool.submit(run_one, req.index, req.question)
                    for req in state.jobs
                }
                for index, future in futures.items():
                    state.outcomes[index] = future.result()

    def _record(self, state: LifecycleState) -> None:
        """Assemble the items and replay deferred commits in input order:
        touch cache hits, commit each job's cache transaction, publish
        fresh answers, then fill duplicates from their primaries — so the
        cache state later requests observe is independent of worker count."""
        lru = self.engine._answer_lru if state.use_cache else None
        for req in state.requests:
            i = req.index
            item = state.items[i]
            if item is not None:  # shed or cache hit
                if item.cached:
                    lru.touch(req.key)
                continue
            outcome = state.outcomes.get(i)
            if outcome is None:
                continue  # duplicate, filled below
            result, error, txn = outcome
            if txn is not None:
                txn.commit()
            if result is not None and lru is not None:
                lru.put(req.key, _CachedAnswer.from_result(result))
            state.items[i] = AnswerResponse(
                index=i, question=req.question, result=result, error=error
            )
        for i, first in state.duplicates:
            primary = state.items[first]
            state.items[i] = AnswerResponse(
                index=i,
                question=state.requests[i].question,
                result=primary.result,
                cached=True,
                error=primary.error,
            )
        assert None not in state.items, "lifecycle dropped a request"

    def _flush(self, state: LifecycleState) -> None:
        """Spend the batch's deferred token burn, count the answers, and
        stop the batch clock."""
        engine = self.engine
        if engine is not None:
            collector = state.collector
            state.deferred_tokens, _ = collector.pending()
            state.burn_seconds = collector.flush(lanes=engine.config.engine.burn_lanes)
            state.registry.counter("repro.engine.deferred_tokens").inc(
                state.deferred_tokens
            )
            state.registry.counter("repro.engine.batch_answers").inc(
                sum(1 for it in state.items if it.answered)
            )
        state.batch_seconds = time.perf_counter() - state.started

    def _feed_admission(self, state: LifecycleState) -> None:
        """Annotate queued items' traces and feed per-item outcomes to
        the AIMD controller, in input order."""
        admission = self.admission
        for d in state.decisions:
            it = state.items[d.index]
            if d.outcome == QUEUE:
                base = it.result.trace if it.result is not None else None
                if base is not None and base.root.end is not None:
                    # Annotate a copy: dedupe duplicates share the
                    # result trace with their primary, which must not
                    # inherit this item's queueing.  at=end keeps the
                    # closed root span well-formed.
                    queued = Trace.from_dict(base.to_dict())
                    queued.root.add_event(
                        "admission:queued",
                        at=queued.root.end,
                        queue_wait=round(d.queue_wait, 6),
                    )
                    it.trace = queued
            # AIMD feedback in input order, so the limit two batches
            # from now is as reproducible as this batch's answers.
            if d.outcome in (ADMIT, QUEUE):
                admission.observe_outcome(it.answered, it.error, registry=state.registry)
        state.registry.gauge("repro.admission.concurrency_limit").set(
            float(admission.concurrency_limit)
        )

    # ------------------------------------------------------------ entry points
    def answer(
        self,
        question: str,
        *,
        mode: str | PipelineMode | None = None,
        ctx: "RequestContext | None" = None,
    ) -> "PipelineResult":
        """Answer one question: a batch of one through the lifecycle.

        Admission sheds raise ``OverloadedError`` and pipeline failures
        propagate, exactly like the pre-service sequential path.
        """
        state = LifecycleState(
            kind=SINGLE,
            mode=self.resolve_mode(mode),
            requests=[AnswerRequest(question=question, ctx=ctx)],
            registry=self._registry_for(ctx),
        )
        return self._run(state).items[0].result

    def answer_many(
        self,
        questions: list[str],
        *,
        mode: str | PipelineMode | None = None,
        workers: int | None = None,
        seed: int = 0,
        arrivals: list[float] | None = None,
        client_ids: list[str] | None = None,
    ) -> BatchResult:
        """Answer a batch deterministically over a bounded worker pool.

        Requests are classified in input order — admission sheds,
        answer-cache hits, dedupe duplicates; unique misses execute on
        the pool, each under its own
        :class:`~repro.context.RequestContext` (tracer, seeded RNG,
        deferred cache transaction, shared burn collector); then cache
        commits replay in submission order, the deferred token burn is
        spent through one vectorized kernel, and admission outcomes feed
        the AIMD controller.

        Per-question pipeline failures are recorded on their
        :class:`~repro.service.AnswerResponse` — a batch never aborts
        mid-flight.  Digests are byte-identical regardless of worker
        count (DESIGN.md §12).
        """
        mode = self.resolve_mode(mode)
        if workers is None:
            workers = (
                self.engine.config.engine.batch_workers if self.engine is not None else 1
            )
        if workers <= 0:
            raise ConfigurationError(f"workers must be positive, got {workers}")
        n = len(questions)
        if arrivals is not None and len(arrivals) != n:
            raise ConfigurationError(
                f"arrivals has {len(arrivals)} entries for {n} questions"
            )
        if client_ids is not None and len(client_ids) != n:
            raise ConfigurationError(
                f"client_ids has {len(client_ids)} entries for {n} questions"
            )
        arrivals = [0.0] * n if arrivals is None else [float(t) for t in arrivals]
        client_ids = ["default"] * n if client_ids is None else list(client_ids)
        state = LifecycleState(
            kind=BATCH,
            mode=mode,
            requests=[
                AnswerRequest(
                    question=question,
                    index=i,
                    client_id=client_ids[i],
                    arrival=arrivals[i],
                )
                for i, question in enumerate(questions)
            ],
            registry=self._registry_for(None),
            seed=seed,
            workers=workers,
        )
        self._run(state)
        return BatchResult(
            mode=mode,
            workers=state.workers,
            seed=seed,
            items=state.items,
            decisions=state.decisions,
            batch_seconds=state.batch_seconds,
            burn_seconds=state.burn_seconds,
            deferred_tokens=state.deferred_tokens,
            cache_sizes=self.engine.cache_sizes() if self.engine is not None else {},
        )
