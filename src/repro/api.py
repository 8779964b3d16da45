"""The consolidated public API.

Four PRs of growth left entry-point plumbing sprawled across
``build_rag_pipeline`` (bare pipelines), ``build_workflow`` (engine +
postprocessing + history), and ``build_support_system`` (the Fig. 5
topology), each resolving corpora, artifacts, and engines its own way.
This module is the one front door:

* :func:`open_engine` — config in, :class:`~repro.engine.QueryEngine`
  out.  Picks the monolithic or sharded engine from
  ``config.sharding.num_shards`` and resolves the shared index artifact
  (memory → disk → build) on the way.
* :func:`open_service` — config in,
  :class:`~repro.service.ReproService` out: the request front door over
  an :func:`open_engine` engine.  Serving code (CLI, bots, evaluation,
  chaos sweeps) should hold a service, not a raw engine or pipeline.
* :func:`open_pipeline` / :func:`open_workflow` /
  :func:`open_support_system` — the higher assemblies, all built on the
  same artifact/engine resolution.

The historical builders remain as thin wrappers delegating here — same
signatures, same return types, no behaviour change at default config.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ReproConfig
from repro.corpus.builder import CorpusBundle, build_default_corpus
from repro.pipeline.types import PipelineMode

if TYPE_CHECKING:
    from repro.bots.system import SupportSystem
    from repro.engine import QueryEngine
    from repro.history import InteractionStore
    from repro.index import IndexArtifact
    from repro.observability import MetricsRegistry
    from repro.pipeline.rag import RAGPipeline
    from repro.pipeline.workflow import AugmentedWorkflow
    from repro.resilience.faults import FaultInjector
    from repro.service import ReproService


def resolve_artifact(
    bundle: CorpusBundle | None = None, config: ReproConfig | None = None
) -> "IndexArtifact":
    """The shared index artifact for (bundle, config): sharded when
    ``config.sharding.num_shards >= 1``, monolithic otherwise."""
    from repro.index import get_or_build_index, get_or_build_sharded_index

    config = config or ReproConfig()
    bundle = bundle or build_default_corpus()
    if config.sharding.num_shards >= 1:
        return get_or_build_sharded_index(bundle, config)
    return get_or_build_index(bundle, config)


def open_engine(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    fault_injector: "FaultInjector | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> "QueryEngine":
    """Open a query engine over the shared index artifact.

    This is the single engine factory: every consumer — CLI, workflow,
    bots, benchmarks — gets its engine here, so one process serves every
    caller from one artifact build.  ``config.sharding.num_shards >= 1``
    returns a :class:`~repro.engine.ShardedQueryEngine` (scatter-gather
    retrieval over N shards); the default ``0`` returns the monolithic
    :class:`~repro.engine.QueryEngine`.  Answer/metric/span digests are
    byte-identical across shard counts >= 1 for the same workload.
    """
    from repro.engine import QueryEngine, ShardedQueryEngine

    config = config or ReproConfig()
    config.validate()
    bundle = bundle or build_default_corpus()
    cls = ShardedQueryEngine if config.sharding.num_shards >= 1 else QueryEngine
    return cls.from_corpus(
        bundle, config, fault_injector=fault_injector, registry=registry
    )


def open_service(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    fault_injector: "FaultInjector | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> "ReproService":
    """Open the serving front door: an :func:`open_engine` engine wrapped
    in its :class:`~repro.service.ReproService`.

    Every request — single or batch, from any consumer — runs the same
    deterministic request lifecycle (admission, answer cache, dedupe,
    execute, record).
    """
    engine = open_engine(
        config, bundle=bundle, fault_injector=fault_injector, registry=registry
    )
    return engine.service


def open_pipeline(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    mode: str | PipelineMode = PipelineMode.RAG_RERANK,
    fault_injector: "FaultInjector | None" = None,
) -> "RAGPipeline":
    """A bare pipeline (no engine caches) over the shared artifact.

    Baseline mode needs no index and is assembled directly; retrieval
    modes resolve the (possibly sharded) artifact first.
    """
    from repro.pipeline.rag import baseline_pipeline, pipeline_from_artifact

    config = config or ReproConfig()
    config.validate()
    mode = PipelineMode.coerce(mode)
    bundle = bundle or build_default_corpus()
    if mode is PipelineMode.BASELINE:
        return baseline_pipeline(bundle, config, fault_injector=fault_injector)
    artifact = resolve_artifact(bundle, config)
    return pipeline_from_artifact(
        artifact, config, mode=mode, fault_injector=fault_injector
    )


def open_workflow(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    mode: str | PipelineMode = PipelineMode.RAG_RERANK,
    store: "InteractionStore | None" = None,
) -> "AugmentedWorkflow":
    """The complete workflow: engine-served pipeline + postprocessing +
    interaction history (+ durable journal when configured)."""
    from repro.pipeline.workflow import AugmentedWorkflow

    config = config or ReproConfig()
    config.validate()
    bundle = bundle or build_default_corpus()
    mode = PipelineMode.coerce(mode)
    if mode is PipelineMode.BASELINE:
        engine = None
        pipeline = open_pipeline(config, bundle=bundle, mode=mode)
    else:
        engine = open_engine(config, bundle=bundle)
        pipeline = engine.pipeline(mode)
    workflow = AugmentedWorkflow(
        bundle,
        pipeline,
        engine=engine,
        store=store,
        embedding_model=(
            config.retrieval.embedding_model if mode is not PipelineMode.BASELINE else ""
        ),
        record_history=config.record_history,
        record_traces=config.observability.record_traces,
    )
    if config.durability.history_journal and workflow.store.journal is None:
        # Every recorded interaction becomes durable the moment it lands;
        # `repro recover` rebuilds the store from this journal after a crash.
        workflow.store.attach_journal(
            config.durability.history_journal, fsync=config.durability.fsync
        )
    return workflow


def open_support_system(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    developers: tuple[str, ...] = ("barry", "junchao", "hong"),
    mode: str = "rag+rerank",
    fault_injector: "FaultInjector | None" = None,
) -> "SupportSystem":
    """The full Fig. 5 support topology, chatbot served by
    :func:`open_engine`."""
    from repro.bots.system import build_support_system

    return build_support_system(
        bundle,
        config,
        developers=developers,
        mode=mode,
        fault_injector=fault_injector,
    )
