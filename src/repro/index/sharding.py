"""Shard planner and parallel per-shard index construction.

The plan is a pure function of (corpus, config): every document routes
to ``stable_hash(source) % num_shards``, each shard gets its own
:class:`~repro.index.artifact.IndexArtifact` digest (the shard's corpus
digest + the config fingerprint extended with shard coordinates), and
the composite artifact is named by the SHA-256 of the **sorted**
per-shard digests.  Per-shard digests key per-shard disk-cache entries,
so a corpus edit rebuilds only the shards whose documents changed.

One embedding model is fitted **globally** over the full chunk list and
shared by every shard build.  This is what makes scores — and therefore
merged retrieval results — identical across shard counts: a per-shard
TF-IDF fit would give each shard its own IDF table and incomparable
scores.  The flip side is a coupling caveat: for corpus-fitted models
(``petsc-embed-large``) any document edit shifts the global IDF table,
so every shard's vectors change and every shard digest must change with
them — the shard fingerprint therefore folds in the *global* corpus
digest as its ``embedding_scope``.  Corpus-free hashing models carry
``embedding_scope="corpus-free"`` and get true single-dirty-shard
incremental rebuilds.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import WorkflowConfig
from repro.corpus.builder import CorpusBundle, chunk_corpus, corpus_source_digests
from repro.embeddings import create_embedding_model
from repro.embeddings.registry import is_corpus_fitted
from repro.errors import IndexBuildError
from repro.index.artifact import (
    IndexArtifact,
    artifact_digest,
    config_fingerprint,
    corpus_digest,
)
from repro.index.builder import (
    build_index,
    build_index_from_parent,
    cache_artifact,
    cached_artifact,
    lineage_parent,
    read_cached_payload,
    save_artifact,
)
from repro.observability import get_registry, use_registry
from repro.rerank.features import DocFeatureTable
from repro.vectorstore.sharded import ShardedVectorStore, shard_for_document
from repro.vectorstore.store import VectorStore

if TYPE_CHECKING:
    from repro.replication import HealthTracker

#: Tag for models whose vectors do not depend on the fitted corpus.
CORPUS_FREE_SCOPE = "corpus-free"


@dataclass
class ShardSpec:
    """One planned shard: its sub-corpus and the digest that names it."""

    index: int
    num_shards: int
    bundle: CorpusBundle
    corpus_digest: str
    fingerprint: dict
    digest: str


@dataclass
class ShardPlan:
    """The deterministic partition of a corpus into shards."""

    num_shards: int
    #: Global corpus digest for corpus-fitted embeddings (any edit
    #: dirties all shards), or :data:`CORPUS_FREE_SCOPE`.
    embedding_scope: str
    shards: list[ShardSpec] = field(default_factory=list)

    @property
    def composite(self) -> str:
        return composite_digest([s.digest for s in self.shards])


def composite_digest(shard_digests: list[str]) -> str:
    """SHA-256 over the sorted per-shard digests (order-independent)."""
    payload = json.dumps(sorted(shard_digests), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def plan_shards(bundle: CorpusBundle, config: WorkflowConfig) -> ShardPlan:
    """Partition ``bundle`` into per-shard sub-bundles, deterministically.

    Documents keep corpus order within their shard; manual-page name
    tables follow their documents.  The plan (and every digest in it)
    is reproducible across processes — it depends only on document
    sources, contents, and the index-relevant config slice.
    """
    n = config.sharding.num_shards
    if n <= 0:
        raise IndexBuildError(f"plan_shards requires num_shards >= 1, got {n}")
    docs_by_shard: list[list] = [[] for _ in range(n)]
    for doc in bundle.documents:
        docs_by_shard[shard_for_document(doc, n)].append(doc)
    pages_by_shard: list[dict] = [{} for _ in range(n)]
    for name, page in bundle.manual_page_names.items():
        pages_by_shard[shard_for_document(page, n)][name] = page
    scope = (
        corpus_digest(bundle)
        if is_corpus_fitted(config.retrieval.embedding_model)
        else CORPUS_FREE_SCOPE
    )
    base_fingerprint = config_fingerprint(config)
    specs: list[ShardSpec] = []
    for i in range(n):
        sub = CorpusBundle(
            registry=bundle.registry,
            documents=docs_by_shard[i],
            manual_page_names=pages_by_shard[i],
        )
        fingerprint = dict(base_fingerprint)
        fingerprint["shard"] = i
        fingerprint["num_shards"] = n
        fingerprint["embedding_scope"] = scope
        shard_corpus = corpus_digest(sub)
        specs.append(
            ShardSpec(
                index=i,
                num_shards=n,
                bundle=sub,
                corpus_digest=shard_corpus,
                fingerprint=fingerprint,
                digest=artifact_digest(shard_corpus, fingerprint),
            )
        )
    return ShardPlan(num_shards=n, embedding_scope=scope, shards=specs)


@dataclass
class ShardedIndexArtifact(IndexArtifact):
    """A composite artifact over N per-shard artifacts.

    ``digest`` is the composite digest; ``store`` is a
    :class:`~repro.vectorstore.sharded.ShardedVectorStore` over the
    shard stores; ``chunks`` concatenates shard chunk lists in shard
    order (rerankers fit order-independent IDF tables over them, so the
    ordering difference from the monolithic build is benign).
    """

    shards: list[IndexArtifact] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def summary(self) -> dict:
        out = super().summary()
        out["num_shards"] = self.num_shards
        out["shard_digests"] = [s.digest for s in self.shards]
        return out

    def _build_rerank_table(self) -> DocFeatureTable:
        # Entries are per chunk text, so the shards' tables cover ours.
        return DocFeatureTable(self.chunks, reuse=[s.rerank_table() for s in self.shards])

    def shard_summaries(
        self, *, replicas: int = 1, health: "HealthTracker | None" = None
    ) -> list[dict]:
        """Per-shard inspection rows (CLI ``repro metrics`` shard table).

        With a serving topology attached, each row also reports the
        replica count and the health tracker's per-replica states (a
        replica never probed is up by definition).
        """
        rows = []
        for i, s in enumerate(self.shards):
            row = {
                "shard": i,
                "digest": s.digest,
                "chunks": len(s.chunks),
                "manual_pages": len(s.manual_pages),
                "vectors": len(s.store),
            }
            if replicas > 1 or health is not None:
                row["replicas"] = replicas
                if health is not None:
                    row["health"] = [
                        health.state(i, r).value for r in range(replicas)
                    ]
            rows.append(row)
        return rows


def compute_composite_digest(
    bundle: CorpusBundle, config: WorkflowConfig | None = None
) -> str:
    """The composite digest a sharded build over these inputs produces."""
    config = config or WorkflowConfig()
    return plan_shards(bundle, config).composite


def build_sharded_index(
    bundle: CorpusBundle,
    config: WorkflowConfig | None = None,
    *,
    cache_dir=None,
    plan: ShardPlan | None = None,
) -> ShardedIndexArtifact:
    """Build (or incrementally rebuild) the sharded index.

    Three-phase:

    1. **Resolve chunks** per shard — from the in-process artifact
       cache, the shard's disk-cache entry, or a fresh chunking pass for
       dirty shards (parallel across shards).
    2. **Fit the embedding once** over the full chunk list.
    3. **Materialize stores** per shard on a
       ``ThreadPoolExecutor(build_workers)`` — clean shards load vectors
       straight from npz, dirty shards run the embed pass through
       :func:`~repro.index.builder.build_index` (which keeps the
       ``repro.index.builds`` counter honest: +1 per dirty shard, not
       +N).
    """
    config = config or WorkflowConfig()
    if cache_dir is None:
        cache_dir = config.engine.index_cache_dir
    if plan is None:
        plan = plan_shards(bundle, config)
    # Captured on the coordinator: use_registry scopes are thread-local,
    # so pool workers must re-enter the caller's scope explicitly or
    # their counters would leak into the process default.
    registry = get_registry()
    rc = config.retrieval

    def resolve(spec: ShardSpec):
        with use_registry(registry):
            return _resolve(spec)

    def _resolve(spec: ShardSpec):
        mem = cached_artifact(spec.digest)
        if mem is not None:
            registry.counter("repro.shard.memory_hits").inc()
            return ("memory", spec, mem, None)
        if cache_dir is not None:
            try:
                store_dir, _manifest, chunks = read_cached_payload(
                    cache_dir, spec.digest, config
                )
                return ("disk", spec, chunks, store_dir)
            except IndexBuildError:
                pass
        chunks = chunk_corpus(
            spec.bundle,
            include_mail=rc.include_mail_archives,
            chunk_size=rc.chunk_size,
            chunk_overlap=rc.chunk_overlap,
        )
        return ("dirty", spec, chunks, None)

    with ThreadPoolExecutor(max_workers=config.sharding.build_workers) as pool:
        resolved = list(pool.map(resolve, plan.shards))

    all_texts: list[str] = []
    for state, _spec, payload, _extra in resolved:
        chunks = payload.chunks if state == "memory" else payload
        all_texts.extend(c.text for c in chunks)
    embedding = create_embedding_model(rc.embedding_model, corpus_texts=all_texts)

    def materialize(item) -> IndexArtifact:
        with use_registry(registry):
            return _materialize(item)

    def _materialize(item) -> IndexArtifact:
        state, spec, payload, extra = item
        if state == "memory":
            return payload
        if state == "disk":
            try:
                store = VectorStore.load(extra, embedding)
                registry.counter("repro.index.disk_hits").inc()
                registry.counter("repro.shard.disk_hits").inc()
                shard = IndexArtifact(
                    digest=spec.digest,
                    corpus_digest=spec.corpus_digest,
                    fingerprint=spec.fingerprint,
                    chunks=payload,
                    embedding=embedding,
                    store=store,
                    manual_pages=dict(spec.bundle.manual_page_names),
                    registry=bundle.registry,
                    source_digests=corpus_source_digests(
                        spec.bundle, include_mail=rc.include_mail_archives
                    ),
                )
                return cache_artifact(shard)
            except IndexBuildError:
                pass  # corrupt store payload: fall through to a rebuild
        chunks = payload if state == "dirty" else None
        if chunks is None:
            chunks = chunk_corpus(
                spec.bundle,
                include_mail=rc.include_mail_archives,
                chunk_size=rc.chunk_size,
                chunk_overlap=rc.chunk_overlap,
            )
        # Delta-from-parent: for corpus-free embeddings the shard
        # fingerprint is stable across corpus edits, so the lineage holds
        # the shard's previous artifact — reuse its vectors and embed
        # only this edit's changed chunks.
        parent = lineage_parent(spec.fingerprint)
        if parent is not None and parent.digest != spec.digest:
            built = build_index_from_parent(
                spec.bundle,
                config,
                parent,
                chunks=chunks,
                fingerprint=spec.fingerprint,
            )
            if built is not None:
                shard = built[0]
                registry.counter("repro.shard.delta_builds").inc()
                if cache_dir is not None:
                    save_artifact(shard, cache_dir)
                return cache_artifact(shard)
        shard = build_index(
            spec.bundle,
            config,
            chunks=chunks,
            embedding=embedding,
            fingerprint=spec.fingerprint,
        )
        registry.counter("repro.shard.builds").inc()
        if cache_dir is not None:
            save_artifact(shard, cache_dir)
        return cache_artifact(shard)

    with ThreadPoolExecutor(max_workers=config.sharding.build_workers) as pool:
        shard_artifacts = list(pool.map(materialize, resolved))

    composite_store = ShardedVectorStore(
        [s.store for s in shard_artifacts],
        embedding,
        scatter_workers=config.sharding.scatter_workers,
    )
    all_chunks = [c for s in shard_artifacts for c in s.chunks]
    return ShardedIndexArtifact(
        digest=plan.composite,
        corpus_digest=corpus_digest(bundle),
        fingerprint={
            **config_fingerprint(config),
            "num_shards": plan.num_shards,
            "embedding_scope": plan.embedding_scope,
        },
        chunks=all_chunks,
        embedding=embedding,
        store=composite_store,
        manual_pages=dict(bundle.manual_page_names),
        registry=bundle.registry,
        shards=shard_artifacts,
        source_digests=corpus_source_digests(
            bundle, include_mail=config.retrieval.include_mail_archives
        ),
    )


def get_or_build_sharded_index(
    bundle: CorpusBundle,
    config: WorkflowConfig | None = None,
    *,
    cache_dir=None,
) -> ShardedIndexArtifact:
    """The shared sharded artifact: composite memory hit, else build.

    Mirrors :func:`~repro.index.builder.get_or_build_index`; per-shard
    memory/disk caches inside :func:`build_sharded_index` make partial
    hits (the incremental-rebuild path) cheap even on a composite miss.
    """
    config = config or WorkflowConfig()
    if cache_dir is None:
        cache_dir = config.engine.index_cache_dir
    plan = plan_shards(bundle, config)
    cached = cached_artifact(plan.composite)
    if cached is not None:
        get_registry().counter("repro.index.memory_hits").inc()
        return cached
    artifact = build_sharded_index(bundle, config, cache_dir=cache_dir, plan=plan)
    return cache_artifact(artifact)
