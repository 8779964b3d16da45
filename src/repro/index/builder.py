"""Index construction, built once per (corpus, config) digest.

The build pipeline — chunk the corpus, fit/instantiate the embedding
model, embed every chunk into a vector store — used to run inside every
pipeline constructor.  Here it runs through :func:`get_or_build_index`,
which consults two caches before doing any work:

1. **In-process**: a module-level table keyed by artifact digest.  Every
   pipeline mode, bot, evaluation run, and benchmark in one process
   shares the same artifact; the ``repro.index.builds`` counter stays at
   1 no matter how many consumers warm-start from it.
2. **On disk** (optional, ``EngineConfig.index_cache_dir``): the vector
   store's npz/jsonl persistence plus an ``artifact.json`` manifest,
   keyed by digest.  A disk hit skips the embedding pass — the single
   most expensive step — and reproduces a byte-identical artifact
   (the digest is a pure function of the inputs, and the saved chunk
   texts refit the corpus-trained embedding deterministically).

A corrupt or mismatched disk entry raises :class:`IndexBuildError`
internally and falls back to a fresh build that overwrites it; loading
never silently serves the wrong index.

Since the ingestion lifecycle landed there is a third resolution stage
between the disk cache and a full build: **delta-from-parent**.  The
in-process cache tracks a *lineage* — for every config fingerprint, the
most recently cached digest.  When the corpus changes under a fixed
fingerprint, :func:`get_or_build_index` diffs the new chunk list against
the lineage parent and, for corpus-free embedding models, assembles the
successor artifact by reusing the parent's vectors for unchanged chunks
and embedding only the changed ones (:func:`build_index_from_parent`).
The delta-built artifact is value-identical to a from-scratch build —
same digest, same vectors, same answers — it just costs a diff instead
of an embedding pass.  Caching a lineage successor also evicts the
superseded digest, so a stale in-memory artifact can never outlive the
corpus state it was built from.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

import numpy as np

from repro.config import WorkflowConfig
from repro.corpus.builder import (
    CorpusBundle,
    chunk_corpus,
    chunk_corpus_delta,
    corpus_source_digests,
)
from repro.documents import Document
from repro.durability.atomic import atomic_write_json
from repro.embeddings import create_embedding_model
from repro.embeddings.registry import is_corpus_fitted
from repro.errors import IndexBuildError, ReproError
from repro.index.artifact import (
    IndexArtifact,
    artifact_digest,
    config_fingerprint,
    corpus_digest,
)
from repro.ingest.delta import CorpusDelta, diff_chunks
from repro.observability import get_registry
from repro.rerank.features import DocFeatureTable
from repro.vectorstore.store import VectorStore

_STORE_DIR = "store"
_MANIFEST = "artifact.json"

_cache_lock = threading.Lock()
_artifacts: dict[str, IndexArtifact] = {}
#: Lineage: config-fingerprint key → digest of the latest artifact cached
#: under it.  Resolves delta parents and drives superseded-digest eviction.
_lineage: dict[str, str] = {}


def _fingerprint_key(fingerprint: dict) -> str:
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


def compute_digest(bundle: CorpusBundle, config: WorkflowConfig | None = None) -> str:
    """The artifact digest a build over these inputs would produce."""
    config = config or WorkflowConfig()
    return artifact_digest(corpus_digest(bundle), config_fingerprint(config))


def clear_index_cache() -> None:
    """Drop every in-process artifact (tests and long-lived daemons)."""
    with _cache_lock:
        _artifacts.clear()
        _lineage.clear()


def cached_artifact(digest: str) -> IndexArtifact | None:
    """The in-process artifact for ``digest``, if one is cached."""
    with _cache_lock:
        return _artifacts.get(digest)


def lineage_parent(fingerprint: dict) -> IndexArtifact | None:
    """The latest in-process artifact cached under this fingerprint.

    This is the delta-build parent candidate: same index-relevant
    config, (possibly) different corpus.
    """
    with _cache_lock:
        digest = _lineage.get(_fingerprint_key(fingerprint))
        return _artifacts.get(digest) if digest is not None else None


def cache_artifact(artifact: IndexArtifact) -> IndexArtifact:
    """Publish an artifact to the in-process cache; first writer wins.

    Publishing also advances the fingerprint's lineage and **evicts the
    superseded digest**: once a successor for the same config
    fingerprint is cached, the predecessor can only serve stale corpus
    state (the historical bug was a disk-cache rebuild over a corrupt
    entry leaving the original in-memory artifact live).  Consumers
    holding a reference keep it — eviction only stops new resolutions.
    """
    with _cache_lock:
        published = _artifacts.setdefault(artifact.digest, artifact)
        key = _fingerprint_key(published.fingerprint)
        previous = _lineage.get(key)
        if previous is not None and previous != published.digest:
            if _artifacts.pop(previous, None) is not None:
                get_registry().counter("repro.index.lineage_evictions").inc()
        _lineage[key] = published.digest
        return published


def build_index(
    bundle: CorpusBundle,
    config: WorkflowConfig | None = None,
    *,
    chunks: list[Document] | None = None,
    embedding=None,
    fingerprint: dict | None = None,
) -> IndexArtifact:
    """Build an artifact from scratch: chunk → embed → store.

    This is the uncached path; callers almost always want
    :func:`get_or_build_index`.  The sharded builder reuses it per shard
    by supplying precomputed ``chunks``, a shared (globally fitted)
    ``embedding``, and the shard-scoped ``fingerprint`` that keys the
    shard's cache entry.
    """
    config = config or WorkflowConfig()
    rc = config.retrieval
    get_registry().counter("repro.index.builds").inc()
    if chunks is None:
        chunks = chunk_corpus(
            bundle,
            include_mail=rc.include_mail_archives,
            chunk_size=rc.chunk_size,
            chunk_overlap=rc.chunk_overlap,
        )
    if embedding is None:
        embedding = create_embedding_model(
            rc.embedding_model, corpus_texts=[c.text for c in chunks]
        )
    store = VectorStore.from_documents(chunks, embedding)
    if fingerprint is None:
        fingerprint = config_fingerprint(config)
    return IndexArtifact(
        digest=artifact_digest(corpus_digest(bundle), fingerprint),
        corpus_digest=corpus_digest(bundle),
        fingerprint=fingerprint,
        chunks=chunks,
        embedding=embedding,
        store=store,
        manual_pages=dict(bundle.manual_page_names),
        registry=bundle.registry,
        source_digests=corpus_source_digests(
            bundle, include_mail=rc.include_mail_archives
        ),
    )


def build_index_from_parent(
    bundle: CorpusBundle,
    config: WorkflowConfig | None,
    parent: IndexArtifact,
    *,
    chunks: list[Document] | None = None,
    fingerprint: dict | None = None,
) -> "tuple[IndexArtifact, CorpusDelta] | None":
    """Build the successor artifact by delta against ``parent``.

    Re-chunks only the sources whose text changed, diffs the chunk lists
    by byte-exact identity, reuses the parent store's vectors for every
    unchanged chunk, and embeds only the new/changed ones.  Returns
    ``None`` when a delta cannot preserve value-identity with a
    from-scratch build — corpus-fitted embedding models (every vector
    depends on the whole corpus) — or would not pay: more than
    ``config.ingest.max_delta_fraction`` of the chunks changed, or the
    parent has no usable chunk bookkeeping.

    On success the result is *value-identical* to :func:`build_index`
    over the same inputs: same digest, byte-identical vectors (hashing
    embeddings are computed and normalized per row, so a subset batch
    equals the matching rows of the full batch), same chunk order, and
    the same rerank features (when the parent has built its table: the
    parent's entries for unchanged chunk texts, fresh ones for the rest,
    nothing else carried over).  The
    ``repro.index.builds`` counter is **not** incremented — counters
    under ``repro.ingest.*`` account the delta work instead.
    """
    config = config or WorkflowConfig()
    rc = config.retrieval
    if not config.ingest.delta_enabled or is_corpus_fitted(rc.embedding_model):
        return None
    if parent.embedding.name != rc.embedding_model or not parent.chunks:
        return None
    registry = get_registry()
    if chunks is None:
        if not parent.source_digests:
            return None
        chunks, _changed = chunk_corpus_delta(
            bundle,
            parent.chunks,
            parent.source_digests,
            include_mail=rc.include_mail_archives,
            chunk_size=rc.chunk_size,
            chunk_overlap=rc.chunk_overlap,
        )
    if fingerprint is None:
        fingerprint = config_fingerprint(config)
    digest = artifact_digest(corpus_digest(bundle), fingerprint)
    delta = diff_chunks(
        parent.chunks, chunks, parent_digest=parent.digest, target_digest=digest
    )
    if delta.total and delta.embed_count / delta.total > config.ingest.max_delta_fraction:
        registry.counter("repro.ingest.delta_fallbacks").inc()
        return None

    embedding = parent.embedding
    # Assemble the successor's matrix row-aligned with the deduped chunk
    # order from_documents would use: parent rows for unchanged chunks,
    # fresh embeddings for the rest (one batch).
    to_embed: list[Document] = []
    for chunk in chunks:
        if chunk.doc_id not in parent.store._ids:
            to_embed.append(chunk)
    fresh_vectors = (
        embedding.embed_documents([c.text for c in to_embed])
        if to_embed
        else np.zeros((0, embedding.dim))
    )
    fresh_rows = {c.doc_id: i for i, c in enumerate(to_embed)}
    parent_matrix = parent.store.index.matrix
    vectors = np.empty((len(chunks), embedding.dim), dtype=parent_matrix.dtype)
    reused = 0
    for row, chunk in enumerate(chunks):
        parent_row = parent.store._ids.get(chunk.doc_id)
        if parent_row is not None:
            vectors[row] = parent_matrix[parent_row]
            reused += 1
        else:
            vectors[row] = fresh_vectors[fresh_rows[chunk.doc_id]]
    store = VectorStore.from_precomputed(chunks, vectors, embedding)

    registry.counter("repro.ingest.delta_builds").inc()
    registry.counter("repro.ingest.chunks_embedded").inc(len(to_embed))
    registry.counter("repro.ingest.chunks_reused").inc(reused)
    artifact = IndexArtifact(
        digest=digest,
        corpus_digest=corpus_digest(bundle),
        fingerprint=fingerprint,
        chunks=chunks,
        embedding=embedding,
        store=store,
        manual_pages=dict(bundle.manual_page_names),
        registry=bundle.registry,
        parent_digest=parent.digest,
        delta_digest=delta.digest,
        source_digests=corpus_source_digests(
            bundle, include_mail=rc.include_mail_archives
        ),
        rerank_features=(
            DocFeatureTable(chunks, reuse=[parent.rerank_features])
            if parent.rerank_features is not None
            else None
        ),
    )
    return artifact, delta


# ------------------------------------------------------------------ disk cache
#: Store payload files covered by the manifest's checksums.
_PAYLOAD_FILES = ("vectors.npz", "documents.jsonl", "manifest.json")


def _payload_checksums(store_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((store_dir / name).read_bytes()).hexdigest()
        for name in _PAYLOAD_FILES
    }


def save_artifact(artifact: IndexArtifact, cache_dir: str | Path) -> Path:
    """Persist the artifact under ``cache_dir/<digest16>/``.

    Payload files and the top-level manifest land atomically, and the
    manifest — written last — carries SHA-256 checksums of every payload
    file.  A crash between payload and manifest leaves no manifest (a
    clean miss); a corrupted payload fails checksum verification on
    load.  Either way the cache falls back to a rebuild, never serves
    torn bytes.
    """
    root = Path(cache_dir) / artifact.digest[:16]
    root.mkdir(parents=True, exist_ok=True)
    store_dir = root / _STORE_DIR
    artifact.store.save(store_dir)
    summary = dict(artifact.summary())
    summary["payload_checksums"] = _payload_checksums(store_dir)
    atomic_write_json(root / _MANIFEST, summary)
    get_registry().counter("repro.index.disk_writes").inc()
    return root


def read_cached_payload(
    cache_dir: str | Path, digest: str, config: WorkflowConfig
) -> tuple[Path, dict, list[Document]]:
    """Verify and read the cache entry for ``digest``.

    Returns ``(store_dir, manifest, chunks)`` with payload checksums
    verified (when configured) and chunk counts cross-checked; raises
    :class:`IndexBuildError` on a miss or any corruption.  Restoring the
    vector store itself is the caller's job — the monolithic loader
    refits the embedding from the chunk texts, while the sharded loader
    passes a prebuilt globally-fitted model instead.
    """
    root = Path(cache_dir) / digest[:16]
    manifest_path = root / _MANIFEST
    if not manifest_path.is_file():
        raise IndexBuildError(f"no cached artifact under {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexBuildError(f"unreadable artifact manifest {manifest_path}: {exc}") from exc
    if manifest.get("digest") != digest:
        raise IndexBuildError(
            f"cached artifact digest {manifest.get('digest')!r} != expected {digest!r}"
        )
    store_dir = root / _STORE_DIR
    checksums = manifest.get("payload_checksums")
    if checksums and config.durability.verify_index_checksums:
        # Manifests written before checksums existed verify as trusted.
        for name, expected_sum in sorted(checksums.items()):
            try:
                actual = hashlib.sha256((store_dir / name).read_bytes()).hexdigest()
            except OSError as exc:
                raise IndexBuildError(
                    f"cached payload {name} unreadable in {store_dir}: {exc}"
                ) from exc
            if actual != expected_sum:
                get_registry().counter("repro.index.checksum_failures").inc()
                raise IndexBuildError(
                    f"cached payload {name} fails checksum in {store_dir} "
                    f"(expected {expected_sum[:12]}…, got {actual[:12]}…)"
                )
    try:
        chunk_lines = (store_dir / "documents.jsonl").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IndexBuildError(f"unreadable cached store in {store_dir}: {exc}") from exc
    chunks = [
        Document(text=obj["text"], metadata=obj["metadata"])
        for obj in map(json.loads, chunk_lines)
    ]
    if len(chunks) != int(manifest.get("chunk_count", -1)):
        raise IndexBuildError(
            f"cached store holds {len(chunks)} chunks, manifest says "
            f"{manifest.get('chunk_count')}"
        )
    return store_dir, manifest, chunks


def load_artifact(
    bundle: CorpusBundle,
    config: WorkflowConfig | None,
    cache_dir: str | Path,
) -> IndexArtifact:
    """Load the artifact for (bundle, config) from the disk cache.

    Raises :class:`IndexBuildError` on a miss, a digest mismatch, or a
    corrupt entry — the caller decides whether to fall back to a build.
    The embedding pass is skipped: saved chunk texts refit the embedding
    model deterministically and the vectors load straight from npz.
    """
    config = config or WorkflowConfig()
    expected = compute_digest(bundle, config)
    store_dir, _manifest, chunks = read_cached_payload(cache_dir, expected, config)
    try:
        embedding = create_embedding_model(
            config.retrieval.embedding_model, corpus_texts=[c.text for c in chunks]
        )
        store = VectorStore.load(store_dir, embedding)
    except ReproError as exc:
        raise IndexBuildError(f"cannot restore cached store in {store_dir}: {exc}") from exc
    get_registry().counter("repro.index.disk_hits").inc()
    return IndexArtifact(
        digest=expected,
        corpus_digest=corpus_digest(bundle),
        fingerprint=config_fingerprint(config),
        chunks=chunks,
        embedding=embedding,
        store=store,
        manual_pages=dict(bundle.manual_page_names),
        registry=bundle.registry,
        source_digests=corpus_source_digests(
            bundle, include_mail=config.retrieval.include_mail_archives
        ),
    )


# ------------------------------------------------------------------ entry point
def get_or_build_index(
    bundle: CorpusBundle,
    config: WorkflowConfig | None = None,
    *,
    cache_dir: str | Path | None = None,
) -> IndexArtifact:
    """The shared artifact for (bundle, config): memory → disk →
    delta-from-parent → full build.

    ``cache_dir`` defaults to ``config.engine.index_cache_dir``; ``None``
    keeps artifacts in memory only.  A fresh build (delta or full) is
    written back to the disk cache when one is configured.
    """
    config = config or WorkflowConfig()
    if cache_dir is None:
        cache_dir = config.engine.index_cache_dir
    digest = compute_digest(bundle, config)
    with _cache_lock:
        cached = _artifacts.get(digest)
    if cached is not None:
        get_registry().counter("repro.index.memory_hits").inc()
        return cached
    artifact: IndexArtifact | None = None
    from_disk = False
    if cache_dir is not None:
        try:
            artifact = load_artifact(bundle, config, cache_dir)
            from_disk = True
        except IndexBuildError:
            artifact = None
    if artifact is None:
        parent = lineage_parent(config_fingerprint(config))
        if parent is not None and parent.digest != digest:
            built = build_index_from_parent(bundle, config, parent)
            if built is not None:
                artifact = built[0]
    if artifact is None:
        artifact = build_index(bundle, config)
    if cache_dir is not None and not from_disk:
        save_artifact(artifact, cache_dir)
    # Another thread may have raced the build; first writer wins so
    # every consumer shares one object.
    return cache_artifact(artifact)
