"""Tests for the rerankers and the K→L pipeline."""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import open_engine, resolve_artifact
from repro.config import ReproConfig, RetrievalConfig, ShardingConfig
from repro.context import RequestContext
from repro.corpus.builder import CorpusBundle
from repro.documents import Document
from repro.errors import RerankError
from repro.evaluation import krylov_benchmark
from repro.index import build_index, clear_index_cache
from repro.ingest import ingest_corpus
from repro.llm.latency import TokenBurnCollector
from repro.pipeline.rag import pipeline_from_artifact
from repro.rerank import (
    FlashrankLiteReranker,
    InteractionScorer,
    NvidiaSimReranker,
    RerankingRetriever,
    build_idf,
)
from repro.rerank.features import _CONCEPT_OF, DocFeatureTable, doc_features
from repro.retrieval import VectorRetriever
from repro.retrieval.base import RetrievedDocument
from repro.utils.textproc import (
    code_tokens,
    stem,
    stemmed_tokens,
    tokenize_with_stopwords,
    word_ngrams,
)

DOCS = [
    Document(text="KSPLSQR solves rectangular least squares problems", metadata={"i": 0}),
    Document(text="matrices and vectors are assembled in parallel", metadata={"i": 1}),
    Document(text="the restart parameter of GMRES bounds memory", metadata={"i": 2}),
]


def _hits(docs):
    return [
        RetrievedDocument(document=d, score=0.5, origin="vector") for d in docs
    ]


class TestInteractionScorer:
    def test_exact_coverage_beats_none(self):
        sc = InteractionScorer()
        good = sc.score("rectangular least squares", DOCS[0].text)
        bad = sc.score("rectangular least squares", DOCS[1].text)
        assert good > bad

    def test_identifier_feature(self):
        sc = InteractionScorer(w_coverage=0.0, w_bigram=0.0, w_focus=0.0)
        with_id = sc.score("What does KSPLSQR do?", DOCS[0].text)
        without = sc.score("What does KSPLSQR do?", DOCS[1].text)
        assert with_id > without

    def test_concept_cluster_synonyms(self):
        sc = InteractionScorer(w_identifier=0.0, w_bigram=0.0, w_focus=0.0)
        # "measure the time" should partially match profiling vocabulary.
        prof = sc.score("measure where the time goes", "use -log_view for a performance summary")
        other = sc.score("measure where the time goes", "nullspace handling for singular systems")
        assert prof > other

    def test_focus_penalizes_long_dilute_text(self):
        sc = InteractionScorer(w_focus=0.5, focus_chars=50)
        short = sc.score("gmres restart", "gmres restart bounds memory")
        long = sc.score("gmres restart", "gmres restart bounds memory " + "filler words here " * 40)
        assert short > long

    def test_proximity_rewards_tight_windows(self):
        sc = InteractionScorer(
            w_coverage=0.0, w_identifier=0.0, w_bigram=0.0, w_focus=0.0, w_proximity=1.0
        )
        tight = sc.score("restart memory", "the restart memory tradeoff")
        loose = sc.score("restart memory", "restart " + "x " * 60 + " memory")
        assert tight > loose

    def test_doc_features_never_shared_across_equal_hashes(self):
        class SameHash(str):
            def __hash__(self):
                return 7

        a = SameHash("GMRES restart bounds memory use.")
        b = SameHash("Chebyshev needs eigenvalue bounds.")
        assert hash(a) == hash(b) and a != b
        sc = InteractionScorer(w_proximity=1.0)
        for query in ("gmres restart memory", "chebyshev eigenvalue bounds"):
            warm = [sc.score(query, a), sc.score(query, b)]
            fresh = [InteractionScorer(w_proximity=1.0).score(query, t) for t in (a, b)]
            assert warm == fresh

    def test_build_idf_rare_terms_weigh_more(self):
        idf = build_idf(DOCS)
        assert idf["rectangular"] > idf["parallel"] or idf["rectangular"] >= idf["parallel"]


class TestRerankers:
    @pytest.mark.parametrize("cls", [FlashrankLiteReranker, NvidiaSimReranker])
    def test_relevant_doc_first(self, cls):
        rr = cls(DOCS)
        out = rr.rerank("rectangular least squares solver", _hits(DOCS), top_n=3)
        assert out[0].document.document.metadata["i"] == 0

    @pytest.mark.parametrize("cls", [FlashrankLiteReranker, NvidiaSimReranker])
    def test_top_n_truncates(self, cls):
        rr = cls(DOCS)
        assert len(rr.rerank("gmres", _hits(DOCS), top_n=1)) == 1

    def test_min_score_drops_irrelevant(self):
        rr = FlashrankLiteReranker(DOCS)
        out = rr.rerank("rectangular least squares", _hits(DOCS), top_n=3, min_score=0.5)
        kept = {r.document.document.metadata["i"] for r in out}
        assert 1 not in kept

    def test_empty_candidates(self):
        assert FlashrankLiteReranker().rerank("q", [], top_n=4) == []

    def test_invalid_top_n(self):
        with pytest.raises(RerankError):
            FlashrankLiteReranker().rerank("q", _hits(DOCS), top_n=0)

    def test_rerankers_agree_on_easy_case(self):
        """Paper: both rerankers reach a similar level of accuracy."""
        flash = FlashrankLiteReranker(DOCS)
        nvidia = NvidiaSimReranker(DOCS)
        q = "GMRES restart memory"
        a = flash.rerank(q, _hits(DOCS), top_n=1)[0].document.document.metadata["i"]
        b = nvidia.rerank(q, _hits(DOCS), top_n=1)[0].document.document.metadata["i"]
        assert a == b == 2

    def test_nvidia_batching(self):
        rr = NvidiaSimReranker(DOCS, batch_size=2)
        scores = rr.score_pairs("gmres restart", [d.text for d in DOCS] * 3)
        assert len(scores) == 9


class TestSimulatedLatency:
    @pytest.mark.parametrize("cls", [FlashrankLiteReranker, NvidiaSimReranker])
    def test_batched_serving_defers_pair_cost_without_tokens(self, cls):
        collector = TokenBurnCollector()
        ctx = RequestContext.create(burn_collector=collector)
        rr = cls(DOCS, simulate_latency=True)
        out = rr.rerank("gmres restart", _hits(DOCS), top_n=2, ctx=ctx)
        assert collector.pending() == (0, len(DOCS) * cls.iterations_per_pair)
        plain = cls(DOCS).rerank("gmres restart", _hits(DOCS), top_n=2, ctx=ctx)
        assert [r.rerank_score for r in out] == [r.rerank_score for r in plain]
        assert collector.pending() == (0, len(DOCS) * cls.iterations_per_pair)

    def test_cpu_reranker_is_the_cheaper_model(self):
        assert 0 < FlashrankLiteReranker.iterations_per_pair < NvidiaSimReranker.iterations_per_pair

    @pytest.mark.parametrize("iterations_per_token, simulated", [(None, True), (0, False)])
    def test_pipeline_follows_the_chat_model_burn(
        self, served_artifact, iterations_per_token, simulated
    ):
        cfg, artifact = served_artifact
        cfg = ReproConfig(iterations_per_token=iterations_per_token, retrieval=cfg.retrieval)
        reranker = pipeline_from_artifact(artifact, cfg, mode="rag+rerank").reranker
        assert reranker.simulate_latency is simulated


class TestRerankingRetriever:
    def test_k_to_l(self, store, chunks):
        rr = RerankingRetriever(
            retriever=VectorRetriever(store),
            reranker=FlashrankLiteReranker(chunks),
            first_pass_k=8,
        )
        out = rr.retrieve("Can KSP solve rectangular least squares problems?", k=4)
        assert len(out) == 4
        assert all(h.origin == "rerank[flashrank-lite]" for h in out)

    def test_k_larger_than_first_pass_rejected(self, store):
        rr = RerankingRetriever(
            retriever=VectorRetriever(store),
            reranker=FlashrankLiteReranker(),
            first_pass_k=4,
        )
        with pytest.raises(RerankError):
            rr.retrieve("q", k=8)

    def test_invalid_first_pass(self, store):
        with pytest.raises(RerankError):
            RerankingRetriever(
                retriever=VectorRetriever(store),
                reranker=FlashrankLiteReranker(),
                first_pass_k=0,
            )

    def test_detailed_returns_candidates(self, store, chunks):
        rr = RerankingRetriever(
            retriever=VectorRetriever(store),
            reranker=FlashrankLiteReranker(chunks),
            first_pass_k=8,
        )
        candidates, results = rr.retrieve_detailed("GMRES restart", k=4)
        assert len(candidates) == 8
        assert len(results) == 4


#: Scores every (question, chunk) pair with both rerankers and prints a
#: digest of the score bits.
_SCORE_DIGEST_SCRIPT = """
import hashlib, struct
from repro.corpus import build_default_corpus
from repro.corpus.builder import chunk_corpus
from repro.evaluation import krylov_benchmark
from repro.rerank import FlashrankLiteReranker, NvidiaSimReranker
chunks = chunk_corpus(build_default_corpus())
texts = [c.text for c in chunks]
h = hashlib.sha256()
for reranker in (FlashrankLiteReranker(chunks), NvidiaSimReranker(chunks)):
    for q in krylov_benchmark():
        for s in reranker.score_pairs(q.text, texts):
            h.update(struct.pack("<d", s))
print(h.hexdigest())
"""


class TestHashSeedIndependence:
    def test_scores_equal_under_two_hash_seeds(self):
        """Float sums must not follow set iteration order, which the
        process hash seed decides: the score bits of every pair must be
        the same under any ``PYTHONHASHSEED``."""
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _SCORE_DIGEST_SCRIPT],
                env=env, capture_output=True, text=True, timeout=600, check=True,
            )
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


# ---------------------------------------------------------------- feature table
def _ref_concept(token):
    if token in _CONCEPT_OF:
        return _CONCEPT_OF[token]
    for term, gid in _CONCEPT_OF.items():
        if len(term) >= 4 and token.startswith(term):
            return gid
    return None


_REF_DOCS: dict[str, tuple] = {}


def _ref_doc(text):
    """Document features as lists, sets and tuple bigrams, from scratch."""
    if text not in _REF_DOCS:
        d_stems = stemmed_tokens(text)
        d_terms = set(d_stems)
        d_concepts = {g for g in map(_ref_concept, d_terms) if g is not None}
        d_bigrams = set(word_ngrams([stem(t) for t in tokenize_with_stopwords(text)], 2))
        _REF_DOCS[text] = (d_stems, d_terms, d_concepts, d_bigrams)
    return _REF_DOCS[text]


def _ref_proximity(q_terms, d_tokens):
    targets = q_terms & set(d_tokens)
    if len(targets) < 2:
        return 1.0 if targets else 0.0
    have, count, best, left = Counter(), 0, len(d_tokens) + 1, 0
    for right, tok in enumerate(d_tokens):
        if tok in targets:
            have[tok] += 1
            count += have[tok] == 1
        while count == len(targets):
            best = min(best, right - left + 1)
            if d_tokens[left] in targets:
                have[d_tokens[left]] -= 1
                count -= have[d_tokens[left]] == 0
            left += 1
    return 0.0 if best > len(d_tokens) else len(targets) / best


#: (w_coverage, w_identifier, w_bigram, w_proximity, w_focus) per reranker.
_WEIGHTS = {
    FlashrankLiteReranker: (1.2, 0.5, 0.5, 0.0, 0.12),
    NvidiaSimReranker: (1.2, 0.5, 0.45, 0.2, 0.12),
}


@functools.lru_cache(maxsize=None)
def _ref_query(query):
    q_terms = set(stemmed_tokens(query))
    q_bigrams = set(word_ngrams([stem(t) for t in tokenize_with_stopwords(query)], 2))
    return q_terms, set(code_tokens(query)), q_bigrams


def _ref_score(weights, idf, query, text):
    """The interaction score of one pair, every feature from scratch."""
    w_cov, w_id, w_bi, w_prox, w_focus = weights
    default_idf = max(idf.values()) if idf else 1.0
    q_terms, idents, q_bigrams = _ref_query(query)
    d_stems, d_terms, d_concepts, d_bigrams = _ref_doc(text)
    cov = 0.0
    if q_terms:
        total = hit = 0.0
        for t in sorted(q_terms):
            w = idf.get(t, default_idf)
            total += w
            if t in d_terms:
                hit += w
            elif _ref_concept(t) is not None and _ref_concept(t) in d_concepts:
                hit += 0.7 * w
        if total > 0:
            cov = (hit / total) * (0.4 + 1.2 * (hit / (hit + 6.0)))
    s = w_cov * cov
    s += w_id * (sum(1 for i in idents if i in text) / len(idents) if idents else 0.0)
    s += w_bi * (len(q_bigrams & d_bigrams) / len(q_bigrams) if q_bigrams else 0.0)
    if w_prox:
        s += w_prox * _ref_proximity(q_terms, d_stems)
    s -= w_focus * (math.log(len(text) / 900) if len(text) > 900 else 0.0)
    return s


@pytest.fixture(scope="module", params=["petsc-embed-large", "petsc-embed-small"])
def served_artifact(request, bundle):
    cfg = ReproConfig(
        iterations_per_token=0, retrieval=RetrievalConfig(embedding_model=request.param)
    )
    return cfg, resolve_artifact(bundle, cfg)


class TestDocFeatureTable:
    @pytest.mark.parametrize("name", ["flashrank-lite", "nvidia-sim"])
    def test_table_scores_equal_from_scratch_bit_for_bit(self, served_artifact, name):
        cfg, artifact = served_artifact
        cfg = ReproConfig(
            iterations_per_token=0,
            retrieval=RetrievalConfig(
                embedding_model=cfg.retrieval.embedding_model, reranker=name
            ),
        )
        reranker = pipeline_from_artifact(artifact, cfg, mode="rag+rerank").reranker
        idf = build_idf(artifact.chunks)
        weights = _WEIGHTS[type(reranker)]
        texts = [c.text for c in artifact.chunks]
        assert len(texts) == 188
        for q in krylov_benchmark():
            got = reranker.score_pairs(q.text, texts)
            want = [_ref_score(weights, idf, q.text, t) for t in texts]
            assert got == want, q.qid

    def test_idf_from_table_equals_build_idf(self, served_artifact):
        _cfg, artifact = served_artifact
        assert artifact.rerank_table().idf == build_idf(artifact.chunks)
        assert set(artifact.rerank_table()) == {c.text for c in artifact.chunks}

    def test_reranker_over_documents_matches_reranker_over_table(self):
        table = DocFeatureTable(DOCS)
        for cls in (FlashrankLiteReranker, NvidiaSimReranker):
            a = cls(DOCS).score_pairs("GMRES restart memory", [d.text for d in DOCS])
            b = cls(table).score_pairs("GMRES restart memory", [d.text for d in DOCS])
            assert a == b

    def test_table_is_built_on_first_use(self, bundle):
        cfg = ReproConfig(
            iterations_per_token=0,
            retrieval=RetrievalConfig(embedding_model="petsc-embed-small"),
        )
        artifact = build_index(bundle, cfg)
        assert artifact.rerank_features is None
        table = artifact.rerank_table()
        assert artifact.rerank_table() is table
        assert table.computed == len(table) == len({c.text for c in artifact.chunks})

    def test_miss_is_computed_not_stored(self):
        table = DocFeatureTable(DOCS)
        text = "A text outside the table about GMRES restarts."
        assert table.get(text) == doc_features(text)
        assert text not in table and len(table) == len(DOCS)

    def test_reuse_shares_entries_and_computes_only_new_texts(self):
        parent = DocFeatureTable(DOCS)
        added = Document(text="Chebyshev needs eigenvalue bounds.", metadata={})
        child = DocFeatureTable([DOCS[0], added, DOCS[2]], reuse=[parent])
        assert child.computed == 1 and parent.computed == len(DOCS)
        assert child.get(DOCS[0].text) is parent.get(DOCS[0].text)
        assert list(child) == [DOCS[0].text, added.text, DOCS[2].text]

    @pytest.mark.parametrize("shards", [0, 2])
    def test_table_holds_only_live_chunks_after_delta_edits(self, bundle, shards):
        clear_index_cache()
        try:
            cfg = ReproConfig(
                iterations_per_token=0,
                retrieval=RetrievalConfig(embedding_model="petsc-embed-small"),
                sharding=ShardingConfig(num_shards=shards),
            )
            engine = open_engine(cfg, bundle=bundle)
            engine.answer("What does KSPGMRES do?")  # serving builds the table
            docs = list(bundle.documents)
            edits = [("faq.md", 0), ("faq.md", 1), (docs[3].metadata["source"], 2),
                     ("faq.md", 3)]
            for source, n in edits:
                i = next(j for j, d in enumerate(docs) if d.metadata.get("source") == source)
                docs[i] = Document(
                    text=docs[i].text + f"\n\nRevision {n}: clarified the guidance above.\n",
                    metadata=dict(docs[i].metadata),
                )
                report = ingest_corpus(
                    engine,
                    CorpusBundle(
                        registry=bundle.registry,
                        documents=list(docs),
                        manual_page_names=dict(bundle.manual_page_names),
                    ),
                )
                assert report.swapped and report.resolution == "delta"
                engine.answer("What does KSPGMRES do?")
                table = engine.artifact.rerank_features
                live = {c.text for c in engine.artifact.chunks}
                assert set(table) == live
                if shards:  # the composite shares its shards' entries
                    assert table.computed == 0
                else:
                    assert 0 < table.computed < len(live) / 10
                assert table.idf == build_idf(engine.artifact.chunks)
        finally:
            clear_index_cache()


_WORDS = st.sampled_from(
    ["the", "restart", "restarts", "of", "GMRES", "memory", "KSPSolve", "-ksp_rtol",
     "low-memory", "converged", "convergence", "a", "is", "solver", "solve", "x_1"]
)
_SEPS = st.sampled_from([" ", "  ", ", ", ". ", "\n", "-", "(", ") "])


@settings(max_examples=200, deadline=None)
@given(
    doc=st.lists(st.tuples(_WORDS, _SEPS), max_size=30),
    query=st.lists(st.tuples(_WORDS, _SEPS), max_size=8),
)
def test_bigram_encoding_matches_word_ngrams(doc, query):
    doc_text = "".join(w + sep for w, sep in doc)
    query_text = "".join(w + sep for w, sep in query)
    d_bigrams = set(word_ngrams([stem(t) for t in tokenize_with_stopwords(doc_text)], 2))
    q_bigrams = set(word_ngrams([stem(t) for t in tokenize_with_stopwords(query_text)], 2))
    tokens = doc_features(doc_text).tokens
    for a, b in q_bigrams | d_bigrams:
        assert (f" {a} {b} " in tokens) == ((a, b) in d_bigrams)
    sc = InteractionScorer()
    assert sc._bigram(sc._query(query_text), doc_features(doc_text)) == (
        len(q_bigrams & d_bigrams) / len(q_bigrams) if q_bigrams else 0.0
    )
