"""Exactness of the simulated model's context fact list.

The grounded model reads the registered facts out of its retrieved
context chunk by chunk, through a per-registry memo of each chunk's
fact set.  The list must equal ``FactRegistry.facts_in(context)`` —
same facts, same (registry) order — for every context the pipelines
produce and for any context ``format_context`` can frame, however the
memo was filled or evicted and however many threads share it.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import repro.corpus.facts as facts_module
from repro.config import RetrievalConfig, WorkflowConfig
from repro.corpus.facts import default_registry
from repro.documents import Document
from repro.engine import QueryEngine
from repro.evaluation import krylov_benchmark
from repro.llm.simulated import ModelPersona, SimulatedChatModel
from repro.pipeline import build_rag_pipeline
from repro.prompts import RAG_PROMPT, format_context
from repro.prompts.library import parse_rag_prompt
from repro.retrieval import RetrievedDocument


def ids(facts) -> list[str]:
    return [f.fact_id for f in facts]


def framed(blocks: list[tuple[str, str]]) -> str:
    """The context block the model parses out of a RAG prompt over ``blocks``."""
    hits = [
        RetrievedDocument(Document(text=text, metadata={"source": source}), 1.0, "vector")
        for source, text in blocks
    ]
    prompt = RAG_PROMPT.format(context=format_context(hits), question="Which solver?")
    return parse_rag_prompt(prompt).context


@pytest.fixture(scope="module")
def model(registry):
    persona = ModelPersona(name="exactness-sim", knowledge_rate=0.5, hallucination_rate=0.0)
    return SimulatedChatModel(persona, registry)


@pytest.fixture(scope="module")
def pipeline_contexts(bundle):
    """Every context the 37 Krylov questions produce, per embedding and mode."""
    contexts = []
    for embedding in ("petsc-embed-large", "petsc-embed-small"):
        config = WorkflowConfig(
            iterations_per_token=0, retrieval=RetrievalConfig(embedding_model=embedding)
        )
        for mode in ("rag", "rag+rerank"):
            pipeline = build_rag_pipeline(bundle, config, mode=mode)
            for question in krylov_benchmark():
                context = parse_rag_prompt(pipeline.answer(question.text).prompt).context
                assert context is not None, (embedding, mode, question.qid)
                contexts.append(context)
    return contexts


def test_every_pipeline_context_matches_the_whole_context_scan(
    model, registry, pipeline_contexts
):
    assert len(pipeline_contexts) == 4 * 37
    found = 0
    for context in pipeline_contexts:
        expected = ids(registry.facts_in(context))
        assert ids(model._context_facts(context)) == expected
        found += len(expected)
    assert found > 0


def test_repeated_contexts_stay_exact(model, registry, pipeline_contexts):
    # A second pass sees every chunk again, at the same and other ranks.
    for context in reversed(pipeline_contexts):
        assert ids(model._context_facts(context)) == ids(registry.facts_in(context))


def test_chunk_fact_sets_equal_build_time_tags(model, chunks):
    for chunk in chunks:
        tagged = chunk.metadata.get("facts")
        expected = tagged.split(",") if tagged else []
        assert sorted(ids(model._context_facts(chunk.text))) == expected, chunk.text[:60]


def test_multiword_term_split_across_blocks(model, registry):
    fact = registry.fact("ksplsqr.rectangular")
    assert "least squares" in fact.signature
    blocks = [
        ("notes.md", "Many users ask about least squares."),
        ("manualpages/KSP/KSPLSQR.md", fact.statement.replace("least squares", "least  squares")),
    ]
    context = framed(blocks)
    # No single block asserts the fact: block 2 spells the term with two
    # spaces, which only the sentence check normalises away ...
    for _, text in blocks:
        assert fact not in registry.facts_in(text)
    # ... but the whole context does, because block 1 supplies the raw term.
    assert fact in registry.facts_in(context)
    assert ids(model._context_facts(context)) == ids(registry.facts_in(context))


# ---------------------------------------------------------------------------
# Property: any format_context framing of corpus lines and statements
# ---------------------------------------------------------------------------
_WHITESPACE_RUNS = ("  ", "\t", " \t ", " ", "   ", "\n")


@pytest.fixture(scope="module")
def framed_blocks(bundle):
    """Strategy: ``(source, text)`` blocks of corpus lines, fact and
    falsehood statements (multi-word terms respaced) and bare terms."""
    registry = bundle.registry
    lines = sorted({ln for d in bundle.documents for ln in d.text.splitlines() if ln.strip()})
    items = list(registry.facts.values()) + list(registry.falsehoods.values())
    terms = sorted({t for item in items for t in item.signature})
    sources = sorted({d.metadata.get("source", "unknown") for d in bundle.documents})[:20]

    @st.composite
    def statement(draw):
        item = draw(st.sampled_from(items))
        text = item.statement
        for term in item.signature:
            if " " in term and draw(st.booleans()):
                text = text.replace(term, term.replace(" ", draw(st.sampled_from(_WHITESPACE_RUNS))))
        return text

    line = st.one_of(
        st.sampled_from(lines),
        statement(),
        st.lists(st.sampled_from(terms), min_size=1, max_size=4).map(" ".join),
    )
    block = st.lists(line, min_size=1, max_size=6).map("\n".join)
    # Header lines are sentences of the context too: let some carry facts.
    source = st.one_of(st.sampled_from(sources), line)
    return st.lists(st.tuples(source, block), min_size=1, max_size=5)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_framed_contexts_match_the_whole_context_scan(data, framed_blocks, registry, model):
    context = framed(data.draw(framed_blocks))
    assert ids(model._context_facts(context)) == ids(registry.facts_in(context))


# ---------------------------------------------------------------------------
# The per-block memo: bounded, and safe under concurrent callers
# ---------------------------------------------------------------------------
def run_threads(fn) -> list:
    """``fn(0..7)`` on 8 threads started together, switching threads often."""
    start = threading.Barrier(8)

    def worker(i: int):
        start.wait(timeout=60)
        return fn(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, i) for i in range(8)]
            return [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def test_memo_stays_bounded_and_exact(monkeypatch, chunks):
    monkeypatch.setattr(facts_module, "_BLOCK_MEMO_CAP", 16)
    registry = default_registry()
    texts = [c.text for c in chunks[:56]]
    for text in texts + texts[:8]:
        assert ids(registry.facts_in_blocks(text, [text])) == ids(registry.facts_in(text))
        assert len(registry._block_memo) <= 16
    assert len(registry._block_memo) == 16


def test_memo_is_exact_under_concurrent_callers(monkeypatch, pipeline_contexts):
    # A small cap makes the threads evict while others read and insert.
    monkeypatch.setattr(facts_module, "_BLOCK_MEMO_CAP", 64)
    registry = default_registry()
    persona = ModelPersona(name="threads-sim", knowledge_rate=0.5, hallucination_rate=0.0)
    model = SimulatedChatModel(persona, registry)
    expected = [ids(registry.facts_in(c)) for c in pipeline_contexts]

    def run(offset: int) -> list[list[str]]:
        n = len(pipeline_contexts)
        order = [(offset * 17 + i) % n for i in range(n)]
        got = [None] * n
        for i in order:
            got[i] = ids(model._context_facts(pipeline_contexts[i]))
        return got

    assert run_threads(run) == [expected] * 8


def test_threads_through_one_service_match_the_sequential_run(bundle, fast_config):
    questions = [q.text for q in krylov_benchmark()]
    artifact = QueryEngine.from_corpus(bundle, fast_config).artifact
    sequential = QueryEngine(artifact, fast_config).service
    expected = {q: sequential.answer(q, mode="rag+rerank").answer for q in questions}

    artifact.registry._block_memo.clear()
    service = QueryEngine(artifact, fast_config).service

    def run(offset: int) -> dict[str, str]:
        rotated = questions[offset * 5 :] + questions[: offset * 5]
        return {q: service.answer(q, mode="rag+rerank").answer for q in rotated}

    assert run_threads(run) == [expected] * 8
