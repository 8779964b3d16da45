"""The service layer: golden digest equivalence + front-door contract.

The golden fixtures in ``fixtures/service_golden.json`` were captured
from the PRE-refactor serving code (inline engine paths) on fixed seeds.
The tests here re-run the same workloads through the request lifecycle
and assert the answers/metrics/span digests reproduce those bytes
exactly — a cross-refactor equivalence oracle, not a self-fulfilling
snapshot.  Regenerate (deliberately!) with::

    PYTHONPATH=src:. python scripts/capture_service_golden.py

The rest of the file pins the front-door contract: backend misuse fails
fast with :class:`ServiceConfigurationError`, engine-less services
serve byte-identically to direct pipeline calls, and request-lifecycle
internals stay inside ``repro/service/service.py`` (architecture
conformance).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro.engine import QueryEngine
from repro.errors import ServiceConfigurationError
from repro.evaluation import krylov_benchmark, run_experiment
from repro.observability import MetricsRegistry, use_registry
from repro.service import ReproService
from tests.golden_workloads import (
    ask_workload,
    batch_workload,
    chaos_workload,
    overload_workload,
    sharded_workload,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "service_golden.json").read_text()
)


# ---------------------------------------------------------------------------
# Golden digest equivalence: service output == pre-refactor output, byte for byte
# ---------------------------------------------------------------------------
class TestGoldenDigests:
    def test_single_requests_match_pre_refactor(self, bundle):
        assert ask_workload(bundle) == GOLDEN["ask"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batch_matches_pre_refactor(self, bundle, workers):
        assert batch_workload(bundle, workers=workers) == GOLDEN["batch"][str(workers)]

    def test_batch_digests_invariant_across_worker_counts(self):
        seen = {json.dumps(v, sort_keys=True) for v in GOLDEN["batch"].values()}
        assert len(seen) == 1

    def test_sharded_matches_pre_refactor(self, bundle):
        assert sharded_workload(bundle) == GOLDEN["sharded"]

    def test_chaos_sweep_matches_pre_refactor(self, bundle):
        assert chaos_workload(bundle) == GOLDEN["chaos"]

    def test_overload_matches_pre_refactor(self, bundle):
        assert overload_workload(bundle) == GOLDEN["overload"]


# ---------------------------------------------------------------------------
# Front-door semantics
# ---------------------------------------------------------------------------
class TestFrontDoor:
    def test_service_needs_exactly_one_backend(self, bundle, fast_config, rag_pipeline):
        with pytest.raises(ServiceConfigurationError, match="exactly one backend"):
            ReproService()
        engine = QueryEngine.from_corpus(bundle, fast_config)
        with pytest.raises(ServiceConfigurationError, match="exactly one backend"):
            ReproService(engine=engine, pipeline=rag_pipeline)

    def test_engine_service_is_cached_singleton(self, bundle, fast_config):
        engine = QueryEngine.from_corpus(bundle, fast_config)
        assert engine.service is engine.service
        assert engine.service.engine is engine

    def test_engineless_service_matches_direct_pipeline(self, rag_pipeline):
        service = ReproService.for_pipeline(rag_pipeline)
        question = "How do I set the KSP tolerance?"
        via_service = service.answer(question)
        direct = rag_pipeline.answer(question)
        assert via_service.answer == direct.answer
        assert via_service.mode == direct.mode

    def test_engineless_batch_reports_wall_time(self, rag_pipeline):
        batch = ReproService.for_pipeline(rag_pipeline).answer_many(
            ["What is DMDA?", "What does KSPSolve do?"]
        )
        assert batch.answered_count == 2
        assert batch.batch_seconds > 0
        assert batch.questions_per_second > 0

    def test_engineless_service_rejects_other_modes(self, rag_pipeline):
        service = ReproService.for_pipeline(rag_pipeline)
        with pytest.raises(ServiceConfigurationError, match="bare"):
            service.answer("What is DMDA?", mode="rag+rerank")

    def test_single_is_batch_of_one(self, bundle, fast_config):
        question = "What is the default KSP type?"
        single = QueryEngine(
            QueryEngine.from_corpus(bundle, fast_config).artifact, fast_config
        ).answer(question, mode="rag")
        batch = QueryEngine(
            QueryEngine.from_corpus(bundle, fast_config).artifact, fast_config
        ).answer_many([question], mode="rag")
        assert batch.items[0].result.answer == single.answer
        assert batch.items[0].error == ""
        assert not batch.items[0].cached

    def test_single_answer_serves_cache_hit_on_repeat(self, bundle, fast_config):
        registry = MetricsRegistry()
        engine = QueryEngine.from_corpus(bundle, fast_config)
        engine = QueryEngine(engine.artifact, fast_config, registry=registry)
        first = engine.answer("What is DMDA?", mode="rag")
        second = engine.answer("What is DMDA?", mode="rag")
        assert second.answer == first.answer
        assert registry.counter("repro.engine.answer_cache.hits").value == 1
        assert registry.counter("repro.engine.requests").value == 2

    def test_workflow_and_chatbot_route_through_service(self, bundle, fast_config):
        workflow = repro.open_workflow(fast_config, bundle=bundle, mode="rag")
        assert isinstance(workflow.service, ReproService)
        assert workflow.service.engine is workflow.engine
        system = repro.open_support_system(fast_config, bundle=bundle)
        assert isinstance(system.chatbot.service, ReproService)
        assert system.chatbot.service.engine is system.chatbot.engine

    def test_run_experiment_accepts_service_and_legacy_pipeline(
        self, bundle, fast_config, grader, rag_pipeline
    ):
        questions = krylov_benchmark()[:3]
        service = QueryEngine.from_corpus(bundle, fast_config).service
        via_service = run_experiment(service, grader, mode="rag", questions=questions)
        legacy = run_experiment(rag_pipeline, grader, questions=questions)
        assert via_service.mode == legacy.mode == "rag"
        assert via_service.scores() == legacy.scores()

    def test_evaluate_run_builds_index_exactly_once(self, bundle, fast_config, grader):
        from repro.index import builder

        # Evict the memoized artifacts so the build lands in the scoped
        # registry, then restore them so session fixtures stay warm.
        with builder._cache_lock:
            saved = dict(builder._artifacts)
            builder._artifacts.clear()
        try:
            registry = MetricsRegistry()
            with use_registry(registry):
                service = QueryEngine.from_corpus(bundle, fast_config).service
                run = run_experiment(
                    service, grader, mode="rag", questions=krylov_benchmark()[:6]
                )
            assert len(run.outcomes) == 6
            assert registry.counter("repro.index.builds").value == 1
        finally:
            with builder._cache_lock:
                builder._artifacts.update(saved)


# ---------------------------------------------------------------------------
# Architecture conformance: lifecycle internals stay inside service/service.py
# ---------------------------------------------------------------------------
#: Serving internals only the service module may touch.
_SERVICE_ONLY = (
    r"pipeline\.answer\(",
    r"admission\.admit_(?:one|batch)\(",
    r"_answer_lru\.(?:peek|put|touch)\(",
)


def test_lifecycle_internals_confined_to_service_modules():
    src_root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root)
        if rel.as_posix() == "service/service.py":
            continue
        text = path.read_text(encoding="utf-8")
        for pattern in _SERVICE_ONLY:
            for match in re.finditer(pattern, text):
                line = text.count("\n", 0, match.start()) + 1
                offenders.append(f"src/repro/{rel}:{line}: {match.group(0)}")
    assert not offenders, (
        "request-lifecycle internals leaked outside repro/service/service.py "
        "(route through ReproService instead):\n" + "\n".join(offenders)
    )
