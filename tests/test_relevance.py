"""Tests for the question↔fact relevance model and hallucination generator."""

from __future__ import annotations

import pytest

from repro.corpus.facts import Fact, default_registry
from repro.llm.hallucination import HallucinationGenerator
from repro.llm.relevance import RelevanceModel
from repro.llm.simulated import ModelPersona, SimulatedChatModel


@pytest.fixture(scope="module")
def rel(registry):
    return RelevanceModel(registry)


@pytest.fixture(scope="module")
def halluc(registry):
    return HallucinationGenerator(registry)


class TestRelevanceScoring:
    def test_identifier_mention_scores_high(self, rel, registry):
        fact = registry.fact("ksplsqr.rectangular")
        on = rel.score(fact, "Tell me about KSPLSQR for my problem")
        off = rel.score(fact, "Tell me about multigrid smoothers")
        assert on > off

    def test_prefix_stripped_solver_names(self, rel, registry):
        fact = registry.fact("preonly.check")
        s = rel.score(fact, "I ran with -ksp_type preonly and got a wrong answer")
        assert s > 0.9

    def test_paraphrase_without_identifiers(self, rel, registry):
        fact = registry.fact("mf.shell")
        s = rel.score(
            fact,
            "Can we solve without assembling the matrix, supplying only a routine "
            "that applies the operator?",
        )
        assert s > 0.35

    def test_generic_topic_weighs_less_than_specific(self, rel):
        assert rel.topic_weight("KSP") < rel.topic_weight("KSPLSQR")

    def test_multiword_topic_substring(self, rel, registry):
        fact = registry.fact("ksplsqr.rectangular")
        s = rel.score(fact, "how do I solve a least squares fitting problem?")
        assert s > 1.0


class TestRelevanceSelection:
    def test_select_orders_by_score(self, rel, registry):
        facts = [registry.fact("ksplsqr.rectangular"), registry.fact("pcgamg.amg")]
        picked = rel.select(facts, "Can KSPLSQR handle rectangular least squares systems?")
        assert picked[0].fact.fact_id == "ksplsqr.rectangular"

    def test_select_empty_when_nothing_relevant(self, rel, registry):
        facts = [registry.fact("pcgamg.amg")]
        assert rel.select(facts, "how do I bake sourdough bread") == []

    def test_max_facts_cap(self, rel, registry):
        facts = list(registry.facts.values())
        picked = rel.select(facts, "how do I control KSP convergence tolerances?", max_facts=3)
        assert len(picked) <= 3

    def test_relative_floor_prunes_tail(self, rel, registry):
        facts = list(registry.facts.values())
        strict = rel.select(facts, "What does KSPLSQR do?", relative=0.5)
        loose = rel.select(facts, "What does KSPLSQR do?", relative=0.0, min_score=0.35)
        assert len(strict) <= len(loose)

    def test_deterministic_tiebreak(self, rel, registry):
        facts = list(registry.facts.values())
        a = [sf.fact.fact_id for sf in rel.select(facts, "KSP tolerances?")]
        b = [sf.fact.fact_id for sf in rel.select(facts, "KSP tolerances?")]
        assert a == b


class TestSharedRelevanceModel:
    def test_chat_models_over_one_registry_share_one_model(self):
        reg = default_registry()
        persona = ModelPersona(name="m", knowledge_rate=0.5, hallucination_rate=0.0)
        a = SimulatedChatModel(persona, reg)
        b = SimulatedChatModel(persona, reg)
        assert a.relevance is b.relevance is reg.relevance_model(RelevanceModel)

    def test_add_fact_invalidates_the_shared_model(self):
        reg = default_registry()
        before = reg.relevance_model(RelevanceModel)
        fact = Fact(
            fact_id="test.sourdough",
            statement="Sourdough starters need daily feeding.",
            signature=("sourdough",),
            topics=("sourdough",),
        )
        reg.add_fact(fact)
        after = reg.relevance_model(RelevanceModel)
        assert after is not before and after is reg.relevance_model(RelevanceModel)
        picked = after.select([fact], "How often do sourdough starters need feeding?")
        assert [sf.fact.fact_id for sf in picked] == ["test.sourdough"]
        assert after.topic_weight("sourdough") != 1.0  # 1.0 is the unknown-topic weight


class TestHallucination:
    def test_kspburb_uses_registered_fabrication(self, halluc, registry):
        text, falsehood = halluc.fabricate("KSPBurb", model_name="gpt-4o-sim")
        assert falsehood is not None and falsehood.false_id == "false.kspburb"
        assert registry.falsehood("false.kspburb").appears_in(text)

    def test_unregistered_identifier_gets_template(self, halluc):
        text, falsehood = halluc.fabricate("KSPZorp", model_name="gpt-4o-sim")
        assert falsehood is None
        assert "KSPZorp" in text

    def test_fabrication_deterministic(self, halluc):
        a, _ = halluc.fabricate("KSPZorp", model_name="m")
        b, _ = halluc.fabricate("KSPZorp", model_name="m")
        assert a == b

    def test_topical_falsehood_matches_topic(self, halluc):
        f = halluc.topical_falsehood(
            "why does GMRES memory stay constant with restart?", model_name="m"
        )
        assert f is not None
        assert "KSPGMRES" in f.topics or "memory" in [t.lower() for t in f.topics]

    def test_topical_falsehood_none_for_offtopic(self, halluc):
        assert halluc.topical_falsehood("how do I cook pasta", model_name="m") is None

    def test_fabrications_never_returned_as_topical(self, halluc, registry):
        """Fabrication falsehoods only surface for explicitly named APIs."""
        for q in ("how do I monitor residuals?", "how do I do a direct solve?"):
            f = halluc.topical_falsehood(q, model_name="m")
            if f is not None:
                assert not f.fabrication
