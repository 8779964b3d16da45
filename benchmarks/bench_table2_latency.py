"""E4 — Table II: run time for RAG and the LLM (seconds).

Paper (Intel i7-11700KF):

                 RAG                      RAG+reranking
             Min   Max   Avg           Min   Max   Avg
RAG time     0.16  3.11  0.44          0.48  5.71  1.05
LLM response 2.74 16.47  9.56          2.28 15.62  9.63

Shape targets: reranking multiplies the RAG stage time by roughly 2.4x,
and the rerank-enhanced RAG stage stays a small fraction (<11%) of the
LLM response time.  Our absolute numbers are much smaller (the simulated
LLM generates in tens of milliseconds, and the vector DB holds hundreds
of chunks rather than the full petsc.org corpus), but both ratios are
measured for real: the pipeline stages do genuine work, the simulated
model burns genuine per-token compute, and the reranker burns a simulated
cross-encoder's per-pair compute (DESIGN.md §16).

Since the observability layer, every answer carries a span tree, so this
bench also reports per-stage percentiles (p50/p90/p99 over locate,
refine, and llm spans) and writes them — with a structure digest of the
span trees — to ``BENCH_table2_latency.json`` at the repo root as the
perf baseline for future runs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.evaluation import render_latency_table

_STAGES = ("locate", "refine", "llm")
_OUT = Path(__file__).resolve().parent.parent / "BENCH_table2_latency.json"


def _stage_percentiles(run) -> dict[str, dict[str, float]]:
    """p50/p90/p99 (ms) per pipeline stage, computed from span trees."""
    samples: dict[str, list[float]] = {s: [] for s in _STAGES}
    for o in run.outcomes:
        trace = o.result.trace
        if trace is None:
            continue
        for stage in _STAGES:
            seconds = trace.stage_seconds(stage)
            if seconds > 0:
                samples[stage].append(1000.0 * seconds)
    out: dict[str, dict[str, float]] = {}
    for stage, values in samples.items():
        if not values:
            continue
        arr = np.asarray(values)
        out[stage] = {
            "count": int(arr.size),
            "p50_ms": round(float(np.percentile(arr, 50)), 3),
            "p90_ms": round(float(np.percentile(arr, 90)), 3),
            "p99_ms": round(float(np.percentile(arr, 99)), 3),
            "mean_ms": round(float(arr.mean()), 3),
        }
    return out


def _span_digest(runs) -> str:
    digests = [
        o.result.trace.structure_digest()
        for run in runs
        for o in run.outcomes
        if o.result.trace is not None
    ]
    return hashlib.sha256(json.dumps(digests).encode()).hexdigest()


def test_table2_latency(benchmark, runs_timed):
    rag_run = runs_timed["rag"]
    rerank_run = runs_timed["rag+rerank"]

    def summarize():
        return (
            rag_run.rag_stats(),
            rerank_run.rag_stats(),
            rag_run.llm_stats(),
            rerank_run.llm_stats(),
        )

    rag_t, rerank_t, llm_rag_t, llm_rerank_t = benchmark.pedantic(
        summarize, rounds=1, iterations=1
    )

    print()
    print("Table II — run time for RAG and the LLM (seconds)")
    print(render_latency_table(rag_t, rerank_t, llm_rag_t, llm_rerank_t))

    # Every answer must carry a well-formed span tree.
    for run in runs_timed.values():
        for o in run.outcomes:
            assert o.result.trace is not None, f"{o.question.qid}: no trace"
            violations = o.result.trace.validate()
            assert not violations, f"{o.question.qid}: {violations}"

    percentiles = {
        mode: _stage_percentiles(run) for mode, run in runs_timed.items()
    }
    print("per-stage percentiles (ms, from spans):")
    for mode, stages in percentiles.items():
        for stage, stats in stages.items():
            print(
                f"  {mode:<12}{stage:<8}"
                f"p50 {stats['p50_ms']:>8.3f}  p90 {stats['p90_ms']:>8.3f}  "
                f"p99 {stats['p99_ms']:>8.3f}"
            )

    _OUT.write_text(
        json.dumps(
            {
                "bench": "table2_latency",
                "stage_percentiles": percentiles,
                "span_digest": _span_digest(runs_timed.values()),
                "table": {
                    "rag": {"min": rag_t.minimum, "max": rag_t.maximum, "avg": rag_t.average},
                    "rag+rerank": {
                        "min": rerank_t.minimum, "max": rerank_t.maximum, "avg": rerank_t.average,
                    },
                    "llm(rag)": {
                        "min": llm_rag_t.minimum, "max": llm_rag_t.maximum, "avg": llm_rag_t.average,
                    },
                    "llm(rag+rerank)": {
                        "min": llm_rerank_t.minimum,
                        "max": llm_rerank_t.maximum,
                        "avg": llm_rerank_t.average,
                    },
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    ratio = rerank_t.average / rag_t.average
    frac = rerank_t.average / llm_rerank_t.average
    # Reranking adds meaningful RAG-stage cost (paper: ~2.4x) ...
    assert ratio > 1.2, f"reranking multiplied RAG time by only {ratio:.2f}x"
    # ... while the RAG stage stays well below the LLM response time
    # (paper: < 11%; we allow < 60% since our simulated LLM is fast).
    assert frac < 0.6, f"RAG stage is {100 * frac:.0f}% of LLM time"
