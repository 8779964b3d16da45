"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_qa --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` the timed phase is split in two, an untraced half and
a traced half, and the metrics are the per-layer ones, taken from the
traced half.  ``BENCHMARK.json`` names and explains every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans of traced runs are written here, one JSON array per line.
OUT = ROOT / ".perfbench_out"
#: Set-up runs per invocation; ``setup_s`` is their median.
SETUPS = 3
#: Reference-loop samples taken after each set-up.
SETUP_SAMPLES = 10
#: Seconds of ops between two side probes (see :func:`timed_phase`).
SIDE_EVERY = 0.05
#: Span name of a reference-loop sample in the traced half; it is the
#: benchmark's own work, so it counts as neither a layer nor residual.
CALIBRATE = "calibrate"

_LAYERS_MS = (
    ("workflow.self_ms", "workflow"),
    ("postprocess.render_ms", "postprocess.render"),
    ("history.record_ms", "history.record"),
    ("service.self_ms", "service"),
    ("pipeline.self_ms", "pipeline"),
    ("embeddings.embed_query_ms", "embeddings.embed_query"),
    ("vectorstore.topk_ms", "vectorstore.topk"),
    ("retrieval.keyword_ms", "retrieval.keyword"),
    ("rerank.rerank_ms", "rerank.rerank"),
    ("rerank.build_ms", "rerank.build"),
    ("prompts.format_ms", "prompts.format"),
    ("llm.complete_ms", "llm.complete"),
    ("llm.facts_in_ms", "llm.facts_in"),
    ("llm.relevance_ms", "llm.relevance"),
    ("llm.burn_ms", "llm.burn"),
    ("ingest.resolve_ms", "ingest.resolve"),
    ("ingest.build_ms", "ingest.build"),
    ("ingest.diff_ms", "ingest.diff"),
    ("ingest.swap_ms", "ingest.swap"),
    ("ingest.invalidate_ms", "ingest.invalidate"),
)

#: Engine cache ratios: (metric prefix, program counter prefix).
_CACHES = (
    ("engine.answer", "repro.engine.answer_cache"),
    ("engine.retrieval", "repro.engine.retrieval_cache"),
    ("engine.embed", "repro.engine.embedding_cache"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_phase(workload, rec, seconds: float, clock) -> None:
    """Run ops until ``seconds`` have passed, timing every request with
    ``clock``.  Every ``SIDE_EVERY`` seconds, between two ops, run the
    workload's side probe; it does not count as op time."""
    workload.clock = clock
    now = time.perf_counter()
    deadline = now + seconds
    next_side = now
    request = 0
    while now < deadline:
        if rec is not None:
            rec.request = request
        workload.step(rec)
        request += 1
        now = time.perf_counter()
        if now >= next_side:
            if rec is not None:
                rec.request = None
            workload.side()
            now = time.perf_counter()
            next_side = now + SIDE_EVERY


def counters(registry) -> dict[str, int]:
    names = [f"{prefix}.{kind}" for _, prefix in _CACHES for kind in ("hits", "misses")]
    names.append("repro.ingest.chunks_embedded")
    return {name: registry.counter(name).value for name in names}


def end_to_end(workload, setup_s: float, outcome: dict) -> dict:
    """End-to-end metrics; the workload's times are already scaled."""
    from quantiles import median, percentile

    answers, batches, ingests = workload.answer_ms, workload.batch_ms, workload.ingest_ms
    return {
        "setup_s": (setup_s, "s"),
        "answer_p50_ms": (median(answers), "ms"),
        "answer_p95_ms": (percentile(answers, 95), "ms"),
        "qps": (workload.answered / (math.fsum(workload.op_ms) / 1e3), "1/s"),
        "batch_p50_ms": (median(batches), "ms"),
        "batch_p90_ms": (percentile(batches, 90), "ms"),
        "ingest_p50_ms": (median(ingests), "ms"),
        "ingest_p75_ms": (percentile(ingests, 75), "ms"),
        "rubric_mean": (outcome["rubric"], "score"),
        "success_rate": (1.0 - workload.failed / workload.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(rec, cals: dict, op_ms: dict[str, list[float]], before: dict, after: dict) -> dict:
    """Per-layer metrics of the traced half.  Span times are scaled by
    their phase's median reference sample in ``cals``; ``op_ms`` holds
    each half's op times, already scaled request by request."""
    from quantiles import TooFewSamples, median
    from spans import self_time_by_name

    timed = [s for s in rec.spans if s.request is not None and s.request >= 0]
    ops = [s for s in timed if s.name == "op"]
    n = len(ops)
    if n == 0:
        raise TooFewSamples("the traced half completed no op")
    k = cals["traced"].factor
    own = self_time_by_name(timed)
    out: dict[str, tuple[float, str]] = {
        metric: (k * own.get(name, 0.0) / n * 1e3, "ms") for metric, name in _LAYERS_MS
    }
    for metric in ("index.build", "corpus.build"):
        durations = [s.duration for s in rec.spans if s.name == metric]
        out[f"{metric}_ms"] = (cals["setup"].factor * statistics.fmean(durations) * 1e3, "ms")
    delta = {k: after[k] - before[k] for k in after}
    for metric, prefix in _CACHES:
        hits = delta[f"{prefix}.hits"]
        lookups = hits + delta[f"{prefix}.misses"]
        out[f"{metric}_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        out[f"{metric}_lookups"] = (lookups, "count")
    out["ingest.chunks_embedded"] = (delta["repro.ingest.chunks_embedded"] / n, "count")
    out["pipeline.runs"] = (sum(1 for s in timed if s.name == "pipeline"), "count")
    out["trace.ops"] = (n, "count")
    # What no layer covers of an op; reference samples inside the op are
    # its children, so the op's own self time already leaves them out.
    out["trace.residual_ms"] = (k * own["op"] / n * 1e3, "ms")
    out["trace.overhead_ms"] = (median(op_ms["traced"]) - median(op_ms["untraced"]), "ms")
    out["machine.loop_ms"] = (cals["traced"].loop_ms, "ms")
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from calibrate import REFERENCE_MS, Calibration
    from quantiles import TooFewSamples
    from spans import Recorder, instrument
    from workloads import WORKLOADS, WorkloadError, layer_targets

    from repro.observability import MetricsRegistry, use_registry

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    rec = Recorder() if args.trace else None
    registry = MetricsRegistry()
    cals = {"setup": Calibration(), "untraced": Calibration(), "traced": Calibration()}
    try:
        with use_registry(registry):
            setup_s = []
            for i in range(SETUPS):
                if rec is not None:
                    rec.request = -1 - i
                t0 = time.perf_counter()
                workload.setup(rec)
                setup_s.append(time.perf_counter() - t0)
                for _ in range(SETUP_SAMPLES):
                    cals["setup"].sample()
            workload.warmup()
            if rec is None:
                timed_phase(workload, None, args.seconds, cals["untraced"])
            else:
                timed_phase(workload, None, args.seconds / 2, cals["untraced"])
                untraced = len(workload.op_ms)
                before = counters(registry)
                undo = instrument(
                    rec, [*layer_targets(), (Calibration, "sample", CALIBRATE, None)]
                )
                try:
                    timed_phase(workload, rec, args.seconds / 2, cals["traced"])
                finally:
                    undo()
                after = counters(registry)
                op_ms = {"untraced": workload.op_ms[:untraced],
                         "traced": workload.op_ms[untraced:]}
            outcome = workload.finish()
            if rec is None:
                setup = cals["setup"].factor * statistics.median(setup_s)
                metrics = end_to_end(workload, setup, outcome)
            else:
                metrics = per_layer(rec, cals, op_ms, before, after)
                rec.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    except (TooFewSamples, WorkloadError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    for reason in workload.failures + workload.problems:
        print(f"problem: {reason}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(workload.op_ms)} answered={workload.answered}")
    print(f"answers_digest={outcome['digest']} rubric_mean={outcome['rubric']!r}")
    loops = ", ".join(f"{phase} {cal.loop_ms:.4f} ms" for phase, cal in cals.items() if cal.samples_ms)
    print(f"reference loop medians: {loops} (times below are scaled to {REFERENCE_MS} ms)")
    result = {
        "correct": workload.failed == 0 and not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
