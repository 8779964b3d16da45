"""Tests of the benchmark's own machinery.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
from inputs import (  # noqa: E402
    CLOSERS,
    NOTES,
    OPENERS,
    edit_schedule,
    permutation_stream,
    question_variants,
    zipf_batches,
)
from quantiles import MIN_TAIL, TooFewSamples, percentile  # noqa: E402
from spans import Recorder, Span, covered_length, instrument, self_time_by_name, self_times  # noqa: E402

from repro.evaluation.benchmark import krylov_benchmark  # noqa: E402
from repro.utils.textproc import code_tokens  # noqa: E402

BASE = [q.text for q in krylov_benchmark()]


def take(stream, n):
    return list(itertools.islice(stream, n))


# ------------------------------------------------------------ input streams
STREAMS = {
    "variants": lambda seed: question_variants(BASE, seed),
    "zipf": lambda seed: zipf_batches(len(BASE), seed, batch_size=64),
    "reads": lambda seed: permutation_stream(len(BASE), seed),
    "edits": lambda seed: edit_schedule(120, seed),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_seed_same_stream(name):
    make = STREAMS[name]
    assert take(make(7), 300) == take(make(7), 300)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_different_seeds_different_streams(name):
    make = STREAMS[name]
    assert take(make(7), 300) != take(make(8), 300)


def test_framing_has_no_identifier_shaped_token():
    for text in OPENERS + CLOSERS + NOTES:
        assert code_tokens(text) == [], text


def test_variants_never_repeat_and_add_no_identifier():
    combos = len(OPENERS) * len(CLOSERS)
    # Past one full round of framings, into the numbered follow-ups.
    items = take(question_variants(BASE, 3), len(BASE) * (combos + 2))
    texts = [text for _, text in items]
    assert len(set(texts)) == len(texts)
    for qi, text in items[: 5 * len(BASE)]:
        assert sorted(code_tokens(text)) == sorted(code_tokens(BASE[qi]))


def test_every_pass_covers_every_question_once():
    items = take(question_variants(BASE, 5), 3 * len(BASE))
    for p in range(3):
        chunk = items[p * len(BASE) : (p + 1) * len(BASE)]
        assert sorted(qi for qi, _ in chunk) == list(range(len(BASE)))


def test_edit_notes_are_unique_per_cycle():
    edits = take(edit_schedule(10, 4), 200)
    assert len({e.note for e in edits}) == 200
    assert all(0 <= e.doc < 10 for e in edits)


# ------------------------------------------------------------ percentiles
@pytest.mark.parametrize("q,n_ok", [(50, 20), (75, 40), (90, 100), (95, 200), (99, 1000)])
def test_tail_rule(q, n_ok):
    values = [float(v) for v in range(n_ok)]
    assert percentile(values, q) == values[q * n_ok // 100 - 1]
    with pytest.raises(TooFewSamples):
        percentile(values[:-1], q)


def test_percentile_ignores_input_order():
    values = [float(v) for v in range(200)]
    assert percentile(values[::-1], 90) == percentile(values, 90) == 179.0
    assert MIN_TAIL == 10


# ------------------------------------------------------------ self time
def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, 0)


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([], 0, 10) == 0
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3


def test_self_time_on_synthetic_tree():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: another thread
        span(4, "leaf", 2.0, 3.0, parent=2),
        span(5, "leaf", 7.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    # root: 10 minus the union [1, 6] and [7, 8].
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}
    assert self_time_by_name(spans) == {"root": 4.0, "a": 2.0, "b": 3.0, "leaf": 2.0}


def test_sequential_self_times_sum_to_root_duration():
    spans = [
        span(1, "op", 0.0, 9.0),
        span(2, "x", 1.0, 5.0, parent=1),
        span(3, "y", 2.0, 4.0, parent=2),
        span(4, "z", 6.0, 8.5, parent=1),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(9.0)


# ------------------------------------------------------------ recorder
def test_recorder_links_parents_and_worker_threads():
    ticks = itertools.count()
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.request = 3
    rec.open("op")
    rec.open("child")
    rec.close()
    worker = threading.Thread(target=lambda: (rec.open("pooled"), rec.close()))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    rec.close()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["op"].parent is None
    assert by_name["child"].parent == by_name["op"].sid
    assert by_name["pooled"].parent == by_name["op"].sid
    assert {s.request for s in rec.spans} == {3}


def test_instrument_wraps_and_restores():
    class Owner:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    original = Owner.__dict__["outer"]
    rec = Recorder()
    undo = instrument(rec, [(Owner, "outer", "outer", None), (Owner, "inner", "inner", "outer")])
    assert Owner().outer() == 2
    assert Owner().inner() == 1  # not inside "outer": untraced
    undo()
    assert Owner.__dict__["outer"] is original
    assert [s.name for s in rec.spans] == ["inner", "outer"]


# ------------------------------------------------------------ calibration
def test_call_scales_by_the_bracketing_samples(monkeypatch):
    # Clock readings in seconds, in the order Calibration.call reads them.
    ticks = iter([
        0.0,             # freshness check: no sample yet
        0.0, 0.004,      # first sample: 4 ms
        0.004, 0.010,    # the request: 6 ms
        0.010, 0.012,    # second sample: 2 ms
        0.0125,          # freshness check: the 2 ms sample is reused
        0.013, 0.014,    # the request: 1 ms
        0.014, 0.016,    # next sample: 2 ms
    ])
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(calibrate, "reference_loop", lambda: 0)
    clock = calibrate.Calibration()
    assert clock.call(lambda x: x + 1, 1) == (2, pytest.approx(6 / 3))
    assert clock.call(lambda: None) == (None, pytest.approx(1 / 2))
    assert clock.samples_ms == pytest.approx([4, 2, 2])
