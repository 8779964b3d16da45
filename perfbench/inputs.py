"""Seeded input generators: every input a workload sends comes from here.

Each generator is a pure function of the ``--seed`` argument, so one
seed always yields the same stream and the program under test only ever
sees the generated inputs.  Streams are infinite; a workload takes as
many items as its timed phase consumes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

#: Plain-English framing for question variants.  None of these may
#: contain a token shaped like a PETSc identifier or option key, or the
#: simulated model would take the unknown-identifier refusal path.
OPENERS = (
    "Quick question.",
    "Hello everyone.",
    "Sorry if this is a basic one.",
    "I am fairly new to all of this.",
    "Thanks for all the help so far.",
    "I looked around but found nothing.",
    "A colleague asked me this today.",
    "This came up in a meeting this week.",
    "Hope this is the right place to ask.",
    "Apologies for the many questions lately.",
    "I have been stuck on this for a while.",
    "Another question from a beginner.",
    "Good morning.",
    "Following up on an earlier discussion.",
    "Asking on behalf of a student.",
    "Here is something I could not figure out.",
)

CLOSERS = (
    "Thanks in advance.",
    "Any pointers are appreciated.",
    "Many thanks.",
    "Cheers.",
    "Best regards.",
    "Thank you for your time.",
    "I appreciate any help.",
    "Looking forward to your reply.",
    "Thanks a lot.",
    "Grateful for any hints.",
    "Sorry again for the simple question.",
    "Have a nice day.",
    "Thanks for reading.",
    "Kind regards.",
    "Any advice would help.",
    "Thank you all.",
)

#: Sentences appended to edited documents.  Like the framing above they
#: carry no identifier-shaped token, so an edit changes chunk bytes (and
#: so exercises the delta lane) without adding or removing facts.
NOTES = (
    "This page was reviewed for clarity.",
    "Wording in this section was tightened.",
    "A typo in this section was corrected.",
    "Formatting of this page was cleaned up.",
    "Cross references on this page were checked.",
    "An example on this page was reworded.",
)

ZIPF_EXPONENT = 1.1


def _rng(workload: str, stream: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the interpreter build.
    return random.Random(f"perfbench:{workload}:{stream}:{seed}")


def question_variants(base: list[str], seed: int) -> Iterator[tuple[int, str]]:
    """``(base index, text)`` pairs: every base question once per pass,
    in a seeded order, each time with an opener and closer it has not
    used before, so no text ever repeats within a stream."""
    rng = _rng("cold_qa", "variants", seed)
    n = len(base)
    combos = list(itertools.product(range(len(OPENERS)), range(len(CLOSERS))))
    orders = [rng.sample(range(len(combos)), len(combos)) for _ in range(n)]
    for p in itertools.count():
        round_, slot = divmod(p, len(combos))
        for qi in rng.sample(range(n), n):
            o, c = combos[orders[qi][slot]]
            text = f"{OPENERS[o]} {base[qi]} {CLOSERS[c]}"
            if round_:
                text += f" (follow-up {round_})"
            yield qi, text


def zipf_batches(n: int, seed: int, *, batch_size: int) -> Iterator[list[int]]:
    """Batches of base-question indices drawn with Zipf-skewed weights
    over a seeded popularity ranking."""
    rng = _rng("hot_batch", "draws", seed)
    ranking = rng.sample(range(n), n)
    cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(n)))
    while True:
        yield rng.choices(ranking, cum_weights=cum, k=batch_size)


def permutation_stream(n: int, seed: int) -> Iterator[int]:
    """Base-question indices: successive seeded permutations of ``range(n)``."""
    rng = _rng("ingest_mix", "reads", seed)
    while True:
        yield from rng.sample(range(n), n)


@dataclass(frozen=True)
class Edit:
    """One corpus revision: append ``note`` to editable document ``doc``."""

    doc: int
    note: str


def edit_schedule(editable: int, seed: int) -> Iterator[Edit]:
    """One seeded single-document edit per cycle.  The note carries the
    cycle number, so every revision differs from every earlier one."""
    rng = _rng("ingest_mix", "edits", seed)
    for cycle in itertools.count():
        yield Edit(rng.randrange(editable), f"Revision {cycle}: {rng.choice(NOTES)}")
