"""Rerank document features, computed once per chunk text.

Every feature the rerankers read from a document depends on its text
alone, so it is computed once per serving artifact and kept in a
:class:`DocFeatureTable` keyed by chunk text.  A delta build copies the
parent table's entries for unchanged chunk texts and computes only the
added ones; the IDF table is a count over the entries' term sets, so a
reranker built over an artifact's table stems nothing (DESIGN.md §16).

An entry is compact: two frozensets and two strings.  Bigrams are not
stored as tuples: the stopword-kept stems are joined by single spaces
and padded with one at each end, and a bigram ``(a, b)`` occurs in the
document exactly when ``f" {a} {b} "`` occurs in that string, because
no token contains whitespace.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.documents import Document
from repro.utils.textproc import stem, tokenize, tokenize_with_stopwords

#: Concept clusters (stem space): a trained domain reranker's notion of
#: near-synonyms.  Each group maps query terms onto document terms that
#: express the same concept.
_CONCEPT_GROUPS: tuple[tuple[str, ...], ...] = (
    ("time", "timing", "measur", "profil", "performanc", "summary", "flop", "-log_view"),
    ("memory", "allocat", "storag", "restart"),
    ("print", "display", "show", "view", "monitor", "output"),
    ("fail", "error", "diverg", "breakdown", "stopp", "wrong"),
    ("rectangular", "square", "overdetermined", "underdetermined", "least"),
    ("transpos", "adjoint"),
    ("scal", "scalability", "rank", "process", "reduct", "synchron", "latency",
     "bottleneck", "pipelin"),
    ("default", "choos", "pick"),
    ("preconditio", "pc"),
    ("singular", "null", "nullspac", "neumann"),
    ("assembl", "setvalu", "prealloc", "insert"),
    ("stagnat", "converg", "toler", "rtol"),
    ("sufficient", "insufficient", "success", "report", "malloc", "diagnos"),
)


def _concept_index() -> dict[str, int]:
    index: dict[str, int] = {}
    for gid, group in enumerate(_CONCEPT_GROUPS):
        for term in group:
            index[term] = gid
    return index


_CONCEPT_OF: dict[str, int] = _concept_index()
#: The terms that also match as prefixes.
_PREFIXES: tuple[str, ...] = tuple(term for term in _CONCEPT_OF if len(term) >= 4)


def concept_id(token: str) -> int | None:
    """The concept-group id of a (stemmed) token, by prefix match."""
    if token in _CONCEPT_OF:
        return _CONCEPT_OF[token]
    # One C-level test turns away most tokens before the per-term loop;
    # a full table build calls this for every term of every chunk.
    if not token.startswith(_PREFIXES):
        return None
    for term, gid in _CONCEPT_OF.items():
        if len(term) >= 4 and token.startswith(term):
            return gid
    return None


@dataclass(frozen=True, slots=True)
class DocFeatures:
    """What the rerankers read from one document text.

    ``terms`` is the set of stemmed, stopword-filtered tokens and
    ``concepts`` their concept-group ids.  ``tokens`` holds the
    stopword-kept stems as ``" a b c "`` (bigram tests); ``stems`` the
    stopword-filtered stems in order, space-joined (proximity window).
    """

    terms: frozenset[str]
    concepts: frozenset[int]
    tokens: str
    stems: str


class _FeatureBuilder:
    """Computes entries, stemming each distinct token once across texts.

    Stems are interned, so equal terms in different entries (and
    different tables) are one string object.
    """

    def __init__(self) -> None:
        self._stems: dict[str, str] = {}

    def _stem(self, token: str) -> str:
        s = self._stems.get(token)
        if s is None:
            s = self._stems[token] = sys.intern(stem(token))
        return s

    def __call__(self, text: str) -> DocFeatures:
        d_stems = [self._stem(t) for t in tokenize(text)]
        terms = frozenset(d_stems)
        concepts = frozenset(g for g in map(concept_id, terms) if g is not None)
        kept = " ".join(self._stem(t) for t in tokenize_with_stopwords(text))
        return DocFeatures(terms, concepts, f" {kept} ", " ".join(d_stems))


def doc_features(text: str) -> DocFeatures:
    """The features of one text, computed from scratch."""
    return _FeatureBuilder()(text)


class DocFeatureTable:
    """Rerank features of one chunk list, keyed by chunk text.

    Holds exactly the texts of ``chunks``.  Entries of the ``reuse``
    tables are shared, not recomputed, for every text they hold; only
    the rest are computed (``computed`` counts them).  A text outside
    the table is computed on each :meth:`get` and never stored, so the
    table never outgrows the corpus it was built for.
    """

    def __init__(
        self, chunks: Sequence[Document] = (), *, reuse: Iterable["DocFeatureTable"] = ()
    ) -> None:
        self._texts = tuple(c.text for c in chunks)
        sources = [table._entries for table in reuse]
        build = _FeatureBuilder()
        entries: dict[str, DocFeatures] = {}
        computed = 0
        for text in self._texts:
            if text in entries:
                continue
            for src in sources:
                entry = src.get(text)
                if entry is not None:
                    break
            else:
                entry = build(text)
                computed += 1
            entries[text] = entry
        self._entries = entries
        self.computed = computed

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def get(self, text: str) -> DocFeatures:
        """``text``'s entry, computed afresh (not stored) on a miss."""
        entry = self._entries.get(text)
        return entry if entry is not None else doc_features(text)

    @cached_property
    def idf(self) -> dict[str, float]:
        """Smoothed IDF over the chunks; equals ``build_idf(chunks)``."""
        df: Counter[str] = Counter()
        for text in self._texts:
            df.update(self._entries[text].terms)
        n = max(len(self._texts), 1)
        return {t: math.log((1 + n) / (1 + c)) + 1.0 for t, c in df.items()}


def feature_table(corpus: "Sequence[Document] | DocFeatureTable | None") -> DocFeatureTable:
    """A reranker's feature table: ``corpus`` itself when it is one (the
    serving artifact's), else one built over the given documents."""
    if isinstance(corpus, DocFeatureTable):
        return corpus
    return DocFeatureTable(corpus or ())
