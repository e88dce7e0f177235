"""Term-statistics index and the cosine similarity used by every retrieval step.

An index is an idf table, immutable once built. Similarities are always in
[0, 1]: weights are nonnegative (raw term counts times a smoothed idf), so
the cosine of two vectors cannot go negative, and an empty vector yields
similarity 0.

Term counts are the unit of work. A text is tokenized once, by `term_counts`,
and its Counter then stands in for the text everywhere a document is taken:
`build_index`, `TfIdfIndex.vectorize` and `similarity` accept either. The
counts of two texts joined by whitespace are the sum of their counts (no
token spans whitespace), so joined texts need no re-tokenizing. A vector
computes its norm once. A fixed corpus scored against many one-document
queries tables its idf once (`CorpusIdf`), so a query's idf needs no
counting and no logarithm. There is no process-wide cache: counts live with
the object that owns the text (a knowledge store's records, the graphs one
stage retrieves from, one retrieval call's target and descriptions) and go
away with it.

Floating-point results do not depend on whether a text or its counts came
in: weights are built in the text's first-occurrence term order, which is
the order `norm` sums in, and `dot` sums over the sorted common terms.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyCorpus

# Fifty common English function words, kept in-repo so that index builds are
# reproducible across environments. Order is alphabetical.
STOPWORDS = frozenset(
    """
    about after again all an and any are as at be been being before both
    but by can each for from here if in into is it its no not of on or over
    so such that the their then there these this those through to under was were
    with
    """.split()
)
assert len(STOPWORDS) == 50

# Lowercase alphanumeric runs, with hyphens allowed inside a token so that
# terms like "cross-site" stay whole.
_TOKEN = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN.findall(text.lower()) if t not in STOPWORDS]


def term_counts(text: str) -> Counter[str]:
    """Raw term frequencies of one text, keyed in first-occurrence order."""
    return Counter(tokenize(text))


def _counts(doc: str | Counter[str]) -> Counter[str]:
    return term_counts(doc) if isinstance(doc, str) else doc


@dataclass(frozen=True)
class TermVector:
    """Sparse tf-idf vector keyed by term.

    The weights must not change after construction: the norm is computed on
    first use and kept.
    """

    weights: dict[str, float]

    def norm(self) -> float:
        return self._norm

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.weights.values()))

    def dot(self, other: "TermVector") -> float:
        # Summation runs in sorted term order so dot(a, b) == dot(b, a)
        # bit-for-bit, which keeps similarity exactly symmetric.
        common = sorted(self.weights.keys() & other.weights.keys())
        return sum(self.weights[t] * other.weights[t] for t in common)


def _smoothed_idf(n_docs: int, doc_freq: int) -> float:
    return math.log((1 + n_docs) / (1 + doc_freq)) + 1.0


class TfIdfIndex:
    """Frozen idf table over a corpus's terms.

    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1, the smoothed variant, so
    every known term keeps a strictly positive weight.
    """

    def __init__(self, idf: dict[str, float]):
        self.idf = idf

    def vectorize(self, doc: str | Counter[str]) -> TermVector:
        """Tf-idf vector of a text or of its term counts; terms outside the
        corpus are dropped."""
        idf = self.idf
        return TermVector({term: count * idf[term]
                           for term, count in _counts(doc).items() if term in idf})


def cosine(a: TermVector, b: TermVector) -> float:
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(1.0, a.dot(b) / (na * nb))


def build_index(docs: list[str | Counter[str]]) -> TfIdfIndex:
    """Count document frequencies over texts or term counts and freeze their
    idf into an index, a pure function of the docs as a multiset of term
    sets."""
    if not docs:
        raise EmptyCorpus("build_index needs at least one document")
    doc_freq: Counter[str] = Counter()
    for doc in docs:
        doc_freq.update(_counts(doc).keys())
    n_docs = len(docs)
    return TfIdfIndex({t: _smoothed_idf(n_docs, df) for t, df in doc_freq.items()})


@dataclass(frozen=True)
class CorpusIdf:
    """The idf of a fixed corpus plus one query document, tabled once for
    every query.

    For a query q, idf(t) is the idf of build_index(corpus + [q]): the
    corpus's document frequency of t, plus one when q holds t, over one more
    document than the corpus has. The three cases are tabled here, so a query
    takes no logarithm. A knowledge store reads the tables directly, to
    weigh only the terms a query reaches; index_for, whose caller is
    retrieval's EdgeProbabilities._fill, copies them into a whole index.
    """

    absent: dict[str, float]   # corpus terms, for a query without the term
    shared: dict[str, float]   # corpus terms, for a query with the term
    query_only: float          # any term only the query holds

    @classmethod
    def from_corpus(cls, corpus: Sequence[Counter[str]]) -> "CorpusIdf":
        """Table the idf of the corpus documents' term counts."""
        doc_freq: Counter[str] = Counter()
        for counts in corpus:
            doc_freq.update(counts.keys())
        n_docs = len(corpus) + 1
        return cls({t: _smoothed_idf(n_docs, df) for t, df in doc_freq.items()},
                   {t: _smoothed_idf(n_docs, df + 1) for t, df in doc_freq.items()},
                   _smoothed_idf(n_docs, 1))

    def index_for(self, query: Counter[str]) -> TfIdfIndex:
        """The index of build_index(corpus + [query]), which vectorizes the
        query and every corpus document with the same floats."""
        idf = dict(self.absent)
        for term in query:
            idf[term] = self.shared.get(term, self.query_only)
        return TfIdfIndex(idf)


def similarity(index: TfIdfIndex, a: str | Counter[str], b: str | Counter[str]) -> float:
    """Cosine of the two tf-idf vectors; 0 when either side is empty."""
    return cosine(index.vectorize(a), index.vectorize(b))
