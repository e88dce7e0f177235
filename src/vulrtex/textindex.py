"""Term statistics and tf-idf cosine similarity, with and without an index.

An index is an idf table, immutable once built. Similarities are always in
[0, 1]: weights are nonnegative (raw term counts times a smoothed idf), so
the cosine of two vectors cannot go negative, and an empty vector yields
similarity 0.

Term counts are the unit of work. A text is tokenized once, by `term_counts`,
and its Counter then stands in for the text everywhere a document is taken:
`build_index`, `TfIdfIndex.vectorize` and `similarity` accept either. The
counts of two texts joined by whitespace are the sum of their counts (no
token spans whitespace), so joined texts need no re-tokenizing. A vector
computes its norm once. Two scoring shapes skip the index altogether and
give its floats bit for bit:

- a fixed corpus scored against many one-document queries tables its idf
  once (`CorpusIdf`), so a query's idf needs no counting and no logarithm;
- a query scored against a small, changing set of documents
  (`query_cosines`) reads each document's tabled terms (`DocTerms`) and
  takes one logarithm per document frequency, not per term.

There is no process-wide cache: counts live with the object that owns the
text (a knowledge store's records, the graphs one stage retrieves from and
their pruned descriptions, one identify stage's targets) and go away with it.

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
from itertools import filterfalse
from operator import mul

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
    return list(filterfalse(STOPWORDS.__contains__, _TOKEN.findall(text.lower())))


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
class DocTerms:
    """One document's term counts, tabled once for query_cosines: `terms`
    and `counts` in first-occurrence order, the order TermVector.norm sums
    in, and `by_term`, each term with its position in `terms`, in sorted
    term order, the order TermVector.dot sums in."""

    terms: tuple[str, ...]
    counts: tuple[int, ...]
    by_term: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, counts: Counter[str]) -> "DocTerms":
        terms = tuple(counts)
        return cls(terms, tuple(counts.values()),
                   tuple(sorted(zip(terms, range(len(terms))))))


def query_cosines(query: Counter[str], docs: Sequence[DocTerms]) -> list[float]:
    """The similarity of the query to each doc under an index over the docs
    and the query: cosine(index.vectorize(query), index.vectorize(doc))
    with index = build_index(docs + [query]), bit for bit, but with no index
    or vector.

    The idf depends on a term only through its document frequency, so it is
    tabled per frequency, one logarithm for each of 0 .. n_docs. Every sum
    runs over the sequence the index path sums (Python 3.12's float `sum` is
    compensated, so only the same sequence keeps the floats equal on every
    interpreter): a norm over a document's weights in first-occurrence
    order, and a dot over the sorted terms the doc shares with the query.
    """
    doc_freq: Counter[str] = Counter(query.keys())
    for doc in docs:
        doc_freq.update(doc.terms)
    n_docs = len(docs) + 1
    idf = [_smoothed_idf(n_docs, df) for df in range(n_docs + 1)]
    weights = {t: c * idf[doc_freq[t]] for t, c in query.items()}
    norm = math.sqrt(sum([w * w for w in weights.values()]))
    if norm == 0.0:
        return [0.0] * len(docs)
    df_of, idf_of = doc_freq.__getitem__, idf.__getitem__
    scores = []
    for doc in docs:
        ws = list(map(mul, doc.counts, map(idf_of, map(df_of, doc.terms))))
        doc_norm = math.sqrt(sum(map(mul, ws, ws)))
        if doc_norm == 0.0:
            scores.append(0.0)
            continue
        dot = sum([weights[t] * ws[i] for t, i in doc.by_term if t in weights])
        scores.append(min(1.0, dot / (norm * doc_norm)))
    return scores


@dataclass(frozen=True)
class CorpusIdf:
    """The idf of a fixed corpus plus one query document, tabled once for
    every query.

    For a query q, idf(t) is the idf of build_index(corpus + [q]): the
    corpus's document frequency of t, plus one when q holds t, over one more
    document than the corpus has. The three cases are tabled here, so a query
    takes no logarithm. Callers read the tables directly: a knowledge store
    to weigh only the terms a query reaches, and retrieval to table each
    node text's weights once for every target (retrieval._term_table).
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


def similarity(index: TfIdfIndex, a: str | Counter[str], b: str | Counter[str]) -> float:
    """Cosine of the two tf-idf vectors; 0 when either side is empty."""
    return cosine(index.vectorize(a), index.vectorize(b))
