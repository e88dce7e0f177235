"""Term statistics and tf-idf cosine similarity, with and without an index.

An index is an idf table, immutable once built. Similarities are always in
[0, 1]: weights are nonnegative (raw term counts times a smoothed idf), so
the cosine of two vectors cannot go negative, and an empty vector yields
similarity 0.

Term counts are the unit of work. A text is tokenized once, by `term_counts`,
and its Counter then stands in for the text everywhere a document is taken:
`build_index`, `TfIdfIndex.vectorize` and `similarity` accept either. The
counts of two texts joined by whitespace are the sum of their counts (no
token spans whitespace), so joined texts, descriptions among them
(graph.DescriptionTerms), need no re-tokenizing. Two scoring shapes skip the index altogether and
give its floats bit for bit:

- a fixed corpus scored against many one-document queries tables its idf
  once (`CorpusIdf`) and each corpus text's weights once (`TermTable`), so
  a query (`CorpusQuery`) takes no counting, logarithm or vector;
- a query scored against a small, changing set of documents
  (`query_cosines`) reads each document's counts as arrays over dense term
  ids (`DocTerms`), takes one logarithm per document frequency, not per
  term, and weighs every document at once with numpy. Its dot products
  are formed only where the query holds the term: every other one is
  +0.0, which changes no correctly rounded sum.

There is no process-wide cache: counts live with the object that owns the
text (a knowledge store's records, the graphs one stage retrieves from and
their pruned descriptions, one identify stage's targets) and go away with it.
The term ids of pruned descriptions come from one table (`TermIds`) per
retrieval.count_graphs call, shared by the graphs it counts and gone with
them; a query's terms never join it. The same table keeps query_cosines'
idf array per document count, which a stage scoring every target against
one description per graph asks for with one count, so its logarithms are
taken once per stage.

Every float reduction is `math.fsum`, which is correctly rounded, so a
result depends only on the values summed: not on term order, on which of
the three paths scored it, or on the Python version.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, filterfalse, repeat
from typing import TYPE_CHECKING

from .errors import EmptyCorpus

if TYPE_CHECKING:  # numpy is imported where descriptions are scored
    import numpy as np

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
        return math.sqrt(math.fsum(w * w for w in self.weights.values()))

    def dot(self, other: "TermVector") -> float:
        mine, theirs = self.weights, other.weights
        return math.fsum(mine[t] * theirs[t] for t in mine.keys() & theirs.keys())


def _smoothed_idf(n_docs: int, doc_freq: int) -> float:
    return math.log((1 + n_docs) / (1 + doc_freq)) + 1.0


def _smoothed_idfs(n_docs: int) -> list[float]:
    """_smoothed_idf(n_docs, df) for every df in 0 .. n_docs, by index."""
    return [_smoothed_idf(n_docs, df) for df in range(n_docs + 1)]


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


class TermIds:
    """A dense numbering of terms, in order of first sight, that DocTerms
    index their arrays by. It grows only by the terms of the documents
    numbered under it (`doc_terms`); query_cosines adds no query term.

    `idf_tables` keeps query_cosines' idf array (`idf`) per document
    count, so docs scored together under this table, which all of one
    stage's are, take their logarithms once per count, not once per call;
    it holds no term and goes away with the table."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.idf_tables: dict[int, np.ndarray] = {}

    def idf(self, n_docs: int) -> np.ndarray:
        """The smoothed idf over n_docs documents, indexed by document
        frequency 0 .. n_docs."""
        table = self.idf_tables.get(n_docs)
        if table is None:
            import numpy as np

            table = self.idf_tables[n_docs] = np.array(_smoothed_idfs(n_docs))
        return table

    def doc_terms(self, counts: Counter[str]) -> DocTerms:
        """One document's term counts, numbered under this table."""
        import numpy as np

        table, number = self.ids, self.ids.setdefault
        ids = np.array([number(t, len(table)) for t in counts], dtype=np.intp)
        return DocTerms(self, ids, np.array(list(counts.values()), dtype=np.float64))


@dataclass(frozen=True, eq=False)
class DocTerms:
    """One document's term counts as arrays over its table's term ids, for
    query_cosines."""

    table: TermIds
    ids: np.ndarray
    counts: np.ndarray


def query_cosines(query: Counter[str], docs: Sequence[DocTerms]) -> list[float]:
    """The similarity of the query to each doc under an index over the docs
    and the query: cosine(index.vectorize(query), index.vectorize(doc))
    with index = build_index(docs + [query]), bit for bit, but with no index
    or vector.

    The docs must share one table; docs numbered under two raise
    ValueError, since their ids would name different terms. The idf
    depends on a term only through its document frequency, so it is
    tabled per frequency, one logarithm for each of 0 .. n_docs, and kept
    on that table per document count (TermIds.idf); every weight of every
    doc comes from one gather and one multiply over the docs' concatenated
    arrays. A query term no doc holds has frequency 1.

    A product is formed only at the positions whose term the query holds,
    and one search of those positions over the doc ends cuts them per doc.
    The products left out are +0.0, so the fsum of each doc's dot is
    unchanged, and a doc with no query term scores 0.0.
    """
    if not docs:
        return []
    import numpy as np

    table = docs[0].table
    if any(d.table is not table for d in docs):
        raise ValueError("query_cosines needs docs numbered under one TermIds")
    n_terms = len(table.ids)
    # slot n_terms stands for every query term no doc holds
    q_ids = np.fromiter(map(table.ids.get, query, repeat(n_terms)), np.intp, len(query))
    q_counts = np.fromiter(query.values(), np.float64, len(query))
    ids = np.concatenate([d.ids for d in docs])
    doc_freq = np.bincount(ids, minlength=n_terms + 1)
    doc_freq[q_ids] += 1  # once per slot, however often q_ids repeats it
    n_docs = len(docs) + 1
    idf = table.idf(n_docs)
    q_weights = q_counts * idf[doc_freq[q_ids]]
    norm = math.sqrt(math.fsum((q_weights * q_weights).tolist()))
    if norm == 0.0:
        return [0.0] * len(docs)
    weights = np.concatenate([d.counts for d in docs]) * idf[doc_freq[ids]]
    # the query's weight per term id, 0.0 where it lacks the term
    by_id = np.zeros(n_terms + 1)
    by_id[q_ids] = q_weights
    at_ids = by_id[ids]
    hits = at_ids.nonzero()[0]
    products = (at_ids[hits] * weights[hits]).tolist()
    # doc k's terms are squares[ends[k - 1]:ends[k]], its products
    # products[cuts[k - 1]:cuts[k]]
    ends = list(accumulate(len(d.ids) for d in docs))
    cuts = hits.searchsorted(ends).tolist()
    weights *= weights
    squares = weights.tolist()
    scores = []
    start = cut = 0
    for end, next_cut in zip(ends, cuts):
        doc_norm = math.sqrt(math.fsum(squares[start:end]))
        if doc_norm == 0.0:
            scores.append(0.0)
        else:
            scores.append(min(1.0, math.fsum(products[cut:next_cut]) / (norm * doc_norm)))
        start, cut = end, next_cut
    return scores


# One text's weights under a CorpusIdf (CorpusIdf.table): (term, w_absent ** 2,
# w_shared ** 2, w_shared) per term.
TermTable = tuple[tuple[str, float, float, float], ...]


@dataclass(frozen=True)
class CorpusIdf:
    """The idf of a fixed corpus plus one query document, tabled once for
    every query.

    For a query q, idf(t) is the idf of build_index(corpus + [q]): the
    corpus's document frequency of t, plus one when q holds t, over one more
    document than the corpus has. The three cases are tabled here, so a query
    takes no logarithm. `table` weighs a corpus text, or a text joined from
    corpus texts, for every query at once, and `query` weighs one query;
    CorpusQuery.cosine of the two is the index's similarity, bit for bit.
    """

    absent: dict[str, float]   # corpus terms, for a query without the term
    shared: dict[str, float]   # corpus terms, for a query with the term
    query_only: float          # any term only the query holds

    @classmethod
    def from_corpus(cls, corpus: Sequence[Counter[str]]) -> "CorpusIdf":
        """Table the idf of the corpus documents' term counts: one
        logarithm per document frequency 0 .. n_docs, indexed by each
        term's frequency (`absent`), by one more (`shared`) and by 1
        (`query_only`)."""
        doc_freq: Counter[str] = Counter()
        for counts in corpus:
            doc_freq.update(counts.keys())
        idf = _smoothed_idfs(len(corpus) + 1)
        return cls({t: idf[df] for t, df in doc_freq.items()},
                   {t: idf[df + 1] for t, df in doc_freq.items()},
                   idf[1])

    def table(self, counts: Counter[str]) -> TermTable:
        """The weights of a text whose terms the corpus holds, for any query:
        w_absent = count * absent[term] and w_shared = count * shared[term]."""
        rows = []
        for term, count in counts.items():
            wa, ws = count * self.absent[term], count * self.shared[term]
            rows.append((term, wa * wa, ws * ws, ws))
        return tuple(rows)

    def query(self, counts: Counter[str]) -> CorpusQuery:
        """The weights of one query's term counts, and their norm."""
        shared, query_only = self.shared, self.query_only
        weights = {t: c * shared.get(t, query_only) for t, c in counts.items()}
        return CorpusQuery(weights, math.sqrt(math.fsum([w * w for w in weights.values()])))


@dataclass(frozen=True)
class CorpusQuery:
    """A query's weights under a CorpusIdf and their norm:
    index.vectorize(query) under build_index(corpus + [query])."""

    weights: dict[str, float]
    norm: float

    def cosine(self, table: TermTable) -> float:
        """similarity(build_index(corpus + [query]), query, text) of the
        text `table` weighs, bit for bit: the text's squares, w_shared ** 2
        where the query holds the term and w_absent ** 2 elsewhere, and the
        dot's products are gathered in one pass over the table."""
        if self.norm == 0.0:
            return 0.0
        get = self.weights.get
        squares, products = [], []
        for t, wa2, ws2, ws in table:
            w = get(t)
            if w is None:
                squares.append(wa2)
            else:
                squares.append(ws2)
                products.append(w * ws)
        norm = math.sqrt(math.fsum(squares))
        if norm == 0.0:
            return 0.0
        return min(1.0, math.fsum(products) / (self.norm * norm))


def similarity(index: TfIdfIndex, a: str | Counter[str], b: str | Counter[str]) -> float:
    """Cosine of the two tf-idf vectors; 0 when either side is empty."""
    return cosine(index.vectorize(a), index.vectorize(b))
