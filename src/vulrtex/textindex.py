"""Term-statistics index and the cosine similarity used by every retrieval step.

The index is immutable once built. Similarities are always in [0, 1]: weights
are nonnegative (raw term counts times a smoothed idf), so the cosine of two
vectors cannot go negative, and an empty vector yields similarity 0.

Term counts are the unit of work. A text is tokenized once, by `term_counts`,
and its Counter then stands in for the text everywhere a document is taken:
`build_index`, `TfIdfIndex.vectorize` and `TfIdfIndex.similarity` accept
either. The counts of two texts joined by whitespace are the sum of their
counts (no token spans whitespace), so joined texts need no re-tokenizing.
A vector computes its norm once. A fixed corpus scored against many
one-document queries tables its idf once (`CorpusIdf`), so a query builds
no index. There is no process-wide cache: counts live with the object that
owns the text (a knowledge store's records, the graphs one stage retrieves
from, one retrieval call's target and descriptions) and go away with it.

Floating-point results do not depend on whether a text or its counts came
in: weights are built in the text's first-occurrence term order, which is
the order `norm` sums in, and `dot` sums over sorted term ids.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

from .errors import EmptyCorpus

# Fifty common English function words, kept in-repo so that index builds are
# reproducible across environments. Order is alphabetical; the id below names
# this exact revision.
STOPWORD_LIST_ID = "english-50"
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
DEFAULT_TOKEN_PATTERN = r"[a-z0-9]+(?:-[a-z0-9]+)*"

_INDEX_FORMAT = "vulrtex-tfidf"
_INDEX_VERSION = 1


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    token_pattern: str = DEFAULT_TOKEN_PATTERN
    stopword_list: str = STOPWORD_LIST_ID

    def stopwords(self) -> frozenset[str]:
        if self.stopword_list == STOPWORD_LIST_ID:
            return STOPWORDS
        if self.stopword_list == "none":
            return frozenset()
        raise ValueError(f"unknown stopword list: {self.stopword_list!r}")


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    if config.lowercase:
        text = text.lower()
    stop = config.stopwords()
    return [t for t in re.findall(config.token_pattern, text) if t not in stop]


def term_counts(text: str, config: TokenizerConfig = TokenizerConfig()) -> Counter[str]:
    """Raw term frequencies of one text, keyed in first-occurrence order."""
    return Counter(tokenize(text, config))


def _counts(doc: str | Counter[str], config: TokenizerConfig) -> Counter[str]:
    return term_counts(doc, config) if isinstance(doc, str) else doc


@dataclass(frozen=True)
class TermVector:
    """Sparse tf-idf vector; term ids map into the owning index's vocabulary.

    The weights must not change after construction: the norm is computed on
    first use and kept.
    """

    weights: dict[int, float] = field(default_factory=dict)

    def norm(self) -> float:
        return self._norm

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.weights.values()))

    def dot(self, other: "TermVector") -> float:
        # Summation runs in sorted term-id order so dot(a, b) == dot(b, a)
        # bit-for-bit, which keeps similarity exactly symmetric.
        common = sorted(self.weights.keys() & other.weights.keys())
        return sum(self.weights[t] * other.weights[t] for t in common)


def _smoothed_idf(n_docs: int, doc_freq: int) -> float:
    return math.log((1 + n_docs) / (1 + doc_freq)) + 1.0


class TfIdfIndex:
    """Frozen document-frequency statistics over a corpus.

    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1, the smoothed variant, so
    every known term keeps a strictly positive weight.
    """

    def __init__(self, vocabulary: dict[str, int], doc_freq: dict[str, int],
                 n_docs: int, config: TokenizerConfig):
        self.vocabulary = vocabulary
        self.doc_freq = doc_freq
        self.n_docs = n_docs
        self.config = config
        self._idf = {term: _smoothed_idf(n_docs, doc_freq[term]) for term in vocabulary}

    def idf(self, term: str) -> float:
        return self._idf[term]

    def vectorize(self, doc: str | Counter[str]) -> TermVector:
        """Tf-idf vector of a text or of its term counts."""
        weights = {
            self.vocabulary[term]: count * self._idf[term]
            for term, count in _counts(doc, self.config).items()
            if term in self.vocabulary
        }
        return TermVector(weights)

    def similarity(self, a: str | Counter[str], b: str | Counter[str]) -> float:
        """Cosine of the two tf-idf vectors; 0 when either side is empty."""
        va = self.vectorize(a)
        vb = self.vectorize(b)
        return cosine(va, vb)

    def to_dict(self) -> dict:
        terms = sorted(self.vocabulary, key=self.vocabulary.__getitem__)
        return {
            "format": _INDEX_FORMAT,
            "version": _INDEX_VERSION,
            "config": {
                "lowercase": self.config.lowercase,
                "token_pattern": self.config.token_pattern,
                "stopword_list": self.config.stopword_list,
            },
            "n_docs": self.n_docs,
            "terms": [[t, self.doc_freq[t]] for t in terms],
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True), encoding="utf-8")

    @classmethod
    def from_dict(cls, data: dict) -> "TfIdfIndex":
        if data.get("format") != _INDEX_FORMAT:
            raise ValueError("not a tf-idf index file")
        if data.get("version") != _INDEX_VERSION:
            raise ValueError(f"unsupported index version {data.get('version')}")
        cfg = TokenizerConfig(**data["config"])
        vocabulary = {t: i for i, (t, _) in enumerate(data["terms"])}
        doc_freq = {t: df for t, df in data["terms"]}
        return cls(vocabulary, doc_freq, data["n_docs"], cfg)

    @classmethod
    def load(cls, path: str | Path) -> "TfIdfIndex":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def cosine(a: TermVector, b: TermVector) -> float:
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(1.0, a.dot(b) / (na * nb))


def build_index(docs: list[str | Counter[str]],
                config: TokenizerConfig = TokenizerConfig()) -> TfIdfIndex:
    """Count document frequencies over texts or term counts and freeze them
    into an index (see index_from_doc_freq)."""
    if not docs:
        raise EmptyCorpus("build_index needs at least one document")
    doc_freq: Counter[str] = Counter()
    for doc in docs:
        doc_freq.update(_counts(doc, config).keys())
    return index_from_doc_freq(doc_freq, len(docs), config)


def index_from_doc_freq(doc_freq: Counter[str], n_docs: int,
                        config: TokenizerConfig = TokenizerConfig()) -> TfIdfIndex:
    """Freeze document frequencies over n_docs documents into an index.

    Vocabulary ids are dense 0..|V|-1 in sorted term order, which makes the
    index a pure function of (docs-as-a-multiset-of-token-sets, config).
    """
    vocabulary = {term: i for i, term in enumerate(sorted(doc_freq))}
    return TfIdfIndex(vocabulary, dict(doc_freq), n_docs, config)


@dataclass(frozen=True)
class CorpusIdf:
    """The idf of a fixed corpus plus one query document, tabled once for
    every query.

    For a query q, idf(t) is the idf of build_index(corpus + [q]): the
    corpus's document frequency of t, plus one when q holds t, over one more
    document than the corpus has. The three cases are tabled here, so a query
    costs a dict copy and no logarithm (see from_doc_freq).
    """

    absent: dict[str, float]   # corpus terms, for a query without the term
    shared: dict[str, float]   # corpus terms, for a query with the term
    query_only: float          # any term only the query holds

    @classmethod
    def from_doc_freq(cls, doc_freq: Counter[str], n_corpus: int) -> "CorpusIdf":
        n_docs = n_corpus + 1
        return cls({t: _smoothed_idf(n_docs, df) for t, df in doc_freq.items()},
                   {t: _smoothed_idf(n_docs, df + 1) for t, df in doc_freq.items()},
                   _smoothed_idf(n_docs, 1))

    def vectorizer(self, query: Counter[str]) -> Callable[[Counter[str]], TermVector]:
        """Tf-idf vectors under the idf for `query`, of the query's or any
        corpus document's term counts.

        The vectors are keyed by term, not by vocabulary id. An index
        numbers its vocabulary in sorted term order, so `dot` sums in the
        same order, and every weight, norm and cosine equals the index's.
        """
        idf = dict(self.absent)
        for term in query:
            idf[term] = self.shared.get(term, self.query_only)
        return lambda counts: TermVector(
            {term: count * idf[term] for term, count in counts.items()})


def vectorize(index: TfIdfIndex, doc: str | Counter[str]) -> TermVector:
    return index.vectorize(doc)


def similarity(index: TfIdfIndex, a: str | Counter[str], b: str | Counter[str]) -> float:
    return index.similarity(a, b)
