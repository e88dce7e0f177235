"""Golden-knowledge store: advisory texts retrieved to correct factual errors.

Records come from external vulnerability-awareness datasets and are matched
against reasoning-path descriptions by TF-IDF similarity with a strict
threshold: only records scoring above theta_sim come back.

A lookup costs what the query's terms reach, not what the store holds. The
store tables, once, postings (term -> each record holding it, with its
weight when the query holds the term too) and each record's squared weights
with and without the query holding the term. A query then scores only the
records that share a term with it; any other record has a zero dot, so its
similarity is exactly 0.0. A record's norm is computed once per set of its
terms that queries hold, and reused by every later query holding that set.
Every float equals that of an index built over the records plus the query,
because every sum runs over the same sequence: the dot over the sorted
common terms and each norm in the record's first-occurrence term order.
(Python 3.12's float `sum` is compensated, so only summing the same sequence
with `sum` keeps the floats equal on every interpreter.)
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DuplicateKey
from .textindex import CorpusIdf, term_counts


@dataclass(frozen=True)
class KnowledgeRecord:
    source: str
    key: str
    text: str
    cwe_id: str | None = None

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"knowledge record {self.source}/{self.key} has empty text")

    def to_dict(self) -> dict:
        return {"source": self.source, "key": self.key, "text": self.text,
                "cwe_id": self.cwe_id}

    @classmethod
    def from_dict(cls, d: dict) -> "KnowledgeRecord":
        return cls(d["source"], d["key"], d["text"], d.get("cwe_id"))


class KnowledgeStore:
    """Immutable after ingest; retrieval is a pure function of the store.

    Each record's text is counted once, here. The idf of the records plus
    one query (`idf`) and the lookup tables built from it (`_lookup`) are
    tabled once, on the first query, so a store that is only written never
    builds them.
    """

    def __init__(self, records: list[KnowledgeRecord]):
        seen: set[tuple[str, str]] = set()
        for rec in records:
            pair = (rec.source, rec.key)
            if pair in seen:
                raise DuplicateKey(f"duplicate knowledge record {rec.source}/{rec.key}")
            seen.add(pair)
        self.records: tuple[KnowledgeRecord, ...] = tuple(records)
        self.record_counts = tuple(term_counts(r.text) for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def idf(self) -> CorpusIdf:
        return CorpusIdf.from_corpus(self.record_counts)

    @cached_property
    def _lookup(self) -> tuple[dict[str, list[tuple[int, float, int]]],
                               tuple[tuple[tuple[int, float, float], ...], ...],
                               tuple[dict[int, float], ...]]:
        """Postings, per-record squares and per-record norm memos.

        A record's term at position j of its first-occurrence order has bit
        1 << j. Postings map a term to (record index, count *
        idf.shared[term], bit) for each record holding it: the record's
        weight when the query holds the term too. Each record's squares are
        (bit, w_absent ** 2, w_shared ** 2) in first-occurrence order,
        w_absent being the weight when the query lacks the term (count *
        idf.absent[term]). A record's norm depends on the query only through
        which of the record's terms it holds, so each record's memo maps that
        set, as a mask of bits, to the norm; it holds one entry per distinct
        set the queries reached.
        """
        absent, shared = self.idf.absent, self.idf.shared
        postings: dict[str, list[tuple[int, float, int]]] = {}
        squares = []
        for i, counts in enumerate(self.record_counts):
            row = []
            for j, (term, count) in enumerate(counts.items()):
                wa, ws = count * absent[term], count * shared[term]
                postings.setdefault(term, []).append((i, ws, 1 << j))
                row.append((1 << j, wa * wa, ws * ws))
            squares.append(tuple(row))
        return postings, tuple(squares), tuple({} for _ in self.records)

    def similarities(self, text: str | Counter[str]) -> list[float]:
        """Similarity of each record to a text or its term counts, in record
        order.

        The idf spans the stored texts plus the query, so its own terms still
        contribute: each float is bit-identical to the cosine under
        build_index(records + [text]). Only records reached through the
        postings of the query's stored terms are scored, each dot summed over
        the sorted terms it shares with the query; the rest share no term, so
        their dot and similarity are exactly 0.0.
        """
        query = term_counts(text) if isinstance(text, str) else text
        idf = self.idf
        shared, query_only = idf.shared, idf.query_only
        weights = {t: c * shared.get(t, query_only) for t, c in query.items()}
        scores = [0.0] * len(self.records)
        qn = math.sqrt(sum([w * w for w in weights.values()]))
        if qn == 0.0:
            return scores
        postings, squares, norms = self._lookup
        products: dict[int, list[float]] = {}
        masks: dict[int, int] = {}
        for term in sorted(weights.keys() & postings.keys()):
            q = weights[term]
            for i, s, bit in postings[term]:
                dots = products.get(i)
                if dots is None:
                    products[i] = [q * s]
                    masks[i] = bit
                else:
                    dots.append(q * s)
                    masks[i] |= bit
        for i, dots in products.items():
            mask, memo = masks[i], norms[i]
            norm = memo.get(mask)
            if norm is None:
                norm = memo[mask] = _record_norm(squares[i], mask)
            scores[i] = min(1.0, sum(dots) / (qn * norm))
        return scores


def _record_norm(squares: tuple[tuple[int, float, float], ...], mask: int) -> float:
    """A record's norm under the idf of a query holding the record's terms
    in `mask`: each square summed in the record's first-occurrence order,
    w_shared ** 2 where the query holds the term."""
    return math.sqrt(sum([ws if mask & bit else wa for bit, wa, ws in squares]))


def ingest(records: list[KnowledgeRecord]) -> KnowledgeStore:
    return KnowledgeStore(records)


def retrieve_golden(store: KnowledgeStore, path_text: str | Counter[str],
                    theta_sim: float) -> list[KnowledgeRecord]:
    """Records whose text scores strictly above theta_sim against path_text,
    given as a text or its term counts.

    Similarities are computed over an index spanning the stored texts plus
    the query (KnowledgeStore.similarities), so query-only terms still
    contribute. A record sharing no term with the query scores exactly 0.0,
    which no theta_sim >= 0 keeps. Results are sorted by similarity
    descending, ties broken by key.
    """
    if not 0.0 <= theta_sim <= 1.0:
        raise ValueError("theta_sim must be in [0, 1]")
    if not store.records:
        return []
    kept = [(s, r) for s, r in zip(store.similarities(path_text), store.records)
            if s > theta_sim]
    kept.sort(key=lambda pair: (-pair[0], pair[1].key))
    return [r for _, r in kept]


def load_store(path: str | Path) -> KnowledgeStore:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(KnowledgeRecord.from_dict(json.loads(line)))
    return KnowledgeStore(records)


def save_store(store: KnowledgeStore, path: str | Path) -> None:
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in store.records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
