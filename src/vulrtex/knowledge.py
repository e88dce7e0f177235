"""Golden-knowledge store: advisory texts retrieved to correct factual errors.

Records come from external vulnerability-awareness datasets and are matched
against reasoning-path descriptions by TF-IDF similarity with a strict
threshold: only records scoring above theta_sim come back.

A lookup costs what the query's terms reach, not what the store holds. The
store tables, once, each record's weights for any query
(textindex.CorpusIdf.table) and postings: term -> each record holding it,
with its weight when the query holds the term too. A lookup is one pass
over the query's term counts, with no query vector built: each term's
weight is squared for the query's norm, and its product with each weight
in the term's postings joins that record's dot. So only the records that
share a term with the query are scored; any other record has a zero dot,
so its similarity is exactly 0.0. A record's norm depends on the query
only through which of the record's terms it holds, so it is computed
(_doc_norm) once per such set and reused by every later query holding that
set. Every float equals that of an index built over the records plus the
query, since both sum the same products with `math.fsum`, which does not
depend on their order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DuplicateKey
from .jsonl import read_jsonl, write_jsonl
from .textindex import CorpusIdf, TermTable, term_counts


@dataclass(frozen=True)
class KnowledgeRecord:
    source: str
    key: str
    text: str
    cwe_id: str | None = None

    def __post_init__(self):
        for name in ("source", "key", "text", "cwe_id"):
            value = getattr(self, name)
            if not (isinstance(value, str) or value is None and name == "cwe_id"):
                raise ValueError(f"knowledge record {name} must be a string, not {value!r}")
        if not self.counts:
            # no lookup could ever return a record with no terms
            raise ValueError(
                f"knowledge record {self.source}/{self.key} has no terms in {self.text!r}")

    @cached_property
    def counts(self) -> Counter[str]:
        """The text's term counts, taken once for the record's life."""
        return term_counts(self.text)

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
        self.record_counts = tuple(r.counts for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def idf(self) -> CorpusIdf:
        return CorpusIdf.from_corpus(self.record_counts)

    @cached_property
    def _lookup(self) -> tuple[dict[str, list[tuple[int, float, int]]],
                               tuple[TermTable, ...], tuple[dict[int, float], ...]]:
        """Postings, per-record term tables and per-record norm memos.

        Postings map a term to (record index, w_shared, bit) for each record
        holding it: the record's weight when the query holds the term too,
        and the term's bit in the record's masks, 1 << its position in the
        record's table. A record's memo maps the mask of its terms a query
        holds to its norm under that query; it holds one entry per distinct
        set the queries reached.
        """
        tables = tuple(map(self.idf.table, self.record_counts))
        postings: dict[str, list[tuple[int, float, int]]] = {}
        for i, table in enumerate(tables):
            for j, (term, _, _, ws) in enumerate(table):
                postings.setdefault(term, []).append((i, ws, 1 << j))
        return postings, tables, tuple({} for _ in self.records)

    def similarities(self, text: str | Counter[str]) -> list[float]:
        """Similarity of each record to a text or its term counts, in record
        order.

        The idf spans the stored texts plus the query, so its own terms still
        contribute: each float is bit-identical to the cosine under
        build_index(records + [text]). Only records reached through the
        postings of the query's stored terms are scored; the rest share no
        term, so their dot and similarity are exactly 0.0.
        """
        counts = term_counts(text) if isinstance(text, str) else text
        shared, query_only = self.idf.shared, self.idf.query_only
        postings, tables, norms = self._lookup
        squares = []
        products: dict[int, list[float]] = {}
        masks: dict[int, int] = {}
        for term, count in counts.items():
            w = count * shared.get(term, query_only)
            squares.append(w * w)
            for i, ws, bit in postings.get(term, ()):
                dots = products.get(i)
                if dots is None:
                    products[i] = [w * ws]
                    masks[i] = bit
                else:
                    dots.append(w * ws)
                    masks[i] |= bit
        scores = [0.0] * len(self.records)
        query_norm = math.sqrt(math.fsum(squares))
        if query_norm == 0.0:
            return scores
        for i, dots in products.items():
            mask, memo = masks[i], norms[i]
            norm = memo.get(mask)
            if norm is None:
                norm = memo[mask] = _doc_norm(tables[i], counts)
            scores[i] = min(1.0, math.fsum(dots) / (query_norm * norm))
        return scores


def _doc_norm(table: TermTable, query: Counter[str]) -> float:
    """The norm of a tabled record under the idf of a query with these term
    counts: w_shared ** 2 for the terms the query holds, w_absent ** 2 for
    the rest."""
    return math.sqrt(math.fsum([ws2 if t in query else wa2 for t, wa2, ws2, _ in table]))


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
    return KnowledgeStore(read_jsonl(path, KnowledgeRecord.from_dict))


def save_store(store: KnowledgeStore, path: str | Path) -> None:
    write_jsonl(path, (r.to_dict() for r in store.records))
