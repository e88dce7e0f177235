"""Golden-knowledge store: advisory texts retrieved to correct factual errors.

Records come from external vulnerability-awareness datasets and are matched
against reasoning-path descriptions by TF-IDF similarity with a strict
threshold: only records scoring above theta_sim come back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DuplicateKey
from .textindex import CorpusIdf, cosine, term_counts


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
    one query is tabled once, on the first query (`idf`), so a query builds
    no index and a store that is only written never tables it.
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

    def similarities(self, text: str) -> list[float]:
        """Similarity of each record to `text`, in record order.

        The idf spans the stored texts plus `text`, so its own terms still
        contribute: it is the idf of build_index(records + [text]).
        """
        query = term_counts(text)
        index = self.idf.index_for(query)
        query_vec = index.vectorize(query)
        return [cosine(query_vec, index.vectorize(counts)) for counts in self.record_counts]


def ingest(records: list[KnowledgeRecord]) -> KnowledgeStore:
    return KnowledgeStore(records)


def retrieve_golden(store: KnowledgeStore, path_text: str,
                    theta_sim: float) -> list[KnowledgeRecord]:
    """Records whose text scores strictly above theta_sim against path_text.

    Similarities are computed over an index spanning the stored texts plus
    the query (KnowledgeStore.similarities), so query-only terms still
    contribute. Results are sorted by similarity descending, ties broken by
    key.
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
