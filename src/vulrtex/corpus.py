"""Canonical issue-report records: JSONL load/save, time-ordered splits.

A canonical record keeps the report body as plain text with inline [SCRn]
and [CODEn] tags, one rich-text table entry per tag. The JSON field names
"Content" and "Rich-Text" are part of the on-disk contract.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicateId, EmptyCorpus
from .jsonl import read_jsonl, typed, write_jsonl

KIND_SCR = "SCR"
KIND_CODE = "CODE"

TAG_RE = re.compile(r"\[(SCR|CODE)(\d+)\]")


def report_text(title: str, content: str) -> str:
    """A report's text: its title and content on their own lines, or the
    content alone when there is no title."""
    return f"{title}\n{content}" if title else content


@dataclass
class RichTextElement:
    kind: str
    tag: str
    payload: str

    def __post_init__(self):
        m = TAG_RE.fullmatch(self.tag)
        if not m or m.group(1) != self.kind:
            raise ValueError(f"tag {self.tag!r} does not match kind {self.kind!r}")
        if not self.payload:
            raise ValueError(f"element {self.tag} has an empty payload")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tag": self.tag, "payload": self.payload}

    @classmethod
    def from_dict(cls, d: dict) -> "RichTextElement":
        return cls(*(typed(d[key], str, key) for key in ("kind", "tag", "payload")))


@dataclass
class CanonicalIR:
    id: str
    title: str
    content: str
    rich_text: list[RichTextElement] = field(default_factory=list)
    created_at: int = 0
    label_vul: bool | None = None
    cwe_id: str | None = None
    cve_id: str | None = None
    flags: dict = field(default_factory=dict)

    def element_for(self, tag: str) -> RichTextElement | None:
        for el in self.rich_text:
            if el.tag == tag:
                return el
        return None

    def content_tags(self) -> list[str]:
        seen: dict[str, None] = {}
        for m in TAG_RE.finditer(self.content):
            seen.setdefault(m.group(0), None)
        return list(seen)

    def check_tag_bijection(self) -> None:
        in_content = set(self.content_tags())
        in_table = [el.tag for el in self.rich_text]
        if len(in_table) != len(set(in_table)):
            raise ValueError(f"IR {self.id}: duplicate tags in rich_text")
        if in_content != set(in_table):
            raise ValueError(
                f"IR {self.id}: content tags {sorted(in_content)} != table tags {sorted(in_table)}")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "Content": self.content,
            "Rich-Text": [el.to_dict() for el in self.rich_text],
            "created_at": self.created_at,
            "label_vul": self.label_vul,
            "cwe_id": self.cwe_id,
            "cve_id": self.cve_id,
            "flags": self.flags,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CanonicalIR":
        """A record from its JSON. A field of another JSON type than its
        own raises ValueError: id, title, Content and the rich-text
        elements' fields are strings, Rich-Text a list, created_at an
        integer, cve_id a string or null, flags an object (and see
        checked_label)."""
        content = d.get("Content", d.get("content", ""))
        rich = typed(d.get("Rich-Text", d.get("rich_text", [])), list, "Rich-Text")
        label_vul, cwe_id = checked_label(d)
        return cls(
            id=typed(d["id"], str, "id"),
            title=typed(d.get("title", ""), str, "title"),
            content=typed(content, str, "Content"),
            rich_text=[RichTextElement.from_dict(e) for e in rich],
            created_at=typed(d.get("created_at", 0), int, "created_at"),
            label_vul=label_vul,
            cwe_id=cwe_id,
            cve_id=typed(d.get("cve_id"), str, "cve_id", nullable=True),
            flags=dict(typed(d.get("flags", {}), dict, "flags")),
        )


def checked_label(d: dict) -> tuple[bool | None, str | None]:
    """A record's label_vul, a boolean or null, and cwe_id, a string or
    null; any other value, such as the string "false", raises ValueError."""
    return (typed(d.get("label_vul"), bool, "label_vul", nullable=True),
            typed(d.get("cwe_id"), str, "cwe_id", nullable=True))


@dataclass
class CorpusSplit:
    historical: list[CanonicalIR]
    target: list[CanonicalIR]


def split_corpus(irs: list[CanonicalIR], proportion: float) -> CorpusSplit:
    """Time-ordered split; the first round(proportion*N) records are historical."""
    if not irs:
        raise EmptyCorpus("cannot split an empty corpus")
    if not 0.0 < proportion < 1.0:
        raise ValueError("proportion must be in (0, 1)")
    ordered = sorted(irs, key=lambda ir: (ir.created_at, ir.id))
    n_hist = int(math.floor(proportion * len(ordered) + 0.5))
    return CorpusSplit(historical=ordered[:n_hist], target=ordered[n_hist:])


def _checked_record(d: dict) -> CanonicalIR:
    ir = CanonicalIR.from_dict(d)
    ir.check_tag_bijection()
    return ir


def load_corpus(path: str | Path) -> list[CanonicalIR]:
    """Every record of a corpus file; a record whose content tags and
    rich-text table disagree stops the load at its line."""
    irs = read_jsonl(path, _checked_record)
    seen: set[str] = set()
    for ir in irs:
        if ir.id in seen:
            raise DuplicateId(f"corpus repeats IR id {ir.id}")
        seen.add(ir.id)
    return irs


def save_corpus(irs: list[CanonicalIR], path: str | Path) -> None:
    write_jsonl(path, (ir.to_dict() for ir in irs))
