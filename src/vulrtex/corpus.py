"""Issue-report ingestion: page parsing, canonical records, splits.

A canonical record keeps the report body as plain text with inline [SCRn]
and [CODEn] tags, one rich-text table entry per tag. The JSON field names
"Content" and "Rich-Text" are part of the on-disk contract.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import re
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass, field, replace
from html.parser import HTMLParser
from pathlib import Path

from .errors import DuplicateId, EmptyCorpus, InvalidCweId, MalformedPage
from .textindex import build_index, similarity, term_counts

KIND_SCR = "SCR"
KIND_CODE = "CODE"

TAG_RE = re.compile(r"\[(SCR|CODE)(\d+)\]")
CWE_RE = re.compile(r"CWE-(\d+)$")
IMAGE_EXTS = (".png", ".jpg", ".jpeg", ".gif")

MERGE_THRESHOLD = 0.9


@dataclass
class RawIssuePage:
    source_url: str
    html: str
    fetched_at: int


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
        return cls(d["kind"], d["tag"], d["payload"])


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
        content = d.get("Content", d.get("content", ""))
        rich = d.get("Rich-Text", d.get("rich_text", []))
        return cls(
            id=d["id"],
            title=d.get("title", ""),
            content=content,
            rich_text=[RichTextElement.from_dict(e) for e in rich],
            created_at=int(d.get("created_at", 0)),
            label_vul=d.get("label_vul"),
            cwe_id=d.get("cwe_id"),
            cve_id=d.get("cve_id"),
            flags=dict(d.get("flags", {})),
        )


@dataclass
class CorpusSplit:
    historical: list[CanonicalIR]
    target: list[CanonicalIR]
    proportion: float


_BLOCK_TAGS = {"p", "div", "br", "li", "ul", "ol", "tr", "table", "section",
               "article", "blockquote", "h1", "h2", "h3", "h4", "h5", "h6"}
_FENCE_RE = re.compile(r"```[a-zA-Z0-9_+-]*\n?(.*?)```", re.DOTALL)


class _PageParser(HTMLParser):
    """Flattens a page into ordered chunks: text, code payloads, image links."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.chunks: list[tuple[str, str]] = []
        self.title_parts: list[str] = []
        self.h1_parts: list[str] = []
        self._in_title = False
        self._in_h1 = 0
        self._skip = 0
        self._code_depth = 0
        self._code_buf: list[str] = []
        self._suppress_anchor = 0
        self._time_attr: str | None = None

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag == "title":
            self._in_title = True
        elif tag in ("script", "style"):
            self._skip += 1
        elif tag in ("pre", "code"):
            if self._code_depth == 0:
                self._code_buf = []
            self._code_depth += 1
        elif tag == "img":
            src = attrs.get("src", "")
            if src:
                self.chunks.append(("scr", src))
        elif tag == "a":
            href = attrs.get("href", "")
            if href.lower().endswith(IMAGE_EXTS):
                self.chunks.append(("scr", href))
                self._suppress_anchor += 1
        elif tag == "time" and self._time_attr is None:
            if attrs.get("datetime"):
                self._time_attr = attrs["datetime"]
        if tag == "h1":
            self._in_h1 += 1
        if tag in _BLOCK_TAGS and self._code_depth == 0:
            self.chunks.append(("text", "\n"))

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if tag == "title":
            self._in_title = False
        elif tag in ("script", "style"):
            self._skip = max(0, self._skip - 1)
        elif tag in ("pre", "code"):
            if self._code_depth > 0:
                self._code_depth -= 1
                if self._code_depth == 0:
                    payload = "".join(self._code_buf).strip("\n")
                    if payload.strip():
                        self.chunks.append(("code", payload))
        elif tag == "a":
            self._suppress_anchor = max(0, self._suppress_anchor - 1)
        if tag == "h1":
            self._in_h1 = max(0, self._in_h1 - 1)
        if tag in _BLOCK_TAGS and self._code_depth == 0:
            self.chunks.append(("text", "\n"))

    def handle_data(self, data):
        if self._skip:
            return
        if self._in_title:
            self.title_parts.append(data)
            return
        if self._code_depth:
            self._code_buf.append(data)
            return
        if self._suppress_anchor:
            return
        if self._in_h1:
            self.h1_parts.append(data)
        self.chunks.append(("text", data))


def _clean_text(raw: str) -> str:
    lines = [re.sub(r"[ \t]+", " ", ln).strip() for ln in raw.split("\n")]
    return "\n".join(ln for ln in lines if ln)


def derive_ir_id(url: str) -> str:
    m = re.search(r"([\w.-]+)/([\w.-]+)/(?:issues|pull|pulls|bugs?)/(\d+)", url)
    if m:
        return f"{m.group(1)}/{m.group(2)}#{m.group(3)}"
    return "page-" + hashlib.sha256(url.encode("utf-8")).hexdigest()[:12]


def _parse_timestamp(value: str) -> int | None:
    try:
        dt = datetime.datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=datetime.timezone.utc)
    return int(dt.timestamp())


def parse_issue_page(page: RawIssuePage) -> CanonicalIR:
    """Extract title, plain text, screenshot links, and code blocks.

    Screenshot links (images or anchors ending in .png/.jpg/.jpeg/.gif) and
    code blocks (<pre>/<code> or triple-backtick fences) are replaced inline
    by sequential [SCRn]/[CODEn] tags in document order.
    """
    parser = _PageParser()
    parser.feed(page.html)
    parser.close()

    title = _clean_text("".join(parser.title_parts)).replace("\n", " ").strip()
    if not title:
        title = _clean_text("".join(parser.h1_parts)).replace("\n", " ").strip()
    if not title:
        raise MalformedPage(f"{page.source_url}: no title element")

    # sentinel markers keep document order while fences are still unexpanded
    payloads: list[tuple[str, str]] = []
    pieces: list[str] = []
    for kind, value in parser.chunks:
        if kind == "text":
            pieces.append(value)
        else:
            pieces.append(f"\x00{len(payloads)}\x00")
            payloads.append((kind, value))
    assembled = "".join(pieces)

    def fence_repl(m: re.Match) -> str:
        body = m.group(1).strip("\n")
        if not body.strip():
            return " "
        marker = f"\x00{len(payloads)}\x00"
        payloads.append(("code", body))
        return marker

    assembled = _FENCE_RE.sub(fence_repl, assembled)

    counts = {KIND_SCR: 0, KIND_CODE: 0}
    elements: list[RichTextElement] = []

    def marker_repl(m: re.Match) -> str:
        kind, payload = payloads[int(m.group(1))]
        k = KIND_SCR if kind == "scr" else KIND_CODE
        counts[k] += 1
        tag = f"[{k}{counts[k]}]"
        elements.append(RichTextElement(k, tag, payload))
        return f" {tag} "

    assembled = re.sub(r"\x00(\d+)\x00", marker_repl, assembled)
    content = _clean_text(assembled)

    created = page.fetched_at
    if parser._time_attr:
        parsed = _parse_timestamp(parser._time_attr)
        if parsed is not None:
            created = parsed

    ir = CanonicalIR(id=derive_ir_id(page.source_url), title=title, content=content,
                     rich_text=elements, created_at=created)
    ir.check_tag_bijection()
    return ir


def _pairwise_payload_similarity(a: Counter[str], b: Counter[str]) -> float:
    # two-document index per comparison keeps the merge decision independent
    # of what else is in the record, which makes the operation idempotent
    idx = build_index([a, b])
    return similarity(idx, a, b)


def merge_similar_elements(ir: CanonicalIR, threshold: float = MERGE_THRESHOLD) -> CanonicalIR:
    """Collapse same-kind elements whose payloads are near-duplicates.

    A later element merges into the first sufficiently similar earlier one;
    its tag occurrences in the content are rewritten to the survivor's tag,
    then all tags are renumbered densely per kind.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    survivors: list[RichTextElement] = []
    survivor_counts: list[Counter[str]] = []
    rewrite: dict[str, str] = {}
    for el in ir.rich_text:
        el_counts = term_counts(el.payload)
        merged = False
        for kept, kept_counts in zip(survivors, survivor_counts):
            if kept.kind != el.kind:
                continue
            if _pairwise_payload_similarity(kept_counts, el_counts) >= threshold:
                rewrite[el.tag] = kept.tag
                merged = True
                break
        if not merged:
            survivors.append(el)
            survivor_counts.append(el_counts)

    content = ir.content
    for old, new in rewrite.items():
        content = content.replace(old, new)

    # dense renumbering per kind; placeholder pass avoids tag collisions
    counts = {KIND_SCR: 0, KIND_CODE: 0}
    final_elements: list[RichTextElement] = []
    placeholder_map: dict[str, str] = {}
    for i, el in enumerate(survivors):
        counts[el.kind] += 1
        new_tag = f"[{el.kind}{counts[el.kind]}]"
        placeholder = f"\x00T{i}\x00"
        content = content.replace(el.tag, placeholder)
        placeholder_map[placeholder] = new_tag
        final_elements.append(RichTextElement(el.kind, new_tag, el.payload))
    for placeholder, new_tag in placeholder_map.items():
        content = content.replace(placeholder, new_tag)

    out = replace(ir, content=content, rich_text=final_elements)
    out.check_tag_bijection()
    return out


_VOWELS = set("aeiou")


def _lemmatize_word(word: str) -> str:
    for suffix in ("ing", "ed", "s"):
        if suffix == "s" and word.endswith("ss"):
            continue
        if word.endswith(suffix) and len(word) > len(suffix):
            stem = word[: -len(suffix)]
            if len(stem) >= 2 and any(c in _VOWELS for c in stem):
                return stem
            return word
    return word


def _normalize_segment(text: str) -> str:
    text = text.lower()
    words = re.split(r"(\s+)", text)
    out = []
    for w in words:
        if w.strip() == "" or not w.isalpha():
            out.append(w)
        else:
            out.append(_lemmatize_word(w))
    collapsed = re.sub(r"\s+", " ", "".join(out))
    return collapsed


def normalize_text(ir: CanonicalIR) -> CanonicalIR:
    """Lowercase, collapse whitespace, strip -s/-ing/-ed suffixes.

    Rich-text tags survive untouched (they are uppercase by construction and
    skipped segment-wise); CODE payloads are never rewritten.
    """
    parts = TAG_RE.split(ir.content)
    # TAG_RE.split yields [text, kind, number, text, kind, number, ..., text]
    rebuilt = []
    i = 0
    while i < len(parts):
        rebuilt.append(_normalize_segment(parts[i]))
        if i + 2 < len(parts):
            rebuilt.append(f"[{parts[i + 1]}{parts[i + 2]}]")
        i += 3
    content = "".join(rebuilt).strip()
    title = _normalize_segment(ir.title).strip()
    out = replace(ir, title=title, content=content)
    out.check_tag_bijection()
    return out


def split_multi_cwe(ir: CanonicalIR, cwe_ids: list[str]) -> list[CanonicalIR]:
    """One record per CWE label, each positively labeled and id-suffixed."""
    if not cwe_ids:
        raise InvalidCweId("empty CWE list")
    out = []
    for cwe in cwe_ids:
        m = CWE_RE.fullmatch(cwe)
        if not m:
            raise InvalidCweId(f"bad CWE id {cwe!r}")
        out.append(replace(ir, id=f"{ir.id}#cwe-{m.group(1)}", cwe_id=cwe, label_vul=True))
    return out


def split_corpus(irs: list[CanonicalIR], proportion: float) -> CorpusSplit:
    """Time-ordered split; the first round(proportion*N) records are historical."""
    if not irs:
        raise EmptyCorpus("cannot split an empty corpus")
    if not 0.0 < proportion < 1.0:
        raise ValueError("proportion must be in (0, 1)")
    ordered = sorted(irs, key=lambda ir: (ir.created_at, ir.id))
    n_hist = int(math.floor(proportion * len(ordered) + 0.5))
    return CorpusSplit(historical=ordered[:n_hist], target=ordered[n_hist:],
                       proportion=proportion)


def load_corpus(path: str | Path) -> list[CanonicalIR]:
    out: list[CanonicalIR] = []
    seen: set[str] = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        ir = CanonicalIR.from_dict(json.loads(line))
        if ir.id in seen:
            raise DuplicateId(f"corpus repeats IR id {ir.id}")
        seen.add(ir.id)
        out.append(ir)
    return out


def save_corpus(irs: list[CanonicalIR], path: str | Path) -> None:
    lines = [json.dumps(ir.to_dict(), sort_keys=True) for ir in irs]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def snapshot_filename(url: str) -> str:
    return hashlib.sha256(url.encode("utf-8")).hexdigest() + ".html"


def fetch_pages(manifest_path: str | Path, out_dir: str | Path,
                timeout: float = 30.0, opener=None) -> list[dict]:
    """Download every URL in the manifest (one per line) into out_dir.

    Snapshots are stored as sha256(url).html with a sidecar .meta.json noting
    the source URL and fetch time. Failures are recorded and skipped.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    open_url = opener or (lambda url: urllib.request.urlopen(url, timeout=timeout))
    results = []
    for raw in Path(manifest_path).read_text(encoding="utf-8").splitlines():
        url = raw.strip()
        if not url or url.startswith("#"):
            continue
        name = snapshot_filename(url)
        record = {"url": url, "file": name, "ok": True}
        try:
            with open_url(url) as resp:
                html = resp.read().decode("utf-8", errors="replace")
        except Exception as exc:
            record.update(ok=False, error=str(exc))
            results.append(record)
            continue
        fetched_at = int(time.time())
        (out_dir / name).write_text(html, encoding="utf-8")
        meta = {"source_url": url, "fetched_at": fetched_at}
        (out_dir / (name + ".meta.json")).write_text(
            json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
        results.append(record)
    return results


def load_snapshot(snap_dir: str | Path, url: str) -> RawIssuePage:
    snap_dir = Path(snap_dir)
    name = snapshot_filename(url)
    html = (snap_dir / name).read_text(encoding="utf-8")
    meta = json.loads((snap_dir / (name + ".meta.json")).read_text(encoding="utf-8"))
    return RawIssuePage(source_url=url, html=html, fetched_at=int(meta["fetched_at"]))
