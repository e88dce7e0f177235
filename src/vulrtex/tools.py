"""The agent's analysis tools: ScrAnalyzer reads a screenshot, CodeAnalyzer a
code snippet. ANALYZER_FOR_KIND names the one tool for each rich-text element
kind, and ToolKit.run_tool(element) runs it; AgentTerminator, the agent's
third action, runs no tool. Each analyzer has a deterministic stub plus an
HTTP variant; results are cached by tool and payload hash so repeated
analysis never re-runs a backend.

The screenshot stub reads its sidecar file as bytes and decodes them as
UTF-8 once. Only a text holding "\r" has its newlines rewritten: "\r\n"
and then a lone "\r" become "\n", which is what reading in text mode did.
A sidecar that is not UTF-8 is unavailable, like a missing one. The disk
cache (`cache_dir`) keeps each output as the UTF-8 bytes of exactly the
text the analyzer returned, one <sha256 of tool and payload>.txt file per
output, so a warm cache returns what a cold one did, "\r" included.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
from pathlib import Path

from .config import ToolSection
from .corpus import KIND_CODE, KIND_SCR, TAG_RE, CanonicalIR, RichTextElement, report_text
from .errors import BackendRejected, ToolBackendUnavailable, TransportError
from .gateway import post_json
from .graph import CODE_ANALYZER, SCR_ANALYZER

log = logging.getLogger(__name__)

ANALYZER_FOR_KIND = {KIND_SCR: SCR_ANALYZER, KIND_CODE: CODE_ANALYZER}


class StubScrAnalyzer:
    """Resolves a screenshot URL to a sidecar text file named by url hash."""

    def __init__(self, fixtures_dir: str | Path):
        self.fixtures_dir = os.fspath(fixtures_dir)

    def analyze(self, payload: str) -> str:
        """The sidecar's text with universal newlines, stripped; a sidecar
        that is missing, is not a file or is not UTF-8 raises
        ToolBackendUnavailable."""
        path = os.path.join(self.fixtures_dir, sidecar_filename(payload))
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
            raise ToolBackendUnavailable(f"no sidecar text for screenshot {payload}") from exc
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ToolBackendUnavailable(
                f"sidecar {path} of screenshot {payload} is not UTF-8: {exc}") from exc
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return text.strip()


def sidecar_filename(url: str) -> str:
    return hashlib.sha256(url.encode("utf-8")).hexdigest() + ".txt"


_LANGUAGE_HINTS = [
    ("php", ("<?php", "$_get", "$_post", "$_request", "echo ")),
    ("python", ("def ", "import ", "print(")),
    ("c", ("#include", "int main")),
    ("java", ("public class", "system.out")),
    ("javascript", ("function ", "console.log", "document.", "var ", "=>")),
    ("sql", ("select ", "insert ", "update ", "delete from")),
    ("html", ("<script", "<div", "<html", "<img")),
]


class StubCodeAnalyzer:
    """Summarizes a snippet as "code snippet in <language>: <first line>"."""

    def analyze(self, payload: str) -> str:
        lowered = payload.lower()
        language = "text"
        for lang, hints in _LANGUAGE_HINTS:
            if any(h in lowered for h in hints):
                language = lang
                break
        first_line = next((ln.strip() for ln in payload.splitlines() if ln.strip()), "")
        return f"code snippet in {language}: {first_line}"


class HttpAnalyzer:
    """POSTs {"payload": ...} to an endpoint, whose reply must be a JSON
    object with a string "text"; any failure or other reply raises
    ToolBackendUnavailable."""

    def __init__(self, endpoint_url: str, timeout: float = 30.0):
        self.endpoint_url = endpoint_url
        self.timeout = timeout

    def analyze(self, payload: str) -> str:
        try:
            raw = post_json(self.endpoint_url, {"payload": payload}, {}, self.timeout)
        except (TransportError, BackendRejected) as exc:
            raise ToolBackendUnavailable(f"{self.endpoint_url}: {exc}") from exc
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
            raise ToolBackendUnavailable(f"{self.endpoint_url}: {exc}") from exc
        text = body.get("text") if isinstance(body, dict) else None
        if not isinstance(text, str):
            raise ToolBackendUnavailable(
                f"{self.endpoint_url}: reply is not a JSON object with a string text")
        return text


class ToolKit:
    """Runs each element's analyzer, with caching."""

    def __init__(self, scr_analyzer, code_analyzer, cache_dir: str | Path | None = None):
        self.analyzers = {KIND_SCR: scr_analyzer, KIND_CODE: code_analyzer}
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._memory: dict[str, str] = {}
        self.backend_calls = 0
        self.warnings: list[str] = []

    def _cache_key(self, tool: str, payload: str) -> str:
        return hashlib.sha256(f"{tool}\n{payload}".encode("utf-8")).hexdigest()

    def _cache_read(self, key: str) -> str | None:
        if key in self._memory:
            return self._memory[key]
        if self.cache_dir is not None:
            path = self.cache_dir / (key + ".txt")
            if path.is_file():
                value = path.read_bytes().decode("utf-8")
                self._memory[key] = value
                return value
        return None

    def _cache_write(self, key: str, value: str) -> None:
        self._memory[key] = value
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(value.encode("utf-8"))
                os.replace(tmp, self.cache_dir / (key + ".txt"))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def run_tool(self, element: RichTextElement) -> str:
        """The output of the element kind's analyzer on its payload; an
        unavailable backend raises ToolBackendUnavailable and caches nothing."""
        key = self._cache_key(ANALYZER_FOR_KIND[element.kind], element.payload)
        cached = self._cache_read(key)
        if cached is None:
            self.backend_calls += 1
            cached = self.analyzers[element.kind].analyze(element.payload)
            self._cache_write(key, cached)
        return cached

    def flatten_ir(self, ir: CanonicalIR) -> str:
        """The report's text with every tag of its content expanded to
        "tag (tool output)", in one pass over the content, so a tag inside
        a tool output stays as the tool wrote it.

        The tools run in rich-text order. Elements whose backend is
        unavailable expand with an empty output and leave a warning record
        behind.
        """
        outputs: dict[str, str] = {}
        for el in ir.rich_text:
            try:
                out = self.run_tool(el)
            except ToolBackendUnavailable as exc:
                out = ""
                message = f"{ir.id}: {el.tag} output unavailable ({exc})"
                self.warnings.append(message)
                log.warning("%s", message)
            outputs.setdefault(el.tag, out)

        def expand(m: re.Match) -> str:
            tag = m.group()
            return f"{tag} ({outputs[tag]})" if tag in outputs else tag

        return report_text(ir.title, TAG_RE.sub(expand, ir.content))


def make_toolkit(cfg: ToolSection) -> ToolKit:
    """A toolkit with each kind's configured backend: its stub, or an
    HttpAnalyzer at the kind's endpoint."""
    def pick(backend: str, endpoint: str, stub):
        if backend not in ("stub", "http"):
            raise ValueError(f"unknown tool backend {backend!r}")
        return stub if backend == "stub" else HttpAnalyzer(endpoint)

    return ToolKit(pick(cfg.scr_backend, cfg.scr_endpoint,
                        StubScrAnalyzer(cfg.scr_fixtures_dir or ".")),
                   pick(cfg.code_backend, cfg.code_endpoint, StubCodeAnalyzer()),
                   cache_dir=cfg.cache_dir or None)
