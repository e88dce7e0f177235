"""Action implementations behind the agent: screenshot text, code summary,
termination. Each analyzer has a deterministic stub plus an HTTP variant;
results are cached by payload hash so repeated analysis never re-runs a
backend.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .config import ToolSection
from .corpus import KIND_CODE, KIND_SCR, CanonicalIR, RichTextElement
from .errors import KindMismatch, ToolBackendUnavailable
from .graph import AGENT_TERMINATOR, CODE_ANALYZER, SCR_ANALYZER

log = logging.getLogger(__name__)

TERMINATE_SENTINEL = "TERMINATE"


@dataclass
class ToolResult:
    tool: str
    input_tag: str
    output_text: str


class StubScrAnalyzer:
    """Resolves a screenshot URL to a sidecar text file named by url hash."""

    def __init__(self, fixtures_dir: str | Path):
        self.fixtures_dir = Path(fixtures_dir)

    def analyze(self, payload: str) -> str:
        sidecar = self.fixtures_dir / sidecar_filename(payload)
        if not sidecar.is_file():
            raise ToolBackendUnavailable(f"no sidecar text for screenshot {payload}")
        return sidecar.read_text(encoding="utf-8").strip()


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
    """POSTs {"payload": ...} to an endpoint and expects {"text": ...} back."""

    def __init__(self, endpoint_url: str, timeout: float = 30.0):
        self.endpoint_url = endpoint_url
        self.timeout = timeout

    def analyze(self, payload: str) -> str:
        req = urllib.request.Request(
            self.endpoint_url, data=json.dumps({"payload": payload}).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ToolBackendUnavailable(f"{self.endpoint_url}: {exc}") from exc
        return str(body.get("text", ""))


class ToolKit:
    """Dispatches run_tool calls to the configured analyzers, with caching."""

    def __init__(self, scr_analyzer, code_analyzer, cache_dir: str | Path | None = None):
        self.scr_analyzer = scr_analyzer
        self.code_analyzer = code_analyzer
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
                value = path.read_text(encoding="utf-8")
                self._memory[key] = value
                return value
        return None

    def _cache_write(self, key: str, value: str) -> None:
        self._memory[key] = value
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(value)
                os.replace(tmp, self.cache_dir / (key + ".txt"))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def run_tool(self, tool: str, element: RichTextElement | None = None) -> ToolResult:
        if tool == AGENT_TERMINATOR:
            return ToolResult(tool, "", TERMINATE_SENTINEL)
        if element is None:
            raise KindMismatch(f"{tool} needs a rich-text element")
        if tool == SCR_ANALYZER:
            if element.kind != KIND_SCR:
                raise KindMismatch(f"{tool} cannot analyze a {element.kind} element")
            analyzer = self.scr_analyzer
        elif tool == CODE_ANALYZER:
            if element.kind != KIND_CODE:
                raise KindMismatch(f"{tool} cannot analyze a {element.kind} element")
            analyzer = self.code_analyzer
        else:
            raise KindMismatch(f"unknown tool {tool!r}")
        key = self._cache_key(tool, element.payload)
        cached = self._cache_read(key)
        if cached is None:
            self.backend_calls += 1
            cached = analyzer.analyze(element.payload)
            self._cache_write(key, cached)
        return ToolResult(tool, element.tag, cached)

    def flatten_ir(self, ir: CanonicalIR) -> str:
        """Title plus content with every tag expanded to "tag (tool output)".

        Elements whose backend is unavailable expand with an empty output and
        leave a warning record behind.
        """
        content = ir.content
        for el in ir.rich_text:
            tool = SCR_ANALYZER if el.kind == KIND_SCR else CODE_ANALYZER
            try:
                out = self.run_tool(tool, el).output_text
            except ToolBackendUnavailable as exc:
                out = ""
                message = f"{ir.id}: {el.tag} output unavailable ({exc})"
                self.warnings.append(message)
                log.warning("%s", message)
            content = content.replace(el.tag, f"{el.tag} ({out})")
        if ir.title:
            return f"{ir.title}\n{content}"
        return content


def make_toolkit(cfg: ToolSection) -> ToolKit:
    if cfg.scr_backend == "stub":
        scr = StubScrAnalyzer(cfg.scr_fixtures_dir or ".")
    elif cfg.scr_backend == "http":
        scr = HttpAnalyzer(cfg.scr_endpoint)
    else:
        raise ValueError(f"unknown scr backend {cfg.scr_backend!r}")
    if cfg.code_backend == "stub":
        code = StubCodeAnalyzer()
    elif cfg.code_backend == "http":
        code = HttpAnalyzer(cfg.code_endpoint)
    else:
        raise ValueError(f"unknown code backend {cfg.code_backend!r}")
    return ToolKit(scr, code, cache_dir=cfg.cache_dir or None)
