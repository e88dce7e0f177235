"""Guidance-prompt generation and the final vulnerability verdict.

The retrieved graph descriptions are turned into numbered analysis steps,
concatenated with the identification prompt, and the verdict comes from the
probability of the "Yes" token at the first output position, thresholded.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .config import DEFAULT_THETA_OUT
from .corpus import CanonicalIR
from .errors import NoLabelToken
from .gateway import Gateway, LlmRequest, yes_probability
from .jsonl import read_jsonl
from .prompts import build_guidance_prompt, build_identify_prompt
from .retrieval import ReservedGraph, Target

log = logging.getLogger(__name__)

_STEP_RE = re.compile(r"^\s*STEP-(\d+):\s*(.+?)\s*$", re.MULTILINE)
_CWE_RE = re.compile(r"CWE-\d+")


@dataclass
class GuidancePrompt:
    steps: list[str] = field(default_factory=list)
    source_graphs: list[str] = field(default_factory=list)
    descriptions: list[str] = field(default_factory=list)
    raw_fallback: bool = False

    def __post_init__(self):
        if self.source_graphs and not self.steps:
            raise ValueError("guidance built from graphs must carry at least one step")


@dataclass(slots=True)
class Prediction:
    ir_id: str
    p_yes: float | None
    verdict: bool
    cwe_id: str | None
    theta_out: float
    guidance_used: bool
    unscored: bool = False
    extra_cwes: tuple[str, ...] = ()
    latency_seconds: float = 0.0
    run: int = 0

    def __post_init__(self):
        if self.p_yes is not None and not 0.0 <= self.p_yes <= 1.0:
            raise ValueError(f"p_yes {self.p_yes} outside [0, 1]")
        if self.verdict != (self.p_yes is not None and self.p_yes >= self.theta_out):
            raise ValueError("verdict must equal p_yes >= theta_out")
        if self.cwe_id is not None and not self.verdict:
            raise ValueError("cwe_id only accompanies a positive verdict")

    def to_dict(self) -> dict:
        return {
            "ir_id": self.ir_id,
            "p_yes": self.p_yes,
            "verdict": self.verdict,
            "cwe_id": self.cwe_id,
            "theta_out": self.theta_out,
            "guidance_used": self.guidance_used,
            "unscored": self.unscored,
            "extra_cwes": list(self.extra_cwes),
            "latency_seconds": self.latency_seconds,
            "run": self.run,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Prediction":
        return cls(d["ir_id"], d["p_yes"], d["verdict"], d.get("cwe_id"),
                   d["theta_out"], d.get("guidance_used", False),
                   d.get("unscored", False), tuple(d.get("extra_cwes", [])),
                   d.get("latency_seconds", 0.0), d.get("run", 0))


def generate_guidance(graphs: list[ReservedGraph], target: CanonicalIR | Target,
                      llm: Gateway) -> GuidancePrompt:
    """Ask for numbered steps over the retrieved descriptions and the
    target's JSON (Target.json, so a Target is serialized once).

    With nothing retrieved the guidance stays empty and identification runs
    on the bare prompt. A reply that ignores the STEP-n grammar becomes a
    single raw step, flagged.
    """
    if not graphs:
        return GuidancePrompt()
    descriptions = [g.description for g in graphs]
    prompt = build_guidance_prompt(descriptions, Target.of(target).json)
    resp = llm.complete(LlmRequest(system_prompt="", user_prompt=prompt))
    steps = [m.group(2) for m in _STEP_RE.finditer(resp.text)]
    raw_fallback = False
    if not steps:
        steps = [resp.text.strip()]
        raw_fallback = True
        log.warning("%s: guidance reply had no STEP lines; using it verbatim", target.id)
    return GuidancePrompt(steps, [g.origin_ir for g in graphs], descriptions,
                          raw_fallback)


def identify(target: CanonicalIR | Target, guide: GuidancePrompt, llm: Gateway,
             theta_out: float = DEFAULT_THETA_OUT,
             seed: int | None = None) -> Prediction:
    """Score the target and threshold the Yes-probability.

    The CWE comes from the first CWE-<n> token of the reply and is kept only
    on a positive verdict; later mentions land in extra_cwes as diagnostics.
    A reply without label logprobs yields an unscored prediction.
    """
    if not 0.0 <= theta_out <= 1.0:
        raise ValueError("theta_out must be in [0, 1]")
    prompt = build_identify_prompt(guide.steps, Target.of(target).json, guide.descriptions)
    resp = llm.complete(LlmRequest(
        system_prompt="", user_prompt=prompt, want_logprobs=True, seed=seed))
    guidance_used = bool(guide.steps)
    try:
        p_yes = yes_probability(resp)
    except NoLabelToken as exc:
        log.warning("%s: unscored (%s)", target.id, exc)
        return Prediction(target.id, None, False, None, theta_out, guidance_used,
                          unscored=True, latency_seconds=resp.latency_seconds)
    verdict = p_yes >= theta_out
    mentions = _CWE_RE.findall(resp.text)
    cwe_id = mentions[0] if verdict and mentions else None
    extra = tuple(mentions[1:]) if verdict else ()
    return Prediction(target.id, p_yes, verdict, cwe_id, theta_out, guidance_used,
                      extra_cwes=extra, latency_seconds=resp.latency_seconds)


def write_predictions(preds: list[Prediction], path: str | Path,
                      header: dict | None = None) -> None:
    """Write one JSON record per line, optionally preceded by a header record.

    The header must carry a "kind" key so readers can tell it apart from
    prediction rows.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            if "kind" not in header:
                raise ValueError("prediction-file header needs a 'kind' key")
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        for pred in preds:
            fh.write(json.dumps(pred.to_dict(), sort_keys=True) + "\n")


def _prediction_row(d: dict) -> Prediction | None:
    return None if "kind" in d else Prediction.from_dict(d)


def read_predictions(path: str | Path) -> list[Prediction]:
    """The prediction rows of a file, header records dropped; a bad line
    raises ValueError naming its path and line number."""
    return [p for p in read_jsonl(path, _prediction_row) if p is not None]


def read_predictions_header(path: str | Path) -> dict | None:
    """The header record, read from the file's first non-empty line alone;
    None when that line is a prediction row or the file is empty."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    d = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                return d if "kind" in d else None
    return None
