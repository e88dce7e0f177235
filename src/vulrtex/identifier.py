"""Guidance-prompt generation and the final vulnerability verdict.

The retrieved graph descriptions are turned into numbered analysis steps,
concatenated with the identification prompt, and the verdict comes from the
probability of the "Yes" token at the first output position, thresholded.

A predictions file has one writer, write_predictions, and one reader,
read_scored, which checks each row by scored_row as evaluate needs it.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .config import DEFAULT_THETA_OUT
from .corpus import CanonicalIR
from .errors import NoLabelToken
from .gateway import Gateway, LlmRequest, yes_probability
from .jsonl import iter_jsonl, typed, write_jsonl
from .metrics import NUMBER_TYPES, ScoredLabel
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


def scored_row(ir_id: str, p_yes: float | None, verdict: bool, cwe_id: str | None,
               theta_out: float, unscored: bool = False, latency_seconds: float = 0.0,
               run: int = 0) -> ScoredLabel | None:
    """Check the rules of a prediction row, which every Prediction and every
    row evaluate reads obey; the row as its run's ScoredLabel (truth still
    unset), or None when unscored. A broken rule raises ValueError.

    ScoredLabel checks that p_yes is a number in [0, 1] and latency_seconds
    one >= 0. Types are exact, as JSON decodes them: a bool is no number.
    """
    typed(ir_id, str, "ir_id")
    typed(run, int, "run")
    if type(verdict) is not bool or type(unscored) is not bool:
        raise ValueError("verdict and unscored must be booleans")
    if type(theta_out) not in NUMBER_TYPES:
        raise ValueError(f"theta_out {theta_out!r} is not a number")
    if unscored != (p_yes is None):
        raise ValueError("p_yes must be null exactly when the row is unscored")
    row = None if unscored else ScoredLabel(ir_id, p_yes, False, None, cwe_id,
                                            latency_seconds, run)
    if verdict != (not unscored and p_yes >= theta_out):
        raise ValueError("verdict must equal p_yes >= theta_out")
    if cwe_id is not None and (not verdict or type(cwe_id) is not str):
        raise ValueError("cwe_id only accompanies a positive verdict, as a string")
    return row


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
        scored_row(self.ir_id, self.p_yes, self.verdict, self.cwe_id, self.theta_out,
                   self.unscored, self.latency_seconds, self.run)

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


def write_predictions(preds: list[Prediction], path: str | Path, header: dict) -> None:
    """Write the header record, then one JSON record per prediction.

    The header must carry a "kind" key, which tells it apart from the
    prediction rows.
    """
    if "kind" not in header:
        raise ValueError("prediction-file header needs a 'kind' key")
    write_jsonl(path, chain([header], (pred.to_dict() for pred in preds)))


class Unscored(NamedTuple):
    """Where an unscored row stood: evaluate counts it and drops it."""
    ir_id: str
    run: int


def read_scored(path: str | Path,
                header: Callable[[dict], None]) -> list[ScoredLabel | Unscored]:
    """Each prediction row of a file in file order, read and checked once by
    scored_row: a ScoredLabel with its truth unset, or an Unscored row.

    `header` is called on each header record (one with a "kind" key) where
    the reader meets it, so it can refuse the file before a later line is
    read. A bad line raises ValueError naming its path and line number.
    """
    def row(d: dict) -> ScoredLabel | Unscored | None:
        if type(d) is not dict:
            raise ValueError("a prediction row must be a JSON object")
        if "kind" in d:
            header(d)
            return None
        get = d.get
        ir_id, run = d["ir_id"], get("run", 0)
        scored = scored_row(ir_id, d["p_yes"], d["verdict"], get("cwe_id"), d["theta_out"],
                            get("unscored", False), get("latency_seconds", 0.0), run)
        return Unscored(ir_id, run) if scored is None else scored

    return [r for r in iter_jsonl(path, row) if r is not None]
