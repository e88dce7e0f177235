"""Chat-completion access with token logprobs, plus a deterministic stub.

The stub backend answers from a rule table (regex over the prompt) so the
whole pipeline can run offline and byte-reproducibly; the HTTP backend talks
a generic chat-completion JSON protocol and is configured, never hard-coded.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
import urllib.error
import urllib.request
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

from .config import LlmSection
from .errors import (
    BackendRejected,
    GatewayExhausted,
    LogprobsUnavailable,
    NoLabelToken,
    RateLimited,
    TransportError,
)
from .jsonl import read_jsonl


@dataclass
class LlmRequest:
    system_prompt: str
    user_prompt: str
    temperature: float | None = None  # None: the gateway's configured temperature
    max_tokens: int = 512
    want_logprobs: bool = False
    seed: int | None = None
    timeout: float | None = None  # the gateway's remaining deadline for this attempt


@dataclass
class LlmResponse:
    text: str
    top_token_logprobs: list[dict[str, float]] | None
    backend: str
    latency_seconds: float = 0.0


def _probe(pattern: re.Pattern, capture) -> re.Match:
    """A match with the group numbers and names of `pattern` in which group
    i, the whole match (group 0) included, captured capture(i)."""
    names = {i: name for name, i in pattern.groupindex.items()}
    texts = [capture(i) for i in range(pattern.groups + 1)]
    # groups 1.. capture inside a lookahead, so group 0 spans only texts[0]
    groups = "".join((f"(?P<{names[i]}>" if i in names else "(") + re.escape(texts[i]) + ")"
                     for i in range(1, len(texts)))
    return re.compile(f"{re.escape(texts[0])}(?={groups})").match("".join(texts))


def _parse_template(pattern: re.Pattern, template: str) -> tuple[str | int, ...]:
    """`template` split into literal text and group numbers, alternately.

    Joining the literals with each group's text ("" for a group that did not
    match) is exactly `m.expand(template)` for any match m of `pattern`.
    `re` itself parses the template, by expanding it once against a probe
    match in which each group i captures a mark, i, a mark (which raises
    what `Match.expand` would for a bad escape or group reference). The
    mark is a private-use character the template lacks, so no literal
    holds it: a template escape only yields characters up to U+00FF.
    """
    mark = next(c for c in map(chr, range(0xE000, 0x110000)) if c not in template)
    pieces = _probe(pattern, lambda i: f"{mark}{i}{mark}").expand(template).split(mark)
    return tuple(int(p) if k % 2 else p for k, p in enumerate(pieces))


@dataclass
class StubRule:
    """One scripted reply: the first rule whose pattern matches the prompt
    answers with its response template expanded against the match.

    The template is parsed once, here, so a malformed template (a bad
    escape, or a group the pattern lacks) is rejected when the rule is made,
    with the error `Match.expand` raises.
    """

    pattern: str
    response_text: str
    first_token_logprobs: dict[str, float] | None = None

    def __post_init__(self):
        self._compiled = re.compile(self.pattern, re.DOTALL)
        self._template = _parse_template(self._compiled, self.response_text)

    def expand(self, m: re.Match) -> str:
        """`m.expand(self.response_text)`, from the parsed template."""
        return "".join(p if k % 2 == 0 else (m.group(p) or "")
                       for k, p in enumerate(self._template))


class StubBackend:
    """Rule-table backend: first regex matching the prompt wins.

    Responses may use backreferences (\\1 etc.) into the matched pattern.
    With jitter > 0 the logprobs get a deterministic perturbation derived
    from (seed, prompt), which lets repeated-run averaging exercise distinct
    scores while staying reproducible.
    """

    name = "stub"

    def __init__(self, rules: list[StubRule], jitter: float = 0.0):
        self.rules = list(rules)
        self.jitter = float(jitter)

    @classmethod
    def from_file(cls, path: str | Path, jitter: float = 0.0) -> "StubBackend":
        rules = read_jsonl(path, lambda d: StubRule(
            d["pattern"], d["response_text"], d.get("first_token_logprobs")))
        return cls(rules, jitter=jitter)

    def complete(self, req: LlmRequest) -> LlmResponse:
        prompt = req.system_prompt + "\n" + req.user_prompt
        for rule in self.rules:
            m = rule._compiled.search(prompt)
            if m is None:
                continue
            text = rule.expand(m)
            logprobs = None
            if req.want_logprobs:
                if rule.first_token_logprobs is None:
                    raise LogprobsUnavailable(f"stub rule {rule.pattern!r} has no logprobs")
                first = dict(rule.first_token_logprobs)
                if self.jitter > 0.0:
                    first = {t: lp + self._jitter_for(req.seed, prompt, t)
                             for t, lp in first.items()}
                logprobs = [first]
            return LlmResponse(text=text, top_token_logprobs=logprobs, backend=self.name)
        raise BackendRejected("no stub rule matches the prompt")

    def _jitter_for(self, seed: int | None, prompt: str, token: str) -> float:
        basis = f"{seed}\x00{token}\x00{prompt}".encode("utf-8")
        # crc32 -> uniform in [-jitter, +jitter], stable across runs/platforms
        u = zlib.crc32(basis) / 0xFFFFFFFF
        return (2.0 * u - 1.0) * self.jitter


class HttpBackend:
    """Generic chat-completion JSON endpoint (messages array + logprobs flag)."""

    name = "http"

    def __init__(self, endpoint_url: str, model_name: str,
                 api_key_env_var: str = "", timeout: float = 60.0):
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.api_key_env_var = api_key_env_var
        self.timeout = timeout

    def complete(self, req: LlmRequest) -> LlmResponse:
        payload: dict = {
            "model": self.model_name,
            "messages": [
                {"role": "system", "content": req.system_prompt},
                {"role": "user", "content": req.user_prompt},
            ],
            "max_tokens": req.max_tokens,
        }
        if req.temperature is not None:
            payload["temperature"] = req.temperature
        if req.want_logprobs:
            payload["logprobs"] = True
            payload["top_logprobs"] = 20
        if req.seed is not None:
            payload["seed"] = req.seed
        headers = {"Content-Type": "application/json"}
        if self.api_key_env_var:
            key = os.environ.get(self.api_key_env_var, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        request = urllib.request.Request(
            self.endpoint_url, data=json.dumps(payload).encode("utf-8"),
            headers=headers, method="POST")
        timeout = self.timeout if req.timeout is None else min(self.timeout, req.timeout)
        start = time.monotonic()
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 429:
                raise RateLimited(f"backend returned 429: {exc.reason}") from exc
            if 400 <= exc.code < 500:
                raise BackendRejected(f"backend returned {exc.code}: {exc.reason}") from exc
            raise TransportError(f"backend returned {exc.code}: {exc.reason}") from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransportError(str(exc)) from exc
        elapsed = time.monotonic() - start
        choice = body["choices"][0]
        text = choice["message"]["content"]
        logprobs = None
        if req.want_logprobs:
            try:
                content = choice["logprobs"]["content"]
                logprobs = [{alt["token"]: float(alt["logprob"])
                             for alt in pos["top_logprobs"]} for pos in content]
            except (KeyError, TypeError) as exc:
                raise LogprobsUnavailable("response carries no logprobs") from exc
        return LlmResponse(text=text, top_token_logprobs=logprobs,
                           backend=self.name, latency_seconds=elapsed)


class Gateway:
    """Retrying front over one backend, within one deadline per request;
    defaults are LlmSection's."""

    def __init__(self, backend, max_retries: int = LlmSection.max_retries,
                 deadline_seconds: float = LlmSection.deadline_seconds,
                 backoff_base: float = 0.5,
                 temperature: float = LlmSection.temperature):
        self.backend = backend
        self.temperature = temperature
        self.max_retries = max_retries
        self.deadline_seconds = deadline_seconds
        self.backoff_base = backoff_base
        self.calls = 0

    def complete(self, req: LlmRequest) -> LlmResponse:
        temperature = self.temperature if req.temperature is None else req.temperature
        start = time.monotonic()
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            remaining = self.deadline_seconds - (time.monotonic() - start)
            if remaining <= 0.0:
                break
            try:
                self.calls += 1
                return self.backend.complete(
                    replace(req, temperature=temperature, timeout=remaining))
            except (TransportError, RateLimited) as exc:
                last_error = exc
                if attempt < self.max_retries:
                    time.sleep(min(self.backoff_base * 2 ** attempt,
                                   self.deadline_seconds / 4))
        raise GatewayExhausted(f"gave up after retries: {last_error}")


def make_gateway(cfg: LlmSection) -> Gateway:
    if cfg.backend == "stub":
        if not cfg.stub_rules_path:
            raise BackendRejected("stub backend needs stub_rules_path")
        backend = StubBackend.from_file(cfg.stub_rules_path, jitter=cfg.stub_jitter)
    elif cfg.backend == "http":
        backend = HttpBackend(cfg.endpoint_url, cfg.model_name, cfg.api_key_env_var)
    else:
        raise BackendRejected(f"unknown backend {cfg.backend!r}")
    return Gateway(backend, max_retries=cfg.max_retries,
                   deadline_seconds=cfg.deadline_seconds,
                   temperature=cfg.temperature)


_YES = "yes"
_NO = "no"


def yes_probability(resp: LlmResponse) -> float:
    """Two-way softmax over the Yes/No tokens at the first output position.

    Token matching is case-insensitive and ignores surrounding whitespace, so
    " Yes" and "yes" both count. When only one label token is present, the
    other side falls back to the smallest logprob in the map.
    """
    if not resp.top_token_logprobs:
        raise NoLabelToken("response carries no first-position logprobs")
    first = resp.top_token_logprobs[0]
    if not first:
        raise NoLabelToken("empty logprob map at position 0")
    lp_yes: float | None = None
    lp_no: float | None = None
    for token, lp in first.items():
        label = token.strip().lower()
        if label == _YES:
            lp_yes = lp if lp_yes is None else max(lp_yes, lp)
        elif label == _NO:
            lp_no = lp if lp_no is None else max(lp_no, lp)
    if lp_yes is None and lp_no is None:
        raise NoLabelToken("neither label token present at position 0")
    floor = min(first.values())
    if lp_yes is None:
        lp_yes = floor
    if lp_no is None:
        lp_no = floor
    # numerically stable two-way softmax; exactly shift-invariant in exact
    # arithmetic and well within 1e-9 in floats
    return 1.0 / (1.0 + math.exp(lp_no - lp_yes))
