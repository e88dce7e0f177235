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
import zlib
from dataclasses import dataclass
from pathlib import Path

from .config import LlmSection
from .errors import (
    BackendRejected,
    ConfigError,
    GatewayExhausted,
    LogprobsUnavailable,
    MalformedReply,
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


def _finite(value) -> bool:
    """A finite number, which a logprob must be; a bool is not a number."""
    try:
        return (not isinstance(value, bool) and isinstance(value, (int, float))
                and math.isfinite(value))
    except OverflowError:  # an integer past the float range
        return False


def _probe_template(pattern: re.Pattern, template: str) -> tuple[str | int, ...]:
    """_parse_template's result, with `re` itself parsing the template: it
    is expanded once against a probe match with the group numbers and names
    of `pattern`, in which group i, the whole match (group 0) included,
    captures a mark, i, a mark (which raises what `Match.expand` would for
    a bad escape or group reference). The mark is a private-use character
    the template lacks, so no literal holds it: a template escape only
    yields characters up to U+00FF."""
    mark = next(c for c in map(chr, range(0xE000, 0x110000)) if c not in template)
    names = {i: name for name, i in pattern.groupindex.items()}
    texts = [f"{mark}{i}{mark}" for i in range(pattern.groups + 1)]
    # groups 1.. capture inside a lookahead, so group 0 spans only texts[0]
    groups = "".join((f"(?P<{names[i]}>" if i in names else "(") + re.escape(texts[i]) + ")"
                     for i in range(1, len(texts)))
    probe = re.compile(f"{re.escape(texts[0])}(?={groups})").match("".join(texts))
    pieces = probe.expand(template).split(mark)
    return tuple(int(p) if k % 2 else p for k, p in enumerate(pieces))


# the template forms that mean the same to Match.expand on every Python
# version from 3.10: literal text, a group number that is not an octal
# escape, \g<ASCII digits> or \g<ASCII identifier>, a character escape,
# and an escaped ASCII character other than a letter or digit, which stays
# as written, backslash and all
_TEMPLATE_ESCAPES = {"a": "\a", "b": "\b", "f": "\f", "n": "\n", "r": "\r",
                     "t": "\t", "v": "\v", "\\": "\\"}
_TEMPLATE_TOKEN = re.compile("|".join([
    r"(?P<text>[^\\]+)",
    r"\\(?![1-7][0-7]{2})(?P<number>[1-9][0-9]?)",
    r"\\g<(?:(?P<digits>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*))>",
    r"\\(?P<escape>[abfnrtv\\])",
    r"(?P<kept>\\[\x00-/:-@\[\]-`{-\x7f])",
]))


def _parse_template(pattern: re.Pattern, template: str) -> tuple[str | int, ...]:
    """`template` split into literal text and group numbers, alternately.

    Joining the literals with each group's text ("" for a group that did not
    match) is exactly `m.expand(template)` for any match m of `pattern`.
    A scan reads the forms every supported Python version reads alike
    (_TEMPLATE_TOKEN) that name a group of `pattern`; a template with any
    other form (an octal escape, a non-ASCII group name, an error) is
    parsed by `re` itself (_probe_template), which raises what
    `Match.expand` raises.
    """
    pieces: list[str | int] = [""]
    pos, end = 0, len(template)
    match = _TEMPLATE_TOKEN.match
    while pos < end:
        token = match(template, pos)
        if token is None:
            return _probe_template(pattern, template)
        pos = token.end()
        kind = token.lastgroup
        if kind == "text" or kind == "kept":
            pieces[-1] += token.group()
        elif kind == "escape":
            pieces[-1] += _TEMPLATE_ESCAPES[token.group(kind)]
        else:
            group = (pattern.groupindex.get(token.group(kind)) if kind == "name"
                     else int(token.group(kind)))
            if group is None or group > pattern.groups:
                return _probe_template(pattern, template)
            pieces += [group, ""]
    return tuple(pieces)


# escapes that stand for one literal character: an escaped character that is
# not an ASCII letter or digit, or one of these; any other escape matches a
# class, a position, a group or a code point
_CHAR_ESCAPES = {"\\n": "\n", "\\t": "\t", "\\r": "\r", "\\f": "\f", "\\v": "\v",
                 "\\a": "\a"}
_CHAR_ESCAPED = r"(?:[^0-9A-Za-z]|[ntrfva])"
# a quantifier, or a "{" that is a literal; both drop the character before
_REPEAT = r"(?:[*+?]|\{(?:[0-9]*(?:,[0-9]*)?\})?)"
# a literal character outside an escape, and a run of them that may hold
# escapes, written unrolled (a character or escape, then plain characters
# between escapes) so the matcher does not backtrack into the run
_PLAIN = r"[^\\\[(){*+?|.^$]"
_LITERAL_RUN = (r"(?:" + _PLAIN + r"|\\" + _CHAR_ESCAPED + ")" + _PLAIN + "*"
                r"(?:\\" + _CHAR_ESCAPED + _PLAIN + "*)*")
# one token of a pattern's text: literal characters, a quantifier, "(",
# "|", or one other item (")" among them) with the quantifiers after it,
# which have no literal character to drop; an escape spans its own
# characters, and a class (where a "]" first, after any "^", is a member)
# and a comment span whole
_PATTERN_TOKEN = re.compile("|".join([
    r"(?P<literal>" + _LITERAL_RUN + ")",
    r"(?P<repeat>" + _REPEAT + ")",
    r"(?:\\(?:x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|N\{[^}]*\}|[0-9]{1,3}|.)"
    r"|\[\^?\]?(?:[^\\\]]|\\.)*\]|\(\?#[^)]*\)|[.^$])" + _REPEAT + "*",
    r"(?P<open>\()",
    r"(?P<close>\))" + _REPEAT + "*",
    r"(?P<branch>\|)",
]), re.DOTALL)


def _unescape(text: str) -> str:
    """The characters a literal run stands for, with no call per escape.
    Apart from its escaped backslashes, at which it is split first, every
    backslash in the run starts an escape of the one character after it,
    so the escapes in _CHAR_ESCAPES are replaced and the other backslashes
    dropped."""
    if "\\\\" in text:
        return "\\".join(map(_unescape, text.split("\\\\")))
    for escape, char in _CHAR_ESCAPES.items():
        text = text.replace(escape, char)
    return text.replace("\\", "")


# the leading whitespace an anchored head (_screen) is read after
_LEADING_SPACE = re.compile(r"\s*")
# a plain int, as Pattern.flags is, so no RegexFlag is made per rule
_CASE_OR_VERBOSE = int(re.IGNORECASE | re.VERBOSE)


def _screen(compiled: re.Pattern) -> tuple[str, tuple[str, ...]]:
    """(head, literals): the literal runs that every match of `compiled`
    holds, read from its pattern text at top level, in pattern order.

    Plain characters, escaped punctuation and \\n, \\t, \\r, \\f, \\v and
    \\a are literal. A run ends at any other escape of a letter or digit
    (whose own characters, as in \\x41, \\N{...} or \\12, are skipped), at
    a class, at ".", "^" or "$", and at a group, which is skipped whole. A
    quantifier, or any "{", drops the character before it. A top-level "|",
    IGNORECASE or VERBOSE yields no literals. The scan errs only by leaving
    literals out, so a prompt that lacks one cannot match.

    When the pattern text begins \\A\\s* and then at once a run that does
    not begin with whitespace, every match starts that run right after the
    prompt's leading whitespace (ASCII, which only narrows \\s, moves no
    such start): it is the head, and `literals` holds the other runs.
    Otherwise the head is "".
    """
    if compiled.flags & _CASE_OR_VERBOSE:
        return "", ()
    runs = [""]  # the last entry is the run being read; runs[0] stays ""
    depth = 0
    anchored = True  # while \A and \s* begin the text
    head_at = 0  # the index of the head in runs, 0 for none
    for k, token in enumerate(_PATTERN_TOKEN.finditer(compiled.pattern)):
        if k < 2:
            anchored = anchored and token.group() == (r"\A", r"\s*")[k]
        kind = token.lastgroup
        if kind == "close":
            depth -= 1
        elif kind == "open":
            depth += 1
            runs.append("")
        elif depth:
            continue
        elif kind == "literal":
            text = token.group()
            runs.append(_unescape(text) if "\\" in text else text)
            if k == 2 and anchored:
                head_at = len(runs) - 1
        elif kind == "repeat":
            runs[-1:] = [runs[-1][:-1], ""]
        elif kind == "branch":
            return "", ()
        else:
            runs.append("")
    head = runs[head_at]
    if _LEADING_SPACE.match(head).end():
        head = ""
    literals = dict.fromkeys(r for r in runs if r)
    literals.pop(head, None)
    return head, tuple(literals)


@dataclass(frozen=True)
class StubRule:
    """One scripted reply: the first rule whose pattern matches the prompt
    answers with its response template expanded against the match.

    The pattern is compiled and the template parsed once, here, so a
    malformed template (a bad escape, or a group the pattern lacks) is
    rejected when the rule is made, with the error `Match.expand` raises.
    The head and literals the pattern requires (_screen) are found here
    too; the rule is frozen, so none of these can drift from its fields.
    """

    pattern: str
    response_text: str
    first_token_logprobs: dict[str, float] | None = None

    def __post_init__(self):
        logprobs = self.first_token_logprobs
        if logprobs is not None and not (
                isinstance(logprobs, dict)
                and all(isinstance(t, str) and _finite(lp) for t, lp in logprobs.items())):
            raise ValueError("first_token_logprobs must be null or map tokens "
                             "to finite numbers")
        compiled = re.compile(self.pattern, re.DOTALL)
        object.__setattr__(self, "_compiled", compiled)
        object.__setattr__(self, "_template", _parse_template(compiled, self.response_text))
        head, literals = _screen(compiled)
        object.__setattr__(self, "_head", head)
        object.__setattr__(self, "_literals", literals)

    def expand(self, m: re.Match) -> str:
        """`m.expand(self.response_text)`, from the parsed template."""
        return "".join(p if k % 2 == 0 else (m.group(p) or "")
                       for k, p in enumerate(self._template))


def _rule_row(d: dict) -> StubRule:
    """A rules-file row as a StubRule; a bad pattern or template raises
    ValueError, so the reader names the file and line."""
    try:
        return StubRule(d["pattern"], d["response_text"], d.get("first_token_logprobs"))
    except (re.error, IndexError) as exc:
        raise ValueError(f"bad stub rule: {exc}") from exc


class StubBackend:
    """Rule-table backend: first regex matching the prompt wins.

    A rule's regex is searched only when the prompt holds every literal its
    pattern requires, and its anchored head right after the prompt's leading
    whitespace, so the rules skipped are ones that could not match and the
    answering rule is the first match's. Responses may use
    backreferences (\\1 etc.) into the matched pattern.
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
        """The rules of a JSONL file, in file order; a file with no rule,
        which could answer no prompt, raises ConfigError naming it."""
        rules = read_jsonl(path, _rule_row)
        if not rules:
            raise ConfigError(f"{path}: the stub rules file holds no rule")
        return cls(rules, jitter=jitter)

    def complete(self, req: LlmRequest) -> LlmResponse:
        prompt = req.system_prompt + "\n" + req.user_prompt
        lead = _LEADING_SPACE.match(prompt).end()
        holds = prompt.__contains__
        for rule in self.rules:
            if rule._head and not prompt.startswith(rule._head, lead):
                continue
            if not all(map(holds, rule._literals)):
                continue
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
                    encoded = prompt.encode("utf-8")
                    first = {t: lp + self._jitter_for(req.seed, encoded, t)
                             for t, lp in first.items()}
                logprobs = [first]
            return LlmResponse(text=text, top_token_logprobs=logprobs, backend=self.name)
        raise BackendRejected("no stub rule matches the prompt")

    def _jitter_for(self, seed: int | None, prompt: bytes, token: str) -> float:
        """Uniform in [-jitter, +jitter] from the crc32 of the UTF-8 bytes of
        f"{seed}\\x00{token}\\x00{prompt}", stable across runs and platforms.
        The prompt comes encoded, once per request, and the crc runs on from
        that of the prefix, which is the crc of the joined bytes."""
        prefix = zlib.crc32(f"{seed}\x00{token}\x00".encode("utf-8"))
        u = zlib.crc32(prompt, prefix) / 0xFFFFFFFF
        return (2.0 * u - 1.0) * self.jitter


def _token(value) -> str:
    if not isinstance(value, str):
        raise MalformedReply(f"reply holds a {type(value).__name__} token, not a string")
    return value


def _logprob(value) -> float:
    if not _finite(value):
        raise MalformedReply("reply holds a logprob that is not a finite number")
    return float(value)


def _parse_reply(raw: bytes, want_logprobs: bool) -> tuple[str, list[dict[str, float]] | None]:
    """The text and, if asked for, the per-position top logprobs of a reply.

    The body must be UTF-8 JSON with a string choices[0].message.content,
    and choices[0].logprobs.content must list positions of {"top_logprobs":
    [{"token": str, "logprob": finite number}, ...]}. A choice without
    logprobs raises LogprobsUnavailable; any other departure, MalformedReply.
    """
    try:
        body = json.loads(raw.decode("utf-8"))
        choice = body["choices"][0]
        text = choice["message"]["content"]
        if not isinstance(text, str):
            raise MalformedReply(f"reply content is a {type(text).__name__}, not a string")
        if not want_logprobs:
            return text, None
        if choice.get("logprobs") is None:
            raise LogprobsUnavailable("response carries no logprobs")
        logprobs = [{_token(alt["token"]): _logprob(alt["logprob"])
                     for alt in pos["top_logprobs"]}
                    for pos in choice["logprobs"]["content"]]
    except (ValueError, KeyError, IndexError, TypeError, OverflowError,
            RecursionError) as exc:
        raise MalformedReply(f"malformed reply: {type(exc).__name__}: {exc}") from exc
    return text, logprobs


def post_json(url: str, payload: dict, headers: dict[str, str], timeout: float) -> bytes:
    """The raw body of the reply to `payload` POSTed as JSON, with `headers`
    added to the JSON content type. A 429 raises RateLimited, any other 4xx
    BackendRejected; a 5xx, a failed connection or a reply cut short raises
    TransportError. urlopen is looked up on each call, so a test can patch
    urllib.request.urlopen.

    The HTTP stack (http.client, urllib.request and the ssl and email
    modules they pull in) is imported here, on the first exchange, so a
    run on stub backends never loads it.
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **headers}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 429:
            raise RateLimited(f"backend returned 429: {exc.reason}") from exc
        if 400 <= exc.code < 500:
            raise BackendRejected(f"backend returned {exc.code}: {exc.reason}") from exc
        raise TransportError(f"backend returned {exc.code}: {exc.reason}") from exc
    except (OSError, http.client.HTTPException) as exc:
        # URLError and TimeoutError are OSErrors; an HTTPException such
        # as IncompleteRead is a connection dropped mid-reply
        raise TransportError(str(exc)) from exc


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
        headers: dict[str, str] = {}
        if self.api_key_env_var:
            key = os.environ.get(self.api_key_env_var, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        timeout = self.timeout if req.timeout is None else min(self.timeout, req.timeout)
        start = time.monotonic()
        raw = post_json(self.endpoint_url, payload, headers, timeout)
        elapsed = time.monotonic() - start
        text, logprobs = _parse_reply(raw, req.want_logprobs)
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
        """The backend's reply to req, retried on a transport error or a
        rate limit until max_retries or the deadline runs out.

        Each attempt hands the backend req's fields, built afresh rather
        than copied, with the temperature resolved (the gateway's when
        req's is None) and `timeout` the deadline left.
        """
        temperature = self.temperature if req.temperature is None else req.temperature
        start = time.monotonic()
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            remaining = self.deadline_seconds - (time.monotonic() - start)
            if remaining <= 0.0:
                break
            try:
                self.calls += 1
                return self.backend.complete(LlmRequest(
                    req.system_prompt, req.user_prompt, temperature, req.max_tokens,
                    req.want_logprobs, req.seed, remaining))
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
    if not all(map(math.isfinite, first.values())):
        raise NoLabelToken("non-finite logprob at position 0")
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
    try:
        return 1.0 / (1.0 + math.exp(lp_no - lp_yes))
    except OverflowError:  # No is over e^709 times as likely as Yes
        return 0.0
