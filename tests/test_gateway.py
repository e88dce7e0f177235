import ast
import dataclasses
import http.client
import json
import math
import random
import re
import sys
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from e2e_fixture import e2e_rules, write_e2e_config, write_e2e_fixture
from fixturelib import FakeHttpResponse, ScriptedBackend, answering
from oracles import oracle_literal_runs, oracle_template_pieces
from vulrtex import cli
from vulrtex.errors import (
    BackendRejected,
    GatewayExhausted,
    LogprobsUnavailable,
    MalformedReply,
    NoLabelToken,
    TransportError,
    VulrtexError,
)
from vulrtex import gateway
from vulrtex.config import DEFAULT_TEMPERATURE, LlmSection
from vulrtex.gateway import (
    Gateway,
    HttpBackend,
    LlmRequest,
    LlmResponse,
    StubBackend,
    StubRule,
    make_gateway,
    yes_probability,
)


def make_request(prompt: str, want_logprobs: bool = False, seed: int | None = None) -> LlmRequest:
    return LlmRequest(system_prompt="system", user_prompt=prompt,
                      want_logprobs=want_logprobs, seed=seed)


RULES = [
    StubRule(r"Output exactly: (.+)", r"\1"),
    StubRule(r"classify this", "Yes\nCWE-79",
             {"Yes": math.log(0.9), "No": math.log(0.1)}),
]


def test_stub_echo_rule():
    backend = StubBackend(RULES)
    assert backend.complete(make_request("Output exactly: PING")).text == "PING"


def test_stub_deterministic_across_calls():
    backend = StubBackend(RULES)
    req = make_request("classify this report", want_logprobs=True, seed=7)
    a = backend.complete(req)
    b = backend.complete(req)
    assert a.text == b.text
    assert a.top_token_logprobs == b.top_token_logprobs


def test_stub_no_match_rejected():
    with pytest.raises(BackendRejected):
        StubBackend(RULES).complete(make_request("nothing applies"))


def test_stub_logprobs_unavailable_when_rule_has_none():
    with pytest.raises(LogprobsUnavailable):
        StubBackend(RULES).complete(make_request("Output exactly: PING", want_logprobs=True))


def test_stub_jitter_deterministic_but_seed_sensitive():
    backend = StubBackend(RULES, jitter=0.05)
    r7a = backend.complete(make_request("classify this", want_logprobs=True, seed=7))
    r7b = backend.complete(make_request("classify this", want_logprobs=True, seed=7))
    r8 = backend.complete(make_request("classify this", want_logprobs=True, seed=8))
    assert r7a.top_token_logprobs == r7b.top_token_logprobs
    assert r7a.top_token_logprobs != r8.top_token_logprobs


# Response templates are parsed once per rule; expanding the parsed template
# must give exactly Match.expand's text, or raise exactly its error.
# Private-use characters push the parser's mark past U+E000; octal escapes
# give literal characters up to U+00FF.
_TEMPLATE_PIECES = ["a", "Z", " ", "\n", "\ue000", "\ue001", "\uf8ff", "\U000f0000", "1",
                    "7", r"\n", r"\t", r"\\", r"\.", r"\q", "\\", r"\0", r"\07", r"\012",
                    r"\123", r"\177", r"\377", r"\1", r"\2", r"\3", r"\12", r"\g<0>",
                    r"\g<2>", r"\g<9>", r"\g<name>", r"\g<nope>", r"\g<1"]
_TEMPLATE_CASES = [(r"(?P<name>a+)(b)?", "a"), (r"(?P<name>a+)(b)?", "xaab"),
                   (r"((?P<name>a)(b)?)", "ab"), (r"(a)(b)(c)?(?P<name>d)", "abd"),
                   (r"a", "a")]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_TEMPLATE_CASES),
       st.lists(st.sampled_from(_TEMPLATE_PIECES), max_size=8).map("".join))
def test_parsed_template_expands_like_match_expand(case, template):
    pattern, subject = case
    m = re.compile(pattern, re.DOTALL).search("system\n" + subject)
    try:
        want = m.expand(template)
    except (re.error, IndexError) as e:
        with pytest.raises(type(e)) as got:
            StubRule(pattern, template)
        assert str(got.value) == str(e)
        return
    rule = StubRule(pattern, template)
    assert rule.expand(m) == want
    assert StubBackend([rule]).complete(make_request(subject)).text == want


# The scan reads the template forms every supported Python version reads
# alike; any other template goes to the probe, so the two agree on every
# template, errors included. A non-ASCII digit or name in \g<...> is one
# the scan leaves to the probe.
_SCAN_PIECES = _TEMPLATE_PIECES + ["\\g<\u0663>", "\\g<a\u0663>", r"\g<01>", r"\g<_x>",
                                   r"\g<>", r"\18", r"\8", r"\b", r"\a", r"\v", r"\-",
                                   "\\\n", "\\\u00e9", r"\x"]
# 21 groups, so \12 and \17 name groups and \123 and \177 are octal
_SCAN_CASES = _TEMPLATE_CASES + [("(?P<a\u0663>a)(b)?", "ab"), (r"(?P<_x>a)", "a"),
                                 ("(.)" * 21, "abcdefghijklmnopqrstu")]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(_SCAN_CASES),
       st.lists(st.sampled_from(_SCAN_PIECES), max_size=8).map("".join))
def test_template_scan_equals_probe(case, template):
    compiled = re.compile(case[0], re.DOTALL)
    try:
        want = oracle_template_pieces(compiled, template)
    except (re.error, IndexError, DeprecationWarning) as e:
        with pytest.raises(type(e)) as got:
            gateway._parse_template(compiled, template)
        assert str(got.value) == str(e)
        return
    assert gateway._parse_template(compiled, template) == want


def test_e2e_templates_parse_without_the_probe():
    with mock.patch.object(gateway, "_probe_template", side_effect=AssertionError):
        rules = [StubRule(r["pattern"], r["response_text"]) for r in e2e_rules()]
    assert [r._template for r in rules] == [
        oracle_template_pieces(r._compiled, r.response_text) for r in rules]


def test_stub_rule_is_frozen():
    rule = StubRule(r"ping (\w+)", r"pong \1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.pattern = "other"
    assert StubBackend([rule]).complete(make_request("ping x")).text == "pong x"


# Screening: a rule's regex is searched only when the prompt holds every
# literal its pattern requires. The literals come from a scan of the pattern
# text; the stdlib parser's tree is the reference for what is literal.

_REASON = r"\A\s*Please think step by step"
_LAST_SCR = r"ScrAnalyzer\(\[SCR{k}\]\): [^;()\n]*\)\Z"


def _family_head(key: str) -> str:
    return _REASON + r".{0,1500}?\nIR title: ([^\n]*)\nIR content: " + key + " report:"


@pytest.mark.parametrize("pattern, want", [
    (_family_head("xss") + ".*" + _LAST_SCR.format(k=r"\d"),
     ("Please think step by step", "\nIR title: ", "\nIR content: xss report:",
      "ScrAnalyzer([SCR", "]): ", ")")),
    (r"\x41bc\N{DIGIT ONE}d\0e", ("bc", "d", "e")),
    (r"(a)x\1y\123z", ("x", "y", "z")),
    (r"ab*cd+?ef{2}gh{1,3}ij??kl{m", ("a", "c", "e", "g", "i", "k", "m")),
    (r"a\.b\*\n\t\\c", ("a.b*\n\t\\c",)),
    (r"a[]b]c[^]d]e[\]f]g", ("a", "c", "e", "g")),
    (r"a(b|c)d(?=e)f(?#)g(?#(]x)h", ("a", "d", "f", "g", "h")),
    (r"a.b^c$d\Ae\bf\sg", ("a", "b", "c", "d", "e", "f", "g")),
    (r"{abc}", ("abc}",)),
    (r"a(?P<n>b)c(?P=n)d", ("a", "c", "d")),
    (r"ab|cd", ()),
    (r"(?i)abc", ()),
    (r"(?x)a b c", ()),
    (r"abc(?i:d)e", ("abc", "e")),
])
def test_required_literals_known_answers(pattern, want):
    head, literals = gateway._screen(re.compile(pattern, re.DOTALL))
    assert (head,) * bool(head) + literals == want
    rule = StubRule(pattern, "x")
    assert (rule._head, rule._literals) == (head, literals)


# the head: the run right after a leading \A\s*, when it cannot start
# inside the prompt's leading whitespace
@pytest.mark.parametrize("pattern, head", [
    (_REASON + ".*x", "Please think step by step"),
    (r"\A\s*ab*c", "a"),
    (r"\A\s*a*bc", ""),
    (r"\A\s*\.x\n", ".x\n"),
    (r"\A\s* ab", ""),
    (r"\A\s*\nab", ""),
    (r"\A\s*\x41b", ""),
    (r"\A\s+ab", ""),
    (r"\A\s*?ab", ""),
    (r"\A\s*{ab", ""),
    (r"\A\s*(ab)c", ""),
    (r"(?a)\A\s*ab", ""),
    (r"\Aab", ""),
    (r"\s*ab", ""),
    (r"\A\s*ab|cd", ""),
    (r"(?i)\A\s*ab", ""),
])
def test_anchored_head_known_answers(pattern, head):
    assert gateway._screen(re.compile(pattern, re.DOTALL))[0] == head


_POSSESSIVE = sys.version_info >= (3, 11)
# (pattern, a text it matches) for one item
_ATOMS = ([(c, c) for c in "abc]}{-"]
          + [("\\" + c, c) for c in ".*+?()[]{}|^$\\-# "]
          + [(r"\d", "7"), (r"\n", "\n"), (r"\t", "\t"), (r"\x41", "A"), (r"\x2a", "*"),
             (r"\u0062", "b"), (r"\0", "\0"), (r"\101", "A"),
             ("[ab]", "a"), ("[^a]", "b"), ("[]a]", "]"), ("[^]a]", "b"), ("[a-c]", "c"),
             ("[.*]", "*"), (r"[\]b]", "]"), (".", "x")])
# (quantifier, fewest and most repeats a match is built with)
_QUANTIFIERS = [("*", 0, 2), ("+", 1, 2), ("?", 0, 1), ("{2}", 2, 2), ("{1,3}", 1, 3),
                ("{,2}", 0, 2), ("{2,}", 2, 3)]
_MODIFIERS = ["", "?"] + (["+"] if _POSSESSIVE else [])
# group openers, and whether the group consumes what its content matches
_GROUPS = ([("(", True), ("(?:", True), ("(?P<@>", True), ("(?i:", True)]
           + ([("(?>", True)] if _POSSESSIVE else []))


def _random_pattern(r: random.Random, depth: int = 0) -> tuple[str, str]:
    """A pattern drawn from a small grammar, with a text it matches when
    its lookarounds and possessive quantifiers allow: a sequence of items,
    mostly atoms, or sometimes two or three sequences joined by "|"."""
    alternatives = []
    for _ in range(r.randint(2, 3) if r.random() < 0.2 else 1):
        pattern, example = "", ""
        for _ in range(r.randint(1, 3 if depth else 7)):
            if depth < 2 and r.random() < 0.2:
                p, e = _random_group(r, depth + 1)
            else:
                p, e = r.choice(_ATOMS)
            if r.random() < 0.25 and not p.startswith(("(?=", "(?!", "(?<")):
                q, fewest, most = r.choice(_QUANTIFIERS)
                p, e = p + q + r.choice(_MODIFIERS), e * r.randint(fewest, most)
            pattern, example = pattern + p, example + e
        alternatives.append((pattern, example))
    return "|".join(p for p, _ in alternatives), r.choice(alternatives)[1]


def _random_group(r: random.Random, depth: int) -> tuple[str, str]:
    """A group, or a lookaround, whose text is empty since it consumes
    nothing; a lookbehind holds a fixed-width literal."""
    if r.random() < 0.15:
        return "(?<=" + "".join(r.choices("abc", k=r.randint(1, 3))) + ")", ""
    opener, consumes = r.choice(_GROUPS + [("(?=", False), ("(?!", False)])
    p, e = _random_pattern(r, depth)
    return opener + p + ")", e if consumes else ""


def _named_pattern(r: random.Random) -> tuple[str, str]:
    """_random_pattern's pattern with its named groups given distinct names."""
    pattern, example = _random_pattern(r)
    names = iter(range(pattern.count("(?P<@>")))
    return re.sub(re.escape("(?P<@>"), lambda _: f"(?P<g{next(names)}>", pattern), example


def _top_pattern(r: random.Random) -> tuple[str, str]:
    pattern, example = _named_pattern(r)
    return r.choice(["", "", "", "", "", "", "(?i)", "(?x)"]) + pattern, example


_PATTERNS = st.randoms(use_true_random=False).map(_top_pattern)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_PATTERNS, st.text("abA*]\n", max_size=3), st.text("abA*]\n", max_size=3))
def test_required_literals_are_sound(case, before, after):
    pattern, example = case
    compiled = re.compile(pattern, re.DOTALL)
    head, literals = gateway._screen(compiled)
    literals = (head,) * bool(head) + literals
    runs = oracle_literal_runs(pattern)
    for literal in literals:
        assert any(literal in run for run in runs), (literal, runs)
    # the swapped case matches too when the pattern ignores case
    for prompt in (before + example + after, before + example.swapcase() + after):
        if compiled.search(prompt):
            assert all(literal in prompt for literal in literals)


# characters \s matches, ASCII and not, to lead a prompt with
_LEAD_SPACE = " \t\n\r\f\v\x1c\x1f\x85\xa0\u2028\u3000"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from([r"\A\s*"] * 4 + [r"\A\s+", r"(?a)\A\s*", r"\A\s*?"]),
       st.randoms(use_true_random=False).map(_named_pattern),
       st.text(_LEAD_SPACE, max_size=3), st.text("ab \n", max_size=3))
def test_anchored_head_screen_is_sound(opener, case, lead, after):
    """A prompt the rule's search matches is never screened out, whatever
    whitespace leads it; the stub sees "\n" before the user prompt."""
    pattern, example = case
    rule = StubRule(opener + pattern, "x")
    prompt = "\n" + lead + example + after
    if rule._compiled.search(prompt):
        assert prompt.startswith(rule._head, gateway._LEADING_SPACE.match(prompt).end())
        assert all(literal in prompt for literal in rule._literals)
    assert_replies_like_first_match([rule], lead + example + after)


def first_match_reply(rules: list[StubRule], req: LlmRequest):
    """(text, logprobs) of the first rule whose pattern matches, trying every
    rule in order with no screening; None when no rule matches."""
    prompt = req.system_prompt + "\n" + req.user_prompt
    for rule in rules:
        m = re.compile(rule.pattern, re.DOTALL).search(prompt)
        if m is not None:
            return m.expand(rule.response_text), rule.first_token_logprobs
    return None


def assert_replies_like_first_match(rules: list[StubRule], prompt: str):
    want = first_match_reply(rules, LlmRequest("", prompt))
    backend = StubBackend(rules)
    if want is None:
        with pytest.raises(BackendRejected):
            backend.complete(LlmRequest("", prompt))
        return
    text, logprobs = want
    got = backend.complete(LlmRequest("", prompt, want_logprobs=logprobs is not None))
    assert got.text == text
    assert got.top_token_logprobs == (None if logprobs is None else [logprobs])


def _scripted_rules() -> list[StubRule]:
    """Anchored family-style and SCR-style rules, first match wins: a rule
    whose header matches may still fail deep in its pattern."""
    rules = [StubRule(_REASON + rf".*?\n\[SCR{k + 2}\] SCR: .*" + _LAST_SCR.format(k=k),
                      f"screenshot {k} points on") for k in (1, 2)]
    last = _LAST_SCR.format(k=r"\d")
    for key in ("xss", "sqli"):
        head = _family_head(key)
        rules.append(StubRule(head + r".*?\n(\[CODE1\]) CODE: .*" + last,
                              key + r" in \1, see \2", {"Yes": -0.2, "No": -1.7}))
        rules.append(StubRule(head + ".*" + last, key + r" in \1", {"Yes": -0.4, "No": -1.1}))
    rules.append(StubRule(_REASON + r".*?\n\[SCR2\] SCR: ", "several screenshots"))
    rules.append(StubRule(_REASON, "one screenshot"))
    return rules


_SCRIPTED_RULES = _scripted_rules()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["Please think step by step", " \nPlease think step by step",
                        "Please think", "Think step by step"]),
       st.sampled_from([0, 10, 1490, 1600]),
       st.sampled_from(["xss", "sqli", "csrf"]),
       st.text("ab (", max_size=4),
       st.integers(0, 4), st.booleans(), st.integers(0, 4), st.booleans())
def test_screened_stub_replies_like_first_match_on_scripted_rules(
        header, filler, key, title, shots, code, last, closed):
    lines = [header, "x" * filler, f"IR title: {title}", f"IR content: {key} report: body"]
    lines += [f"[SCR{j}] SCR: shot {j}" for j in range(1, shots + 1)]
    lines += ["[CODE1] CODE: x = 1"] if code else []
    lines += [f"O2: ScrAnalyzer([SCR{last}]): seen" + (")" if closed else "")] if last else []
    assert_replies_like_first_match(_SCRIPTED_RULES, "\n".join(lines))


@pytest.fixture(scope="module")
def e2e_prompts(tmp_path_factory):
    """Every prompt a run-all on the e2e fixture sends, in order, answered
    by first_match_reply rather than the screened stub."""
    root = tmp_path_factory.mktemp("e2e")
    fx = write_e2e_fixture(root / "fx")
    config = write_e2e_config(root / "config.ini", fx)
    prompts = []

    def recording(self, req):
        prompts.append(req.user_prompt)
        text, logprobs = first_match_reply(self.rules, req)
        return LlmResponse(text, [logprobs] if req.want_logprobs else None, "stub")

    with mock.patch.object(StubBackend, "complete", recording):
        result = CliRunner().invoke(cli.main, ["run-all", "-c", str(config),
                                               "--out-dir", str(root / "run")])
    assert result.exit_code == 0, result.output
    return prompts


_E2E_RULES = [StubRule(r["pattern"], r["response_text"], r.get("first_token_logprobs"))
              for r in e2e_rules()]


def test_screened_stub_replies_like_first_match_on_e2e_prompts(e2e_prompts):
    assert len(e2e_prompts) > 50
    for prompt in e2e_prompts:
        assert_replies_like_first_match(_E2E_RULES, prompt)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_screened_stub_replies_like_first_match_on_cut_e2e_prompts(e2e_prompts, data):
    """A cut can drop a literal some rule requires, or the whole match."""
    prompt = data.draw(st.sampled_from(e2e_prompts))
    start = data.draw(st.integers(0, len(prompt)))
    end = data.draw(st.integers(start, min(len(prompt), start + 80)))
    assert_replies_like_first_match(_E2E_RULES, prompt[:start] + prompt[end:])


def test_yes_probability_equal_logprobs_is_half():
    resp = LlmResponse("Yes", [{"Yes": -1.3, "No": -1.3}], "stub")
    assert yes_probability(resp) == pytest.approx(0.5, abs=1e-12)


def test_yes_probability_renormalizes():
    resp = LlmResponse("Yes", [{"Yes": math.log(0.9), "No": math.log(0.1)}], "stub")
    assert yes_probability(resp) == pytest.approx(0.9, abs=1e-9)


def test_yes_probability_case_and_space_variants():
    resp = LlmResponse("yes", [{" Yes": math.log(0.6), "no": math.log(0.4)}], "stub")
    assert yes_probability(resp) == pytest.approx(0.6, abs=1e-9)


def test_yes_probability_single_label_fallback():
    lp_min = math.log(0.001)
    resp = LlmResponse("Yes", [{"Yes": math.log(0.9), "Hmm": lp_min}], "stub")
    expected = 0.9 / (0.9 + 0.001)
    assert yes_probability(resp) == pytest.approx(expected, abs=1e-9)


def test_yes_probability_shift_invariant():
    base = {"Yes": math.log(0.7), "No": math.log(0.3)}
    p0 = yes_probability(LlmResponse("Yes", [base], "stub"))
    for shift in (-50.0, -3.2, 0.1, 17.0):
        shifted = {t: lp + shift for t, lp in base.items()}
        p = yes_probability(LlmResponse("Yes", [shifted], "stub"))
        assert p == pytest.approx(p0, abs=1e-9)


def test_yes_probability_no_label_token():
    with pytest.raises(NoLabelToken):
        yes_probability(LlmResponse("Maybe", [{"Maybe": -0.1}], "stub"))
    with pytest.raises(NoLabelToken):
        yes_probability(LlmResponse("x", None, "stub"))
    with pytest.raises(NoLabelToken):
        yes_probability(LlmResponse("x", [{}], "stub"))


@pytest.mark.parametrize("lp", [math.nan, math.inf, -math.inf])
def test_yes_probability_non_finite_logprob_is_no_label(lp):
    with pytest.raises(NoLabelToken, match="non-finite"):
        yes_probability(LlmResponse("Yes", [{"Yes": lp, "No": -0.5}], "stub"))
    with pytest.raises(NoLabelToken, match="non-finite"):
        yes_probability(LlmResponse("Yes", [{"Yes": -0.5, "Other": lp}], "stub"))


def test_yes_probability_far_apart_logprobs_do_not_overflow():
    # some endpoints report -9999 for a token they rule out
    assert yes_probability(LlmResponse("No", [{"Yes": -9999.0, "No": 0.0}], "stub")) == 0.0
    assert yes_probability(LlmResponse("Yes", [{"Yes": 0.0, "No": -9999.0}], "stub")) == 1.0


class FlakyBackend:
    name = "flaky"

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def complete(self, req):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("transient")
        return LlmResponse("ok", None, self.name)


def test_gateway_retries_transient_failures():
    backend = FlakyBackend(failures=2)
    gw = Gateway(backend, max_retries=3, backoff_base=0.0)
    assert gw.complete(make_request("hi")).text == "ok"
    assert backend.calls == 3


def test_gateway_exhausts_after_retries():
    backend = FlakyBackend(failures=10)
    gw = Gateway(backend, max_retries=2, backoff_base=0.0)
    with pytest.raises(GatewayExhausted):
        gw.complete(make_request("hi"))
    assert backend.calls == 3


def test_backoff_doubles_up_to_a_quarter_of_the_deadline(monkeypatch):
    """Sleeps double from backoff_base until they reach a quarter of the
    deadline, and each attempt's timeout is the deadline left after the
    sleeps before it."""
    clock = SimpleNamespace(now=0.0)
    sleeps: list[float] = []

    def sleep(seconds):
        sleeps.append(seconds)
        clock.now += seconds

    monkeypatch.setattr(gateway, "time", SimpleNamespace(
        monotonic=lambda: clock.now, sleep=sleep))
    timeouts: list[float] = []

    class FailingBackend:
        name = "failing"

        def complete(self, req):
            timeouts.append(req.timeout)
            raise TransportError("down")

    gw = Gateway(FailingBackend(), max_retries=4, deadline_seconds=8.0, backoff_base=1.0)
    with pytest.raises(GatewayExhausted):
        gw.complete(make_request("hi"))
    assert sleeps == [1.0, 2.0, 2.0, 2.0]
    assert timeouts == [8.0, 7.0, 5.0, 3.0, 1.0]


# a value other than its default for every LlmRequest field
NON_DEFAULT_REQUEST = {
    "system_prompt": "system", "user_prompt": "user", "temperature": 0.9,
    "max_tokens": 7, "want_logprobs": True, "seed": 42, "timeout": 3.5,
}


@pytest.mark.parametrize("temperature", [0.9, None])
def test_gateway_forwards_every_request_field(temperature):
    """The backend sees every field of the request as sent, except the
    temperature, resolved to the gateway's when the request's is None, and
    the timeout, which is the deadline left."""
    assert set(NON_DEFAULT_REQUEST) == {f.name for f in dataclasses.fields(LlmRequest)}
    defaults = LlmRequest("", "")
    for name, value in NON_DEFAULT_REQUEST.items():
        assert value != getattr(defaults, name), name
    req = LlmRequest(**{**NON_DEFAULT_REQUEST, "temperature": temperature})
    backend = ScriptedBackend("ok")
    gw = Gateway(backend, deadline_seconds=2.0, temperature=0.05)
    gw.complete(req)
    [seen] = backend.seen
    expected = {**NON_DEFAULT_REQUEST, "temperature": 0.9 if temperature else 0.05}
    for name, value in expected.items():
        if name != "timeout":
            assert getattr(seen, name) == value, name
    assert 0.0 < seen.timeout <= 2.0
    assert req.temperature == temperature and req.timeout == 3.5


def test_gateway_does_not_retry_rejections():
    backend = StubBackend(RULES)
    gw = Gateway(backend, max_retries=5, backoff_base=0.0)
    with pytest.raises(BackendRejected):
        gw.complete(make_request("nothing applies"))
    assert gw.calls == 1


def test_stub_rules_load_from_file(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text(
        '{"pattern": "ping", "response_text": "pong"}\n'
        '\n'
        '{"pattern": "label", "response_text": "Yes", '
        '"first_token_logprobs": {"Yes": -0.1, "No": -2.3}}\n',
        encoding="utf-8")
    backend = StubBackend.from_file(path)
    assert backend.complete(make_request("ping")).text == "pong"
    resp = backend.complete(make_request("label", want_logprobs=True))
    assert resp.top_token_logprobs == [{"Yes": -0.1, "No": -2.3}]


@pytest.mark.parametrize("logprobs", [
    '{"Yes": "high"}', '{"Yes": true}', '{"Yes": NaN}', '{"Yes": 1e400}', '[1, 2]',
])
def test_stub_rule_with_bad_logprobs_names_file_and_line(tmp_path, logprobs):
    path = tmp_path / "rules.jsonl"
    path.write_text('{"pattern": "ping", "response_text": "pong"}\n'
                    '{"pattern": "label", "response_text": "Yes", '
                    f'"first_token_logprobs": {logprobs}}}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="rules.jsonl:2: first_token_logprobs must be"):
        StubBackend.from_file(path)


def test_stub_rule_without_label_token_stays_valid(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text('{"pattern": "label", "response_text": "Maybe", '
                    '"first_token_logprobs": {"Maybe": -0.1}}\n', encoding="utf-8")
    resp = StubBackend.from_file(path).complete(make_request("label", want_logprobs=True))
    with pytest.raises(NoLabelToken):
        yes_probability(resp)


def capture_http_payloads(monkeypatch) -> list[dict]:
    """Replace urlopen with a fake that records each JSON payload and
    answers "ok"; nothing touches the network."""
    payloads: list[dict] = []

    def fake_urlopen(request, timeout):
        payloads.append(json.loads(request.data.decode("utf-8")))
        return FakeHttpResponse({"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    return payloads


def http_gateway(**overrides) -> Gateway:
    return make_gateway(LlmSection(backend="http", endpoint_url="http://llm.invalid/v1",
                                   model_name="m", **overrides))


def test_configured_temperature_reaches_http_payload(monkeypatch):
    payloads = capture_http_payloads(monkeypatch)
    gw = http_gateway(temperature=0.05)
    assert gw.complete(make_request("hi")).text == "ok"
    assert payloads[0]["temperature"] == 0.05


def test_default_temperature_in_http_payload(monkeypatch):
    payloads = capture_http_payloads(monkeypatch)
    http_gateway().complete(make_request("hi"))
    assert payloads[0]["temperature"] == DEFAULT_TEMPERATURE


def test_request_temperature_overrides_gateway(monkeypatch):
    payloads = capture_http_payloads(monkeypatch)
    req = LlmRequest(system_prompt="system", user_prompt="hi", temperature=0.9)
    http_gateway(temperature=0.05).complete(req)
    assert payloads[0]["temperature"] == 0.9


def test_http_attempts_bounded_by_remaining_deadline(monkeypatch):
    """Each attempt gets what is left of the deadline, not the backend's
    fixed timeout; a clock that each failing attempt advances by 4 s
    leaves 10, 6, then 2 s, and no attempt once the budget is spent."""
    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(gateway, "time", SimpleNamespace(
        monotonic=lambda: clock.now, sleep=lambda seconds: None))
    timeouts: list[float] = []

    def slow_failing_urlopen(request, timeout):
        timeouts.append(timeout)
        clock.now += 4.0
        raise urllib.error.URLError("timed out")

    monkeypatch.setattr(urllib.request, "urlopen", slow_failing_urlopen)
    gw = Gateway(HttpBackend("http://llm.invalid/v1", "m", timeout=60.0),
                 max_retries=5, deadline_seconds=10.0)
    with pytest.raises(GatewayExhausted):
        gw.complete(make_request("hi"))
    assert timeouts == [10.0, 6.0, 2.0]


def test_http_reply_cut_short_is_retried_then_exhausted():
    calls = []

    class CutShort(FakeHttpResponse):
        def read(self) -> bytes:
            raise http.client.IncompleteRead(b"{")

    def fake_urlopen(request, timeout):
        calls.append(timeout)
        return CutShort(b"")

    gw = Gateway(HttpBackend("http://llm.invalid/v1", "m"), max_retries=2, backoff_base=0.0)
    with mock.patch.object(urllib.request, "urlopen", fake_urlopen):
        with pytest.raises(GatewayExhausted, match="IncompleteRead"):
            gw.complete(make_request("hi"))
    assert len(calls) == 3


def chat_reply(content="ok", token="Yes", logprob=-0.1) -> dict:
    return {"choices": [{"message": {"content": content},
                         "logprobs": {"content": [{"top_logprobs": [
                             {"token": token, "logprob": logprob}]}]}}]}


def test_http_reply_parsed():
    with mock.patch.object(urllib.request, "urlopen", answering(chat_reply(logprob=-1))):
        resp = HttpBackend("http://llm.invalid/v1", "m").complete(
            make_request("hi", want_logprobs=True))
    assert resp.text == "ok"
    assert resp.top_token_logprobs == [{"Yes": -1.0}]
    assert type(resp.top_token_logprobs[0]["Yes"]) is float


@pytest.mark.parametrize("body", [
    b"not json", b"\xff\xfe{}", b'{"choices": [{"message": {"content": "ok"}}]} x',
    {}, [], {"choices": []}, {"choices": [{}]}, {"choices": [{"message": "ok"}]},
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": 5}}]},
    chat_reply(logprob="-0.1"), chat_reply(logprob=True), chat_reply(logprob=None),
    b'{"choices": [{"message": {"content": "ok"}, "logprobs": {"content": '
    b'[{"top_logprobs": [{"token": "Yes", "logprob": NaN}]}]}}]}',
    chat_reply(logprob=10 ** 400), chat_reply(token=5), chat_reply(token=["Yes"]),
    {"choices": [{"message": {"content": "ok"}, "logprobs": {"content": 3}}]},
    {"choices": [{"message": {"content": "ok"}, "logprobs": {"content": [{}]}}]},
])
def test_malformed_http_reply_is_one_error_never_retried(body):
    fake = answering(body)
    gw = Gateway(HttpBackend("http://llm.invalid/v1", "m"), max_retries=3, backoff_base=0.0)
    with mock.patch.object(urllib.request, "urlopen", fake):
        with pytest.raises(MalformedReply):
            gw.complete(make_request("hi", want_logprobs=True))
    assert fake.calls == 1


def test_http_reply_without_logprobs_is_unavailable():
    body = {"choices": [{"message": {"content": "ok"}, "logprobs": None}]}
    with mock.patch.object(urllib.request, "urlopen", answering(body)):
        with pytest.raises(LogprobsUnavailable):
            HttpBackend("http://llm.invalid/v1", "m").complete(
                make_request("hi", want_logprobs=True))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=12)
# chat-shaped replies with an arbitrary value at each leaf, so the property
# reaches the content and logprob checks, not only the top-level shape
_chat_bodies = st.builds(chat_reply, _json_values, _json_values, _json_values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_json_values.map(lambda v: json.dumps(v).encode("utf-8")),
                 _chat_bodies.map(lambda v: json.dumps(v).encode("utf-8")),
                 st.binary(max_size=64)),
       st.booleans())
def test_http_reply_is_well_formed_or_a_pipeline_error(body, want_logprobs):
    gw = Gateway(HttpBackend("http://llm.invalid/v1", "m"), max_retries=0)
    with mock.patch.object(urllib.request, "urlopen", answering(body)):
        try:
            resp = gw.complete(make_request("hi", want_logprobs=want_logprobs))
        except VulrtexError:
            return
    assert isinstance(resp.text, str)
    if want_logprobs:
        for position in resp.top_token_logprobs:
            for token, lp in position.items():
                assert isinstance(token, str)
                assert type(lp) is float and math.isfinite(lp)
    else:
        assert resp.top_token_logprobs is None


def test_urlopen_is_called_only_by_post_json():
    """Every HTTP exchange goes through gateway.post_json, which looks
    urllib.request.urlopen up on each call so a patched urlopen reaches it."""
    package = Path(gateway.__file__).parent
    uses = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        owners = {child: node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for child in ast.walk(node)}
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Name) and node.id == "urlopen"
                     or isinstance(node, ast.Attribute) and node.attr == "urlopen"
                     or isinstance(node, ast.alias) and "urlopen" in (node.name, node.asname))
            if named:
                uses.append((source.name, owners.get(node), ast.unparse(node)))
    assert uses == [("gateway.py", "post_json", "urllib.request.urlopen")]
