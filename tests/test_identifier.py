"""Guidance parsing and verdict thresholding."""

import json
import math

import pytest
from hypothesis import given, settings

import fixturelib as fx
from vulrtex.corpus import CanonicalIR
from vulrtex.errors import GatewayExhausted, TransportError
from vulrtex.gateway import Gateway, StubBackend, StubRule
from vulrtex.graph import ReasoningGraph, Observation
from vulrtex.identifier import (
    DEFAULT_THETA_OUT,
    GuidancePrompt,
    Prediction,
    Unscored,
    generate_guidance,
    identify,
    read_scored,
    write_predictions,
)
from vulrtex.metrics import ScoredLabel
from vulrtex.retrieval import ReservedGraph
from vulrtex.textindex import TermIds, term_counts


def reserved(ir_id, description):
    g = ReasoningGraph(ir_id)
    g.add_observation(Observation("O1", "t"))
    return ReservedGraph(g, ir_id, description, TermIds().doc_terms(term_counts(description)),
                         similarity=0.9)


def target():
    return CanonicalIR(id="acme/app#5", title="xss in search",
                       content="the search box echoes the query [SCR1]")


def stub_gateway(rules):
    return Gateway(StubBackend(rules), max_retries=0, backoff_base=0.0)


LOGPROBS_YES_09 = {"Yes": math.log(0.9), "No": math.log(0.1)}
LOGPROBS_HALF = {"Yes": -1.0, "No": -1.0}


# ------------------------------------------------------------------- guidance

def test_empty_retrieval_gives_empty_guidance():
    guide = generate_guidance([], target(), stub_gateway([]))
    assert guide.steps == []
    assert guide.source_graphs == []
    assert not guide.raw_fallback


def test_step_lines_parse_in_order():
    gw = stub_gateway([StubRule(
        r"generate a guidance prompt",
        "STEP-1: analyze the main page screenshot\n"
        "STEP-2: analyze the XSS-triggered page\n"
        "STEP-3: check the echo call in the handler")])
    guide = generate_guidance([reserved("a/b#1", "desc one")], target(), gw)
    assert guide.steps == ["analyze the main page screenshot",
                           "analyze the XSS-triggered page",
                           "check the echo call in the handler"]
    assert guide.source_graphs == ["a/b#1"]
    assert guide.descriptions == ["desc one"]
    assert not guide.raw_fallback


def test_unparseable_guidance_falls_back_to_raw_step():
    gw = stub_gateway([StubRule(r"generate a guidance prompt",
                                "just look at the screenshots carefully")])
    guide = generate_guidance([reserved("a/b#1", "d")], target(), gw)
    assert guide.steps == ["just look at the screenshots carefully"]
    assert guide.raw_fallback


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fx.reply_texts("STEP-1: ", "STEP-2:", "  STEP-10:\t", "STEP-: ", "STEP-3"))
def test_guidance_from_any_reply_has_a_step(text):
    guide = generate_guidance([reserved("a/b#1", "d")], target(),
                              Gateway(fx.ScriptedBackend(text)))
    assert guide.steps
    assert guide.source_graphs == ["a/b#1"]
    if guide.raw_fallback:
        assert guide.steps == [text.strip()]
    else:
        assert all(step and step in text for step in guide.steps)
    if "STEP-" not in text:
        assert guide.raw_fallback


def test_guidance_gateway_errors_propagate():
    class Down:
        def complete(self, req):
            raise TransportError("down")

    gw = Gateway(Down(), max_retries=0, backoff_base=0.0)
    with pytest.raises(GatewayExhausted):
        generate_guidance([reserved("a/b#1", "d")], target(), gw)


def test_guidance_invariant_rejects_graphs_without_steps():
    with pytest.raises(ValueError):
        GuidancePrompt(steps=[], source_graphs=["a/b#1"])


# ------------------------------------------------------------------- identify

def identify_rules(logprobs, text="Yes\nCWE-79"):
    return [StubRule(r"identify whether the following IR contains", text,
                     first_token_logprobs=logprobs)]


def test_identify_positive_with_cwe():
    pred = identify(target(), GuidancePrompt(), stub_gateway(identify_rules(LOGPROBS_YES_09)))
    assert pred.p_yes == pytest.approx(0.9, abs=1e-12)
    assert pred.verdict is True
    assert pred.cwe_id == "CWE-79"
    assert pred.guidance_used is False
    assert pred.theta_out == DEFAULT_THETA_OUT


def test_identify_below_threshold_negative():
    pred = identify(target(), GuidancePrompt(), stub_gateway(identify_rules(LOGPROBS_HALF)))
    assert pred.p_yes == pytest.approx(0.5, abs=1e-12)
    assert pred.verdict is False
    assert pred.cwe_id is None


def test_threshold_is_inclusive():
    rules = identify_rules({"Yes": 0.0, "No": 0.0})
    pred = identify(target(), GuidancePrompt(), stub_gateway(rules), theta_out=0.5)
    assert pred.p_yes == pytest.approx(0.5, abs=1e-12)
    assert pred.verdict is True


def test_threshold_monotonicity():
    verdicts = []
    for theta in (0.1, 0.5, 0.9):
        pred = identify(target(), GuidancePrompt(),
                        stub_gateway(identify_rules(LOGPROBS_YES_09)), theta_out=theta)
        verdicts.append(pred.verdict)
    assert verdicts == [True, True, False]


def test_extra_cwe_mentions_go_to_diagnostics():
    rules = identify_rules(LOGPROBS_YES_09, text="Yes\nCWE-79\nCWE-89 also plausible")
    pred = identify(target(), GuidancePrompt(), stub_gateway(rules))
    assert pred.cwe_id == "CWE-79"
    assert pred.extra_cwes == ("CWE-89",)


def test_negative_verdict_drops_cwe_mentions():
    rules = identify_rules(LOGPROBS_HALF, text="No\nCWE-79")
    pred = identify(target(), GuidancePrompt(), stub_gateway(rules))
    assert pred.cwe_id is None
    assert pred.extra_cwes == ()


def test_unscored_when_no_label_tokens():
    rules = identify_rules({"Maybe": -0.1, "Nah": -3.0})
    pred = identify(target(), GuidancePrompt(), stub_gateway(rules))
    assert pred.unscored is True
    assert pred.p_yes is None
    assert pred.verdict is False


def test_guidance_used_reflects_steps():
    guide = GuidancePrompt(steps=["look at the page"], source_graphs=["a/b#1"],
                           descriptions=["desc"])
    pred = identify(target(), guide, stub_gateway(identify_rules(LOGPROBS_YES_09)))
    assert pred.guidance_used is True


def test_identify_prompt_carries_steps_and_descriptions():
    seen = {}

    class Spy:
        def complete(self, req):
            seen["prompt"] = req.user_prompt
            return StubBackend(identify_rules(LOGPROBS_YES_09)).complete(req)

    guide = GuidancePrompt(steps=["inspect the echo"], source_graphs=["a/b#1"],
                           descriptions=["the description text"])
    identify(target(), guide, Gateway(Spy()))
    assert "STEP-1: inspect the echo" in seen["prompt"]
    assert "the description text" in seen["prompt"]
    assert seen["prompt"].index("STEP-1") < seen["prompt"].index("the description text")


def test_invalid_theta_rejected():
    with pytest.raises(ValueError):
        identify(target(), GuidancePrompt(), stub_gateway(identify_rules(LOGPROBS_YES_09)),
                 theta_out=1.2)


def test_prediction_invariants(tmp_path):
    invalid = [
        (0.9, False, None),       # verdict disagrees with p_yes >= theta_out
        (0.4, False, "CWE-79"),   # CWE on a negative verdict
        (1.5, True, None),        # p_yes outside [0, 1]
        (-0.1, False, None),
    ]
    path = tmp_path / "preds.jsonl"
    for p_yes, verdict, cwe_id in invalid:
        with pytest.raises(ValueError):
            Prediction("a#1", p_yes, verdict, cwe_id, 0.55, False)
        # the reading path builds rows through the same checks
        path.write_text(json.dumps({"ir_id": "a#1", "p_yes": p_yes, "verdict": verdict,
                                    "cwe_id": cwe_id, "theta_out": 0.55}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError):
            read_scored(path, lambda header: None)


def test_predictions_roundtrip(tmp_path):
    positive = identify(target(), GuidancePrompt(), stub_gateway(identify_rules(LOGPROBS_YES_09)))
    negative = identify(target(), GuidancePrompt(), stub_gateway(identify_rules(LOGPROBS_HALF)))
    positive.latency_seconds, negative.run = 0.25, 2
    unscored = Prediction("acme/app#6", None, False, None, 0.55, False, unscored=True, run=1)
    path = tmp_path / "preds.jsonl"
    header = {"kind": "predictions", "config_hash": "x"}
    write_predictions([positive, unscored, negative], path, header=header)
    headers = []
    assert read_scored(path, headers.append) == [
        ScoredLabel("acme/app#5", positive.p_yes, False, None, "CWE-79", 0.25, 0),
        Unscored("acme/app#6", 1),
        ScoredLabel("acme/app#5", negative.p_yes, False, None, None, 0.0, 2),
    ]
    assert headers == [header]


def test_predictions_file_needs_a_kind_header(tmp_path):
    with pytest.raises(ValueError, match="needs a 'kind' key"):
        write_predictions([], tmp_path / "preds.jsonl", header={"config_hash": "x"})


def test_seed_jitter_changes_p_yes_not_structure():
    backend = StubBackend(identify_rules(LOGPROBS_YES_09), jitter=0.05)
    gw = Gateway(backend)
    a = identify(target(), GuidancePrompt(), gw, seed=1)
    b = identify(target(), GuidancePrompt(), gw, seed=2)
    again = identify(target(), GuidancePrompt(), gw, seed=1)
    assert a.p_yes != b.p_yes
    assert a.p_yes == again.p_yes
