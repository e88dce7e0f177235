"""Step parsing, exploration ordering, path correction, graph generation."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixturelib as fx
from vulrtex.config import PipelineConfig
from vulrtex.corpus import CanonicalIR, RichTextElement
from vulrtex.errors import GatewayExhausted, TransportError
from vulrtex.gateway import Gateway, LlmResponse, StubBackend, StubRule
from vulrtex.graph import (
    AGENT_TERMINATOR,
    CODE_ANALYZER,
    SCR_ANALYZER,
    NOT_VUL,
    TOOLS,
    UNDECIDED,
    VUL,
    Action,
    DescriptionTerms,
    Observation,
    ReasoningGraph,
    describe_path,
    extract_terminated_paths,
)
from vulrtex.knowledge import KnowledgeRecord, ingest
from vulrtex.reasoner import (
    ReasonerConfig,
    correct_path,
    enforce_inclusion_order,
    generate_reasoning_graph,
    parse_step,
)
from vulrtex.textindex import term_counts
from vulrtex.tools import StubCodeAnalyzer, StubScrAnalyzer, ToolKit, sidecar_filename


def make_env(rules, scr_dir):
    gateway = Gateway(StubBackend(rules), max_retries=0, backoff_base=0.0)
    toolkit = ToolKit(StubScrAnalyzer(scr_dir), StubCodeAnalyzer())
    return gateway, toolkit


# ---------------------------------------------------------------- parse_step

def test_parse_full_step():
    parsed = parse_step(
        "Observation: the payload lands in the title unescaped\n"
        "vulnerability identified: Yes CWE-79\n"
        "Action: ScrAnalyzer([SCR1])\n"
        "Action: CodeAnalyzer([CODE2])")
    assert parsed.observation_text == "the payload lands in the title unescaped"
    assert parsed.verdict == VUL
    assert parsed.cwe_id == "CWE-79"
    assert parsed.actions == [(SCR_ANALYZER, "[SCR1]"), (CODE_ANALYZER, "[CODE2]")]
    assert not parsed.terminates()
    assert parsed.deciding()


def test_parse_without_verdict_stays_undecided():
    parsed = parse_step("Observation: still looking\nAction: ScrAnalyzer([SCR1])")
    assert parsed.verdict == UNDECIDED
    assert parsed.cwe_id is None
    assert not parsed.deciding()


def test_parse_negative_verdict_never_carries_cwe():
    parsed = parse_step(
        "Observation: mentions CWE-89 but nothing exploitable\n"
        "vulnerability identified: No\n"
        "Action: AgentTerminator()")
    assert parsed.verdict == NOT_VUL
    assert parsed.cwe_id is None
    assert parsed.terminates()


def test_parse_zero_actions_terminates():
    parsed = parse_step("Observation: model stopped following the grammar")
    assert parsed.actions == [(AGENT_TERMINATOR, "")]
    assert any("no parseable actions" in w for w in parsed.warnings)


def test_parse_unknown_tool_skipped_with_warning():
    parsed = parse_step(
        "Observation: x\nAction: WebSearcher([SCR1])\nAction: ScrAnalyzer([SCR2])")
    assert parsed.actions == [(SCR_ANALYZER, "[SCR2]")]
    assert any("WebSearcher" in w for w in parsed.warnings)


def test_parse_malformed_action_line_warned():
    parsed = parse_step(
        "Observation: x\nAction: ScrAnalyzer [SCR1]\nAction: ScrAnalyzer([SCR2])")
    assert parsed.actions == [(SCR_ANALYZER, "[SCR2]")]
    assert any("malformed" in w for w in parsed.warnings)


def test_parse_observation_block_stops_at_first_action():
    parsed = parse_step(
        "preamble chatter\nObservation: line one\nline two\n"
        "Action: AgentTerminator()\nvulnerability identified: No")
    assert parsed.observation_text == "line one\nline two"


def test_parse_missing_observation_warns():
    parsed = parse_step("Action: AgentTerminator()")
    assert parsed.observation_text == ""
    assert any("no observation block" in w for w in parsed.warnings)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fx.reply_texts("Observation: ", "Action: ", "Action: ScrAnalyzer([SCR1])",
                      "Action: AgentTerminator()", "Action: WebSearcher(",
                      "vulnerability identified: Yes CWE-79", "vulnerability identified: "))
def test_parse_step_is_total(text):
    parsed = parse_step(text)
    assert parsed.actions
    assert all(tool in TOOLS and isinstance(tag, str) for tool, tag in parsed.actions)


# ------------------------------------------------- enforce_inclusion_order

def test_ordering_defers_code_while_scr_unexplored():
    kept, warnings = enforce_inclusion_order(
        [(SCR_ANALYZER, "[SCR2]"), (CODE_ANALYZER, "[CODE1]")], frozenset({"[SCR2]"}))
    assert kept == [(SCR_ANALYZER, "[SCR2]")]
    assert warnings == ["deferred [CODE1] until screenshots are explored"]


def test_ordering_allows_code_once_scr_done():
    actions = [(CODE_ANALYZER, "[CODE1]")]
    kept, warnings = enforce_inclusion_order(actions, frozenset())
    assert kept is actions
    assert warnings == []


def test_ordering_noop_without_screenshots(tmp_path):
    # a report without screenshots has none left to explore, so its code is
    # analyzed at the first step
    ir = CanonicalIR(
        id="fixture/code-only#1", title="code only", content="one snippet [CODE1]",
        rich_text=[RichTextElement("CODE", "[CODE1]", "<?php echo $_GET['x']; ?>")])
    gateway, toolkit = make_env([
        StubRule(r"the next operation is O2\.1 \(",
                 "Observation: unescaped\nvulnerability identified: Yes CWE-79\n"
                 "Action: AgentTerminator()"),
        StubRule(r"IR title: code only",
                 "Observation: read the snippet\nAction: CodeAnalyzer([CODE1])"),
    ], tmp_path)
    g = generate_reasoning_graph(ir, ReasonerConfig(llm=gateway, tools=toolkit))
    assert [(a.src, a.dst, a.argument) for a in g.edges] == [
        ("O1", "O2.1", "[CODE1]"), ("O2.1", "O3.1", "")]
    assert "warnings" not in g.meta


# ---------------------------------------------------------------- correction

def two_node_path():
    g = ReasoningGraph("fixture/corr#1")
    g.add_observation(Observation("O1", "sql injection reported in the login form"))
    g.add_observation(Observation(
        "O2.1", "the login form passes raw input into the query",
        verdict=VUL, cwe_id="CWE-89"))
    g.add_action(Action("A1.1", "O1", "O2.1", AGENT_TERMINATOR))
    return g, extract_terminated_paths(g)[0]


def golden_store():
    return ingest([KnowledgeRecord(
        "kb-fix", "ADV-1",
        "sql injection in the login form query built from raw input", "CWE-89")])


def test_correct_path_rewrites_named_nodes():
    g, path = two_node_path()
    gw = Gateway(StubBackend([StubRule(
        r"may contain factual errors",
        "O2.1: the query concatenates the username parameter directly")]))
    out = correct_path(path, golden_store(), gw, theta_sim=0.05)
    assert g.nodes["O2.1"].text == "the query concatenates the username parameter directly"
    assert g.nodes["O1"].text == "sql injection reported in the login form"
    assert out.node_ids() == ("O1", "O2.1")
    # structure untouched
    assert [a.id for a in g.edges] == ["A1.1"]
    assert g.nodes["O2.1"].verdict == VUL


def test_correct_path_ignores_unknown_ids():
    g, path = two_node_path()
    gw = Gateway(StubBackend([StubRule(
        r"may contain factual errors", "O9.9: bogus\nO1: the report is about sqli")]))
    correct_path(path, golden_store(), gw, theta_sim=0.05)
    assert "O9.9" not in g.nodes
    assert g.nodes["O1"].text == "the report is about sqli"


def test_correct_path_skips_llm_when_nothing_retrieved():
    _, path = two_node_path()
    gw = Gateway(StubBackend([]))
    out = correct_path(path, golden_store(), gw, theta_sim=1.0)
    assert out is path
    assert gw.calls == 0


def test_correct_path_keeps_original_on_gateway_failure():
    g, path = two_node_path()

    class Down:
        def complete(self, req):
            raise TransportError("socket closed")

    gw = Gateway(Down(), max_retries=0, backoff_base=0.0)
    with pytest.raises(GatewayExhausted, match="socket closed"):
        correct_path(path, golden_store(), gw, theta_sim=0.05)
    assert g.nodes["O2.1"].text == "the login form passes raw input into the query"
    assert g.nodes["O1"].text == "sql injection reported in the login form"


def branching_path():
    """two_node_path's graph with a second branch, O2.2, off the path."""
    g, _ = two_node_path()
    g.add_observation(Observation("O2.2", "an unrelated branch", verdict=NOT_VUL))
    g.add_action(Action("A1.2", "O1", "O2.2", AGENT_TERMINATOR))
    [path] = [p for p in extract_terminated_paths(g) if p.node_ids() == ("O1", "O2.1")]
    return g, path


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fx.reply_texts("O1: ", "O2.1: ", "O2.2: ", "O9: ", "O1:", "  O2.1:\t"))
def test_correction_of_any_reply_rewrites_only_path_nodes(text):
    g, path = branching_path()
    before = {nid: (obs.text, obs.verdict, obs.cwe_id) for nid, obs in g.nodes.items()}
    edges = [(a.id, a.src, a.dst) for a in g.edges]
    out = correct_path(path, golden_store(), Gateway(fx.ScriptedBackend(text)), theta_sim=0.05)
    assert out is path
    assert list(g.nodes) == list(before)
    assert [(a.id, a.src, a.dst) for a in g.edges] == edges
    for nid, obs in g.nodes.items():
        text_before, verdict, cwe_id = before[nid]
        assert (obs.verdict, obs.cwe_id) == (verdict, cwe_id)
        if nid not in path.node_ids():
            assert obs.text == text_before
        elif obs.text != text_before:
            assert obs.text and obs.text in text


def test_correction_of_a_shared_terminal_reaches_the_next_level(tmp_path, monkeypatch):
    # the level-2 correction rewrites the shared terminal O3.1, and the
    # level-3 path into it must be scored on the new text; both lookups
    # count through the one table the generation keeps
    ir, rules = fx.shared_terminal_case(tmp_path / "scr")
    gateway, toolkit = make_env(rules, tmp_path / "scr")
    store = ingest([KnowledgeRecord("kb-fix", "ADV-7", "verdict wording screenshot shot")])
    counted, tables = [], []
    original = DescriptionTerms.counts

    def checked(self, p):
        got = original(self, p)
        assert list(got.items()) == list(term_counts(describe_path(p)).items())
        counted.append((p.node_ids(), got))
        tables.append(self)
        return got

    monkeypatch.setattr(DescriptionTerms, "counts", checked)
    cfg = ReasonerConfig(llm=gateway, tools=toolkit, store=store, theta_sim=0.01)
    g = generate_reasoning_graph(ir, cfg)
    assert g.nodes["O3.1"].text == "rewritten verdict wording"
    assert [ids for ids, _ in counted] == [("O1", "O2.1", "O3.1"),
                                          ("O1", "O2.2", "O3.2", "O3.1")]
    first, second = (counts for _, counts in counted)
    assert tables[0] is tables[1]
    assert first["original"] == 1 and first["rewritten"] == 0
    assert second["original"] == 0 and second["rewritten"] == 1


# ---------------------------------------------------------------- generation

@pytest.fixture()
def fig_setup(tmp_path):
    scr_dir = tmp_path / "scr"
    fx.write_fig_sidecars(scr_dir)
    gateway, toolkit = make_env(fx.fig_reason_rules(), scr_dir)
    return fx.fig_ir(), ReasonerConfig(llm=gateway, tools=toolkit)


def test_fig_script_counts(fig_setup):
    ir, cfg = fig_setup
    g = generate_reasoning_graph(ir, cfg)
    assert len(g.nodes) == 7
    assert len(g.edges) == 10
    assert len(extract_terminated_paths(g)) == 4


def test_fig_script_exact_structure(fig_setup):
    ir, cfg = fig_setup
    g = generate_reasoning_graph(ir, cfg)
    assert list(g.nodes) == ["O1", "O2.1", "O2.2", "O2.3", "O2.4", "O3.1", "O3.2"]
    assert [(a.id, a.src, a.dst, a.tool, a.argument) for a in g.edges] == [
        ("A1.1", "O1", "O2.1", SCR_ANALYZER, "[SCR1]"),
        ("A1.2", "O1", "O2.2", SCR_ANALYZER, "[SCR2]"),
        ("A1.3", "O1", "O2.3", SCR_ANALYZER, "[SCR3]"),
        ("A1.4", "O1", "O2.4", SCR_ANALYZER, "[SCR4]"),
        ("A2.1", "O2.1", "O3.1", AGENT_TERMINATOR, ""),
        ("A2.2", "O2.2", "O3.1", AGENT_TERMINATOR, ""),
        ("A2.3", "O2.3", "O3.2", AGENT_TERMINATOR, ""),
        ("A2.4", "O2.4", "O3.2", AGENT_TERMINATOR, ""),
        ("A2.5", "O2.1", "O3.1", CODE_ANALYZER, "[CODE1]"),
        ("A2.6", "O2.4", "O3.2", CODE_ANALYZER, "[CODE3]"),
    ]
    assert g.nodes["O2.1"].text == f"ScrAnalyzer([SCR1]): {fx.FIG_SCR_TEXTS['[SCR1]']}"
    assert g.nodes["O3.1"].verdict == VUL
    assert g.nodes["O3.1"].cwe_id == "CWE-79"
    assert g.nodes["O3.1"].focus_tags == ["[CODE1]"]
    assert g.nodes["O3.2"].verdict == NOT_VUL
    assert g.nodes["O3.2"].cwe_id is None
    paths = extract_terminated_paths(g)
    assert [p.node_ids() for p in paths] == [
        ("O1", "O2.1", "O3.1"), ("O1", "O2.2", "O3.1"),
        ("O1", "O2.3", "O3.2"), ("O1", "O2.4", "O3.2")]
    assert paths[0].steps() == ("O1", "A1.1", "O2.1", "A2.1", "O3.1")
    assert paths[3].steps() == ("O1", "A1.4", "O2.4", "A2.4", "O3.2")


def test_fig_script_deterministic(fig_setup):
    ir, cfg = fig_setup
    assert generate_reasoning_graph(ir, cfg) == generate_reasoning_graph(ir, cfg)


def test_sidecar_that_is_not_utf8_gives_an_empty_analysis_and_a_warning(tmp_path):
    scr_dir = tmp_path / "scr"
    fx.write_fig_sidecars(scr_dir)
    url = fx.FIG_SCR_PAYLOADS["[SCR2]"]
    sidecar = scr_dir / sidecar_filename(url)
    sidecar.write_bytes(b"\xff\xfealert box")
    gateway, toolkit = make_env(fx.fig_reason_rules(), scr_dir)
    g = generate_reasoning_graph(fx.fig_ir(), ReasonerConfig(llm=gateway, tools=toolkit))
    assert g.nodes["O2.2"].text == "ScrAnalyzer([SCR2]): "
    assert g.nodes["O2.1"].text == f"ScrAnalyzer([SCR1]): {fx.FIG_SCR_TEXTS['[SCR1]']}"
    assert len(g.nodes) == 7
    warned = [w for w in g.meta["warnings"] if "unavailable" in w]
    assert len(warned) == 1
    assert warned[0].startswith(f"O1: ScrAnalyzer([SCR2]) unavailable: sidecar {sidecar} "
                                f"of screenshot {url} is not UTF-8: ")


def test_verdict_at_root_gives_two_node_graph(tmp_path):
    ir = CanonicalIR(id="fixture/plain#1", title="no injection here",
                     content="text-only report without rich elements")
    gateway, toolkit = make_env([StubRule(
        r"IR title: no injection here",
        "Observation: nothing attacker controlled\n"
        "vulnerability identified: No\nAction: AgentTerminator()")], tmp_path)
    g = generate_reasoning_graph(ir, ReasonerConfig(llm=gateway, tools=toolkit))
    assert list(g.nodes) == ["O1", "O2.1"]
    assert [(a.src, a.dst, a.tool) for a in g.edges] == [("O1", "O2.1", AGENT_TERMINATOR)]
    assert g.nodes["O2.1"].verdict == NOT_VUL


def test_node_budget_caps_graph_at_three(fig_setup):
    ir, cfg = fig_setup
    cfg.max_nodes = 3
    g = generate_reasoning_graph(ir, cfg)
    assert len(g.nodes) == 3
    assert list(g.nodes) == ["O1", "O2.1", "O2.2"]
    assert any("node budget" in w for w in g.meta.get("warnings", []))


def test_depth_budget_closes_with_undecided_terminal(fig_setup):
    ir, cfg = fig_setup
    cfg.max_depth = 1
    g = generate_reasoning_graph(ir, cfg)
    assert list(g.nodes) == ["O1", "O2.1"]
    terminal = g.nodes["O2.1"]
    assert terminal.verdict == UNDECIDED
    assert g.edges[0].tool == AGENT_TERMINATOR
    paths = extract_terminated_paths(g)
    assert len(paths) == 1 and paths[0].terminated()


def test_gateway_abort_marks_partial(tmp_path):
    class Down:
        def complete(self, req):
            raise TransportError("backend unreachable")

    gateway = Gateway(Down(), max_retries=0, backoff_base=0.0)
    toolkit = ToolKit(StubScrAnalyzer(tmp_path), StubCodeAnalyzer())
    g = generate_reasoning_graph(fx.fig_ir(), ReasonerConfig(llm=gateway, tools=toolkit))
    assert g.meta.get("partial") is True
    assert list(g.nodes) == ["O1"]
    assert g.edges == []


def test_branch_limit_caps_children(fig_setup):
    ir, cfg = fig_setup
    cfg.branch_limit = 2
    g = generate_reasoning_graph(ir, cfg)
    assert g.successors("O1") == ["O2.1", "O2.2"]


def test_duplicate_tags_in_step_collapse(tmp_path):
    ir = CanonicalIR(
        id="fixture/dup#1", title="dup tags",
        content="screenshot [SCR1] repeated",
        rich_text=[RichTextElement("SCR", "[SCR1]", "https://dup.test/a.png")])
    (tmp_path / "scr").mkdir()
    (tmp_path / "scr" / sidecar_filename("https://dup.test/a.png")).write_text("shot")
    gateway, toolkit = make_env([
        StubRule(r"the next operation is O2\.1 \(",
                 "Observation: enough\nvulnerability identified: No\n"
                 "Action: AgentTerminator()"),
        StubRule(r"IR title: dup tags",
                 "Observation: look twice\nAction: ScrAnalyzer([SCR1])\n"
                 "Action: ScrAnalyzer([SCR1])"),
    ], tmp_path / "scr")
    g = generate_reasoning_graph(ir, ReasonerConfig(llm=gateway, tools=toolkit))
    assert g.successors("O1") == ["O2.1"]
    assert len(g.out_actions("O1")) == 1


def test_reexploring_own_path_tag_leads_to_closure(tmp_path):
    ir = CanonicalIR(
        id="fixture/loop#1", title="loop bait",
        content="screenshot [SCR1]",
        rich_text=[RichTextElement("SCR", "[SCR1]", "https://loop.test/a.png")])
    scr = tmp_path / "scr"
    scr.mkdir()
    (scr / sidecar_filename("https://loop.test/a.png")).write_text("shot")
    gateway, toolkit = make_env([
        StubRule(r"the next operation is O2\.1 \(",
                 "Observation: inspect the screenshot again\n"
                 "Action: ScrAnalyzer([SCR1])"),
        StubRule(r"IR title: loop bait",
                 "Observation: start\nAction: ScrAnalyzer([SCR1])"),
    ], scr)
    g = generate_reasoning_graph(ir, ReasonerConfig(llm=gateway, tools=toolkit))
    # the re-proposed tag is dropped, so the branch closes undecided
    assert list(g.nodes) == ["O1", "O2.1", "O3.1"]
    assert g.nodes["O3.1"].verdict == UNDECIDED
    assert g.edges[-1].tool == AGENT_TERMINATOR
    assert any("already explored" in w for w in g.meta.get("warnings", []))


def test_dedup_link_back_to_an_ancestor_is_skipped(tmp_path):
    # each screenshot branch asks for the other's screenshot: O2.1 links to
    # O2.2's analysis, so O2.2 linking to O2.1's would close a cycle
    ir = fx.scr_case(tmp_path / "scr", "fixture/crossed#1", "crossed shots",
                     "two screenshots [SCR1] [SCR2]", "crossed.test",
                     {"[SCR1]": "shot a", "[SCR2]": "shot b"})
    gateway, toolkit = make_env([
        StubRule(r"the next operation is O2\.1 \(",
                 "Observation: compare with the other shot\nAction: ScrAnalyzer([SCR2])"),
        StubRule(r"the next operation is O2\.2 \(",
                 "Observation: compare with the other shot\nAction: ScrAnalyzer([SCR1])"),
        StubRule(r"IR title: crossed shots",
                 "Observation: check both screenshots\n"
                 "Action: ScrAnalyzer([SCR1])\nAction: ScrAnalyzer([SCR2])"),
    ], tmp_path / "scr")
    g = generate_reasoning_graph(ir, ReasonerConfig(llm=gateway, tools=toolkit))
    assert [(a.id, a.src, a.dst, a.tool, a.argument) for a in g.edges] == [
        ("A1.1", "O1", "O2.1", SCR_ANALYZER, "[SCR1]"),
        ("A1.2", "O1", "O2.2", SCR_ANALYZER, "[SCR2]"),
        ("A2.1", "O2.1", "O2.2", SCR_ANALYZER, "[SCR2]"),
        ("A2.2", "O2.2", "O3.1", AGENT_TERMINATOR, ""),
    ]
    assert g.nodes["O3.1"].verdict == UNDECIDED
    assert g.meta == {"warnings": [
        "O2.2: ScrAnalyzer([SCR1]) links back to ancestor O2.1; skipped"]}


def test_wrong_tool_for_the_element_kind_is_skipped(tmp_path):
    ir = CanonicalIR(
        id="fixture/wrongtool#1", title="wrong tool",
        content="screenshot [SCR1]",
        rich_text=[RichTextElement("SCR", "[SCR1]", "https://wrong.test/a.png")])
    gateway, toolkit = make_env([
        StubRule(r"IR title: wrong tool",
                 "Observation: read the snippet\nAction: CodeAnalyzer([SCR1])"),
    ], tmp_path)
    g = generate_reasoning_graph(ir, ReasonerConfig(llm=gateway, tools=toolkit))
    assert g.meta["warnings"] == ["O1: CodeAnalyzer cannot analyze [SCR1]; skipped"]
    assert toolkit.backend_calls == 0
    assert [(a.src, a.dst, a.tool) for a in g.edges] == [("O1", "O2.1", AGENT_TERMINATOR)]
    assert g.nodes["O2.1"].verdict == UNDECIDED


def test_shared_analysis_becomes_cross_edge(tmp_path):
    ir, rules = fx.shared_snippet_case(tmp_path / "scr")
    gateway, toolkit = make_env(rules, tmp_path / "scr")
    cfg = ReasonerConfig(llm=gateway, tools=toolkit, inclusion_order=False)
    g = generate_reasoning_graph(ir, cfg)
    assert list(g.nodes) == ["O1", "O2.1", "O2.2", "O3.1", "O4.1"]
    code_edges = [a for a in g.edges if a.tool == CODE_ANALYZER]
    assert [(a.src, a.dst) for a in code_edges] == [("O2.1", "O3.1"), ("O2.2", "O3.1")]
    # one backend run per screenshot plus one for the shared snippet
    assert toolkit.backend_calls == 3


def test_correction_rewrites_terminated_path_nodes(tmp_path):
    scr_dir = tmp_path / "scr"
    fx.write_fig_sidecars(scr_dir)
    rules = [StubRule(r"may contain factual errors",
                      "O2.1: corrected against the golden advisory")]
    rules += fx.fig_reason_rules()
    gateway, toolkit = make_env(rules, scr_dir)
    store = ingest([KnowledgeRecord(
        "kb-fix", "ADV-9",
        "stored cross-site scripting when the ticket page renders the stored payload",
        "CWE-79")])
    cfg = ReasonerConfig(llm=gateway, tools=toolkit, store=store, theta_sim=0.05)
    g = generate_reasoning_graph(fx.fig_ir(), cfg)
    assert g.nodes["O2.1"].text == "corrected against the golden advisory"
    # structure identical to the uncorrected run
    assert len(g.nodes) == 7 and len(g.edges) == 10


def test_failing_correction_keeps_texts_and_is_recorded(tmp_path):
    scr_dir = tmp_path / "scr"
    fx.write_fig_sidecars(scr_dir)
    rules = fx.fig_reason_rules()
    toolkit = ToolKit(StubScrAnalyzer(scr_dir), StubCodeAnalyzer())
    store = ingest([KnowledgeRecord(
        "kb-fix", "ADV-9",
        "stored cross-site scripting when the ticket page renders the stored payload",
        "CWE-79")])

    class CorrectionDown:
        def complete(self, req):
            if "may contain factual errors" in req.user_prompt:
                raise TransportError("correction backend down")
            return StubBackend(rules).complete(req)

    gateway = Gateway(CorrectionDown(), max_retries=0, backoff_base=0.0)
    cfg = ReasonerConfig(llm=gateway, tools=toolkit, store=store, theta_sim=0.05)
    g = generate_reasoning_graph(fx.fig_ir(), cfg)
    uncorrected = generate_reasoning_graph(fx.fig_ir(), ReasonerConfig(
        llm=Gateway(StubBackend(rules)), tools=toolkit))
    assert [o.to_dict() for o in g.nodes.values()] == [
        o.to_dict() for o in uncorrected.nodes.values()]
    assert g.edges == uncorrected.edges
    assert g.meta["warnings"]
    assert all(w == "correction failed, keeping original path: "
               "gave up after retries: correction backend down" for w in g.meta["warnings"])
    assert "partial" not in g.meta


def test_correction_disabled_leaves_texts(fig_setup):
    ir, cfg = fig_setup
    g = generate_reasoning_graph(ir, cfg)
    assert g.nodes["O2.1"].text.startswith("ScrAnalyzer([SCR1]): ")


def test_ordering_family_member_counts(tmp_path):
    scr = tmp_path / "scr"
    fx.write_ordering_family_sidecars(scr)
    ir = fx.ordering_family_ir(1)

    gateway, toolkit = make_env(fx.ordering_family_rules(), scr)
    ordered = generate_reasoning_graph(
        ir, ReasonerConfig(llm=gateway, tools=toolkit, inclusion_order=True))

    gateway2, toolkit2 = make_env(fx.ordering_family_rules(), scr)
    unordered = generate_reasoning_graph(
        ir, ReasonerConfig(llm=gateway2, tools=toolkit2, inclusion_order=False))

    assert len(ordered.nodes) == 3
    assert len(unordered.nodes) == 6
    assert len(ordered.nodes) < len(unordered.nodes)
    assert ordered.nodes["O3.1"].verdict == VUL
    verdicts = {n.verdict for n in unordered.nodes.values() if n.decided()}
    assert verdicts == {VUL, NOT_VUL}


def test_generation_requires_llm_and_tools():
    with pytest.raises(ValueError):
        generate_reasoning_graph(fx.fig_ir(), ReasonerConfig())


@pytest.mark.parametrize("budget", [{"max_depth": 0}, {"max_nodes": 0},
                                    {"max_nodes": -3}, {"branch_limit": 0}])
def test_reasoner_config_rejects_budgets_below_one(budget):
    with pytest.raises(ValueError, match="must be at least 1"):
        ReasonerConfig(**budget)


def test_reasoner_defaults_are_the_pipeline_defaults():
    r, p = ReasonerConfig(), PipelineConfig()
    assert ((r.max_depth, r.max_nodes, r.branch_limit, r.theta_sim)
            == (p.max_depth, p.max_nodes, p.branch_limit, p.theta_sim))


# Replies drawn from pieces built on the report's own tags: both analyzers
# over every element (so half name the wrong one), unknown elements and
# tools, terminators, verdict lines and junk.
_PROP_TAGS = ("[SCR1]", "[SCR2]", "[SCR3]", "[CODE1]", "[CODE2]")
_reply_lines = st.one_of(
    st.sampled_from([f"Action: {tool}({tag})" for tool in (SCR_ANALYZER, CODE_ANALYZER)
                     for tag in _PROP_TAGS]),
    st.sampled_from(["Action: AgentTerminator()", "Observation: a finding",
                     "vulnerability identified: Yes CWE-79", "vulnerability identified: Yes",
                     "vulnerability identified: No", "vulnerability identified: undecided",
                     "Action: ScrAnalyzer([SCR9])", "Action: WebSearcher([SCR1])",
                     "Action: ScrAnalyzer()", "Action: CodeAnalyzer [CODE1]"]),
    st.text(max_size=12))
_scripts = st.lists(st.lists(_reply_lines, max_size=6).map("\n".join), min_size=1, max_size=8)


class _CyclingBackend:
    """Answers the reasoning requests with the script's replies in turn."""

    name = "cycling"

    def __init__(self, replies):
        self.replies = itertools.cycle(replies)

    def complete(self, req):
        return LlmResponse(next(self.replies), None, self.name)


@pytest.fixture(scope="module")
def prop_ir(tmp_path_factory):
    # [SCR3] has no sidecar, so its analysis is unavailable
    scr = tmp_path_factory.mktemp("scr")
    ir = fx.scr_case(scr, "fixture/prop#1", "drawn replies",
                     "shots [SCR1] [SCR2] [SCR3] and snippets [CODE1] [CODE2]", "prop.test",
                     {"[SCR1]": "shot a", "[SCR2]": "shot b", "[SCR3]": "shot c"},
                     {"[CODE1]": "<?php echo $_GET['x']; ?>", "[CODE2]": "SELECT * FROM t"})
    (scr / sidecar_filename(ir.element_for("[SCR3]").payload)).unlink()
    return ir, scr


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scripts, st.sampled_from([{}, {"branch_limit": 1, "max_nodes": 3}]), st.booleans())
def test_generation_never_raises_on_model_replies(prop_ir, replies, budgets, ordered):
    ir, scr = prop_ir
    cfg = ReasonerConfig(llm=Gateway(_CyclingBackend(replies)),
                         tools=ToolKit(StubScrAnalyzer(scr), StubCodeAnalyzer()),
                         inclusion_order=ordered, **budgets)
    g = generate_reasoning_graph(ir, cfg)
    g.validate()
    assert len(g.nodes) <= cfg.max_nodes
    assert ReasoningGraph.from_dict(json.loads(json.dumps(g.to_dict()))) == g
