import gc
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulrtex import graph
from vulrtex.errors import CycleIntroduced, DanglingEndpoint, DuplicateId
from vulrtex.graph import (
    AGENT_TERMINATOR,
    SCR_ANALYZER,
    VUL,
    Action,
    DescriptionTerms,
    GraphStore,
    Observation,
    Path,
    ReasoningGraph,
    describe_graph,
    describe_path,
    extract_terminated_paths,
    graph_filename,
    maximal_paths,
)
from vulrtex.textindex import term_counts, tokenize

from fixturelib import build_fig_graph, random_dag, terminated_dag
from oracles import oracle_maximal_paths, oracle_terminated_paths


def chain_graph() -> ReasoningGraph:
    g = ReasoningGraph("fixture/chain#1")
    g.add_observation(Observation("O1", "root text"))
    g.add_observation(Observation("O2", "leaf text", verdict=VUL, cwe_id="CWE-79"))
    g.add_action(Action("A1", "O1", "O2", AGENT_TERMINATOR))
    return g


def test_dangling_endpoint_rejected():
    g = ReasoningGraph("g")
    g.add_observation(Observation("O1", "root"))
    with pytest.raises(DanglingEndpoint):
        g.add_action(Action("A1", "O1", "O2", SCR_ANALYZER, "[SCR1]"))


def test_cycle_rejected():
    g = ReasoningGraph("g")
    g.add_observation(Observation("O1", "root"))
    g.add_observation(Observation("O2", "mid"))
    g.add_action(Action("A1", "O1", "O2", SCR_ANALYZER, "[SCR1]"))
    with pytest.raises(CycleIntroduced):
        g.add_action(Action("A2", "O2", "O1", SCR_ANALYZER, "[SCR2]"))
    with pytest.raises(CycleIntroduced):
        g.add_action(Action("A3", "O2", "O2", SCR_ANALYZER, "[SCR3]"))


def test_duplicate_node_and_action_ids_rejected():
    g = ReasoningGraph("g")
    g.add_observation(Observation("O1", "root"))
    with pytest.raises(DuplicateId):
        g.add_observation(Observation("O1", "again"))
    g.add_observation(Observation("O2", "mid"))
    g.add_action(Action("A1", "O1", "O2", SCR_ANALYZER, "[SCR1]"))
    with pytest.raises(DuplicateId):
        g.add_action(Action("A1", "O1", "O2", SCR_ANALYZER, "[SCR2]"))
    with pytest.raises(DuplicateId):
        # same (src, dst, tool, argument) quadruple under a fresh id
        g.add_action(Action("A2", "O1", "O2", SCR_ANALYZER, "[SCR1]"))


def test_fig_graph_counts():
    g = build_fig_graph()
    assert len(g.nodes) == 7
    assert len(g.edges) == 10


def test_fig_graph_has_four_terminated_paths():
    paths = extract_terminated_paths(build_fig_graph())
    assert len(paths) == 4
    assert [p.steps() for p in paths] == [
        ("O1", "A1.1", "O2.1", "A2.1", "O3.1"),
        ("O1", "A1.2", "O2.2", "A2.2", "O3.1"),
        ("O1", "A1.3", "O2.3", "A2.3", "O3.2"),
        ("O1", "A1.4", "O2.4", "A2.4", "O3.2"),
    ]


def test_terminator_representative_wins_over_parallel_tool_edge():
    paths = extract_terminated_paths(build_fig_graph())
    first = paths[0]
    assert first.actions[-1].id == "A2.1"
    assert first.actions[-1].tool == AGENT_TERMINATOR


def test_chain_extraction():
    paths = extract_terminated_paths(chain_graph())
    assert len(paths) == 1
    assert paths[0].steps() == ("O1", "A1", "O2")


def test_undecided_dead_end_not_a_terminated_path():
    g = ReasoningGraph("g")
    g.add_observation(Observation("O1", "root"))
    g.add_observation(Observation("O2", "dead end"))
    g.add_action(Action("A1", "O1", "O2", SCR_ANALYZER, "[SCR1]"))
    assert extract_terminated_paths(g) == []
    assert describe_graph(g) == ""


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_terminated_paths_equal_list_and_sort_oracle(seed, terminators):
    g = (terminated_dag if terminators else random_dag)(random.Random(seed))
    got = [(p.node_ids(), tuple(a.id for a in p.actions))
           for p in extract_terminated_paths(g)]
    want = oracle_terminated_paths(
        {nid: obs.decided() for nid, obs in g.nodes.items()},
        [(a.id, a.src, a.dst, a.tool) for a in g.edges])
    assert got == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_maximal_paths_equal_sorted_brute_force(seed, terminators):
    g = (terminated_dag if terminators else random_dag)(random.Random(seed))
    succ = {nid: g.successors(nid) for nid in g.nodes if not g.is_terminal(nid)}
    assert list(maximal_paths(succ)) == oracle_maximal_paths(
        [(a.src, a.dst) for a in g.edges])


def test_maximal_paths_of_a_bare_root():
    assert list(maximal_paths({})) == [("O1",)]


def test_path_extraction_and_save_leave_no_reference_cycle(tmp_path):
    # with the cyclic collector off, reference counting alone must free the
    # graph once its last reference goes: nothing may tie it into a cycle
    store = GraphStore(tmp_path / "db")
    g = build_fig_graph()
    alive = weakref.ref(g)
    gc.collect()
    gc.disable()
    try:
        paths = extract_terminated_paths(g)
        store.replace_graphs([g])
        assert len(paths) == 4
        del g, paths
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_describe_path_template():
    paths = extract_terminated_paths(chain_graph())
    assert describe_path(paths[0]) == (
        "from the observation O1, we ask LLM to take the action A1, "
        "and the next operation is O2 (O1: root text; O2: leaf text)"
    )


def test_describe_path_two_hops_joined_with_semicolon():
    g = build_fig_graph()
    text = describe_path(extract_terminated_paths(g)[0])
    assert text.startswith(
        "from the observation O1, we ask LLM to take the action A1.1, "
        "and the next operation is O2.1; "
        "from the observation O2.1, we ask LLM to take the action A2.1, "
        "and the next operation is O3.1 ("
    )
    assert text.count("from the observation") == 2


def test_describe_single_node_path():
    obs = Observation("O1", "only text", verdict=VUL, cwe_id="CWE-79")
    assert describe_path(Path((obs,), ())) == "only text"


def test_describe_graph_joins_paths_with_newlines():
    g = build_fig_graph()
    lines = describe_graph(g).split("\n")
    assert len(lines) == 4
    assert lines[0] == describe_path(extract_terminated_paths(g)[0])


# Node texts built to break a description cut into pieces: hyphens at either
# end, the description's own joins inside a text, and characters whose
# lowercase is longer (U+0130), ASCII (the Kelvin sign) or context-dependent
# (capital sigma).
_hostile_texts = st.lists(
    st.sampled_from(["xss", "Payload", "O2.1", "the", "x-y", "-", "--", "a-", "-b", "42",
                     "; ", ": ", " (", ")", " ", "\n", "\u0130", "\u212a", "\u03a3",
                     "A\u03a3", "\u03c3", "\u0130nput"]),
    max_size=10).map("".join)


def _hostile_dag(seed: int, texts: list[str]) -> ReasoningGraph:
    g = random_dag(random.Random(seed))
    for obs, text in zip(g.nodes.values(), texts):
        obs.text = text
    return g


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.lists(_hostile_texts, min_size=15, max_size=15))
def test_tabled_path_counts_equal_description_counts(seed, texts):
    g = _hostile_dag(seed, texts)
    terms = DescriptionTerms()
    paths = extract_terminated_paths(g) + [Path((g.nodes["O1"],), ())]
    for p in paths + paths:  # the second round reads only tabled pieces
        assert list(terms.counts(p).items()) == list(term_counts(describe_path(p)).items())


# Ids that try to join their tokens to the template's around them: hyphens and
# commas at either end, digits, and capitals whose lowercase is ASCII (the
# Kelvin sign) or longer (U+0130).
_hostile_ids = st.lists(
    st.sampled_from(["O", "A", "1", "2.1", "-", "a-", "-b", ",", " ", "x,y", "K", "\u212a",
                     "\u0130", "\u03a3", "the", "from", "LLM", "{src}"]),
    max_size=6).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_hostile_ids, _hostile_ids, _hostile_ids), min_size=1, max_size=4))
def test_hop_tokens_built_from_id_tokens_equal_the_hop_sentence_tokens(hops):
    # one table for all hops, so later hops splice in ids tabled by earlier ones
    terms = DescriptionTerms()
    for hop in hops + hops:
        assert terms[hop] == tokenize(graph._hop(*hop))


@pytest.mark.parametrize("template", [
    "from the observation {src}x, we take {action}, and then {dst}",  # glued after
    "from the observation{src}, we take {action}, and then {dst}",    # glued before
    "from the observation {src}, we take {action}, and then {dst}s",  # glued at the end
    "from the observation {src}-{action}, and then {dst}",            # a hyphen between
    "from the observation {src}, and then {dst}",                     # a field missing
    "from {action}, the observation {src}, and then {dst}",           # fields reordered
    "from the observation {src!r}, we take {action}, and then {dst}",  # a conversion
])
def test_hop_template_that_could_join_tokens_is_refused(template):
    with pytest.raises(AssertionError, match="hop template"):
        graph._hop_literal_tokens(template)


def test_hop_template_literal_tokens():
    assert graph._hop_literal_tokens(graph.HOP_TEMPLATE) == (
        ["observation"], ["we", "ask", "llm", "take", "action"], ["next", "operation"], [])
    assert graph._hop_literal_tokens("see {src}, do {action}, reach {dst}, done") == (
        ["see"], ["do"], ["reach"], ["done"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                          st.lists(_hostile_texts, min_size=15, max_size=15)),
                min_size=1, max_size=3),
       _hostile_texts)
def test_tabled_graph_description_equals_describe_graph(cases, root_text):
    """One table serves several graphs, each twice: the text is
    describe_graph's and the counts its term_counts, key order included."""
    decided_root = ReasoningGraph("root-only")
    decided_root.add_observation(Observation("O1", root_text, verdict=VUL))
    graphs = [_hostile_dag(seed, texts) for seed, texts in cases] + [decided_root]
    terms = DescriptionTerms()
    for g in graphs + graphs:
        text, counts = terms.describe(g)
        assert text == describe_graph(g)
        assert list(counts.items()) == list(term_counts(text).items())
        assert {nid: list(c.items()) for nid, c in terms.node_counts(g).items()} == \
            {nid: list(term_counts(obs.text).items()) for nid, obs in g.nodes.items()}


def test_validate_rejects_decided_non_terminal():
    g = ReasoningGraph("g")
    g.add_observation(Observation("O1", "root", verdict=VUL, cwe_id="CWE-79"))
    g.add_observation(Observation("O2", "leaf", verdict=VUL, cwe_id="CWE-79"))
    g.add_action(Action("A1", "O1", "O2", AGENT_TERMINATOR))
    with pytest.raises(ValueError):
        g.validate()


def test_validate_rejects_unreachable_node():
    g = ReasoningGraph("g")
    g.add_observation(Observation("O1", "root"))
    g.add_observation(Observation("O9", "floating"))
    with pytest.raises(ValueError):
        g.validate()


def test_round_trip_preserves_everything():
    g = build_fig_graph()
    g.meta["partial"] = False
    restored = ReasoningGraph.from_dict(g.to_dict())
    assert restored == g
    assert describe_graph(restored) == describe_graph(g)


def test_store_round_trip(tmp_path):
    store = GraphStore(tmp_path / "db")
    g = build_fig_graph()
    assert store.replace_graphs([g]) == 1
    saved = store.graphs_dir / "fixture%2Ffig%231.json"
    assert list(store.graphs_dir.iterdir()) == [saved]
    written = saved.read_bytes()
    assert store.load_all() == [g]
    # what is read back writes the same bytes again
    assert store.replace_graphs(store.load_all()) == 1
    assert saved.read_bytes() == written
    store.write_manifest({"config_hash": "abc"}, count=1)
    manifest = store.read_manifest()
    assert manifest["count"] == 1
    assert manifest["config_hash"] == "abc"


def test_load_all_names_a_file_saved_under_another_quoting(tmp_path):
    store = GraphStore(tmp_path / "db")
    g = build_fig_graph()
    store.replace_graphs([g])
    saved = store.graphs_dir / graph_filename(g.ir_id)
    assert saved.name == "fixture%2Ffig%231.json"
    renamed = saved.rename(saved.with_name("fixture%2ffig%231.json"))
    with pytest.raises(ValueError) as info:
        store.load_all()
    assert str(info.value) == (f"{renamed}: the graph of 'fixture/fig#1' must be saved "
                               "as fixture%2Ffig%231.json")


def test_graph_filename_is_path_safe():
    name = graph_filename("owner/repo#12")
    assert "/" not in name and "#" not in name
    assert name.endswith(".json")


@pytest.mark.parametrize("change, reason", [
    ({"text": 5}, "text 5 is not a string"),
    ({"id": 1}, "id 1 is not a string"),
    ({"focus_tags": "[SCR1]"}, r"focus_tags '\[SCR1\]' is not a list"),
    ({"focus_tags": [1]}, "focus tag 1 is not a string"),
    ({"verdict": "maybe"}, "verdict 'maybe' is not one of undecided, vul, not_vul"),
    ({"verdict": None}, "verdict None is not one of"),
    ({"cwe_id": 79}, "cwe_id 79 is not a string"),
])
def test_observation_from_dict_refuses_mistyped_fields(change, reason):
    d = {**Observation("O2", "leaf text", verdict=VUL, cwe_id="CWE-79").to_dict(), **change}
    with pytest.raises(ValueError, match=reason):
        Observation.from_dict(d)


@pytest.mark.parametrize("key", ["id", "src", "dst", "tool", "argument"])
def test_action_from_dict_refuses_a_field_that_is_no_string(key):
    d = {**Action("A1", "O1", "O2", SCR_ANALYZER, "[SCR1]").to_dict(), key: 3}
    with pytest.raises(ValueError, match=f"{key} 3 is not a string"):
        Action.from_dict(d)


@pytest.mark.parametrize("change, reason", [
    (lambda d: d["nodes"][2].update(text=5), "text 5 is not a string"),
    (lambda d: d["nodes"][1].update(verdict=VUL),
     "graph fixture/two-hops#1: non-terminal O2 has a decided verdict"),
    (lambda d: d["edges"][0].update(tool=AGENT_TERMINATOR),
     "graph fixture/two-hops#1: terminator A1 targets non-terminal O2"),
])
def test_load_all_names_a_file_that_is_no_valid_graph(tmp_path, change, reason):
    g = ReasoningGraph("fixture/two-hops#1")
    g.add_observation(Observation("O1", "root text"))
    g.add_observation(Observation("O2", "middle text"))
    g.add_observation(Observation("O3", "leaf text", verdict=VUL))
    g.add_action(Action("A1", "O1", "O2", SCR_ANALYZER, "[SCR1]"))
    g.add_action(Action("A2", "O2", "O3", AGENT_TERMINATOR))
    store = GraphStore(tmp_path / "db")
    store.replace_graphs([g])
    assert store.load_all() == [g]
    saved = store.graphs_dir / graph_filename(g.ir_id)
    d = g.to_dict()
    change(d)
    saved.write_text(json.dumps(d), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        store.load_all()
    assert str(info.value) == f"{saved}: not a reasoning graph: ValueError: {reason}"
