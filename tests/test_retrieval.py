"""Adjacency weighting, walk probabilities, pruning, and graph retrieval."""

import gc
import random
import weakref
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixturelib as fx
from e2e_fixture import write_e2e_config, write_e2e_fixture
from oracles import (
    ADJ_EPSILON,
    oracle_adjacency,
    oracle_edge_probabilities,
    oracle_similarity,
)
from vulrtex import cli, retrieval
from vulrtex.config import load_config
from vulrtex.corpus import CanonicalIR, load_corpus
from vulrtex.errors import EmptyDatabase, IsolatedNonTerminal
from vulrtex.graph import (
    AGENT_TERMINATOR,
    CODE_ANALYZER,
    SCR_ANALYZER,
    VUL,
    NOT_VUL,
    Action,
    GraphStore,
    Observation,
    ReasoningGraph,
    maximal_paths,
)
from vulrtex.retrieval import (
    AdjacencyMatrix,
    EdgeProbabilities,
    Target,
    _cdf,
    _step,
    build_adjacency,
    count_graphs,
    edge_probabilities,
    graph_walk_seed,
    prune_for_target,
    random_walk_prune,
    retrieve_relevant,
    target_probabilities,
)
from vulrtex.textindex import STOPWORDS, TermIds, build_index, similarity, term_counts
from vulrtex.tools import ToolKit

import numpy as np

TARGET_TEXT = "stored xss payload executes on the ticket page when the title renders"


def make_index(g, target_text=TARGET_TEXT):
    return build_index([target_text] + [obs.text for obs in g.nodes.values()])


def chain_graph():
    g = ReasoningGraph("fixture/chain#1")
    g.add_observation(Observation("O1", "ticket report mentioning a stored xss payload"))
    g.add_observation(Observation("O2.1", "the script executes on the page"))
    g.add_observation(Observation("O3.1", "stored xss confirmed on the ticket page",
                                  verdict=VUL, cwe_id="CWE-79"))
    g.add_action(Action("A1.1", "O1", "O2.1", SCR_ANALYZER, "[SCR1]"))
    g.add_action(Action("A2.1", "O2.1", "O3.1", AGENT_TERMINATOR))
    g.validate()
    return g


def star_graph():
    g = ReasoningGraph("fixture/star#1")
    g.add_observation(Observation("O1", "report hub"))
    for i in (1, 2, 3, 4):
        g.add_observation(Observation(f"O2.{i}", "identical leaf text",
                                      verdict=NOT_VUL))
        g.add_action(Action(f"A1.{i}", "O1", f"O2.{i}", AGENT_TERMINATOR))
    g.validate()
    return g


# ------------------------------------------------------------ build_adjacency

def test_chain_adjacency_matches_oracle():
    g = chain_graph()
    adj = build_adjacency(g, TARGET_TEXT, make_index(g))
    expected = oracle_adjacency({nid: g.node_text(nid) for nid in g.nodes},
                                [("O1", "O2.1"), ("O2.1", "O3.1")],
                                TARGET_TEXT, STOPWORDS)
    for pair, want in expected.items():
        assert adj.weight(*pair) == pytest.approx(want, abs=1e-12)


def test_adjacency_zero_where_no_edge():
    g = chain_graph()
    adj = build_adjacency(g, TARGET_TEXT, make_index(g))
    assert adj.weight("O1", "O3.1") == 0.0
    assert adj.weight("O2.1", "O1") == 0.0


def test_adjacency_epsilon_floor_when_dst_adds_nothing():
    g = ReasoningGraph("fixture/eps#1")
    g.add_observation(Observation("O1", "stored xss payload ticket page"))
    g.add_observation(Observation("O2.1", "stored xss payload ticket page",
                                  verdict=VUL))
    g.add_action(Action("A1.1", "O1", "O2.1", AGENT_TERMINATOR))
    adj = build_adjacency(g, TARGET_TEXT, make_index(g))
    # identical texts: joining adds no new target-relevant term
    assert adj.weight("O1", "O2.1") == pytest.approx(ADJ_EPSILON, abs=1e-15)


def test_adjacency_positive_increment_when_dst_brings_target_terms():
    g = chain_graph()
    adj = build_adjacency(g, TARGET_TEXT, make_index(g))
    # "executes", "page" live only in the child text
    assert adj.weight("O1", "O2.1") > ADJ_EPSILON


def test_fig_adjacency_matches_oracle():
    g = fx.build_fig_graph()
    adj = build_adjacency(g, TARGET_TEXT, make_index(g))
    pairs = sorted({(a.src, a.dst) for a in g.edges})
    expected = oracle_adjacency({nid: g.node_text(nid) for nid in g.nodes},
                                pairs, TARGET_TEXT, STOPWORDS)
    for pair, want in expected.items():
        assert adj.weight(*pair) == pytest.approx(want, abs=1e-9)


def test_random_dag_adjacency_and_probs_match_oracle():
    rng = random.Random(2024)
    for _ in range(10):
        g = fx.random_dag(rng)
        adj = build_adjacency(g, TARGET_TEXT, make_index(g))
        pairs = sorted({(a.src, a.dst) for a in g.edges})
        texts = {nid: g.node_text(nid) for nid in g.nodes}
        want_w = oracle_adjacency(texts, pairs, TARGET_TEXT, STOPWORDS)
        for pair, w in want_w.items():
            assert adj.weight(*pair) == pytest.approx(w, abs=1e-9)
        probs = edge_probabilities(adj, g)
        want_p = oracle_edge_probabilities(want_w, [(a.src, a.dst) for a in g.edges])
        assert set(probs.probs) == set(want_p)
        for pair, p in want_p.items():
            assert probs.probs[pair] == pytest.approx(p, abs=1e-9)


# --------------------------------------------------------- edge_probabilities

def test_single_outgoing_edge_probability_one():
    g = chain_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    assert probs.probs[("O1", "O2.1")] == pytest.approx(1.0, abs=1e-12)
    assert probs.probs[("O2.1", "O3.1")] == pytest.approx(1.0, abs=1e-12)


def test_symmetric_star_uniform():
    g = star_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    for i in (1, 2, 3, 4):
        assert probs.probs[("O1", f"O2.{i}")] == pytest.approx(0.25, abs=1e-12)


def test_fig_probabilities_match_oracle_and_sum_to_one():
    g = fx.build_fig_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    pairs = sorted({(a.src, a.dst) for a in g.edges})
    want = oracle_edge_probabilities(
        oracle_adjacency({nid: g.node_text(nid) for nid in g.nodes}, pairs,
                         TARGET_TEXT, STOPWORDS),
        [(a.src, a.dst) for a in g.edges])
    for pair, p in want.items():
        assert probs.probs[pair] == pytest.approx(p, abs=1e-9)
    for src in ("O1", "O2.1", "O2.2", "O2.3", "O2.4"):
        total = sum(p for (s, _), p in probs.probs.items() if s == src)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_zero_mass_row_raises():
    g = chain_graph()
    broken = AdjacencyMatrix({(a.src, a.dst): 0.0 for a in g.edges})
    with pytest.raises(IsolatedNonTerminal):
        edge_probabilities(broken, g)


# ---------------------------------------------------------- random_walk_prune

def test_chain_fully_reserved_with_one_walk():
    g = chain_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    reserved = random_walk_prune(g, probs, walks=1, rng_seed=7)
    assert set(reserved.graph.nodes) == set(g.nodes)
    assert {a.id for a in reserved.graph.edges} == {a.id for a in g.edges}


@pytest.mark.parametrize("parallel_first", [False, True])
def test_walk_hop_reserves_every_parallel_action(parallel_first):
    # O2.1 reaches its verdict by a terminator and, in parallel, by code
    # evidence; the one walk steps into O3.1 and so takes both actions
    g = ReasoningGraph("fixture/parallel#1")
    for obs in chain_graph().nodes.values():
        g.add_observation(obs)
    hop = [Action("A2.1", "O2.1", "O3.1", AGENT_TERMINATOR),
           Action("A2.2", "O2.1", "O3.1", CODE_ANALYZER, "[CODE1]")]
    for act in [Action("A1.1", "O1", "O2.1", SCR_ANALYZER, "[SCR1]"),
                *(hop[::-1] if parallel_first else hop)]:
        g.add_action(act)
    reserved = prune_for_target(g, TARGET_TEXT, walks=1, rng_seed=7).graph
    assert [a.id for a in reserved.edges] == [a.id for a in g.edges]


def test_subset_invariant_many_seeds():
    g = fx.build_fig_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    for seed in range(50):
        reserved = random_walk_prune(g, probs, walks=2, rng_seed=seed)
        assert set(reserved.graph.nodes) <= set(g.nodes)
        assert {a.id for a in reserved.graph.edges} <= {a.id for a in g.edges}
        assert "O1" in reserved.graph.nodes


def test_prune_deterministic_per_seed():
    g = fx.build_fig_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    a = random_walk_prune(g, probs, walks=4, rng_seed=99)
    b = random_walk_prune(g, probs, walks=4, rng_seed=99)
    assert a.graph == b.graph
    assert a.description == b.description


def test_root_children_always_adopted():
    g = fx.build_fig_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    for seed in (0, 1, 2):
        reserved = random_walk_prune(g, probs, walks=1, rng_seed=seed)
        assert {"O1", "O2.1", "O2.2", "O2.3", "O2.4"} <= set(reserved.graph.nodes)
        assert {"A1.1", "A1.2", "A1.3", "A1.4"} <= {a.id for a in reserved.graph.edges}


def test_closure_terminates_every_open_path():
    g = fx.build_fig_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    for seed in range(20):
        reserved = random_walk_prune(g, probs, walks=1, rng_seed=seed)
        # every screenshot branch must end in its terminator after closure
        assert {"A2.1", "A2.2", "A2.3", "A2.4"} <= {a.id for a in reserved.graph.edges}
        assert {"O3.1", "O3.2"} <= set(reserved.graph.nodes)


def two_verdict_graph():
    """Each screenshot node may terminate two ways, so a closure must pick
    between two terminators by probability; the likelier one (the target's
    words) has the larger id, so an id-only pick differs."""
    g = ReasoningGraph("fixture/two-verdicts#1")
    g.add_observation(Observation("O1", "ticket report with two screenshots"))
    g.add_observation(Observation("O2.1", "the script executes on the page"))
    g.add_observation(Observation("O2.2", "stored payload in the ticket title"))
    for nid, text, verdict in [
            ("O3.1", "nothing relevant observed", NOT_VUL),
            ("O3.2", "stored xss payload executes on the ticket page", VUL),
            ("O3.3", "nothing relevant observed", NOT_VUL),
            ("O3.4", "the title renders the stored xss payload", VUL)]:
        g.add_observation(Observation(nid, text, verdict=verdict))
    g.add_action(Action("A1.1", "O1", "O2.1", SCR_ANALYZER, "[SCR1]"))
    g.add_action(Action("A1.2", "O1", "O2.2", SCR_ANALYZER, "[SCR2]"))
    for k, (src, dst) in enumerate([("O2.1", "O3.1"), ("O2.1", "O3.2"),
                                    ("O2.2", "O3.3"), ("O2.2", "O3.4")], start=1):
        g.add_action(Action(f"A2.{k}", src, dst, AGENT_TERMINATOR))
    g.validate()
    return g


def test_closure_tie_break_equal_on_lazy_rows():
    g = two_verdict_graph()
    eager = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    for seed in range(20):
        counted = count_graphs([g])[0]
        lazy = target_probabilities(counted, term_counts(TARGET_TEXT))
        want = random_walk_prune(g, eager, walks=1, rng_seed=seed)
        got = random_walk_prune(counted, lazy, walks=1, rng_seed=seed)
        assert got.graph == want.graph
        # one walk leaves one screenshot branch to the closure
        assert len([a for a in got.graph.edges if a.tool == AGENT_TERMINATOR]) == 2


def test_fig_description_contains_both_quoted_paths():
    g = fx.build_fig_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    first = ("from the observation O1, we ask LLM to take the action A1.1, "
             "and the next operation is O2.1; from the observation O2.1, we ask "
             "LLM to take the action A2.1, and the next operation is O3.1")
    second = ("from the observation O1, we ask LLM to take the action A1.4, "
              "and the next operation is O2.4; from the observation O2.4, we ask "
              "LLM to take the action A2.4, and the next operation is O3.2")
    for seed in (3, 17, 41):
        description = random_walk_prune(g, probs, walks=4, rng_seed=seed).description
        assert first in description
        assert second in description


def _pick(u, weights):
    """The index a walk draw of u selects from weights (_Choice.pick)."""
    return bisect_right(_cdf(weights), u)


# numpy's sum adds 8 or more values pairwise, fewer one by one
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=16),
       st.integers(0, 2**64 - 1), st.integers(0, 15))
def test_walk_draw_equals_generator_choice(weights, seed, entry):
    w = np.array(weights)
    by_choice = np.random.default_rng(seed)
    by_search = np.random.default_rng(seed)
    want = int(by_choice.choice(len(w), p=w / w.sum()))
    assert _pick(by_search.random(), weights) == want
    assert by_search.bit_generator.state == by_choice.bit_generator.state
    # a draw exactly on a cdf entry, where the search's side="right" decides;
    # the cdf is the one Generator.choice searches
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    u = float(cdf[entry % len(cdf)])
    assert _pick(u, weights) == int(cdf.searchsorted(u, side="right"))


# _cdf sums without numpy; its sum must be numpy's pairwise one, whose
# 128-value blocks split past 128 values
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.randoms(use_true_random=False), st.floats(0.0, 1.0))
def test_pick_equals_the_numpy_sum_path(n, r, u):
    weights = [r.uniform(0.1, 1.0) * 10.0 ** r.randint(-8, 8) for _ in range(n)]
    w = np.array(weights)
    assert retrieval._pairwise_sum(weights) == w.sum()
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    for draw in (u, float(cdf[r.randrange(n)])):
        assert _pick(draw, weights) == int(cdf.searchsorted(draw, side="right"))


def test_walks_must_be_positive():
    g = chain_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    with pytest.raises(ValueError):
        random_walk_prune(g, probs, walks=0, rng_seed=1)


def test_single_node_graph_prunes_to_itself():
    g = ReasoningGraph("fixture/solo#1")
    g.add_observation(Observation("O1", "only text"))
    reserved = random_walk_prune(g, edge_probabilities(
        build_adjacency(g, TARGET_TEXT, make_index(g)), g), walks=1, rng_seed=0)
    assert list(reserved.graph.nodes) == ["O1"]
    assert reserved.description == ""


def test_coverage_with_many_walks():
    g = fx.build_fig_graph()
    probs = edge_probabilities(build_adjacency(g, TARGET_TEXT, make_index(g)), g)
    hits = sum(
        1 for seed in range(20)
        if set(random_walk_prune(g, probs, walks=100, rng_seed=seed).graph.nodes)
        == set(g.nodes))
    assert hits == 20


# ----------------------------------------------------------- retrieve_relevant

def retrieval_db():
    graphs = [fx.build_fig_graph(), chain_graph(), star_graph()]
    rng = random.Random(77)
    graphs += [fx.random_dag(rng, max_nodes=8) for _ in range(3)]
    return graphs


def target_ir():
    return CanonicalIR(id="fixture/target#1",
                       title="stored xss in the ticket page",
                       content=TARGET_TEXT)


def oracle_members(graphs, target, theta, walks=4, seed=5):
    flat = f"{target.title}\n{target.content}"
    descriptions = {
        g.ir_id: prune_for_target(g, flat, walks, graph_walk_seed(seed, g.ir_id)).description
        for g in graphs}
    corpus = list(descriptions.values()) + [flat]
    return {ir_id for ir_id, d in descriptions.items()
            if oracle_similarity(flat, d, corpus, STOPWORDS) > theta}


def test_empty_database_raises():
    with pytest.raises(EmptyDatabase):
        retrieve_relevant([], target_ir(), theta_sim=0.5)


def test_theta_one_returns_nothing():
    assert retrieve_relevant(retrieval_db(), target_ir(), theta_sim=1.0, seed=5) == []


def test_membership_matches_oracle_at_each_threshold():
    graphs = retrieval_db()
    target = target_ir()
    for theta in (0.0, 0.2, 0.5, 0.8):
        got = retrieve_relevant(graphs, target, theta_sim=theta, seed=5)
        assert {r.origin_ir for r in got} == oracle_members(graphs, target, theta)


def test_similarities_recompute_independently():
    graphs = retrieval_db()
    target = target_ir()
    flat = f"{target.title}\n{target.content}"
    got = retrieve_relevant(graphs, target, theta_sim=0.0, seed=5)
    corpus = [r.description for r in got] + [flat]
    # every returned graph description cleared the threshold on recomputation
    for r in got:
        redo = oracle_similarity(flat, r.description, corpus, STOPWORDS)
        assert redo > 0.0


def test_monotone_shrinkage():
    graphs = retrieval_db()
    target = target_ir()
    previous = None
    for step in range(11):
        theta = step / 10
        ids = {r.origin_ir for r in retrieve_relevant(graphs, target, theta_sim=theta,
                                                      seed=5)}
        if previous is not None:
            assert ids <= previous
        previous = ids


def test_sorted_descending_by_similarity():
    got = retrieve_relevant(retrieval_db(), target_ir(), theta_sim=0.0, seed=5)
    sims = [r.similarity for r in got]
    assert sims == sorted(sims, reverse=True)
    assert all(s > 0.0 for s in sims)


def tied_graph(ir_id):
    """A root, one ScrAnalyzer hop and a decided terminal; graphs of this
    shape that differ only in id prune, describe and score alike."""
    g = ReasoningGraph(ir_id)
    g.add_observation(Observation("O1", "ticket report mentioning a stored xss payload"))
    g.add_observation(Observation("O2.1", "stored xss confirmed on the ticket page",
                                  verdict=VUL, cwe_id="CWE-79"))
    g.add_action(Action("A1.1", "O1", "O2.1", SCR_ANALYZER, "[SCR1]"))
    g.validate()
    return g


@pytest.mark.parametrize("ids", [("b#1", "a#1"), ("a#1", "b#1")])
def test_similarity_ties_keep_ascending_ids(ids):
    got = retrieve_relevant([tied_graph(i) for i in ids], target_ir(), theta_sim=0.0, seed=5)
    assert got[0].similarity.hex() == got[1].similarity.hex()
    assert [r.origin_ir for r in got] == ["a#1", "b#1"]


def test_result_independent_of_database_order():
    graphs = retrieval_db()
    target = target_ir()
    forward = retrieve_relevant(graphs, target, theta_sim=0.0, seed=5)
    backward = retrieve_relevant(list(reversed(graphs)), target, theta_sim=0.0, seed=5)
    assert [(r.origin_ir, r.similarity) for r in forward] == \
        [(r.origin_ir, r.similarity) for r in backward]


def test_target_rows_serve_only_the_graphs_that_filled_them():
    """A new count of the same graphs fills fresh rows and retrieves the
    same."""
    target = Target(target_ir(), rows={})
    first = retrieve_relevant(count_graphs(retrieval_db()), target, theta_sim=0.0, seed=5)
    rows = dict(target.rows)
    again = retrieve_relevant(count_graphs(retrieval_db()), target, theta_sim=0.0, seed=5)
    assert [(r.origin_ir, r.similarity) for r in again] == \
        [(r.origin_ir, r.similarity) for r in first]
    assert rows and all(target.rows[ir_id] is not probs for ir_id, probs in rows.items())


def _branching_identify_config(tmp_path):
    """A three-run identify config over the e2e fixture's database plus six
    branching graphs; the fixture's own graphs never branch, so no walk
    over them alone would read a row."""
    paths = write_e2e_fixture(tmp_path / "fx")
    cfg = load_config(str(write_e2e_config(
        tmp_path / "config.ini", paths, jitter=0.3,
        pipeline={"runs": 3, "db_path": tmp_path / "db"})))
    cli.stage_prepare(cfg)
    store = GraphStore(tmp_path / "db")
    rng = random.Random(11)
    store.replace_graphs(store.load_all() + [fx.random_dag(rng) for _ in range(6)])
    return cfg


def _fresh_target_per_run(monkeypatch):
    """Make stage_identify hand every retrieval a fresh Target that keeps
    rows, so nothing an earlier run filled is reused."""
    retrieve = cli.retrieve_relevant
    monkeypatch.setattr(cli, "retrieve_relevant", lambda db, target, *args, **kwargs: retrieve(
        db, Target(target.ir, target.toolkit, {}), *args, **kwargs))


def test_target_rows_reused_across_runs(tmp_path, monkeypatch):
    """Over three runs, stage_identify flattens each target once and
    computes each (graph, target, source) row of walk probabilities at most
    once, and its predictions equal those of a stage that hands every run a
    fresh Target, which fills its rows again."""
    cfg = _branching_identify_config(tmp_path)
    computed = Counter()
    fill = retrieval.EdgeProbabilities._fill

    def counting_fill(self, src):
        computed[(self.counted.graph.ir_id, tuple(self.target.items()), src)] += 1
        return fill(self, src)

    flattened = Counter()
    flatten = ToolKit.flatten_ir

    def counting_flatten(self, ir):
        flattened[ir.id] += 1
        return flatten(self, ir)

    monkeypatch.setattr(retrieval.EdgeProbabilities, "_fill", counting_fill)
    monkeypatch.setattr(ToolKit, "flatten_ir", counting_flatten)
    cli.stage_identify(cfg, tmp_path / "kept.jsonl")
    assert computed
    assert set(computed.values()) == {1}
    targets = load_corpus(tmp_path / "db" / "targets.jsonl")
    assert flattened == Counter({t.id: 1 for t in targets})

    _fresh_target_per_run(monkeypatch)
    computed.clear()
    cli.stage_identify(cfg, tmp_path / "fresh.jsonl")
    assert max(computed.values()) > 1
    assert (tmp_path / "kept.jsonl").read_bytes() == \
        (tmp_path / "fresh.jsonl").read_bytes()


def test_pick_tables_built_once_across_runs(tmp_path, monkeypatch):
    """Over three runs, stage_identify builds each (graph, target, source,
    options) pick table at most once, though draws read some of them again,
    and its predictions equal those of a stage that hands every run a fresh
    Target, which builds its tables again."""
    cfg = _branching_identify_config(tmp_path)
    reading = []  # the table the draw being answered reads
    reads, built = Counter(), Counter()
    cdf, build = retrieval.EdgeProbabilities.cdf, retrieval._cdf

    def counting_cdf(self, src, dsts):
        key = (self.counted.graph.ir_id, tuple(self.target.items()), src, dsts)
        reads[key] += 1
        reading.append(key)
        try:
            return cdf(self, src, dsts)
        finally:
            reading.pop()

    def counting_build(weights):
        built[reading[-1]] += 1
        return build(weights)

    monkeypatch.setattr(retrieval.EdgeProbabilities, "cdf", counting_cdf)
    monkeypatch.setattr(retrieval, "_cdf", counting_build)
    cli.stage_identify(cfg, tmp_path / "kept.jsonl")
    assert built.keys() == reads.keys()
    assert set(built.values()) == {1}
    assert sum(reads.values()) > len(reads)

    _fresh_target_per_run(monkeypatch)
    built.clear()
    cli.stage_identify(cfg, tmp_path / "fresh.jsonl")
    assert max(built.values()) > 1
    assert (tmp_path / "kept.jsonl").read_bytes() == \
        (tmp_path / "fresh.jsonl").read_bytes()


def test_stage_wide_work_done_once_per_stage(tmp_path, monkeypatch):
    """Over three runs, stage_identify numbers every pruned description
    under one TermIds, and that table takes query_cosines' idf once per
    document count."""
    paths = write_e2e_fixture(tmp_path / "fx")
    cfg = load_config(str(write_e2e_config(
        tmp_path / "config.ini", paths,
        pipeline={"runs": 3, "db_path": tmp_path / "db"})))
    cli.stage_prepare(cfg)
    n_graphs = len(GraphStore(tmp_path / "db").load_all())
    tables = []

    class CountingTermIds(TermIds):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(retrieval, "TermIds", CountingTermIds)
    cli.stage_identify(cfg, tmp_path / "preds.jsonl")
    [table] = tables
    assert list(table.idf_tables) == [n_graphs + 1]


def test_invalid_theta_rejected():
    with pytest.raises(ValueError):
        retrieve_relevant(retrieval_db(), target_ir(), theta_sim=1.5)


# ------------------------------------------- term counts against plain texts
#
# Adjacency weights and retrieval similarities computed from term counts
# must equal the joined-string formulas bit for bit (==, never approx).

exact = settings(max_examples=60, deadline=None, derandomize=True)
targets = st.lists(st.sampled_from(fx.WORDS + ["the", "Page", "cross-site"]),
                   min_size=1, max_size=10).map(" ".join)
# random_dag emits no terminator; terminated_dag ends its paths in
# terminators into shared terminals, so closures choose among several
dag_makers = st.sampled_from([fx.random_dag, fx.terminated_dag])


@exact
@given(st.integers(0, 2**32 - 1), targets)
def test_adjacency_weights_equal_joined_string_formula(seed, target):
    g = fx.random_dag(random.Random(seed))
    index = make_index(g, target)
    from_text = build_adjacency(g, target, index)
    from_counts = build_adjacency(g, term_counts(target), index)
    for src, dst in sorted({(a.src, a.dst) for a in g.edges}):
        joined = g.node_text(src) + " " + g.node_text(dst)
        gain = (similarity(index, target, joined)
                - similarity(index, target, g.node_text(src)))
        want = max(0.0, gain) + ADJ_EPSILON
        assert from_text.weight(src, dst) == want
        assert from_counts.weight(src, dst) == want


@exact
@given(st.integers(0, 2**32 - 1), st.integers(0, 1000))
def test_retrieval_similarities_equal_string_path(graph_seed, walk_seed):
    rng = random.Random(graph_seed)
    graphs = {}
    for _ in range(4):
        g = fx.random_dag(rng, max_nodes=10)
        graphs[g.ir_id] = g
    target = target_ir()
    flat = f"{target.title}\n{target.content}"
    descriptions = {
        ir_id: prune_for_target(g, flat, 4, graph_walk_seed(walk_seed, ir_id)).description
        for ir_id, g in graphs.items()}
    index = build_index(list(descriptions.values()) + [flat])
    want = {ir_id: similarity(index, flat, d) for ir_id, d in descriptions.items()}
    for db in (list(graphs.values()), count_graphs(graphs.values())):
        got = retrieve_relevant(db, target, theta_sim=0.0, seed=walk_seed)
        assert {r.origin_ir: r.similarity for r in got} == {
            ir_id: s for ir_id, s in want.items() if s > 0.0}


@exact
@given(dag_makers, st.integers(0, 2**32 - 1), targets, st.integers(0, 1000))
def test_graphs_counted_apart_score_as_counted_together(make, graph_seed, text, seed):
    # descriptions numbered under one TermIds per graph score exactly as
    # under the one TermIds of graphs counted together
    rng = random.Random(graph_seed)
    graphs = [make(rng) for _ in range(4)]
    target = CanonicalIR(id="fixture/target#2", title="", content=text)

    def scores(db):
        return [(r.origin_ir, r.similarity.hex())
                for r in retrieve_relevant(db, target, theta_sim=0.0, seed=seed)]

    apart = [count_graphs([g])[0] for g in graphs]
    assert scores(apart) == scores(count_graphs(graphs))
    assert scores(apart) == scores(count_graphs(graphs))  # and when scored again


def test_counted_table_keeps_no_doc_of_a_later_call():
    # a plain graph passed beside a counted one makes the call count both
    # afresh, scoring them as count_graphs of the plain graphs does; the
    # counted graph's TermIds must not keep that call's documents
    counted = count_graphs([chain_graph()])[0]
    plain = fx.build_fig_graph()

    def scores(db):
        return [(r.origin_ir, r.similarity.hex())
                for r in retrieve_relevant(db, target_ir(), theta_sim=0.0, seed=5)]

    assert scores([counted, plain]) == scores(count_graphs([chain_graph(), plain]))
    for _ in range(2):
        got = retrieve_relevant([counted, plain], target_ir(), theta_sim=0.0, seed=5)
        foreign = [weakref.ref(r.description_terms) for r in got
                   if r.description_terms.table is not counted.term_ids]
        assert foreign
        del got
        gc.collect()
        assert [ref() for ref in foreign] == [None] * len(foreign)


def test_reserved_graphs_of_equal_prunes_compare_equal():
    g = fx.build_fig_graph()
    first, second = (prune_for_target(g, TARGET_TEXT, 4, 3) for _ in range(2))
    assert first.description_terms is not second.description_terms
    assert first == second


# ------------------------------------------- rows on demand, one subgraph per set
#
# The lazy walk probabilities and the per-stage memos must leave every
# result bit for bit as the eager, memo-free computation gives it.

@exact
@given(dag_makers, st.integers(0, 2**32 - 1), targets, st.integers(0, 1000))
def test_lazy_rows_equal_eager_probabilities(make, seed, target, walk_seed):
    g = make(random.Random(seed))
    eager = edge_probabilities(build_adjacency(g, target, make_index(g, target)), g)
    counted = count_graphs([g])[0]
    lazy = target_probabilities(counted, term_counts(target))
    random_walk_prune(counted, lazy, 4, walk_seed)
    assert lazy.probs.items() <= eager.probs.items()
    for src in g.nodes:
        lazy.row(src)
    assert lazy.probs == eager.probs


@exact
@given(dag_makers, st.integers(0, 2**32 - 1), st.lists(targets, min_size=3, max_size=3),
       st.permutations(range(6)))
def test_shared_counted_graphs_equal_fresh_ones(make, graph_seed, texts, order):
    rng = random.Random(graph_seed)
    graphs = [make(rng) for _ in range(4)]
    shared = count_graphs(graphs)
    # the memos grow in whatever order the (text, seed) pairs come
    pairs = [(text, seed) for text in texts for seed in (3, 4)]

    def outcome(db, text, seed):
        target = CanonicalIR(id="fixture/target#2", title="", content=text)
        return [(r.origin_ir, r.similarity.hex(), r.description,
                 set(r.graph.nodes), {a.id for a in r.graph.edges})
                for r in retrieve_relevant(db, target, theta_sim=0.0, seed=seed)]

    for text, seed in (pairs[i] for i in order):
        assert outcome(shared, text, seed) == outcome(count_graphs(graphs), text, seed)


def reserved_ids(r):
    return set(r.graph.nodes), {a.id for a in r.graph.edges}, r.description


def diverging_targets(make, closure):
    """A graph from `make`, a walk seed and two one-word targets whose
    prunes of it meet one choice, take different outcomes there (a
    closure's choice among terminators, or else a walk step's) and reserve
    different subgraphs."""
    words = [Counter([w]) for w in fx.WORDS]
    for graph_seed in range(200):
        g = make(random.Random(graph_seed))
        for walk_seed in range(3):
            counted = count_graphs([g])[0]
            probs = [target_probabilities(counted, w) for w in words]
            results = [reserved_ids(random_walk_prune(counted, p, 4, walk_seed))
                       for p in probs]
            for i, j in [(i, j) for i in range(len(words)) for j in range(i)
                         if results[i] != results[j]]:
                node = counted.prunes[(walk_seed, 4)]
                while isinstance(node, retrieval._Choice):
                    a, b = node.pick(probs[i]), node.pick(probs[j])
                    if a != b:
                        if (node.u is None) == closure:
                            return g, walk_seed, words[i], words[j]
                        break
                    node = node.children[a]
    raise AssertionError("no two targets diverge at such a choice")


@pytest.mark.parametrize("make, closure", [(fx.random_dag, False),
                                           (fx.terminated_dag, True)])
def test_memo_answers_each_target_by_its_own_choices(make, closure):
    g, seed, *pair = diverging_targets(make, closure)
    want = [reserved_ids(prune_for_target(g, t, 4, seed)) for t in pair]
    assert want[0] != want[1]
    for order in ((0, 1), (1, 0)):
        counted = count_graphs([g])[0]
        for k in order + order:
            p = target_probabilities(counted, pair[k])
            assert reserved_ids(random_walk_prune(counted, p, 4, seed)) == want[k]


def test_memo_keyed_by_walk_count():
    for g in (fx.build_fig_graph(), two_verdict_graph()):
        counted = count_graphs([g])[0]
        p = target_probabilities(counted, term_counts(TARGET_TEXT))
        for walks in (1, 4, 2, 1, 100, 4):
            assert reserved_ids(random_walk_prune(counted, p, walks, 7)) == \
                reserved_ids(prune_for_target(g, TARGET_TEXT, walks, 7))


def test_repeated_prune_neither_walks_nor_fills_rows(monkeypatch):
    # a step among two options and a closure among two terminators
    counted = count_graphs([two_verdict_graph()])[0]
    target = term_counts(TARGET_TEXT)
    p = target_probabilities(counted, target)
    first = random_walk_prune(counted, p, 1, 3)
    rows = dict(p.probs)
    assert rows

    def no_walk(*args, **kwargs):
        raise AssertionError("a repeated prune spawned walk streams")

    monkeypatch.setattr(retrieval, "spawn", no_walk)
    assert random_walk_prune(counted, p, 1, 3) is first
    assert p.probs == rows
    again = target_probabilities(counted, target)
    assert random_walk_prune(counted, again, 1, 3) is first
    assert again.probs == rows


@exact
@given(dag_makers, st.integers(0, 2**32 - 1), targets)
def test_lazy_outgoing_equals_eager_outgoing(make, seed, target):
    g = make(random.Random(seed))
    eager = edge_probabilities(build_adjacency(g, target, make_index(g, target)), g)
    lazy = target_probabilities(count_graphs([g])[0], term_counts(target))
    for src in g.nodes:
        assert lazy.outgoing(src) == eager.outgoing(src)


@exact
@given(dag_makers, st.integers(0, 2**32 - 1), targets, st.integers(0, 1000),
       st.integers(1, 6))
def test_reserved_subgraph_is_a_tree_with_fan_in_at_terminals(make, seed, target,
                                                              walk_seed, walks):
    # a walk steps only into unvisited nodes and a closure only into
    # terminal ones, so the closure's maximal paths stay linear in size
    g = make(random.Random(seed))
    reserved = prune_for_target(g, target, walks, walk_seed).graph
    in_pairs = {nid: {a.src for a in reserved.in_actions(nid)} for nid in reserved.nodes}
    for nid, srcs in in_pairs.items():
        if nid != "O1" and not g.is_terminal(nid):
            assert len(srcs) == 1, nid
    pairs = {(a.src, a.dst) for a in reserved.edges}
    succ = {nid: reserved.successors(nid) for nid in reserved.nodes}
    assert len(list(maximal_paths(succ))) <= len(pairs)


@exact
@given(st.floats(min_value=1e-12, max_value=1.0), st.integers(0, 2**64 - 1))
def test_one_option_step_draws_like_choose(weight, seed):
    by_choose = np.random.default_rng(seed)
    by_step = np.random.default_rng(seed)
    assert _pick(by_choose.random(), [weight]) == 0
    # no row exists to read, so a step that consulted one would raise
    assert _step(by_step, EdgeProbabilities({}), "O1", ["O2.1"], []) == "O2.1"
    assert by_step.bit_generator.state == by_choose.bit_generator.state
