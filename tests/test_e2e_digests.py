"""Byte-identity of the e2e pipeline outputs, pinned as SHA-256 digests.

A change that claims to keep outputs the same (a refactor, a cache, a faster
walk) must leave these digests alone. The config hash is masked: it covers
the fixture's absolute paths, so it differs between checkouts and tmp dirs.
Similarities from `stage_retrieve` are written as `float.hex`, so a change in
the last bit shows.

No walk over the fixture's own graphs has two options, so `run-all` reads no
walk-probability row. The branching case adds random DAGs to the prepared
database and pins retrieval, every adjacency row and the golden-knowledge
similarities as `float.hex` too.

The e2e graphs never branch, link to a shared analysis or get rewritten, so
the reasoner case pins the graph JSON (as GraphStore writes it) and the call
counts of the agent loop over scripted reports that do: dedup links,
inclusion deferral, binding node, depth and branch budgets, an aborted
partial graph, corrections that rewrite, and the closing undecided terminal.

The digests hold on every Python version: `src/` sums floats only with
`math.fsum`, which is correctly rounded. Python 3.12 made the builtin `sum`
compensated, so a float `sum` would move them. One case reruns the pipeline
with every module's `sum` swapped for 3.11's and then for 3.12's, so both
versions are checked on either, and an AST guard keeps the builtin `sum` to
counts.
"""

import ast
import functools
import hashlib
import importlib
import json
import math
import operator
import pkgutil
import random
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import fixturelib
from e2e_fixture import write_e2e_config, write_e2e_fixture
import vulrtex
from vulrtex import cli
from vulrtex.config import load_config
from vulrtex.corpus import load_corpus
from vulrtex.errors import TransportError
from vulrtex.gateway import Gateway, StubBackend, StubRule
from vulrtex.graph import GraphStore
from vulrtex.knowledge import KnowledgeRecord, ingest, load_store
from vulrtex.reasoner import ReasonerConfig, generate_reasoning_graph
from vulrtex.retrieval import (Target, build_adjacency, count_graphs, edge_probabilities,
                               retrieve_relevant)
from vulrtex.textindex import build_index
from vulrtex.tools import StubCodeAnalyzer, StubScrAnalyzer, ToolKit

ARTIFACTS = ("preds.jsonl", "report.json", "curve.csv")

EXPECTED = {
    "runs1": {
        "preds.jsonl": "1f38fe7a18b043b3e1c7ea23d9689b54b53d6726fdd2eb827010d71cce002b04",
        "report.json": "b9849fc65c80bdc8d07a2d52425cdab80d4197943d9559ff2d502f2a709658fa",
        "curve.csv": "b124be22357b62fe92f720a2f78de25c9e6444c73a34c10438905036f595161a",
        "retrieve": "3e2dbdbd615b47db513b9da1b9ea311bfdf4b07afe8e66792f9b4522ad881423",
    },
    "branching": "ba71534ebd5d1bb54caf6b3f51db33b7fff8efeb272c0e321edcdab7de0eadae",
    "reasoner": "1d0667de0740a83bd99b8decc17983656c4a44a1192dbb4a796f8ad2e76c4f05",
    "runs3": {
        "preds.jsonl": "3f639485bf7e2399d2ad8c4134bb916a12660d7856ae86590db1eae2a0b9cd23",
        "report.json": "c597bb3ad65d65020c6f052db95f65dde542292c53810a1ccc3037045e816513",
        "curve.csv": "b124be22357b62fe92f720a2f78de25c9e6444c73a34c10438905036f595161a",
    },
}

_HASH = re.compile(rb"(config_hash\W+)[0-9a-f]{16}")


def _digest(data: bytes) -> str:
    return hashlib.sha256(_HASH.sub(rb"\1<masked>", data)).hexdigest()


def _run_all(root, runs: int) -> dict[str, str]:
    fx = write_e2e_fixture(root / "fx")
    config = write_e2e_config(root / "config.ini", fx, pipeline={"runs": runs},
                              jitter=0.3)
    out = root / "run"
    result = CliRunner().invoke(cli.main, ["run-all", "-c", str(config),
                                           "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    digests = {name: _digest((out / name).read_bytes()) for name in ARTIFACTS}
    if runs == 1:
        cfg = load_config(str(config))
        cfg.db_path = str(out / "db")
        records = cli.stage_retrieve(cfg)
        for record in records:
            for r in record["retrieved"]:
                r["similarity"] = r["similarity"].hex()
        digests["retrieve"] = _digest(
            json.dumps(records, sort_keys=True).encode("utf-8"))
    return digests


@pytest.mark.parametrize("runs", [1, 3])
def test_outputs_match_recorded_digests(tmp_path, runs):
    first = _run_all(tmp_path / "a", runs)
    second = _run_all(tmp_path / "elsewhere" / "b", runs)
    assert first == second
    assert first == EXPECTED[f"runs{runs}"]


def _branching(root) -> tuple[str, int]:
    """Digest of retrieval, adjacency rows and golden similarities over the
    e2e database plus 6 random DAGs, and the number of lazy rows filled."""
    fx = write_e2e_fixture(root / "fx")
    cfg = load_config(str(write_e2e_config(root / "config.ini", fx,
                                           pipeline={"db_path": root / "db"})))
    cli.stage_prepare(cfg)
    store = GraphStore(root / "db")
    rng = random.Random(11)
    store.replace_graphs(store.load_all() + [fixturelib.random_dag(rng) for _ in range(6)])
    graphs = store.load_all()
    targets = load_corpus(root / "db" / "targets.jsonl")
    toolkit = ToolKit(StubScrAnalyzer(fx["scr_dir"]), StubCodeAnalyzer())
    knowledge = load_store(fx["va"])
    counted = count_graphs(graphs)
    prepared = [Target(t, toolkit, {}) for t in targets]
    record: dict = {"retrieve": [], "rows": [], "golden": []}
    for t in prepared:
        text = t.text
        for seed in (17, 18):
            kept = retrieve_relevant(counted, t, 0.0, seed=seed)
            record["retrieve"].append([t.id, seed, [
                [r.origin_ir, r.similarity.hex(), r.description] for r in kept]])
        for g in graphs:
            index = build_index([text] + [obs.text for obs in g.nodes.values()])
            probs = edge_probabilities(build_adjacency(g, text, index), g).probs
            record["rows"].append([t.id, g.ir_id, sorted(
                [src, dst, p.hex()] for (src, dst), p in probs.items())])
        record["golden"].append([t.id, [s.hex() for s in knowledge.similarities(text)]])
    filled = sum(len(p.probs) for t in prepared for p in t.rows.values())
    return _digest(json.dumps(record, sort_keys=True).encode("utf-8")), filled


def test_branching_case_matches_recorded_digest(tmp_path):
    digest, filled = _branching(tmp_path)
    assert filled > 0
    assert digest == EXPECTED["branching"]


def _left_fold_sum(iterable, /, start=0):
    """The builtin `sum` as Python 3.11 and earlier compute it: one `+` per
    term, left to right."""
    return functools.reduce(operator.add, iterable, start)


def _compensated_sum(iterable, /, start=0):
    """The builtin `sum` as Python 3.12 computes it: once the running total
    is a float, float terms are added with Neumaier's compensation, which is
    folded in before any other term and at the end."""
    total, comp = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            if comp:
                total, comp = total + comp, 0.0
            total = total + x
    return total + comp if comp and math.isfinite(comp) else total


@pytest.mark.parametrize("float_sum", [_left_fold_sum, _compensated_sum],
                         ids=["py3.11", "py3.12"])
def test_digests_hold_under_either_builtin_sum(tmp_path, monkeypatch, float_sum):
    # the two differ in the last bit here, and agree on counts
    assert {_left_fold_sum([0.1] * 10), _compensated_sum([0.1] * 10)} == {
        0.9999999999999999, 1.0}
    assert float_sum(1 for _ in range(3)) == 3
    modules = [vulrtex] + [importlib.import_module(f"vulrtex.{info.name}")
                           for info in pkgutil.iter_modules(vulrtex.__path__)]
    for module in modules:
        monkeypatch.setattr(module, "sum", float_sum, raising=False)
    assert _run_all(tmp_path / "runs1", 1) == EXPECTED["runs1"]
    digest, _ = _branching(tmp_path / "branching")
    assert digest == EXPECTED["branching"]


def _is_count(call: ast.Call) -> bool:
    """Whether the call is sum(1 for ...)."""
    gen = call.args[0] if len(call.args) == 1 and not call.keywords else None
    return (isinstance(gen, ast.GeneratorExp) and isinstance(gen.elt, ast.Constant)
            and type(gen.elt.value) is int and gen.elt.value == 1)


def test_src_calls_the_builtin_sum_only_to_count():
    calls = []
    for path in sorted(Path(vulrtex.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum" and not _is_count(node)):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


class _FailsAt:
    """A backend whose `at`-th call, counted from 1, raises a transport error."""

    def __init__(self, backend, at: int):
        self.backend, self.at, self.calls = backend, at, 0

    def complete(self, req):
        self.calls += 1
        if self.calls == self.at:
            raise TransportError("backend went away")
        return self.backend.complete(req)


def _reasoner_cases(root):
    """(name, ir, backend, store, ReasonerConfig overrides) per scripted case."""
    scr = root / "scr"
    fixturelib.write_fig_sidecars(scr)
    fixturelib.write_ordering_family_sidecars(scr)
    fig, fig_rules = fixturelib.fig_ir(), fixturelib.fig_reason_rules()
    advisory = ingest([KnowledgeRecord(
        "kb-fix", "ADV-9",
        "stored cross-site scripting when the ticket page renders the stored payload",
        "CWE-79")])
    corrected = [StubRule(r"may contain factual errors",
                          "O2.1: corrected against the golden advisory\n"
                          "O3.1: the stored payload runs on render\nO9.9: ignored")]
    ordering = fixturelib.ordering_family_ir(1), fixturelib.ordering_family_rules()
    share = fixturelib.shared_snippet_case(scr)
    terminal = fixturelib.shared_terminal_case(scr)
    verdicts = ingest([KnowledgeRecord("kb-fix", "ADV-7", "verdict wording screenshot shot")])
    opened = fixturelib.open_branches_case(scr)
    return [
        ("fig", fig, StubBackend(fig_rules), None, {}),
        ("fig-branch-1", fig, StubBackend(fig_rules), None, {"branch_limit": 1}),
        ("fig-branch-2", fig, StubBackend(fig_rules), None, {"branch_limit": 2}),
        ("fig-nodes-3", fig, StubBackend(fig_rules), None, {"max_nodes": 3}),
        ("fig-nodes-5", fig, StubBackend(fig_rules), None, {"max_nodes": 5}),
        ("fig-nodes-6", fig, StubBackend(fig_rules), None, {"max_nodes": 6}),
        ("fig-depth-2", fig, StubBackend(fig_rules), None, {"max_depth": 2}),
        ("fig-aborted", fig, _FailsAt(StubBackend(fig_rules), 4), None, {}),
        ("fig-corrected", fig, StubBackend(corrected + fig_rules), advisory,
         {"theta_sim": 0.05}),
        ("ordering-on", ordering[0], StubBackend(ordering[1]), None, {}),
        ("ordering-off", ordering[0], StubBackend(ordering[1]), None,
         {"inclusion_order": False}),
        ("share-on", share[0], StubBackend(share[1]), None, {}),
        ("share-off", share[0], StubBackend(share[1]), None, {"inclusion_order": False}),
        ("terminal-corrected", terminal[0], StubBackend(terminal[1]), verdicts,
         {"theta_sim": 0.01}),
        ("open", opened[0], StubBackend(opened[1]), None, {}),
    ], scr


def test_reasoner_graphs_match_recorded_digest(tmp_path):
    cases, scr = _reasoner_cases(tmp_path)
    record = []
    for name, ir, backend, store, overrides in cases:
        gateway = Gateway(backend, max_retries=0, backoff_base=0.0)
        toolkit = ToolKit(StubScrAnalyzer(scr), StubCodeAnalyzer())
        g = generate_reasoning_graph(ir, ReasonerConfig(
            llm=gateway, tools=toolkit, store=store, **overrides))
        record.append([name, json.dumps(g.to_dict(), sort_keys=True),
                       gateway.calls, toolkit.backend_calls])
    assert len({graph for _, graph, _, _ in record}) == len(record)
    assert _digest(json.dumps(record).encode("utf-8")) == EXPECTED["reasoner"]
