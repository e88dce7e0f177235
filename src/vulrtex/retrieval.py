"""Target-conditioned pruning of stored reasoning graphs and their retrieval.

For one target report, every stored graph is weighted edge-by-edge against
the target text, walked down to a reserved subgraph, described as text, and
kept when the description's similarity to the target clears the threshold.
That similarity is taken under an index over the target and the pruned
descriptions; each description's term counts are tabled once per stage, with
its reserved subgraph, as arrays over the stage's one numbering of terms
(textindex.TermIds), and textindex.query_cosines scores a target against
all of them in one numpy pass, with no index or vector.

A prune costs only the work that can change its result:

- Walk probabilities are computed one source row at a time, the first time
  a choice reads it. A walk step with one unvisited option and a closure
  with one terminator candidate read none, so most rows are never computed.
- What no target changes is computed once per stage, on the CountedGraph:
  - node term counts, the idf tables of the node texts and degrees;
  - the walk's structure: each node's sorted successors, each (src, dst)
    hop's action ids and whether it holds a terminator, and each node's
    terminator out-actions, so no walk step or closure calls a graph method;
  - the term table of each node text and of each joined pair text a row
    reads (CorpusIdf.table), so a pair weight for a target is two
    CorpusQuery cosines over tabled floats, with no index, Counter sum or
    vector per pair;
  - the dense ids of the pruned descriptions' terms, in one TermIds that
    the graphs of one count_graphs call share, which also keeps the idf
    array query_cosines scores them under, per document count.
- What only the run seed changes is computed once per (graph, run seed):
  each graph's walk seed (CountedGraph.walk_seed).
- For a fixed (graph, seed, walks), a prune is a pure function of the
  outcomes of the choices that read the target: a walk step among several
  unvisited options, and a closure among several terminator candidates.
  Every other draw, frontier and hop follows from the earlier outcomes.
  So the CountedGraph keeps, per (seed, walks), a trie of those choices
  (_Choice) whose leaves are reserved subgraphs. A prune descends it,
  computing each outcome from the target's rows, and walks only when an
  outcome is new; that walk adds one leaf. A leaf is a pure function of
  its reserved action ids, so each distinct set is built, validated,
  described and its description's terms tabled once per stage.

What no walk seed changes of a target is computed once per Target: its
flattened text, term counts and JSON, on first use, and, when the Target
keeps rows, each graph's walk probabilities, so a stage repeating its
targets under new seeds reuses the rows earlier runs filled.

build_adjacency and edge_probabilities compute every weight and row at once,
with the same pair gain (_PairWeights) and per-row code, but each cosine
taken between tf-idf vectors of a whole index. They are the reference: the
acceptance gates check them against the oracles, and the tests check the
tabled weights against them bit for bit.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable

import numpy as np

from .config import DEFAULT_WALKS
from .corpus import CanonicalIR, report_text
from .errors import EmptyDatabase, IsolatedNonTerminal
from .graph import (
    AGENT_TERMINATOR,
    ROOT_ID,
    Action,
    Observation,
    ReasoningGraph,
    describe_graph,
    maximal_paths,
)
from .prompts import ir_json
from .textindex import (CorpusIdf, DocTerms, TermIds, TermTable, TfIdfIndex, cosine,
                        query_cosines, term_counts)
from .tools import ToolKit

ADJ_EPSILON = 1e-6


@dataclass
class AdjacencyMatrix:
    """Adjacency weights keyed (src, dst); a pair without an edge weighs 0."""

    weights: dict[tuple[str, str], float]

    def weight(self, src: str, dst: str) -> float:
        return self.weights.get((src, dst), 0.0)


@dataclass(frozen=True)
class ReservedGraph:
    graph: ReasoningGraph
    origin_ir: str
    description: str
    description_terms: DocTerms = field(compare=False)
    similarity: float = 0.0


@dataclass(frozen=True)
class CountedGraph:
    """A stored graph with what retrieval needs of it for any target, built
    once per stage so many targets share it.

    `node_counts` and `idf` (over the node texts) feed the edge weights;
    `degree` and `succ` (each node's distinct successors, sorted) shape the
    walk probabilities. The walk reads its structure from `succ` and two
    more tables: `hops` (each connected (src, dst) pair's action ids, and
    whether one of them is an AgentTerminator) and `terminators` (each
    node's AgentTerminator out-actions, in out_actions order). `term_ids`
    numbers the terms of the pruned descriptions
    (ReservedGraph.description_terms); the graphs of one count_graphs call
    share it, so their descriptions score under one numbering, and it goes
    away with them.

    Four memos fill as the stage walks and go away with it: `prunes`
    holds, per (seed, walks) asked for, random_walk_prune's trie of choices
    (the root _Choice, or the ReservedGraph when the prune makes no
    choice), so it holds at most one leaf per prune that had to walk;
    `subgraphs` the ReservedGraph of each distinct set of reserved action
    ids those walks reached, which leaves under other seeds or choices
    share; `term_tables` the term table (CorpusIdf.table) of each node
    text, keyed by node id, and of each joined pair text, keyed (src, dst),
    that a walk-probability row has read; and `walk_seeds` this graph's
    walk seed (graph_walk_seed) per run seed asked for.
    """

    graph: ReasoningGraph
    node_counts: dict[str, Counter[str]]
    idf: CorpusIdf
    degree: dict[str, int]
    succ: dict[str, tuple[str, ...]]
    hops: dict[tuple[str, str], tuple[tuple[str, ...], bool]]
    terminators: dict[str, tuple[Action, ...]]
    term_ids: TermIds = field(repr=False, compare=False)
    prunes: dict[tuple[int, int], _Choice | ReservedGraph] = field(
        default_factory=dict, repr=False, compare=False)
    subgraphs: dict[frozenset[str], ReservedGraph] = field(
        default_factory=dict, repr=False, compare=False)
    term_tables: dict[str | tuple[str, str], TermTable] = field(
        default_factory=dict, repr=False, compare=False)
    walk_seeds: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def terms(self, src: str, dst: str | None = None) -> TermTable:
        """The term table of src's text, or of "src dst" joined."""
        key = src if dst is None else (src, dst)
        table = self.term_tables.get(key)
        if table is None:
            counts = self.node_counts[src]
            if dst is not None:
                counts = counts + self.node_counts[dst]
            table = self.term_tables[key] = self.idf.table(counts)
        return table

    def walk_seed(self, seed: int) -> int:
        """graph_walk_seed(seed, this graph's id)."""
        walk_seed = self.walk_seeds.get(seed)
        if walk_seed is None:
            walk_seed = self.walk_seeds[seed] = graph_walk_seed(seed, self.graph.ir_id)
        return walk_seed


def node_counts(g: ReasoningGraph) -> dict[str, Counter[str]]:
    return {nid: term_counts(g.node_text(nid)) for nid in g.nodes}


def _degrees(g: ReasoningGraph) -> dict[str, int]:
    """Each node's degree, counting every incident action of the multigraph
    (in and out, parallels included)."""
    return {nid: len(g.out_actions(nid)) + len(g.in_actions(nid)) for nid in g.nodes}


def _walk_tables(g: ReasoningGraph) -> tuple[
        dict[str, tuple[str, ...]],
        dict[tuple[str, str], tuple[tuple[str, ...], bool]],
        dict[str, tuple[Action, ...]]]:
    """The succ, hops and terminators tables of CountedGraph."""
    succ = {nid: tuple(g.successors(nid)) for nid in g.nodes}
    pairs: dict[tuple[str, str], list[Action]] = {}
    for act in g.edges:
        pairs.setdefault((act.src, act.dst), []).append(act)
    hops = {pair: (tuple(a.id for a in acts),
                   any(a.tool == AGENT_TERMINATOR for a in acts))
            for pair, acts in pairs.items()}
    terminators = {nid: tuple(a for a in g.out_actions(nid) if a.tool == AGENT_TERMINATOR)
                   for nid in g.nodes}
    return succ, hops, terminators


def count_graphs(graphs) -> list[CountedGraph]:
    """Pair every graph with its target-independent statistics and walk
    tables.

    A list whose graphs one earlier call counted (CountedGraphs sharing one
    TermIds) comes back as it is, memos and all. Any other list is counted
    again as a whole under one new TermIds, taking the .graph of each
    CountedGraph in it, so the graphs of a returned list always number
    their descriptions under one table."""
    graphs = list(graphs)
    if all(isinstance(g, CountedGraph) and g.term_ids is graphs[0].term_ids for g in graphs):
        return graphs
    term_ids = TermIds()
    out = []
    for g in graphs:
        if isinstance(g, CountedGraph):
            g = g.graph
        counts = node_counts(g)
        out.append(CountedGraph(g, counts, CorpusIdf.from_corpus(list(counts.values())),
                                _degrees(g), *_walk_tables(g), term_ids))
    return out


class _PairWeights:
    """Adjacency weights of one graph for one target, weighed pair by pair:
    how much the joined text "src dst" gains similarity to the target over
    the source text alone, floored at epsilon so every existing edge stays
    walkable. `cosine(src, dst)` is the target's similarity to the joined
    text, and `cosine(src, None)` to src's text alone; each source's is
    taken once."""

    def __init__(self, cosine: Callable[[str, str | None], float]):
        self.cosine = cosine
        self.base: dict[str, float] = {}

    def __call__(self, src: str, dst: str) -> float:
        base = self.base.get(src)
        if base is None:
            base = self.base[src] = self.cosine(src, None)
        gain = self.cosine(src, dst) - base
        return max(0.0, gain) + ADJ_EPSILON


def build_adjacency(g: ReasoningGraph, target: str | Counter[str], index: TfIdfIndex,
                    counts: dict[str, Counter[str]] | None = None) -> AdjacencyMatrix:
    """Weight every connected node pair at once (see _PairWeights) with
    the index's vectors; "src dst" joined is counted as the sum of the two
    nodes' counts, since no token spans the joining space.

    `counts` are the node texts' term counts (node_counts(g) when omitted).
    """
    counts = node_counts(g) if counts is None else counts
    target_vec = index.vectorize(target)

    def vector_cosine(src: str, dst: str | None) -> float:
        joined = counts[src] if dst is None else counts[src] + counts[dst]
        return cosine(target_vec, index.vectorize(joined))

    weigh = _PairWeights(vector_cosine)
    return AdjacencyMatrix({pair: weigh(*pair)
                            for pair in sorted({(a.src, a.dst) for a in g.edges})})


def _fill_row(probs: dict[tuple[str, str], float], src: str, dsts: Sequence[str],
              degree: dict[str, int], weight: Callable[[str, str], float]) -> None:
    """Degree-weighted walk probabilities of src's out-edges, normalized
    over its distinct destinations; a source without any has no row."""
    if not dsts:
        return
    raw = [weight(src, dst) * (1.0 / degree[src] + 1.0 / degree[dst]) for dst in dsts]
    total = math.fsum(raw)
    if total <= 0.0:
        raise IsolatedNonTerminal(
            f"node {src} has zero outgoing raw mass; matrix misaligned with graph")
    for dst, r in zip(dsts, raw):
        probs[(src, dst)] = r / total


@dataclass
class EdgeProbabilities:
    """Walk probabilities keyed (src, dst), one row per source node.

    edge_probabilities fills every row at once. target_probabilities fills
    none: `row(src)` weighs and normalizes src's out-edges the first time a
    draw needs them, so `probs` holds the rows asked for so far.
    """

    probs: dict[tuple[str, str], float]
    counted: CountedGraph | None = None  # set while rows may be missing
    target: Counter[str] | None = None
    _weigh: _PairWeights | None = field(default=None, repr=False)
    _rows: set[str] = field(default_factory=set, repr=False)

    def row(self, src: str) -> None:
        """Make sure src's row is in `probs`."""
        if self.counted is not None and src not in self._rows:
            self._fill(src)

    def _fill(self, src: str) -> None:
        c = self.counted
        if self._weigh is None:
            query, terms = c.idf.query(self.target), c.terms
            self._weigh = _PairWeights(lambda src, dst: query.cosine(terms(src, dst)))
        _fill_row(self.probs, src, c.succ[src], c.degree, self._weigh)
        self._rows.add(src)

    def outgoing(self, src: str) -> list[tuple[str, float]]:
        self.row(src)
        return [(dst, p) for (s, dst), p in self.probs.items() if s == src]


def edge_probabilities(m: AdjacencyMatrix, g: ReasoningGraph) -> EdgeProbabilities:
    """Every row of the walk probabilities over the weights in m (see
    _fill_row)."""
    degree = _degrees(g)
    probs: dict[tuple[str, str], float] = {}
    for src in g.nodes:
        _fill_row(probs, src, g.successors(src), degree, m.weight)
    return EdgeProbabilities(probs)


def target_probabilities(counted: CountedGraph,
                         target: Counter[str]) -> EdgeProbabilities:
    """Walk probabilities of one graph for one target's term counts, filled
    row by row as walks need them; they do not depend on the walk seed.

    The idf is that of build_index([target] + node texts), tabled per graph
    (counted.idf). Each pair weight is the gain (_PairWeights) of two
    cosines of the target's CorpusQuery with the graph's term tables
    (CountedGraph.terms), so no index or vector is built.
    """
    return EdgeProbabilities({}, counted, target)


def _pick(u: float, weights: list[float]) -> int:
    """The index a draw of u selects from normalized weights, by the
    cumulative-sum search Generator.choice makes.

    numpy sums fewer than 8 values one by one, left to right, so below 8
    the same floats come from sequential `+` (not `sum`, which 3.12
    compensates); from 8 up it sums pairwise, and only numpy gives its
    floats."""
    if len(weights) < 8:
        total = weights[0]
        for w in weights[1:]:
            total += w
        cdf = list(accumulate([w / total for w in weights]))
        last = cdf[-1]
        return bisect_right([c / last for c in cdf], u)
    w = np.array(weights)
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def _choose(rng: np.random.Generator, weights: list[float]) -> int:
    """rng.choice(len(weights), p=normalized weights) without its argument
    checks: the same search over the same single double, so the index and
    the generator's next state are exactly choice's."""
    return _pick(rng.random(), weights)


@dataclass(eq=False)
class _Choice:
    """One choice of a prune that reads the target, with all else it reads
    fixed: from `src` to one of `dsts`, by the walk step's drawn double `u`
    over its unvisited options, or, when `u` is None, by the closure's rank
    of its terminator candidates, (`ranks[i]` = (0 if dsts[i] was already
    reserved else 1, action id), -probability) ascending. `children` maps
    each outcome met so far to the next choice or to the prune's result."""

    src: str
    dsts: tuple[str, ...]
    u: float | None = None
    ranks: tuple[tuple[int, str], ...] = ()
    children: dict[int, _Choice | ReservedGraph] = field(default_factory=dict)

    def pick(self, p: EdgeProbabilities) -> int:
        """The index into dsts that p selects."""
        p.row(self.src)
        weights = [p.probs[(self.src, dst)] for dst in self.dsts]
        if self.u is not None:
            return _pick(self.u, weights)
        return min(range(len(weights)), key=lambda i: (
            self.ranks[i][0], -weights[i], self.ranks[i][1]))


def _step(rng: np.random.Generator, p: EdgeProbabilities, src: str,
          options: list[str], made: list[tuple[_Choice, int]]) -> str:
    """One walk step from src, as options[_choose(rng, src's
    probabilities)]; a choice among several options is appended to `made`
    with its outcome.

    With one option no row is read: _choose takes it whatever its positive
    weight, after drawing one double, which is drawn here too.
    """
    u = rng.random()
    if len(options) == 1:
        return options[0]
    choice = _Choice(src, tuple(options), u)
    picked = choice.pick(p)
    made.append((choice, picked))
    return options[picked]


def _walk(counted: CountedGraph, p: EdgeProbabilities, walks: int,
          rng_seed: int) -> tuple[list[tuple[_Choice, int]], ReservedGraph]:
    """The walks and closure of random_walk_prune, from freshly spawned
    streams: the choices made, each with its outcome, in order, and the
    reserved subgraph (_reserve)."""
    g = counted.graph
    succ, hops = counted.succ, counted.hops
    made: list[tuple[_Choice, int]] = []
    reserved_nodes: dict[str, None] = {ROOT_ID: None}
    reserved_actions: dict[str, None] = {}
    for act in g.out_actions(ROOT_ID):
        reserved_nodes[act.dst] = None
        reserved_actions[act.id] = None

    def unvisited_successors(node_id: str) -> list[str]:
        return [v for v in succ.get(node_id, ()) if v not in reserved_nodes]

    for rng in map(np.random.default_rng, np.random.SeedSequence(rng_seed).spawn(walks)):
        frontier = [u for u in reserved_nodes if unvisited_successors(u)]
        if not frontier:
            continue
        current = frontier[int(rng.integers(len(frontier)))]
        while True:
            options = unvisited_successors(current)
            if not options:
                break
            nxt = _step(rng, p, current, options, made)
            hop, terminates = hops[(current, nxt)]
            for act_id in hop:
                reserved_actions[act_id] = None
            reserved_nodes[nxt] = None
            if terminates:
                break
            current = nxt

    # closure: terminate every open reserved path when the origin graph can.
    # Every reserved hop is reserved whole (a walk hop or a root hop), so a
    # hop holding a terminator holds a reserved one.
    out_map: dict[str, set[str]] = {}
    for act in g.edges:
        if act.id in reserved_actions:
            out_map.setdefault(act.src, set()).add(act.dst)
    for seq in maximal_paths({src: sorted(dsts) for src, dsts in out_map.items()}):
        last = seq[-1]
        if g.nodes[last].decided():
            continue
        if len(seq) > 1 and hops[(seq[-2], last)][1]:
            continue
        candidates = counted.terminators[last]
        if not candidates:
            continue
        best = candidates[0]
        if len(candidates) > 1:
            choice = _Choice(last, tuple(a.dst for a in candidates), ranks=tuple(
                (0 if a.dst in reserved_nodes else 1, a.id) for a in candidates))
            picked = choice.pick(p)
            made.append((choice, picked))
            best = candidates[picked]
        reserved_nodes[best.dst] = None
        reserved_actions[best.id] = None

    return made, _reserve(counted, reserved_nodes, reserved_actions)


def _reserve(counted: CountedGraph, nodes: dict[str, None],
             actions: dict[str, None]) -> ReservedGraph:
    """The subgraph of the reserved nodes and actions, described; built
    once per distinct set of action ids, which fixes the nodes too."""
    key = frozenset(actions)
    reserved = counted.subgraphs.get(key)
    if reserved is None:
        g = counted.graph
        pruned = ReasoningGraph(g.ir_id)
        for nid, obs in g.nodes.items():
            if nid in nodes:
                pruned.add_observation(Observation.from_dict(obs.to_dict()))
        for act in g.edges:
            if act.id in actions:
                pruned.add_action(Action(act.id, act.src, act.dst, act.tool, act.argument))
        pruned.validate()
        description = describe_graph(pruned)
        reserved = counted.subgraphs[key] = ReservedGraph(
            pruned, g.ir_id, description,
            counted.term_ids.doc_terms(term_counts(description)))
    return reserved


def random_walk_prune(g: ReasoningGraph | CountedGraph, p: EdgeProbabilities,
                      walks: int, rng_seed: int) -> ReservedGraph:
    """Reserve a rooted subgraph by seeded random walks.

    The root and all of its direct children are adopted up front. Each walk
    starts from a uniformly chosen visited node that still has unvisited
    successors and samples forward by p, renormalized over the unvisited
    ones, until it traverses a terminator hop or dead-ends; traversing a hop
    reserves every parallel action on it. Reserved paths that still lack a
    termination are closed with the cheapest terminator action the origin
    graph offers from their last node, preferring one whose target is
    already reserved, then the higher-probability one.

    Only a draw among several options and a closure choosing among several
    terminators read p, so only their source rows are asked for, and the
    result is a pure function of those choices' outcomes. A counted graph
    keeps them as a trie per (rng_seed, walks): a prune descends it,
    computing each outcome from p, and walks (_walk) only when it meets an
    outcome not met before, then grafts the new choices and result on.
    Walks that reserve the same action ids share one ReservedGraph. A
    counted graph is used as given, so its memos last as long as it does;
    a plain graph is counted afresh, so its memos last one call.
    """
    if walks < 1:
        raise ValueError("walks must be at least 1")
    counted = count_graphs([g])[0]
    key = (rng_seed, walks)
    node = counted.prunes.get(key)
    parent, picked, depth = None, 0, 0
    while isinstance(node, _Choice):
        parent, picked = node, node.pick(p)
        node = node.children.get(picked)
        depth += 1
    if node is not None:
        return node
    # a walk makes the choices just descended first, with the same outcomes
    made, reserved = _walk(counted, p, walks, rng_seed)
    node = reserved
    for choice, outcome in reversed(made[depth:]):
        choice.children[outcome] = node
        node = choice
    if parent is None:
        counted.prunes[key] = node
    else:
        parent.children[picked] = node
    return reserved


def prune_for_target(g: ReasoningGraph | CountedGraph, target: str | Counter[str],
                     walks: int, rng_seed: int) -> ReservedGraph:
    """Probabilities and walk pruning in one step; the target is its text or
    its term counts."""
    counted = count_graphs([g])[0]
    if isinstance(target, str):
        target = term_counts(target)
    return random_walk_prune(counted, target_probabilities(counted, target),
                             walks, rng_seed)


def graph_walk_seed(master_seed: int, ir_id: str) -> int:
    """Stable per-graph seed, so database order cannot affect any walk."""
    return zlib.crc32(f"{master_seed}:{ir_id}".encode("utf-8"))


@dataclass(eq=False)
class Target:
    """A target report with what retrieval and identification read of it,
    each computed on first use and kept while the Target lives: the
    flattened text, its term counts and the report's JSON (prompts.ir_json).
    None of them depends on the walk seed, so a stage that builds one Target
    per report for all its runs flattens, tokenizes and serializes each
    report once.

    `rows`, when not None, keeps this target's walk probabilities per graph
    id (EdgeProbabilities), so a run under another seed reuses the rows
    earlier runs filled. A Target made with `rows=None` keeps none past
    each retrieval call.
    """

    ir: CanonicalIR
    toolkit: ToolKit | None = None
    rows: dict[str, EdgeProbabilities] | None = None

    @property
    def id(self) -> str:
        return self.ir.id

    @cached_property
    def text(self) -> str:
        """Title and content; with a toolkit, every rich-text tag expanded
        by its tool (ToolKit.flatten_ir)."""
        if self.toolkit is not None:
            return self.toolkit.flatten_ir(self.ir)
        return report_text(self.ir.title, self.ir.content)

    @cached_property
    def counts(self) -> Counter[str]:
        return term_counts(self.text)

    @cached_property
    def json(self) -> str:
        return ir_json(self.ir)

    @classmethod
    def of(cls, target: CanonicalIR | Target) -> Target:
        """`target` itself when it is a Target, else `target` wrapped."""
        return target if isinstance(target, Target) else cls(target)

    def probabilities(self, counted: CountedGraph) -> EdgeProbabilities:
        """This target's walk probabilities over a counted graph; the kept
        ones when `rows` holds them for this very graph."""
        if self.rows is None:
            return target_probabilities(counted, self.counts)
        probs = self.rows.get(counted.graph.ir_id)
        if probs is None or probs.counted is not counted:
            probs = self.rows[counted.graph.ir_id] = target_probabilities(
                counted, self.counts)
        return probs


def retrieve_relevant(graphs, target: CanonicalIR | Target, theta_sim: float,
                      walks: int = DEFAULT_WALKS, seed: int = 0) -> list[ReservedGraph]:
    """Prune every graph for this target, keep the ones whose description
    scores strictly above theta_sim, best first.

    `graphs` goes through count_graphs; a caller retrieving for many
    targets passes the list of one count_graphs call, so no node text is
    counted per target, and the graphs' memos serve every target: a prune
    whose choices all meet outcomes an earlier prune of the graph met
    under the same seed does not walk, and each distinct reserved subgraph
    of a graph is described and its terms tabled once. The memos hold at
    most one leaf per prune that walked and go away with the list.
    Similarities are those of an index over all pruned descriptions plus
    the flattened target, computed from the tabled terms
    (textindex.query_cosines). Per-graph walk seeds derive from (seed,
    graph id), so results do not depend on iteration or scheduling order;
    each graph keeps its seed per run seed (CountedGraph.walk_seed).

    `target` is a Target or a CanonicalIR, which is wrapped as a Target
    without a toolkit; a caller repeating a target under other seeds
    passes the same Target each time, so it is flattened and counted
    once. Walk probabilities fill only the source rows that a draw among
    several options, or a closure among several terminators, reads; a
    Target that keeps rows (Target.rows) hands the rows filled so far to
    the next call.
    """
    graphs = count_graphs(graphs)
    if not graphs:
        raise EmptyDatabase("no reasoning graphs to retrieve from")
    if not 0.0 <= theta_sim <= 1.0:
        raise ValueError("theta_sim must be in [0, 1]")
    target = Target.of(target)
    pruned = [random_walk_prune(counted, target.probabilities(counted), walks,
                                counted.walk_seed(seed))
              for counted in graphs]
    scores = query_cosines(target.counts, [r.description_terms for r in pruned])
    kept = [ReservedGraph(r.graph, r.origin_ir, r.description, r.description_terms, score)
            for r, score in zip(pruned, scores) if score > theta_sim]
    kept.sort(key=lambda r: (-r.similarity, r.origin_ir))
    return kept
