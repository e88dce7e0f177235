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
  A draw among several options searches a pick table (_cdf) of the row
  over those options, built the first time a draw reads it and kept beside
  the row (EdgeProbabilities.cdf), so a later draw over the same options
  is one lookup and one search.
- What no target changes is computed once per stage, on the CountedGraph:
  - node term counts, the idf tables of the node texts, degrees and each
    node's sorted successors;
  - the term table of each node text and of each joined pair text a row
    reads (CorpusIdf.table), so a pair weight for a target is two
    CorpusQuery cosines over tabled floats, with no index, Counter sum or
    vector per pair;
  - the dense ids of the pruned descriptions' terms, in one TermIds that
    the graphs of one count_graphs call share, which also keeps the idf
    array query_cosines scores them under, per document count.
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
keeps rows, each graph's walk probabilities and their pick tables, so a
stage repeating its targets under new seeds reuses the rows and tables
earlier runs filled; only the drawn doubles are new.

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
from functools import cached_property, reduce
from itertools import accumulate
from operator import add
from typing import Callable

from .config import DEFAULT_WALKS
from .corpus import CanonicalIR, report_text
from .errors import EmptyDatabase, IsolatedNonTerminal
from .graph import (
    AGENT_TERMINATOR,
    ROOT_ID,
    ReasoningGraph,
    describe_graph,
    maximal_paths,
)
from .prompts import ir_json
from .textindex import (CorpusIdf, DocTerms, TermIds, TermTable, TfIdfIndex, cosine,
                        query_cosines, term_counts)
from .tools import ToolKit
from .walkrng import Pcg64, spawn

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
    walk probabilities, and the walk reads its steps' options from `succ`.
    `term_ids` numbers the terms of the pruned descriptions
    (ReservedGraph.description_terms); the graphs of one count_graphs call
    share it, so their descriptions score under one numbering, and it goes
    away with them.

    Three memos fill as the stage walks and go away with it: `prunes`
    holds, per (seed, walks) asked for, random_walk_prune's trie of choices
    (the root _Choice, or the ReservedGraph when the prune makes no
    choice), so it holds at most one leaf per prune that had to walk;
    `subgraphs` the ReservedGraph of each distinct set of reserved action
    ids those walks reached, which leaves under other seeds or choices
    share; and `term_tables` the term table (CorpusIdf.table) of each node
    text, keyed by node id, and of each joined pair text, keyed (src, dst),
    that a walk-probability row has read.
    """

    graph: ReasoningGraph
    node_counts: dict[str, Counter[str]]
    idf: CorpusIdf
    degree: dict[str, int]
    succ: dict[str, tuple[str, ...]]
    term_ids: TermIds = field(repr=False, compare=False)
    prunes: dict[tuple[int, int], _Choice | ReservedGraph] = field(
        default_factory=dict, repr=False, compare=False)
    subgraphs: dict[frozenset[str], ReservedGraph] = field(
        default_factory=dict, repr=False, compare=False)
    term_tables: dict[str | tuple[str, str], TermTable] = field(
        default_factory=dict, repr=False, compare=False)

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


def node_counts(g: ReasoningGraph) -> dict[str, Counter[str]]:
    return {nid: term_counts(g.node_text(nid)) for nid in g.nodes}


def _degrees(g: ReasoningGraph) -> dict[str, int]:
    """Each node's degree, counting every incident action of the multigraph
    (in and out, parallels included)."""
    return {nid: len(g.out_actions(nid)) + len(g.in_actions(nid)) for nid in g.nodes}


def count_graphs(graphs) -> list[CountedGraph]:
    """Pair every graph with its target-independent statistics.

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
        succ = {nid: tuple(g.successors(nid)) for nid in g.nodes}
        out.append(CountedGraph(g, counts, CorpusIdf.from_corpus(list(counts.values())),
                                _degrees(g), succ, term_ids))
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


def build_adjacency(g: ReasoningGraph, target: str | Counter[str],
                    index: TfIdfIndex) -> AdjacencyMatrix:
    """Weight every connected node pair at once (see _PairWeights) with
    the index's vectors; "src dst" joined is counted as the sum of the two
    nodes' counts, since no token spans the joining space."""
    counts = node_counts(g)
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

    `cdf(src, dsts)` keeps the pick table (_cdf) of src's probabilities
    over each option tuple a draw has read, so a later draw over the same
    options, on a trie descent or a walk step, is one lookup and one
    search. The tables derive from the rows and go away with them.
    """

    probs: dict[tuple[str, str], float]
    counted: CountedGraph | None = None  # set while rows may be missing
    target: Counter[str] | None = None
    _weigh: _PairWeights | None = field(default=None, repr=False)
    _rows: set[str] = field(default_factory=set, repr=False)
    _cdfs: dict[tuple[str, tuple[str, ...]], list[float]] = field(
        default_factory=dict, repr=False)

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

    def cdf(self, src: str, dsts: tuple[str, ...]) -> list[float]:
        """The pick table of src's probabilities over dsts, in their order."""
        key = (src, dsts)
        table = self._cdfs.get(key)
        if table is None:
            self.row(src)
            table = self._cdfs[key] = _cdf([self.probs[(src, dst)] for dst in dsts])
        return table

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


def _pairwise_sum(values: Sequence[float]) -> float:
    """The float sum numpy takes of values as one array, np.array(values).sum().

    numpy adds fewer than 8 values one by one, left to right, from 0.0. Up
    to 128 it adds into 8 accumulators, lane j taking values j, j + 8, ...
    of the longest prefix whose length is a multiple of 8, joins them
    pairwise and adds the rest one by one. Past 128 it splits at half the
    length, rounded down to a multiple of 8, and adds the halves' sums.
    Each `reduce(add, ...)` is that left-to-right `+` (not `sum`, which
    3.12 compensates)."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, values[j:end:8]) for j in range(8)]
        return reduce(add, values[end:], ((r[0] + r[1]) + (r[2] + r[3]))
                      + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _cdf(weights: list[float]) -> list[float]:
    """The table Generator.choice searches to pick from weights normalized
    by numpy's sum (_pairwise_sum): a left-to-right running sum, scaled by
    its last entry. A draw of u picks bisect_right(_cdf(weights), u), the
    search's side="right"."""
    total = _pairwise_sum(weights)
    cdf = list(accumulate([w / total for w in weights]))
    last = cdf[-1]
    return [c / last for c in cdf]


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
        if self.u is not None:
            return bisect_right(p.cdf(self.src, self.dsts), self.u)
        p.row(self.src)
        weights = [p.probs[(self.src, dst)] for dst in self.dsts]
        return min(range(len(weights)), key=lambda i: (
            self.ranks[i][0], -weights[i], self.ranks[i][1]))


def _step(rng: Pcg64, p: EdgeProbabilities, src: str,
          options: list[str], made: list[tuple[_Choice, int]]) -> str:
    """One walk step from src, as options[bisect_right(_cdf(src's
    probabilities), rng.random())]; a choice among several options is
    appended to `made` with its outcome.

    With one option no row is read: the search takes it whatever its
    positive weight, but the double is drawn all the same.
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
    """The walks and closure of random_walk_prune, one walk per stream of
    walkrng.spawn(rng_seed, walks): the choices made, each with its
    outcome, in order, and the reserved subgraph (_reserve)."""
    g = counted.graph
    succ = counted.succ
    made: list[tuple[_Choice, int]] = []
    reserved_nodes: dict[str, None] = {ROOT_ID: None}
    reserved_actions: dict[str, None] = {}
    for act in g.out_actions(ROOT_ID):
        reserved_nodes[act.dst] = None
        reserved_actions[act.id] = None

    def unvisited_successors(node_id: str) -> list[str]:
        return [v for v in succ.get(node_id, ()) if v not in reserved_nodes]

    for rng in spawn(rng_seed, walks):
        frontier = [u for u in reserved_nodes if unvisited_successors(u)]
        if not frontier:
            continue
        current = frontier[rng.integers(len(frontier))]
        while True:
            options = unvisited_successors(current)
            if not options:
                break
            nxt = _step(rng, p, current, options, made)
            hop = [a for a in g.out_actions(current) if a.dst == nxt]
            for act in hop:
                reserved_actions[act.id] = None
            reserved_nodes[nxt] = None
            if any(a.tool == AGENT_TERMINATOR for a in hop):
                break
            current = nxt

    # closure: terminate every open reserved path when the origin graph can.
    # In a graph that passes validate, a node that offers a terminator is
    # neither decided nor a terminator's target, so the path it ends is open.
    out_map: dict[str, set[str]] = {}
    for act in g.edges:
        if act.id in reserved_actions:
            out_map.setdefault(act.src, set()).add(act.dst)
    for seq in maximal_paths({src: sorted(dsts) for src, dsts in out_map.items()}):
        last = seq[-1]
        candidates = [a for a in g.out_actions(last) if a.tool == AGENT_TERMINATOR]
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
    once per distinct set of action ids, which fixes the nodes too. It
    shares the stored graph's observations and actions, which nothing
    downstream mutates."""
    key = frozenset(actions)
    reserved = counted.subgraphs.get(key)
    if reserved is None:
        g = counted.graph
        pruned = ReasoningGraph(g.ir_id)
        for nid, obs in g.nodes.items():
            if nid in nodes:
                pruned.add_observation(obs)
        for act in g.edges:
            if act.id in actions:
                pruned.add_action(act)
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
    counted = g if isinstance(g, CountedGraph) else count_graphs([g])[0]
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
    id (EdgeProbabilities), with their pick tables, so a run under another
    seed reuses the rows and tables earlier runs filled. A Target made with
    `rows=None` keeps none past each prune.
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
    graph id) by graph_walk_seed, so results do not depend on iteration or
    scheduling order.

    `target` is a Target or a CanonicalIR, which is wrapped as a Target
    without a toolkit; a caller repeating a target under other seeds
    passes the same Target each time, so it is flattened and counted
    once. Walk probabilities fill only the source rows that a draw among
    several options, or a closure among several terminators, reads; a
    Target that keeps rows (Target.rows) hands the rows and pick tables
    filled so far to the next call.
    """
    graphs = count_graphs(graphs)
    if not graphs:
        raise EmptyDatabase("no reasoning graphs to retrieve from")
    if not 0.0 <= theta_sim <= 1.0:
        raise ValueError("theta_sim must be in [0, 1]")
    target = Target.of(target)
    pruned = [random_walk_prune(counted, target.probabilities(counted), walks,
                                graph_walk_seed(seed, counted.graph.ir_id))
              for counted in graphs]
    scores = query_cosines(target.counts, [r.description_terms for r in pruned])
    kept = [ReservedGraph(r.graph, r.origin_ir, r.description, r.description_terms, score)
            for r, score in zip(pruned, scores) if score > theta_sim]
    kept.sort(key=lambda r: (-r.similarity, r.origin_ir))
    return kept
