"""Target-conditioned pruning of stored reasoning graphs and their retrieval.

For one target report, every stored graph is weighted edge-by-edge against
the target text, walked down to a reserved subgraph, described as text, and
kept when the description's similarity to the target clears the threshold.

A prune costs only the work that can change its result:

- Walk probabilities are computed one source row at a time, the first time
  a draw reads it. A walk step with one unvisited option and a closure with
  one terminator candidate read none, so most rows are never computed.
- What no target changes is computed once per stage, on the CountedGraph:
  - node term counts, the idf tables of the node texts, degrees and each
    source's destinations;
  - the walk's structure: each node's sorted successors, each (src, dst)
    hop's action ids and whether it holds a terminator, and each node's
    terminator out-actions, so no walk step or closure calls a graph method;
  - one generator per spawned walk stream of each (seed, walks), with its
    initial state, which every walk resets before drawing;
  - the term table of each node text and of each joined pair text a row
    reads (_term_table), so a pair weight for a target is two sums over
    tabled floats, with no index, Counter sum or vector per pair.
- The reserved subgraph is a pure function of its action ids, so each
  distinct set is built, validated, described and counted once per stage.

build_adjacency and edge_probabilities compute every weight and row at once,
weighing each pair through a whole tf-idf index (_PairWeights) with the same
per-row code. They are the reference: the acceptance gates check them
against the oracles, and the tests check the tabled weights against them
bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .config import DEFAULT_WALKS
from .corpus import CanonicalIR
from .errors import EmptyDatabase, IsolatedNonTerminal
from .graph import (
    AGENT_TERMINATOR,
    ROOT_ID,
    Action,
    Observation,
    ReasoningGraph,
    describe_graph,
)
from .textindex import (CorpusIdf, TermVector, TfIdfIndex, build_index, cosine,
                        term_counts)
from .tools import ToolKit

ADJ_EPSILON = 1e-6

# one text's weights under a graph's idf, for any target (see _term_table)
TermTable = tuple[tuple[tuple[str, float, float], ...], tuple[tuple[str, float], ...]]


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
    description_counts: Counter[str]
    similarity: float = 0.0


@dataclass(frozen=True)
class CountedGraph:
    """A stored graph with what retrieval needs of it for any target, built
    once per stage so many targets share it.

    `node_counts` and `idf` (over the node texts) feed the edge weights;
    `degree` and `dsts` (each source's distinct destinations, in out_actions
    order) shape the walk probabilities. The walk reads its structure from
    three tables: `succ` (each node's distinct successors, sorted), `hops`
    (each connected (src, dst) pair's action ids, and whether one of them
    is an AgentTerminator) and `terminators` (each node's AgentTerminator
    out-actions, in out_actions order).

    Three memos fill as the stage walks and go away with it: `walk_seeds`
    holds, per (seed, walks) asked for, each spawned stream's generator and
    its initial bit_generator state; `subgraphs` the ReservedGraph of each
    distinct set of reserved action ids the walks reach, so it never holds
    more entries than prunes were made; and `term_tables` the term table
    (_term_table) of each node text, keyed by node id, and of each joined
    pair text, keyed (src, dst), that a walk-probability row has read.
    """

    graph: ReasoningGraph
    node_counts: dict[str, Counter[str]]
    idf: CorpusIdf
    degree: dict[str, int]
    dsts: dict[str, list[str]]
    succ: dict[str, tuple[str, ...]]
    hops: dict[tuple[str, str], tuple[tuple[str, ...], bool]]
    terminators: dict[str, tuple[Action, ...]]
    walk_seeds: dict[tuple[int, int], list[tuple[np.random.Generator, dict]]] = field(
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
            table = self.term_tables[key] = _term_table(counts, self.idf)
        return table


def node_counts(g: ReasoningGraph) -> dict[str, Counter[str]]:
    return {nid: term_counts(g.node_text(nid)) for nid in g.nodes}


def _out_structure(g: ReasoningGraph) -> tuple[dict[str, int], dict[str, list[str]]]:
    """Each node's degree, counting every incident action of the multigraph
    (in and out, parallels included), and its distinct destinations in
    out_actions order."""
    degree = {nid: len(g.out_actions(nid)) + len(g.in_actions(nid)) for nid in g.nodes}
    dsts = {nid: list(dict.fromkeys(a.dst for a in g.out_actions(nid))) for nid in g.nodes}
    return degree, dsts


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
    tables; counted graphs pass through."""
    out = []
    for g in graphs:
        if not isinstance(g, CountedGraph):
            counts = node_counts(g)
            g = CountedGraph(g, counts, CorpusIdf.from_corpus(list(counts.values())),
                             *_out_structure(g), *_walk_tables(g))
        out.append(g)
    return out


def _term_table(counts: Counter[str], idf: CorpusIdf) -> TermTable:
    """One text's weights under a graph's idf, for any target.

    A term's weight is w_absent = count * idf.absent[term] when the target
    lacks it and w_shared = count * idf.shared[term] when the target holds
    it. The table is (term, w_absent ** 2, w_shared ** 2) in the counts'
    first-occurrence order, the order TermVector.norm sums in, and (term,
    w_shared) in sorted term order, the order TermVector.dot sums in.
    """
    squares = []
    shared = {}
    for term, count in counts.items():
        wa, ws = count * idf.absent[term], count * idf.shared[term]
        squares.append((term, wa * wa, ws * ws))
        shared[term] = ws
    return tuple(squares), tuple(sorted(shared.items()))


class _PairWeights:
    """Adjacency weights of one graph for one target, weighed pair by pair:
    how much the joined text "src dst" gains similarity to the target over
    the source text alone, floored at epsilon so every existing edge stays
    walkable. The joined counts are the sum of the two nodes' counts, since
    no token spans the joining space."""

    def __init__(self, counts: dict[str, Counter[str]],
                 vectorize: Callable[[Counter[str]], TermVector], target_vec: TermVector):
        self.counts = counts
        self.vectorize = vectorize
        self.target_vec = target_vec
        self.base: dict[str, float] = {}

    def __call__(self, src: str, dst: str) -> float:
        base = self.base.get(src)
        if base is None:
            base = self.base[src] = cosine(self.target_vec, self.vectorize(self.counts[src]))
        joined = self.counts[src] + self.counts[dst]
        gain = cosine(self.target_vec, self.vectorize(joined)) - base
        return max(0.0, gain) + ADJ_EPSILON


class _TabledWeights:
    """The _PairWeights of a counted graph for one target, read from the
    graph's term tables.

    Every float is the one _PairWeights gives under
    build_index([target] + node texts), because every sum runs over the
    same sequence: the target's norm over its weights in first-occurrence
    order, a text's norm over its table's squares (w_shared ** 2 where the
    target holds the term), and the dot over the sorted common terms.
    (Python 3.12's float `sum` is compensated, so only summing the same
    sequence with `sum` keeps the floats equal on every interpreter.)
    """

    def __init__(self, counted: CountedGraph, target: Counter[str]):
        idf = counted.idf
        self.counted = counted
        self.target = {t: c * idf.shared.get(t, idf.query_only) for t, c in target.items()}
        self.norm = math.sqrt(sum(w * w for w in self.target.values()))
        self.base: dict[str, float] = {}

    def cosine(self, table: TermTable) -> float:
        squares, shared = table
        target = self.target
        norm = math.sqrt(sum([ws if t in target else wa for t, wa, ws in squares]))
        if self.norm == 0.0 or norm == 0.0:
            return 0.0
        dot = sum([target[t] * w for t, w in shared if t in target])
        return min(1.0, dot / (self.norm * norm))

    def __call__(self, src: str, dst: str) -> float:
        base = self.base.get(src)
        if base is None:
            base = self.base[src] = self.cosine(self.counted.terms(src))
        gain = self.cosine(self.counted.terms(src, dst)) - base
        return max(0.0, gain) + ADJ_EPSILON


def build_adjacency(g: ReasoningGraph, target: str | Counter[str], index: TfIdfIndex,
                    counts: dict[str, Counter[str]] | None = None) -> AdjacencyMatrix:
    """Weight every connected node pair at once (see _PairWeights).

    `counts` are the node texts' term counts (node_counts(g) when omitted).
    """
    weigh = _PairWeights(node_counts(g) if counts is None else counts,
                         index.vectorize, index.vectorize(target))
    return AdjacencyMatrix({pair: weigh(*pair)
                            for pair in sorted({(a.src, a.dst) for a in g.edges})})


def _fill_row(probs: dict[tuple[str, str], float], src: str, dsts: list[str],
              degree: dict[str, int], weight: Callable[[str, str], float]) -> None:
    """Degree-weighted walk probabilities of src's out-edges, normalized
    over its distinct destinations; a source without any has no row."""
    if not dsts:
        return
    raw = [weight(src, dst) * (1.0 / degree[src] + 1.0 / degree[dst]) for dst in dsts]
    total = sum(raw)
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
    _weigh: _TabledWeights | None = field(default=None, repr=False)
    _rows: set[str] = field(default_factory=set, repr=False)

    def row(self, src: str) -> None:
        """Make sure src's row is in `probs`."""
        if self.counted is not None and src not in self._rows:
            self._fill(src)

    def _fill(self, src: str) -> None:
        c = self.counted
        if self._weigh is None:
            self._weigh = _TabledWeights(c, self.target)
        _fill_row(self.probs, src, c.dsts[src], c.degree, self._weigh)
        self._rows.add(src)

    def outgoing(self, src: str) -> list[tuple[str, float]]:
        self.row(src)
        return [(dst, p) for (s, dst), p in self.probs.items() if s == src]


def edge_probabilities(m: AdjacencyMatrix, g: ReasoningGraph) -> EdgeProbabilities:
    """Every row of the walk probabilities over the weights in m (see
    _fill_row)."""
    degree, dsts = _out_structure(g)
    probs: dict[tuple[str, str], float] = {}
    for src in g.nodes:
        _fill_row(probs, src, dsts[src], degree, m.weight)
    return EdgeProbabilities(probs)


def target_probabilities(counted: CountedGraph,
                         target: Counter[str]) -> EdgeProbabilities:
    """Walk probabilities of one graph for one target's term counts, filled
    row by row as walks need them; they do not depend on the walk seed.

    The idf is that of build_index([target] + node texts), tabled per graph
    (counted.idf) and read through its term tables, so no index is built.
    """
    return EdgeProbabilities({}, counted, target)


def _maximal_paths(out_map: dict[str, list[Action]]) -> list[tuple[str, ...]]:
    paths: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [(ROOT_ID,)]
    while stack:
        seq = stack.pop()
        nexts = sorted({a.dst for a in out_map.get(seq[-1], [])})
        if not nexts:
            paths.append(seq)
            continue
        for dst in nexts:
            stack.append(seq + (dst,))
    return sorted(paths)


def _choose(rng: np.random.Generator, weights: list[float]) -> int:
    """rng.choice(len(weights), p=normalized weights) without its argument
    checks: the same cumulative-sum search over the same single double, so
    the index and the generator's next state are exactly choice's."""
    w = np.array(weights)
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _step(rng: np.random.Generator, p: EdgeProbabilities, src: str,
          options: list[str]) -> str:
    """One walk step from src: options[_choose(rng, src's probabilities)].

    With one option no row is read: _choose takes it whatever its positive
    weight, after drawing one double, which is drawn here too.
    """
    if len(options) == 1:
        rng.random()
        return options[0]
    p.row(src)
    return options[_choose(rng, [p.probs[(src, v)] for v in options])]


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
    terminators read p, so only their source rows are asked for. The
    result is a pure function of the reserved action ids: a counted graph
    builds, validates and describes each distinct set once and hands the
    same ReservedGraph out again. A plain graph is counted afresh, so its
    memos last one call.
    """
    if walks < 1:
        raise ValueError("walks must be at least 1")
    counted = count_graphs([g])[0]
    g = counted.graph
    succ, hops = counted.succ, counted.hops
    reserved_nodes: dict[str, None] = {ROOT_ID: None}
    reserved_actions: dict[str, None] = {}
    for act in g.out_actions(ROOT_ID):
        reserved_nodes[act.dst] = None
        reserved_actions[act.id] = None

    def unvisited_successors(node_id: str) -> list[str]:
        return [v for v in succ.get(node_id, ()) if v not in reserved_nodes]

    streams = counted.walk_seeds.get((rng_seed, walks))
    if streams is None:
        streams = counted.walk_seeds[(rng_seed, walks)] = [
            (rng, rng.bit_generator.state) for rng in map(
                np.random.default_rng, np.random.SeedSequence(rng_seed).spawn(walks))]
    for rng, initial in streams:
        # every walk draws from its stream's start, whatever drew before
        rng.bit_generator.state = initial
        frontier = [u for u in reserved_nodes if unvisited_successors(u)]
        if not frontier:
            continue
        current = frontier[int(rng.integers(len(frontier)))]
        while True:
            options = unvisited_successors(current)
            if not options:
                break
            nxt = _step(rng, p, current, options)
            hop, terminates = hops[(current, nxt)]
            for act_id in hop:
                reserved_actions[act_id] = None
            reserved_nodes[nxt] = None
            if terminates:
                break
            current = nxt

    # closure: terminate every open reserved path when the origin graph can.
    # Every hop in out_map is reserved whole (a walk hop or a root hop), so
    # a hop holding a terminator holds a reserved one.
    out_map: dict[str, list[Action]] = {}
    for act in g.edges:
        if act.id in reserved_actions:
            out_map.setdefault(act.src, []).append(act)
    for seq in _maximal_paths(out_map):
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
            p.row(last)
            best = min(candidates, key=lambda a: (
                0 if a.dst in reserved_nodes else 1,
                -p.probs[(last, a.dst)],
                a.id))
        reserved_nodes[best.dst] = None
        reserved_actions[best.id] = None

    key = frozenset(reserved_actions)
    reserved = counted.subgraphs.get(key)
    if reserved is None:
        pruned = ReasoningGraph(g.ir_id)
        for nid, obs in g.nodes.items():
            if nid in reserved_nodes:
                pruned.add_observation(Observation.from_dict(obs.to_dict()))
        for act in g.edges:
            if act.id in reserved_actions:
                pruned.add_action(Action(act.id, act.src, act.dst, act.tool, act.argument))
        pruned.validate()
        description = describe_graph(pruned)
        reserved = counted.subgraphs[key] = ReservedGraph(
            pruned, g.ir_id, description, term_counts(description))
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


def flatten_target(target: CanonicalIR, toolkit: ToolKit | None) -> str:
    if toolkit is not None:
        return toolkit.flatten_ir(target)
    if target.title:
        return f"{target.title}\n{target.content}"
    return target.content


def retrieve_relevant(db, target: CanonicalIR, theta_sim: float,
                      walks: int = DEFAULT_WALKS, seed: int = 0,
                      toolkit: ToolKit | None = None,
                      cache: dict[tuple[str, str], EdgeProbabilities] | None = None,
                      ) -> list[ReservedGraph]:
    """Prune every stored graph for this target, keep the ones whose
    description scores strictly above theta_sim, best first.

    `db` is a GraphStore or a list of graphs; a caller retrieving for many
    targets passes count_graphs(store.load_all()) once, so no graph is
    loaded or node text counted per target, and the graphs' memos serve
    every target: each distinct reserved subgraph of a graph is described
    and counted once, and its walk seeds are spawned once per seed. The
    memos hold at most one subgraph per prune made and go away with the
    list. Similarities come from one index spanning all pruned descriptions
    plus the flattened target. Per-graph walk seeds derive from (seed,
    graph id), so results do not depend on iteration or scheduling order.

    Walk probabilities are made per (graph, target) and fill only the
    source rows that a draw among several options, or a closure among
    several terminators, reads. `cache`, when given, maps (graph id, target
    fingerprint) to that pair's EdgeProbabilities, so a caller repeating a
    target under other seeds reuses the rows already filled.
    """
    graphs = count_graphs(db.load_all() if hasattr(db, "load_all") else db)
    if not graphs:
        raise EmptyDatabase("no reasoning graphs to retrieve from")
    if not 0.0 <= theta_sim <= 1.0:
        raise ValueError("theta_sim must be in [0, 1]")
    target_text = flatten_target(target, toolkit)
    target_counts = term_counts(target_text)
    fingerprint = hashlib.sha256(target_text.encode("utf-8")).hexdigest()
    pruned: list[ReservedGraph] = []
    for counted in graphs:
        ir_id = counted.graph.ir_id
        key = (ir_id, fingerprint)
        probs = cache.get(key) if cache is not None else None
        if probs is None:
            probs = target_probabilities(counted, target_counts)
            if cache is not None:
                cache[key] = probs
        pruned.append(random_walk_prune(counted, probs, walks,
                                        graph_walk_seed(seed, ir_id)))
    index = build_index([r.description_counts for r in pruned] + [target_counts])
    target_vec = index.vectorize(target_counts)
    kept: list[ReservedGraph] = []
    for r in pruned:
        score = cosine(target_vec, index.vectorize(r.description_counts))
        if score > theta_sim:
            kept.append(replace(r, similarity=score))
    kept.sort(key=lambda r: (-r.similarity, r.origin_ir))
    return kept
