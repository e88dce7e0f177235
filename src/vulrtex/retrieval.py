"""Target-conditioned pruning of stored reasoning graphs and their retrieval.

For one target report, every stored graph is weighted edge-by-edge against
the target text, walked down to a reserved subgraph, described as text, and
kept when the description's similarity to the target clears the threshold.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import Counter
from dataclasses import dataclass, replace

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
from .textindex import TfIdfIndex, build_index, cosine, term_counts
from .tools import ToolKit

ADJ_EPSILON = 1e-6


@dataclass
class AdjacencyMatrix:
    node_ids: list[str]
    weights: np.ndarray

    def __post_init__(self):
        self._pos = {nid: k for k, nid in enumerate(self.node_ids)}

    def weight(self, src: str, dst: str) -> float:
        return float(self.weights[self._pos[src], self._pos[dst]])


@dataclass
class EdgeProbabilities:
    probs: dict[tuple[str, str], float]

    def outgoing(self, src: str) -> list[tuple[str, float]]:
        return [(dst, p) for (s, dst), p in self.probs.items() if s == src]


@dataclass(frozen=True)
class ReservedGraph:
    graph: ReasoningGraph
    origin_ir: str
    description: str
    similarity: float = 0.0


@dataclass(frozen=True)
class CountedGraph:
    """A stored graph with the term counts of its node texts, so retrieval
    for many targets tokenizes each node text once."""

    graph: ReasoningGraph
    node_counts: dict[str, Counter[str]]


def node_counts(g: ReasoningGraph) -> dict[str, Counter[str]]:
    return {nid: term_counts(g.node_text(nid)) for nid in g.nodes}


def count_graphs(graphs) -> list[CountedGraph]:
    """Pair every graph with its node counts; counted graphs pass through."""
    return [g if isinstance(g, CountedGraph) else CountedGraph(g, node_counts(g))
            for g in graphs]


def build_adjacency(g: ReasoningGraph, target: str | Counter[str], index: TfIdfIndex,
                    counts: dict[str, Counter[str]] | None = None) -> AdjacencyMatrix:
    """Weight each connected node pair by how much the joined text gains
    similarity to the target over the source text alone, floored at epsilon
    so every existing edge stays walkable.

    `counts` are the node texts' term counts (node_counts(g) when omitted).
    A pair's joined text is "src dst"; its counts are the sum of the two
    nodes' counts, since no token spans the joining space.
    """
    if counts is None:
        counts = node_counts(g)
    node_ids = list(g.nodes)
    pos = {nid: k for k, nid in enumerate(node_ids)}
    weights = np.zeros((len(node_ids), len(node_ids)))
    target_vec = index.vectorize(target)
    base = {nid: cosine(target_vec, index.vectorize(counts[nid])) for nid in node_ids}
    pairs = sorted({(a.src, a.dst) for a in g.edges})
    for src, dst in pairs:
        joined = counts[src] + counts[dst]
        gain = cosine(target_vec, index.vectorize(joined)) - base[src]
        weights[pos[src], pos[dst]] = max(0.0, gain) + ADJ_EPSILON
    return AdjacencyMatrix(node_ids, weights)


def edge_probabilities(m: AdjacencyMatrix, g: ReasoningGraph) -> EdgeProbabilities:
    """Degree-weighted walk probabilities, normalized per source node.

    Degree counts every incident action of the multigraph, in and out,
    parallels included.
    """
    deg = {nid: len(g.out_actions(nid)) + len(g.in_actions(nid)) for nid in g.nodes}
    probs: dict[tuple[str, str], float] = {}
    for src in g.nodes:
        dsts: list[str] = []
        for act in g.out_actions(src):
            if act.dst not in dsts:
                dsts.append(act.dst)
        if not dsts:
            continue
        raw = [m.weight(src, dst) * (1.0 / deg[src] + 1.0 / deg[dst]) for dst in dsts]
        total = sum(raw)
        if total <= 0.0:
            raise IsolatedNonTerminal(
                f"node {src} has zero outgoing raw mass; matrix misaligned with graph")
        for dst, r in zip(dsts, raw):
            probs[(src, dst)] = r / total
    return EdgeProbabilities(probs)


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


def random_walk_prune(g: ReasoningGraph, p: EdgeProbabilities, walks: int,
                      rng_seed: int) -> ReservedGraph:
    """Reserve a rooted subgraph by seeded random walks.

    The root and all of its direct children are adopted up front. Each walk
    starts from a uniformly chosen visited node that still has unvisited
    successors and samples forward by p, renormalized over the unvisited
    ones, until it traverses a terminator hop or dead-ends; traversing a hop
    reserves every parallel action on it. Reserved paths that still lack a
    termination are closed with the cheapest terminator action the origin
    graph offers from their last node, preferring one whose target is
    already reserved, then the higher-probability one.
    """
    if walks < 1:
        raise ValueError("walks must be at least 1")
    reserved_nodes: dict[str, None] = {ROOT_ID: None}
    reserved_actions: dict[str, None] = {}
    for act in g.out_actions(ROOT_ID):
        reserved_nodes[act.dst] = None
        reserved_actions[act.id] = None

    def unvisited_successors(node_id: str) -> list[str]:
        return [v for v in g.successors(node_id) if v not in reserved_nodes]

    for stream in np.random.SeedSequence(rng_seed).spawn(walks):
        rng = np.random.default_rng(stream)
        frontier = [u for u in reserved_nodes if unvisited_successors(u)]
        if not frontier:
            continue
        current = frontier[int(rng.integers(len(frontier)))]
        while True:
            options = unvisited_successors(current)
            if not options:
                break
            nxt = options[_choose(rng, [p.probs[(current, v)] for v in options])]
            hop = g.actions_between(current, nxt)
            for act in hop:
                reserved_actions[act.id] = None
            reserved_nodes[nxt] = None
            if any(act.tool == AGENT_TERMINATOR for act in hop):
                break
            current = nxt

    # closure: terminate every open reserved path when the origin graph can
    out_map: dict[str, list[Action]] = {}
    for act in g.edges:
        if act.id in reserved_actions:
            out_map.setdefault(act.src, []).append(act)
    for seq in _maximal_paths(out_map):
        last = seq[-1]
        if g.nodes[last].decided():
            continue
        if len(seq) > 1 and any(a.tool == AGENT_TERMINATOR and a.id in reserved_actions
                                for a in g.actions_between(seq[-2], last)):
            continue
        candidates = [a for a in g.out_actions(last) if a.tool == AGENT_TERMINATOR]
        if not candidates:
            continue
        best = min(candidates, key=lambda a: (
            0 if a.dst in reserved_nodes else 1,
            -p.probs.get((last, a.dst), 0.0),
            a.id))
        reserved_nodes[best.dst] = None
        reserved_actions[best.id] = None

    pruned = ReasoningGraph(g.ir_id)
    for nid, obs in g.nodes.items():
        if nid in reserved_nodes:
            pruned.add_observation(Observation.from_dict(obs.to_dict()))
    for act in g.edges:
        if act.id in reserved_actions:
            pruned.add_action(Action(act.id, act.src, act.dst, act.tool, act.argument))
    pruned.validate()
    return ReservedGraph(pruned, g.ir_id, describe_graph(pruned))


def target_probabilities(counted: CountedGraph,
                         target: Counter[str]) -> EdgeProbabilities:
    """Index, adjacency, and walk probabilities of one graph for one target's
    term counts; they do not depend on the walk seed."""
    index = build_index([target] + list(counted.node_counts.values()))
    adj = build_adjacency(counted.graph, target, index, counted.node_counts)
    return edge_probabilities(adj, counted.graph)


def prune_for_target(g: ReasoningGraph | CountedGraph, target: str | Counter[str],
                     walks: int, rng_seed: int) -> ReservedGraph:
    """Probabilities and walk pruning in one step; the target is its text or
    its term counts."""
    counted = count_graphs([g])[0]
    if isinstance(target, str):
        target = term_counts(target)
    probs = target_probabilities(counted, target)
    return random_walk_prune(counted.graph, probs, walks, rng_seed)


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
    loaded or node text counted per target. Similarities come from one
    index spanning all pruned descriptions plus the flattened target.
    Per-graph walk seeds derive from (seed, graph id), so results do not
    depend on iteration or scheduling order.

    `cache`, when given, maps (graph id, target fingerprint) to that pair's
    EdgeProbabilities, so a caller repeating a target under other seeds
    walks each graph again without weighting it again.
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
        pruned.append(random_walk_prune(counted.graph, probs, walks,
                                        graph_walk_seed(seed, ir_id)))
    description_counts = [term_counts(r.description) for r in pruned]
    index = build_index(description_counts + [target_counts])
    target_vec = index.vectorize(target_counts)
    kept: list[ReservedGraph] = []
    for r, counts in zip(pruned, description_counts):
        score = cosine(target_vec, index.vectorize(counts))
        if score > theta_sim:
            kept.append(replace(r, similarity=score))
    kept.sort(key=lambda r: (-r.similarity, r.origin_ir))
    return kept
