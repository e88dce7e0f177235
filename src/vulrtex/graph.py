"""Reasoning graphs: observation nodes joined by tool/terminator actions.

A graph records how the rich-text elements of one issue report were explored.
It is a rooted DAG built once by the reasoner and immutable afterwards; every
read operation here is pure. Terminal observations (no outgoing actions) are
the only ones allowed to carry a decided verdict. maximal_paths is the one
enumerator of root paths: extract_terminated_paths and the closure of the
retrieval walk both list paths through it.
"""

from __future__ import annotations

import json
import urllib.parse
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from .errors import CycleIntroduced, DanglingEndpoint, DuplicateId

ROOT_ID = "O1"

SCR_ANALYZER = "ScrAnalyzer"
CODE_ANALYZER = "CodeAnalyzer"
AGENT_TERMINATOR = "AgentTerminator"
TOOLS = (SCR_ANALYZER, CODE_ANALYZER, AGENT_TERMINATOR)

UNDECIDED = "undecided"
VUL = "vul"
NOT_VUL = "not_vul"
VERDICTS = (UNDECIDED, VUL, NOT_VUL)

GRAPH_SCHEMA_VERSION = 1

# Template for turning one reasoning hop into prose; retrieval and factual
# correction both run text similarity over these renderings, so the wording
# is part of the on-disk contract and must not drift.
HOP_TEMPLATE = (
    "from the observation {src}, we ask LLM to take the action {action}, "
    "and the next operation is {dst}"
)


@dataclass
class Observation:
    id: str
    text: str
    focus_tags: list[str] = field(default_factory=list)
    verdict: str = UNDECIDED
    cwe_id: str | None = None

    def decided(self) -> bool:
        return self.verdict != UNDECIDED

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "focus_tags": list(self.focus_tags),
            "verdict": self.verdict,
            "cwe_id": self.cwe_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Observation":
        return cls(d["id"], d["text"], list(d.get("focus_tags", [])),
                   d.get("verdict", UNDECIDED), d.get("cwe_id"))


@dataclass
class Action:
    id: str
    src: str
    dst: str
    tool: str
    argument: str = ""

    def quadruple(self) -> tuple[str, str, str, str]:
        return (self.src, self.dst, self.tool, self.argument)

    def to_dict(self) -> dict:
        return {"id": self.id, "src": self.src, "dst": self.dst,
                "tool": self.tool, "argument": self.argument}

    @classmethod
    def from_dict(cls, d: dict) -> "Action":
        return cls(d["id"], d["src"], d["dst"], d["tool"], d.get("argument", ""))


@dataclass
class Path:
    """Alternating observation/action sequence starting at the root."""

    nodes: tuple[Observation, ...]
    actions: tuple[Action, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.actions) + 1:
            raise ValueError("path must interleave n+1 observations with n actions")

    def node_ids(self) -> tuple[str, ...]:
        return tuple(o.id for o in self.nodes)

    def steps(self) -> tuple[str, ...]:
        out: list[str] = [self.nodes[0].id]
        for act, node in zip(self.actions, self.nodes[1:]):
            out.append(act.id)
            out.append(node.id)
        return tuple(out)

    def terminated(self) -> bool:
        if not self.actions:
            return self.nodes[-1].decided()
        return self.actions[-1].tool == AGENT_TERMINATOR or self.nodes[-1].decided()


class ReasoningGraph:
    """Insertion-ordered node/edge store with DAG enforcement on insert."""

    def __init__(self, ir_id: str):
        self.ir_id = ir_id
        self.nodes: dict[str, Observation] = {}
        self.edges: list[Action] = []
        self.meta: dict = {}
        self._out: dict[str, list[Action]] = {}
        self._in: dict[str, list[Action]] = {}
        self._edge_ids: set[str] = set()
        self._quadruples: set[tuple[str, str, str, str]] = set()

    def add_observation(self, obs: Observation) -> None:
        if obs.id in self.nodes:
            raise DuplicateId(f"observation {obs.id} already present")
        self.nodes[obs.id] = obs
        self._out.setdefault(obs.id, [])
        self._in.setdefault(obs.id, [])

    def add_action(self, act: Action) -> None:
        if act.id in self._edge_ids:
            raise DuplicateId(f"action {act.id} already present")
        if act.src not in self.nodes or act.dst not in self.nodes:
            raise DanglingEndpoint(f"action {act.id}: {act.src}->{act.dst} references a missing node")
        if act.quadruple() in self._quadruples:
            raise DuplicateId(f"duplicate action {act.src}->{act.dst} via {act.tool}({act.argument})")
        if act.src in self._reachable(act.dst):
            raise CycleIntroduced(f"action {act.id}: {act.src}->{act.dst} would close a cycle")
        self.edges.append(act)
        self._edge_ids.add(act.id)
        self._quadruples.add(act.quadruple())
        self._out[act.src].append(act)
        self._in[act.dst].append(act)

    def _reachable(self, start: str) -> set[str]:
        """The nodes reachable from start, start included."""
        seen: set[str] = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur not in seen:
                seen.add(cur)
                stack.extend(a.dst for a in self._out.get(cur, ()))
        return seen

    def out_actions(self, node_id: str) -> list[Action]:
        return list(self._out.get(node_id, ()))

    def in_actions(self, node_id: str) -> list[Action]:
        return list(self._in.get(node_id, ()))

    def successors(self, node_id: str) -> list[str]:
        seen: dict[str, None] = {}
        for a in self._out.get(node_id, ()):
            seen.setdefault(a.dst, None)
        return sorted(seen)

    def is_terminal(self, node_id: str) -> bool:
        return not self._out.get(node_id)

    def node_text(self, node_id: str) -> str:
        return self.nodes[node_id].text

    def validate(self) -> None:
        """Raise ValueError if any structural invariant is broken."""
        if ROOT_ID not in self.nodes:
            raise ValueError(f"graph {self.ir_id}: no root {ROOT_ID}")
        unreachable = set(self.nodes) - self._reachable(ROOT_ID)
        if unreachable:
            raise ValueError(f"graph {self.ir_id}: unreachable nodes {sorted(unreachable)}")
        for obs in self.nodes.values():
            if obs.decided() and not self.is_terminal(obs.id):
                raise ValueError(f"graph {self.ir_id}: non-terminal {obs.id} has a decided verdict")
        for act in self.edges:
            if act.tool == AGENT_TERMINATOR and not self.is_terminal(act.dst):
                raise ValueError(f"graph {self.ir_id}: terminator {act.id} targets non-terminal {act.dst}")

    def to_dict(self) -> dict:
        return {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "ir_id": self.ir_id,
            "nodes": [o.to_dict() for o in self.nodes.values()],
            "edges": [a.to_dict() for a in self.edges],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReasoningGraph":
        g = cls(d["ir_id"])
        for nd in d["nodes"]:
            g.add_observation(Observation.from_dict(nd))
        for ed in d["edges"]:
            g.add_action(Action.from_dict(ed))
        g.meta = dict(d.get("meta", {}))
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReasoningGraph):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def maximal_paths(successors: Mapping[str, Sequence[str]]) -> Iterator[tuple[str, ...]]:
    """Every path from the root to a node without successors, as node ids,
    in lexicographic order. `successors` maps a node to its successors,
    sorted and without repeats; a node it lacks has none.

    The depth-first walk takes successors in order and no such path is a
    prefix of another, so it meets the paths sorted. It keeps an explicit
    stack, so it leaves no reference cycle behind for the garbage collector.
    """
    stack: list[tuple[str, ...]] = [(ROOT_ID,)]
    while stack:
        seq = stack.pop()
        nexts = successors.get(seq[-1])
        if not nexts:
            yield seq
            continue
        stack.extend(seq + (nxt,) for nxt in reversed(nexts))


def extract_terminated_paths(g: ReasoningGraph) -> list[Path]:
    """All root-to-end paths that reached a termination, in maximal_paths
    order.

    Paths are keyed by their node sequence: where parallel actions join the
    same pair of observations, the first terminator action (else the
    smallest action id) represents the hop. A path counts as terminated
    when its last hop is an AgentTerminator action or its last node carries
    a decided verdict; dead ends that just ran out of actions are dropped.
    """
    if ROOT_ID not in g.nodes:
        return []
    hops: dict[tuple[str, str], Action] = {}
    for a in g.edges:
        rep = hops.get((a.src, a.dst))
        if rep is None or (rep.tool != AGENT_TERMINATOR
                           and (a.tool == AGENT_TERMINATOR or a.id < rep.id)):
            hops[a.src, a.dst] = a
    succ: dict[str, list[str]] = {}
    for src, dst in sorted(hops):
        succ.setdefault(src, []).append(dst)
    paths: list[Path] = []
    for seq in maximal_paths(succ):
        p = Path(tuple(g.nodes[n] for n in seq), tuple(map(hops.get, zip(seq, seq[1:]))))
        if p.terminated():
            paths.append(p)
    return paths


def describe_path(p: Path) -> str:
    """Fixed-template prose for one path (see HOP_TEMPLATE)."""
    if not p.actions:
        return p.nodes[0].text
    hops = [
        HOP_TEMPLATE.format(src=p.nodes[i].id, action=p.actions[i].id, dst=p.nodes[i + 1].id)
        for i in range(len(p.actions))
    ]
    notes = "; ".join(f"{o.id}: {o.text}" for o in p.nodes)
    return "; ".join(hops) + f" ({notes})"


def describe_graph(g: ReasoningGraph) -> str:
    """One line per terminated path, in extract_terminated_paths order."""
    return "\n".join(describe_path(p) for p in extract_terminated_paths(g))


def graph_filename(ir_id: str) -> str:
    return urllib.parse.quote(ir_id, safe="") + ".json"


class GraphStore:
    """Reasoning-database directory: graphs/<ir_id>.json plus manifest.json."""

    def __init__(self, db_dir: str | FsPath):
        self.db_dir = FsPath(db_dir)
        self.graphs_dir = self.db_dir / "graphs"

    def save(self, g: ReasoningGraph) -> FsPath:
        self.graphs_dir.mkdir(parents=True, exist_ok=True)
        path = self.graphs_dir / graph_filename(g.ir_id)
        # compact, so that json's C encoder writes it
        path.write_text(json.dumps(g.to_dict(), sort_keys=True) + "\n", encoding="utf-8")
        return path

    def load(self, ir_id: str) -> ReasoningGraph:
        """The graph saved under ir_id; a file that is not a graph, or is
        the graph of another id, raises a ValueError naming it."""
        path = self.graphs_dir / graph_filename(ir_id)
        try:
            g = ReasoningGraph.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (ValueError, KeyError, TypeError,
                DuplicateId, DanglingEndpoint, CycleIntroduced) as exc:
            raise ValueError(f"{path}: not a reasoning graph: {type(exc).__name__}: {exc}") from exc
        if g.ir_id != ir_id:
            raise ValueError(f"{path}: holds the graph of {g.ir_id!r}, not of {ir_id!r}")
        return g

    def ir_ids(self) -> list[str]:
        if not self.graphs_dir.is_dir():
            return []
        ids = [urllib.parse.unquote(p.name[:-len(".json")])
               for p in self.graphs_dir.glob("*.json")]
        return sorted(ids)

    def load_all(self) -> list[ReasoningGraph]:
        return [self.load(ir_id) for ir_id in self.ir_ids()]

    def write_manifest(self, manifest: dict) -> None:
        self.db_dir.mkdir(parents=True, exist_ok=True)
        payload = dict(manifest)
        payload.setdefault("schema_version", GRAPH_SCHEMA_VERSION)
        payload["count"] = len(self.ir_ids())
        (self.db_dir / "manifest.json").write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")

    def read_manifest(self) -> dict:
        return json.loads((self.db_dir / "manifest.json").read_text(encoding="utf-8"))
