"""Agent loop that turns one issue report into a reasoning graph.

Each frontier observation gets a reasoning prompt; the parsed step either
explores more rich-text elements (tool actions to child observations) or
decides, which routes the node to a shared terminal carrying the verdict.
Each explored node keeps one record, its Path from the root. When a
golden-knowledge store is given, newly terminated paths are checked against
it and factually corrected in place when matching records exist.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field

from .config import (DEFAULT_BRANCH_LIMIT, DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES,
                     DEFAULT_THETA_SIM)
from .corpus import KIND_SCR, CanonicalIR, report_text
from .errors import CycleIntroduced, GatewayExhausted, ToolBackendUnavailable, VulrtexError
from .gateway import Gateway, LlmRequest
from .graph import (
    AGENT_TERMINATOR,
    HOP_TEMPLATE,
    ROOT_ID,
    TOOLS,
    UNDECIDED,
    VUL,
    NOT_VUL,
    Action,
    Observation,
    Path,
    ReasoningGraph,
    describe_path,
    extract_terminated_paths,
)
from .knowledge import KnowledgeStore, retrieve_golden
from .prompts import build_correction_prompt, build_reason_prompt
from .textindex import tokenize
from .tools import ANALYZER_FOR_KIND, ToolKit

log = logging.getLogger(__name__)

GOLDEN_PROMPT_CAP = 5

_VERDICT_RE = re.compile(r"vulnerability identified:\s*(yes|no|undecided)", re.IGNORECASE)
_CWE_RE = re.compile(r"CWE-\d+")
_ACTION_RE = re.compile(r"^\s*Action:\s*([A-Za-z]+)\(\s*(\[[A-Z]+\d+\])?\s*\)\s*$",
                        re.MULTILINE)
_ACTION_LINE_RE = re.compile(r"^\s*Action:", re.MULTILINE)
_OBSERVATION_RE = re.compile(
    r"Observation:\s*(.*?)(?=\n\s*(?:Action:|vulnerability identified:)|\Z)",
    re.DOTALL | re.IGNORECASE)


@dataclass
class StepParse:
    observation_text: str
    verdict: str = UNDECIDED
    cwe_id: str | None = None
    actions: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def terminates(self) -> bool:
        return any(tool == AGENT_TERMINATOR for tool, _ in self.actions)

    def deciding(self) -> bool:
        return self.verdict != UNDECIDED or self.terminates()


@dataclass
class ReasonerConfig:
    llm: Gateway | None = None
    tools: ToolKit | None = None
    store: KnowledgeStore | None = None
    max_depth: int = DEFAULT_MAX_DEPTH
    max_nodes: int = DEFAULT_MAX_NODES
    branch_limit: int = DEFAULT_BRANCH_LIMIT
    theta_sim: float = DEFAULT_THETA_SIM
    inclusion_order: bool = True

    def __post_init__(self):
        if self.max_depth < 1 or self.max_nodes < 1 or self.branch_limit < 1:
            raise ValueError("max_depth, max_nodes and branch_limit must be at least 1")


def parse_step(resp_text: str) -> StepParse:
    """Total parse of one reasoning step; malformed parts degrade to warnings.

    Zero parseable actions means the model stopped talking in the expected
    grammar, which is treated as a termination request.
    """
    warnings: list[str] = []
    verdict = UNDECIDED
    cwe_id: str | None = None
    vm = _VERDICT_RE.search(resp_text)
    if vm:
        verdict = {"yes": VUL, "no": NOT_VUL, "undecided": UNDECIDED}[vm.group(1).lower()]
    if verdict == VUL:
        cm = _CWE_RE.search(resp_text)
        cwe_id = cm.group(0) if cm else None

    actions: list[tuple[str, str]] = []
    matched_lines = 0
    for m in _ACTION_RE.finditer(resp_text):
        matched_lines += 1
        tool, tag = m.group(1), m.group(2) or ""
        if tool not in TOOLS:
            warnings.append(f"unknown tool {tool!r} skipped")
            continue
        if tool == AGENT_TERMINATOR:
            actions.append((tool, ""))
        elif tag:
            actions.append((tool, tag))
        else:
            warnings.append(f"{tool} without a tag skipped")
    total_action_lines = len(_ACTION_LINE_RE.findall(resp_text))
    if total_action_lines > matched_lines:
        warnings.append(f"{total_action_lines - matched_lines} malformed action line(s) skipped")
    if not actions:
        warnings.append("no parseable actions; treating the step as termination")
        actions = [(AGENT_TERMINATOR, "")]

    om = _OBSERVATION_RE.search(resp_text)
    observation_text = om.group(1).strip() if om else ""
    if not om:
        warnings.append("no observation block found")

    return StepParse(observation_text, verdict, cwe_id, actions, warnings)


def enforce_inclusion_order(actions: list[tuple[str, str]], unexplored_scr: frozenset[str]
                            ) -> tuple[list[tuple[str, str]], list[str]]:
    """Defer code analysis while screenshots (the tags in unexplored_scr)
    remain unexplored on this path: the actions kept, and a warning for each
    one deferred."""
    if not unexplored_scr:
        return actions, []
    kept = [(tool, tag) for tool, tag in actions if not tag.startswith("[CODE")]
    return kept, [f"deferred {tag} until screenshots are explored"
                  for _, tag in actions if tag.startswith("[CODE")]


_CORRECTION_LINE_RE = re.compile(r"^\s*(O[0-9][0-9.]*):\s*(.+?)\s*$", re.MULTILINE)


class _PathTerms:
    """Term counts of path descriptions, from token lists tabled by text.

    describe_path joins hop sentences, node ids and node texts with "; ",
    ": ", " (" and ")", none of which holds a token character, so no token
    spans a join: the counts of a description are its pieces' tokens counted
    in description order, keys in first-occurrence order included. Each
    piece is tabled by its text (a hop by the three ids that fill
    HOP_TEMPLATE), so a node text rewritten by a correction is a new key
    and is tokenized afresh.
    """

    def __init__(self):
        self._tokens: dict[object, list[str]] = {}

    def _of(self, key: object, text: str) -> list[str]:
        tokens = self._tokens.get(key)
        if tokens is None:
            tokens = self._tokens[key] = tokenize(text)
        return tokens

    def counts(self, p: Path) -> Counter[str]:
        """term_counts(describe_path(p))."""
        if not p.actions:
            text = p.nodes[0].text
            return Counter(self._of(text, text))
        tokens: list[str] = []
        for src, act, dst in zip(p.nodes, p.actions, p.nodes[1:]):
            hop = (src.id, act.id, dst.id)
            hop_tokens = self._tokens.get(hop)
            if hop_tokens is None:
                hop_tokens = self._tokens[hop] = tokenize(HOP_TEMPLATE.format(
                    src=src.id, action=act.id, dst=dst.id))
            tokens += hop_tokens
        for o in p.nodes:
            tokens += self._of(o.id, o.id)
            tokens += self._of(o.text, o.text)
        return Counter(tokens)


def correct_path(path: Path, store: KnowledgeStore, llm: Gateway,
                 theta_sim: float, terms: _PathTerms | None = None) -> Path:
    """Rewrite observation texts against golden knowledge, structure untouched.

    The correction prompt carries at most GOLDEN_PROMPT_CAP golden records.
    Responses may only rewrite texts of observations already on the path;
    anything else in the reply is ignored. A failing gateway call raises
    before any text changes. `terms` tables the pieces of path descriptions
    across calls; the path is described in full only when a record is
    retrieved.
    """
    golden = retrieve_golden(store, (terms or _PathTerms()).counts(path), theta_sim)
    if not golden:
        return path
    prompt = build_correction_prompt([g.text for g in golden[:GOLDEN_PROMPT_CAP]], describe_path(path))
    resp = llm.complete(LlmRequest(system_prompt="", user_prompt=prompt))
    by_id = {obs.id: obs for obs in path.nodes}
    for m in _CORRECTION_LINE_RE.finditer(resp.text):
        node_id, new_text = m.group(1), m.group(2)
        if node_id in by_id:
            by_id[node_id].text = new_text
    return path


def generate_reasoning_graph(ir: CanonicalIR, cfg: ReasonerConfig) -> ReasoningGraph:
    """Breadth-wise generation under depth/node/branch budgets.

    An explored node's path from the root is the reasoning context of its
    step; its actions' arguments are the elements explored on the path, and
    its length is the node's level. Terminal observations are shared per
    (verdict, cwe) so equal conclusions from sibling branches converge on
    one node, and a graph-wide map of (tool, element) results lets later
    branches link to an existing analysis instead of re-running it ("no
    repeated exploration"), unless that analysis leads back to the branch,
    whose link is then skipped. Open frontiers left by budget limits are
    closed with a terminator to a shared undecided terminal when the node
    budget still allows one. What is skipped goes into meta["warnings"]; a
    gateway that gives up on a reasoning call ends generation and marks the
    graph meta["partial"].
    """
    if cfg.llm is None or cfg.tools is None:
        raise ValueError("reasoner needs llm and tools configured")

    g = ReasoningGraph(ir.id)
    root = Observation(ROOT_ID, report_text(ir.title, ir.content))
    g.add_observation(root)

    scr_tags = frozenset(el.tag for el in ir.rich_text if el.kind == KIND_SCR)
    paths: dict[str, Path] = {ROOT_ID: Path((root,), ())}
    dedup: dict[tuple[str, str], str] = {}
    terminal_for: dict[tuple[str, str | None], str] = {}
    issued: Counter[tuple[str, int]] = Counter()

    def meta_warn(message: str) -> None:
        g.meta.setdefault("warnings", []).append(message)
        log.warning("%s: %s", ir.id, message)

    def new_id(kind: str, level: int) -> str:
        """The next id of an observation ("O") or action ("A") at level."""
        issued[kind, level] += 1
        return f"{kind}{level}.{issued[kind, level]}"

    frontier: list[str] = [ROOT_ID]
    level = 1
    path_terms = _PathTerms()

    while frontier and level < cfg.max_depth and len(g.nodes) < cfg.max_nodes:
        # (node, observation text, elements to act on, deciding step's terminal key)
        plans: list[tuple[str, str, list[tuple[str, str]],
                          tuple[str, str | None] | None]] = []
        for node_id in frontier:
            path = paths[node_id]
            prompt = build_reason_prompt(ir, path)
            try:
                resp = cfg.llm.complete(LlmRequest(system_prompt="", user_prompt=prompt))
            except GatewayExhausted as exc:
                g.meta["partial"] = True
                meta_warn(f"generation aborted at {node_id}: {exc}")
                g.validate()
                return g
            parse = parse_step(resp.text)
            deciding = parse.deciding()
            explored = {act.argument for act in path.actions}
            warnings = [w for w in parse.warnings if "skipped" in w]
            elements: list[tuple[str, str]] = []
            for tool, tag in parse.actions:
                if tool == AGENT_TERMINATOR:
                    continue
                element = ir.element_for(tag)
                if element is None:
                    warnings.append(f"unknown element {tag} skipped")
                elif tool != ANALYZER_FOR_KIND[element.kind]:
                    warnings.append(f"{tool} cannot analyze {tag}; skipped")
                elif tag in explored:
                    warnings.append(f"{tag} already explored on this path; skipped")
                elif (tool, tag) not in elements:
                    elements.append((tool, tag))
            # ordering constrains exploration only; a deciding step may still
            # cite code elements as evidence for its verdict
            if cfg.inclusion_order and not deciding:
                elements, deferred = enforce_inclusion_order(elements, scr_tags - explored)
                warnings += deferred
            for w in warnings:
                meta_warn(f"{node_id}: {w}")
            # a deciding step spends one branch on its terminator
            elements = elements[:cfg.branch_limit - deciding]
            key = (parse.verdict, parse.cwe_id) if deciding else None
            plans.append((node_id, parse.observation_text, elements, key))

        next_level = level + 1
        new_frontier: list[str] = []
        new_terminator_ids: set[str] = set()

        # terminator edges first so their ids precede tool edges of this level
        for node_id, text, elements, key in plans:
            if key is None:
                continue
            terminal_id = terminal_for.get(key)
            if terminal_id is None:
                if len(g.nodes) >= cfg.max_nodes:
                    meta_warn(f"{node_id}: node budget blocks its terminal; left open")
                    continue
                terminal_id = terminal_for[key] = new_id("O", next_level)
                g.add_observation(Observation(
                    terminal_id, text, focus_tags=[tag for _, tag in elements],
                    verdict=key[0], cwe_id=key[1]))
            aid = new_id("A", level)
            g.add_action(Action(aid, node_id, terminal_id, AGENT_TERMINATOR))
            new_terminator_ids.add(aid)

        # a deciding step links its cited elements to its terminal; any other
        # links each element to the graph's one analysis of it, made on first use
        for node_id, _, elements, key in plans:
            if key is not None and key not in terminal_for:
                continue  # its terminal was left out for the node budget
            path = paths[node_id]
            for tool, tag in elements:
                dst = terminal_for[key] if key else dedup.get((tool, tag))
                fresh = dst is None
                if fresh:
                    if len(g.nodes) >= cfg.max_nodes:
                        meta_warn(f"{node_id}: node budget reached; {tag} not explored")
                        continue
                    try:
                        output = cfg.tools.run_tool(ir.element_for(tag))
                    except ToolBackendUnavailable as exc:
                        output = ""
                        meta_warn(f"{node_id}: {tool}({tag}) unavailable: {exc}")
                    dst = dedup[(tool, tag)] = new_id("O", next_level)
                    g.add_observation(Observation(dst, f"{tool}({tag}): {output}",
                                                  focus_tags=[tag]))
                act = Action(new_id("A", level), node_id, dst, tool, tag)
                try:
                    g.add_action(act)
                except CycleIntroduced:
                    issued["A", level] -= 1  # the id goes to the next action
                    meta_warn(f"{node_id}: {tool}({tag}) links back to ancestor {dst}; skipped")
                    continue
                if fresh:
                    paths[dst] = Path(path.nodes + (g.nodes[dst],), path.actions + (act,))
                    new_frontier.append(dst)

        if cfg.store is not None and new_terminator_ids:
            for p in extract_terminated_paths(g):
                if p.actions and p.actions[-1].id in new_terminator_ids:
                    try:
                        correct_path(p, cfg.store, cfg.llm, cfg.theta_sim, terms=path_terms)
                    except VulrtexError as exc:
                        meta_warn(f"correction failed, keeping original path: {exc}")

        frontier = new_frontier
        level = next_level

    # close whatever explored node never reached a decision
    open_nodes = [nid for nid in paths if g.is_terminal(nid)]
    if open_nodes:
        if len(g.nodes) < cfg.max_nodes:
            terminal_id = terminal_for.get((UNDECIDED, None))
            if terminal_id is None:
                terminal_id = new_id("O", max(len(paths[n].nodes) for n in open_nodes) + 1)
                g.add_observation(Observation(terminal_id, "reasoning stopped before a verdict"))
            for nid in open_nodes:
                g.add_action(Action(new_id("A", len(paths[nid].nodes)), nid, terminal_id,
                                    AGENT_TERMINATOR))
        else:
            meta_warn("node budget exhausted; open frontiers left unterminated")

    g.validate()
    return g
