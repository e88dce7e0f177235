"""Hand-built fixture objects shared by several test modules."""

from __future__ import annotations

import random
from pathlib import Path

from vulrtex.corpus import CanonicalIR, RichTextElement
from vulrtex.gateway import StubRule
from vulrtex.graph import (
    AGENT_TERMINATOR,
    CODE_ANALYZER,
    SCR_ANALYZER,
    NOT_VUL,
    VUL,
    Action,
    Observation,
    ReasoningGraph,
)
from vulrtex.tools import sidecar_filename

FIG_NODE_TEXTS = {
    "O1": ("the report shows stored xss in the ticket title with four screenshots "
           "[SCR1] [SCR2] [SCR3] [SCR4] and three code snippets [CODE1] [CODE2] [CODE3]"),
    "O2.1": "screenshot [SCR1] shows the injected script tag rendered inside the ticket title field",
    "O2.2": "screenshot [SCR2] shows an alert dialog fired on the ticket list page",
    "O2.3": "screenshot [SCR3] shows the settings page without any injected content",
    "O2.4": "screenshot [SCR4] shows the payload stored and echoed on the public ticket page",
    "O3.1": "the payload executes whenever the ticket page renders, stored cross-site scripting, CWE-79",
    "O3.2": "the remaining screenshots show no executable payload, so this branch is not a vulnerability",
}


def build_fig_graph() -> ReasoningGraph:
    """Seven observations, ten actions, four terminated paths.

    Four screenshot analyses branch from the root; two shared terminals carry
    the verdicts, with two extra code-evidence actions running parallel to
    terminator actions.
    """
    g = ReasoningGraph("fixture/fig#1")
    g.add_observation(Observation("O1", FIG_NODE_TEXTS["O1"]))
    for i in (1, 2, 3, 4):
        g.add_observation(Observation(f"O2.{i}", FIG_NODE_TEXTS[f"O2.{i}"],
                                      focus_tags=[f"[SCR{i}]"]))
    g.add_observation(Observation("O3.1", FIG_NODE_TEXTS["O3.1"],
                                  focus_tags=["[CODE1]"], verdict=VUL, cwe_id="CWE-79"))
    g.add_observation(Observation("O3.2", FIG_NODE_TEXTS["O3.2"],
                                  focus_tags=["[CODE3]"], verdict=NOT_VUL))
    for i in (1, 2, 3, 4):
        g.add_action(Action(f"A1.{i}", "O1", f"O2.{i}", SCR_ANALYZER, f"[SCR{i}]"))
    g.add_action(Action("A2.1", "O2.1", "O3.1", AGENT_TERMINATOR))
    g.add_action(Action("A2.2", "O2.2", "O3.1", AGENT_TERMINATOR))
    g.add_action(Action("A2.3", "O2.3", "O3.2", AGENT_TERMINATOR))
    g.add_action(Action("A2.4", "O2.4", "O3.2", AGENT_TERMINATOR))
    g.add_action(Action("A2.5", "O2.1", "O3.1", CODE_ANALYZER, "[CODE1]"))
    g.add_action(Action("A2.6", "O2.4", "O3.2", CODE_ANALYZER, "[CODE3]"))
    g.validate()
    return g


FIG_SCR_PAYLOADS = {f"[SCR{i}]": f"https://fig.test/scr{i}.png" for i in (1, 2, 3, 4)}

FIG_SCR_TEXTS = {
    "[SCR1]": "the injected script tag rendered inside the ticket title field",
    "[SCR2]": "an alert dialog fired on the ticket list page",
    "[SCR3]": "the settings page without any injected content",
    "[SCR4]": "the payload stored and echoed on the public ticket page",
}

FIG_CODE_PAYLOADS = {
    "[CODE1]": "<?php echo $_POST['title']; ?>",
    "[CODE2]": "<?php $tickets = load_tickets($user); ?>",
    "[CODE3]": "<?php echo htmlspecialchars($_POST['note']); ?>",
}


def fig_ir() -> CanonicalIR:
    """The issue report whose scripted reasoning yields the reference graph."""
    rich = [RichTextElement("SCR", tag, FIG_SCR_PAYLOADS[tag])
            for tag in sorted(FIG_SCR_PAYLOADS)]
    rich += [RichTextElement("CODE", tag, FIG_CODE_PAYLOADS[tag])
             for tag in sorted(FIG_CODE_PAYLOADS)]
    return CanonicalIR(
        id="fixture/fig#1",
        title="stored xss in the ticket title",
        content=("saving a ticket whose title contains a script tag stores the raw "
                 "payload; four screenshots [SCR1] [SCR2] [SCR3] [SCR4] and three "
                 "snippets [CODE1] [CODE2] [CODE3] document the behavior"),
        rich_text=rich, label_vul=True, cwe_id="CWE-79")


def write_fig_sidecars(fixtures_dir: str | Path) -> None:
    d = Path(fixtures_dir)
    d.mkdir(parents=True, exist_ok=True)
    for tag, url in FIG_SCR_PAYLOADS.items():
        (d / sidecar_filename(url)).write_text(FIG_SCR_TEXTS[tag], encoding="utf-8")


def fig_reason_rules() -> list[StubRule]:
    """Scripted steps that regrow the reference graph from fig_ir().

    Rules for the deeper steps come first; each is keyed on the final hop of
    the serialized context path, which names the frontier node uniquely.
    """
    return [
        StubRule(r"the next operation is O2\.1 \(",
                 "Observation: the stored payload executes when the ticket page renders, "
                 "a stored cross-site scripting flaw\n"
                 "vulnerability identified: Yes CWE-79\n"
                 "Action: CodeAnalyzer([CODE1])\n"
                 "Action: AgentTerminator()"),
        StubRule(r"the next operation is O2\.2 \(",
                 "Observation: the alert dialog confirms script execution in the list page\n"
                 "vulnerability identified: Yes CWE-79\n"
                 "Action: AgentTerminator()"),
        StubRule(r"the next operation is O2\.3 \(",
                 "Observation: the settings page renders nothing attacker-controlled\n"
                 "vulnerability identified: No\n"
                 "Action: AgentTerminator()"),
        StubRule(r"the next operation is O2\.4 \(",
                 "Observation: the note field is escaped before output, so this echo is safe\n"
                 "vulnerability identified: No\n"
                 "Action: CodeAnalyzer([CODE3])\n"
                 "Action: AgentTerminator()"),
        StubRule(r"IR title: stored xss in the ticket title",
                 "Observation: the report claims script execution, so inspect every screenshot\n"
                 "vulnerability identified: Undecided\n"
                 "Action: ScrAnalyzer([SCR1])\n"
                 "Action: ScrAnalyzer([SCR2])\n"
                 "Action: ScrAnalyzer([SCR3])\n"
                 "Action: ScrAnalyzer([SCR4])"),
    ]


ORDERING_FAMILY_SIZE = 10


def ordering_family_ir(i: int) -> CanonicalIR:
    """One screenshot plus two code snippets; the screenshot alone settles it."""
    return CanonicalIR(
        id=f"fixture/ordering#{i}",
        title=f"ordering case {i}",
        content=(f"report {i} shows a reflected payload in screenshot [SCR1]; the "
                 "snippets [CODE1] and [CODE2] show the unescaped sink"),
        rich_text=[
            RichTextElement("SCR", "[SCR1]", f"https://fam.test/case{i}.png"),
            RichTextElement("CODE", "[CODE1]", f"<?php echo $_GET['q{i}']; ?>"),
            RichTextElement("CODE", "[CODE2]", f"<?php $row = fetch({i}); ?>"),
        ],
        label_vul=True, cwe_id="CWE-79")


def write_ordering_family_sidecars(fixtures_dir: str | Path) -> None:
    d = Path(fixtures_dir)
    d.mkdir(parents=True, exist_ok=True)
    for i in range(1, ORDERING_FAMILY_SIZE + 1):
        (d / sidecar_filename(f"https://fam.test/case{i}.png")).write_text(
            f"the query parameter echoed verbatim into page {i}", encoding="utf-8")


def ordering_family_rules() -> list[StubRule]:
    """Steps for every family member, valid with ordering on or off.

    The root step proposes the screenshot and both snippets; only the
    screenshot branch reaches a positive verdict, the code branches end
    negative. With ordering enforced the code branches never open.
    """
    rules: list[StubRule] = []
    for i in range(1, ORDERING_FAMILY_SIZE + 1):
        scoped = rf"IR title: ordering case {i}\n.*"
        # the screenshot action is listed first in the root step, so its child
        # is O2.1 whether or not the code actions survive the ordering filter
        rules.append(StubRule(
            scoped + r"the next operation is O2\.1 \(",
            f"Observation: the screenshot proves reflection of q{i} without escaping\n"
            "vulnerability identified: Yes CWE-79\n"
            "Action: AgentTerminator()"))
        rules.append(StubRule(
            scoped + r"the next operation is O2\.2 \(",
            "Observation: the sink exists but this snippet alone is inconclusive\n"
            "vulnerability identified: No\n"
            "Action: AgentTerminator()"))
        rules.append(StubRule(
            scoped + r"the next operation is O2\.3 \(",
            "Observation: the fetch helper does not touch the response\n"
            "vulnerability identified: No\n"
            "Action: AgentTerminator()"))
        rules.append(StubRule(
            rf"IR title: ordering case {i}\n",
            f"Observation: case {i} needs the screenshot and both snippets reviewed\n"
            "vulnerability identified: Undecided\n"
            "Action: ScrAnalyzer([SCR1])\n"
            "Action: CodeAnalyzer([CODE1])\n"
            "Action: CodeAnalyzer([CODE2])"))
    return rules


WORDS = ["xss", "sql", "payload", "page", "token", "form", "script", "header",
         "overflow", "login", "session", "cookie", "request", "input", "filter"]


def random_dag(rng: random.Random, max_nodes: int = 15) -> ReasoningGraph:
    """Random rooted DAG with authored texts; edges respect creation order."""
    n = rng.randint(2, max_nodes)
    g = ReasoningGraph(f"fixture/rand#{rng.randint(0, 10**6)}")
    ids = ["O1"] + [f"O2.{i}" for i in range(1, n)]
    for node_id in ids:
        text = " ".join(rng.choices(WORDS, k=rng.randint(3, 8)))
        g.add_observation(Observation(node_id, text))
    for j in range(1, n):
        # every node gets one parent among earlier nodes, keeping it reachable
        parent = ids[rng.randrange(j)]
        tool = rng.choice([SCR_ANALYZER, CODE_ANALYZER])
        g.add_action(Action(f"E{j}", parent, ids[j], tool, f"[SCR{j}]"))
    extra = rng.randint(0, n)
    k = 0
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        if a > b:
            a, b = b, a
        src, dst = ids[a], ids[b]
        if g.actions_between(src, dst):
            continue
        g.add_action(Action(f"X{k}", src, dst, rng.choice([SCR_ANALYZER, CODE_ANALYZER]),
                            f"[CODE{k + 1}]"))
        k += 1
    for node_id in ids:
        if g.is_terminal(node_id):
            g.nodes[node_id].verdict = rng.choice([VUL, NOT_VUL])
    g.validate()
    return g


def terminated_dag(rng: random.Random, max_nodes: int = 15) -> ReasoningGraph:
    """Random rooted DAG whose paths end in AgentTerminator actions into one
    to three shared verdict terminals.

    The inner nodes are those of random_dag without verdicts. Each inner
    node gets terminators into a random subset of the terminals (never an
    empty one when it has no other out-action), some of them with a
    parallel CodeAnalyzer action, so closures meet several terminator
    candidates and walk hops hold several actions.
    """
    inner = random_dag(rng, max_nodes)
    g = ReasoningGraph(inner.ir_id.replace("rand", "terminated"))
    for obs in inner.nodes.values():
        g.add_observation(Observation(obs.id, obs.text))
    for act in inner.edges:
        g.add_action(act)
    inner_ids = list(g.nodes)
    terminals = [f"O3.{i}" for i in range(1, rng.randint(1, 3) + 1)]
    for node_id in terminals:
        text = " ".join(rng.choices(WORDS, k=rng.randint(3, 8)))
        g.add_observation(Observation(node_id, text, verdict=rng.choice([VUL, NOT_VUL])))
    k = 0
    for node_id in inner_ids:
        low = 1 if g.is_terminal(node_id) else 0
        for dst in rng.sample(terminals, rng.randint(low, len(terminals))):
            k += 1
            g.add_action(Action(f"T{k}", node_id, dst, AGENT_TERMINATOR))
            if rng.random() < 0.25:
                g.add_action(Action(f"C{k}", node_id, dst, CODE_ANALYZER, f"[CODE{k}]"))
    for dst in terminals:
        if not g.in_actions(dst):
            k += 1
            g.add_action(Action(f"T{k}", rng.choice(inner_ids), dst, AGENT_TERMINATOR))
    g.validate()
    return g
