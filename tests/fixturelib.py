"""Hand-built fixture objects shared by several test modules."""

from __future__ import annotations

import json
import random
from pathlib import Path

from hypothesis import strategies as st

from vulrtex.corpus import CanonicalIR, RichTextElement
from vulrtex.gateway import LlmResponse, StubRule
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
        if dst in g.successors(src):
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


def scr_case(scr_dir: str | Path, ir_id: str, title: str, content: str,
             host: str, shots: dict[str, str],
             code: dict[str, str] | None = None) -> CanonicalIR:
    """An IR with one screenshot per `shots` tag (its sidecar text written
    under scr_dir) and one snippet per `code` tag."""
    d = Path(scr_dir)
    d.mkdir(parents=True, exist_ok=True)
    rich = []
    for tag, text in shots.items():
        url = f"https://{host}/{tag.strip('[]').lower()}.png"
        (d / sidecar_filename(url)).write_text(text, encoding="utf-8")
        rich.append(RichTextElement("SCR", tag, url))
    rich += [RichTextElement("CODE", tag, payload) for tag, payload in (code or {}).items()]
    return CanonicalIR(id=ir_id, title=title, content=content, rich_text=rich)


def shared_snippet_case(scr_dir: str | Path) -> tuple[CanonicalIR, list[StubRule]]:
    """Both screenshot branches ask for the same snippet: without inclusion
    order the second links to the first one's analysis (a dedup edge); with
    it the snippet is deferred while the other screenshot is unexplored."""
    ir = scr_case(scr_dir, "fixture/share#1", "shared snippet",
                  "two screenshots [SCR1] [SCR2] and one snippet [CODE1]", "share.test",
                  {"[SCR1]": "shot a", "[SCR2]": "shot b"},
                  {"[CODE1]": "<?php echo $_GET['x']; ?>"})
    rules = [
        StubRule(r"the next operation is O2\.[12] \(",
                 "Observation: the snippet matters here\n"
                 "Action: CodeAnalyzer([CODE1])"),
        StubRule(r"the next operation is O3\.1 \(",
                 "Observation: the echo is unescaped\n"
                 "vulnerability identified: Yes CWE-79\nAction: AgentTerminator()"),
        StubRule(r"IR title: shared snippet",
                 "Observation: check both screenshots\n"
                 "Action: ScrAnalyzer([SCR1])\nAction: ScrAnalyzer([SCR2])"),
    ]
    return ir, rules


def shared_terminal_case(scr_dir: str | Path) -> tuple[CanonicalIR, list[StubRule]]:
    """O2.1 decides at level 2 and O3.2 at level 3 with the same verdict, so
    both paths end in the shared terminal O3.1. The correction rule rewrites
    O3.1 only on the level-2 path, so the level-3 path is checked against
    the rewritten text."""
    ir = scr_case(scr_dir, "fixture/shared-terminal#1", "shared terminal",
                  "screenshots [SCR1] [SCR2] [SCR3]", "term.test",
                  {f"[SCR{k}]": f"shot {k}" for k in (1, 2, 3)})
    rules = [
        StubRule(r"may contain factual errors.*the next operation is O3\.1 \(O1",
                 "O3.1: rewritten verdict wording"),
        StubRule(r"may contain factual errors", "no corrections needed"),
        StubRule(r"the next operation is O2\.1 \(|the next operation is O3\.2 \(",
                 "Observation: original verdict wording\n"
                 "vulnerability identified: Yes CWE-79\nAction: AgentTerminator()"),
        StubRule(r"the next operation is O2\.2 \(",
                 "Observation: look further\nAction: ScrAnalyzer([SCR3])"),
        StubRule(r"IR title: shared terminal",
                 "Observation: start\nAction: ScrAnalyzer([SCR1])\n"
                 "Action: ScrAnalyzer([SCR2])"),
    ]
    return ir, rules


def open_branches_case(scr_dir: str | Path) -> tuple[CanonicalIR, list[StubRule]]:
    """Two branches that never decide: O2.1 stops at level 2 and O3.1 at
    level 3, each by re-proposing a screenshot its path already explored,
    so the closing step links both to one undecided terminal at level 4."""
    ir = scr_case(scr_dir, "fixture/open#1", "open branches",
                  "screenshots [SCR1] [SCR2] [SCR3]", "open.test",
                  {f"[SCR{k}]": f"open shot {k}" for k in (1, 2, 3)})
    rules = [
        StubRule(r"the next operation is O2\.1 \(",
                 "Observation: inspect it again\nAction: ScrAnalyzer([SCR1])"),
        StubRule(r"the next operation is O2\.2 \(",
                 "Observation: one more screenshot\nAction: ScrAnalyzer([SCR3])"),
        StubRule(r"the next operation is O3\.1 \(",
                 "Observation: back to the second one\nAction: ScrAnalyzer([SCR2])"),
        StubRule(r"IR title: open branches",
                 "Observation: start\nAction: ScrAnalyzer([SCR1])\n"
                 "Action: ScrAnalyzer([SCR2])"),
    ]
    return ir, rules


class FakeHttpResponse:
    """What a patched urllib.request.urlopen returns: `body` is a JSON value,
    raw bytes, or an exception that read() raises."""

    def __init__(self, body):
        if not isinstance(body, (bytes, Exception)):
            body = json.dumps(body).encode("utf-8")
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self) -> bytes:
        if isinstance(self.body, Exception):
            raise self.body
        return self.body


def answering(body):
    """A fake urlopen that answers every request with FakeHttpResponse(body)
    and counts its calls."""
    def fake_urlopen(request, timeout):
        fake_urlopen.calls += 1
        return FakeHttpResponse(body)
    fake_urlopen.calls = 0
    return fake_urlopen


class ScriptedBackend:
    """An LLM backend that answers every request with one text and keeps
    the requests it was sent."""

    name = "scripted"

    def __init__(self, text: str):
        self.text = text
        self.seen: list = []

    def complete(self, req) -> LlmResponse:
        self.seen.append(req)
        return LlmResponse(self.text, None, self.name)


def reply_texts(*pieces: str):
    """Arbitrary reply texts: st.text(), or lines of it with the given
    pieces of a reply grammar mixed in, so a parser's matching branches
    run too."""
    return st.one_of(st.text(), st.lists(st.one_of(
        st.text(), st.sampled_from(pieces), st.builds(str.__add__, st.sampled_from(pieces),
                                                       st.text()))).map("\n".join))
