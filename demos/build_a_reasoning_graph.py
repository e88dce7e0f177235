"""
Building a reasoning graph from one issue report
================================================

A reasoning graph records how an agent explored an issue report's rich text:
Observation nodes hold what the agent concluded at each step, Action edges
hold the tool call that led there. This demo scripts the agent with the
deterministic stub backend, so the whole loop runs offline and reproducibly.

Run it directly:  python3 demos/build_a_reasoning_graph.py
"""

import tempfile
from pathlib import Path

from vulrtex.corpus import CanonicalIR, RichTextElement
from vulrtex.gateway import Gateway, StubBackend, StubRule
from vulrtex.graph import describe_graph, extract_terminated_paths
from vulrtex.reasoner import ReasonerConfig, generate_reasoning_graph
from vulrtex.retrieval import graph_walk_seed, prune_for_target
from vulrtex.tools import StubCodeAnalyzer, StubScrAnalyzer, ToolKit, sidecar_filename

# ------------------------------------------------------------------------
# The issue report. Inline tags like [SCR1] point at entries of the
# rich-text table; screenshots carry a URL, code snippets carry the text.
# ------------------------------------------------------------------------

ir = CanonicalIR(
    id="demo/forum#101",
    title="comment body renders attacker markup",
    content=("posting a comment with a script tag makes it execute for every "
             "visitor; see the rendered page in [SCR1], the admin view in "
             "[SCR2], and the template code in [CODE1]"),
    rich_text=[
        RichTextElement("SCR", "[SCR1]", "https://demo.test/forum/render.png"),
        RichTextElement("SCR", "[SCR2]", "https://demo.test/forum/admin.png"),
        RichTextElement("CODE", "[CODE1]", "<div>{{ comment.body | raw }}</div>"),
    ])

# ------------------------------------------------------------------------
# Screenshot tools read a text sidecar next to the image instead of doing
# OCR, which keeps the demo hermetic. Write one sidecar per screenshot.
# ------------------------------------------------------------------------

# the work directory is removed at the end, or at exit if a step fails
tmp = tempfile.TemporaryDirectory(prefix="vulrtex-demo-")
workdir = Path(tmp.name)
scr_dir = workdir / "scr"
scr_dir.mkdir()
(scr_dir / sidecar_filename("https://demo.test/forum/render.png")).write_text(
    "the comment shows an alert box proving the script ran", encoding="utf-8")
(scr_dir / sidecar_filename("https://demo.test/forum/admin.png")).write_text(
    "the admin moderation queue renders the same payload", encoding="utf-8")

# ------------------------------------------------------------------------
# Script the LLM. Rules are tried top to bottom and the first regex that
# matches the prompt wins, so the deeper step (whose prompt mentions the
# child operation O2) must come before the opening step.
# ------------------------------------------------------------------------

rules = [
    StubRule(r"comment body renders attacker markup\n.*the next operation is O2\.",
             "Observation: the payload executes unescaped, classic stored XSS\n"
             "vulnerability identified: Yes CWE-79\n"
             "Action: CodeAnalyzer([CODE1])\n"
             "Action: AgentTerminator()"),
    StubRule(r"comment body renders attacker markup",
             "Observation: the report claims script execution in two views\n"
             "vulnerability identified: Undecided\n"
             "Action: ScrAnalyzer([SCR1])\n"
             "Action: ScrAnalyzer([SCR2])"),
]

gateway = Gateway(StubBackend(rules), max_retries=0, backoff_base=0.0)
toolkit = ToolKit(StubScrAnalyzer(scr_dir), StubCodeAnalyzer())

graph = generate_reasoning_graph(ir, ReasonerConfig(llm=gateway, tools=toolkit))

print(f"graph for {graph.ir_id}: {len(graph.nodes)} observations, "
      f"{len(graph.edges)} actions")
for node_id, obs in graph.nodes.items():
    summary = obs.text[:60].replace("\n", " / ")
    print(f"  {node_id}: [{obs.verdict}] {summary}")

# Every maximal root-to-leaf walk that reached a verdict is a terminated path.
paths = extract_terminated_paths(graph)
print(f"\n{len(paths)} terminated paths:")
for p in paths:
    print("  " + " -> ".join(p.steps()))

# ------------------------------------------------------------------------
# The database stores full graphs, but retrieval works on pruned ones: a
# seeded random walk keeps the nodes most relevant to a target text and
# renders the survivors as one hop-by-hop description.
# ------------------------------------------------------------------------

target_text = "stored xss in the comment form executes for every visitor"
reserved = prune_for_target(graph, target_text, walks=2,
                            rng_seed=graph_walk_seed(17, graph.ir_id))
print(f"\npruned to {len(reserved.graph.nodes)} nodes; description:")
print("  " + describe_graph(reserved.graph).replace("\n", "\n  "))

tmp.cleanup()
