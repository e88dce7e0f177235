"""Prompt templates for graph generation, factual correction, guidance, and
identification. The wording of the fixed blocks is part of the pipeline
contract; render functions only assemble inputs around them.
"""

from __future__ import annotations

from .corpus import CanonicalIR
from .graph import Path, describe_path
from .jsonl import dumps_sorted

P_REASON = (
    "Please think step by step. For each step, you need to select multiple "
    "rich-text elements that relate to the vulnerability. Then, you should "
    "identify whether this IR contains the vulnerability and output an "
    '"Observation" based on context information. It would be best to choose '
    'the "Action" from "Tools" to control the reasoning into the next '
    '"Observation" after thinking.\n'
    "\n"
    "- Input: The content of historical IR and the rich-text information.\n"
    "\n"
    '- Input: The definition of "Observation" and "Action".\n'
    "\n"
    "* Note of Inclusion Relationship: We suggest you first analyze the text, "
    "then explore the page screenshot [SCR], and finally analyze the code "
    "snippets [CODE]."
)

DEFINITIONS = (
    "Observation: the result of analyzing the selected rich-text elements at "
    "the current reasoning step, ending with a verdict line "
    '"vulnerability identified: Yes/No/Undecided" (add the CWE-ID on Yes).\n'
    "Action: one tool invocation per selected element, written as "
    '"Action: <Tool>(<tag>)".\n'
    "Tools:\n"
    "- ScrAnalyzer: analyze all the page elements in the screenshots [SCR].\n"
    "- CodeAnalyzer: generate the description of the code [CODE].\n"
    "- AgentTerminator: terminate the agent, written as Action: AgentTerminator()."
)

P_IDENTIFY = (
    "Please identify whether the following IR contains the vulnerability, and "
    "predict the type (CWE-ID) of the vulnerability. This is a classification "
    "task, so please directly output whether the IR contains the vulnerability "
    'with "Yes, No". The output format for vulnerability identification is '
    "{Yes, No}. Moreover, you need to just directly output the {CWE-ID} "
    "without other information."
)

P_GUIDE_HEADER = (
    "According to the relevant reasoning graph, the generated guidance prompt "
    "contains the following steps. We will concatenate it with the P_identify:"
)

GUIDANCE_REQUEST = (
    "According to the following relevant reasoning graphs and the target IR, "
    "generate a guidance prompt: several numbered steps describing the "
    "instructions for how to analyze the target IR. Output one step per line "
    'in the format "STEP-<n>: <instruction>".'
)

CORRECTION_REQUEST = (
    "The following reasoning path may contain factual errors. Correct the "
    "observations against the golden knowledge. Output one line per corrected "
    'observation in the format "<observation id>: <corrected text>"; leave out '
    "observations that need no change. Do not add or remove observations."
)


def ir_json(ir: CanonicalIR) -> str:
    return dumps_sorted(ir.to_dict())


def rich_text_table(ir: CanonicalIR) -> str:
    if not ir.rich_text:
        return "(no rich-text elements)"
    return "\n".join(f"{el.tag} {el.kind}: {el.payload}" for el in ir.rich_text)


def build_reason_prompt(ir: CanonicalIR, context: Path | None) -> str:
    """P_reason plus the IR, definitions, and the serialized context path."""
    parts = [
        P_REASON,
        "",
        f"IR title: {ir.title}",
        f"IR content: {ir.content}",
        "Rich-text information:",
        rich_text_table(ir),
        "",
        DEFINITIONS,
    ]
    if context is not None and context.actions:
        parts += ["", "Context of previous steps: " + describe_path(context)]
    return "\n".join(parts)


def build_correction_prompt(golden_texts: list[str], path_description: str) -> str:
    knowledge = "\n".join(f"- {t}" for t in golden_texts)
    return "\n".join([
        CORRECTION_REQUEST,
        "",
        "Golden knowledge:",
        knowledge,
        "",
        "Reasoning path: " + path_description,
    ])


def build_guidance_prompt(descriptions: list[str], target_json: str) -> str:
    """The guidance request over the descriptions and the target's JSON
    (ir_json)."""
    graphs = "\n".join(descriptions) if descriptions else "(none)"
    return "\n".join([
        GUIDANCE_REQUEST,
        "",
        "Relevant reasoning graphs:",
        graphs,
        "",
        "Target IR (JSON): " + target_json,
    ])


def build_identify_prompt(steps: list[str], target_json: str,
                          descriptions: list[str]) -> str:
    """P_identify, then the guidance steps, then the target's JSON
    (ir_json), then the graph descriptions, in that order."""
    parts = [P_IDENTIFY]
    if steps:
        parts += ["", P_GUIDE_HEADER]
        parts += [f"STEP-{i + 1}: {s}" for i, s in enumerate(steps)]
    parts += [
        "",
        "- Input: The content of target IR, which is formatted as JSON.",
        target_json,
        "",
        "- Input: The textual description of all the selected graphs.",
    ]
    parts += descriptions if descriptions else ["(none)"]
    return "\n".join(parts)
