"""
The whole pipeline from the command line
========================================

The `vulrtex` command chains every stage: split the corpus by time, build a
reasoning graph per historical report, retrieve guidance for each target,
score it, and evaluate against the ground truth. This demo fabricates a
ten-report corpus with scripted stub backends, writes a config file, and
shells out to `run-all` the same way an operator would. It runs the command
as `python -m vulrtex.cli`, so it works without the installed `vulrtex`
console script.

Run it directly:  python3 demos/run_the_pipeline_cli.py
"""

import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from vulrtex.corpus import CanonicalIR, RichTextElement, save_corpus
from vulrtex.knowledge import KnowledgeRecord, ingest, save_store
from vulrtex.tools import sidecar_filename

# the work directory is removed at the end, or at exit if a step fails
tmp = tempfile.TemporaryDirectory(prefix="vulrtex-demo-")
workdir = Path(tmp.name)
scr_dir = workdir / "scr"
scr_dir.mkdir()

# ------------------------------------------------------------------------
# Ten reports with increasing timestamps. At the default 60 percent
# proportion the first six become the historical half (the reasoning
# database) and the last four become targets to classify.
# ------------------------------------------------------------------------

CASES = [
    # (title, vulnerable, cwe, screenshot finding)
    ("profile page keeps injected markup", True, "CWE-79",
     "the profile bio renders a script tag that fires an alert"),
    ("export button downloads an empty file", False, None,
     "the download dialog shows a zero byte csv"),
    ("order lookup accepts quoted sql", True, "CWE-89",
     "the error page leaks a sql syntax message from the quote"),
    ("dark mode forgets the sidebar color", False, None,
     "the sidebar stays white after the theme switch"),
    ("avatar upload stores scriptable svg", True, "CWE-79",
     "the avatar svg executes its embedded script when viewed"),
    ("search result count is off by one", False, None,
     "the footer says 9 results while the list shows 10"),
    ("wiki preview executes pasted scripts", True, "CWE-79",
     "the preview pane pops an alert from the pasted payload"),
    ("invoice totals drop the discount", False, None,
     "the printed invoice ignores the applied coupon"),
    ("report filter concatenates raw input", True, "CWE-89",
     "the filter box crashes the page with a database error"),
    ("help link opens the wrong anchor", False, None,
     "the help page scrolls to an unrelated section"),
]

irs, rules = [], []
for n, (title, vul, cwe, finding) in enumerate(CASES, 1):
    url = f"https://demo.test/case{n}.png"
    irs.append(CanonicalIR(
        id=f"demo/app#{n}", title=title,
        content=f"{title}; the reporter attached the screenshot [SCR1]",
        rich_text=[RichTextElement("SCR", "[SCR1]", url)],
        created_at=1_700_000_000 + n * 86_400,
        label_vul=vul, cwe_id=cwe))
    (scr_dir / sidecar_filename(url)).write_text(finding, encoding="utf-8")

    # reasoner script for the historical half: the deeper step must come
    # before the opening step because the first matching rule wins
    verdict = f"Yes {cwe}" if vul else "No"
    scoped = rf"IR title: {re.escape(title)}\n"
    rules.append({"pattern": scoped + r".*the next operation is O2\.",
                  "response_text": f"Observation: {finding}\n"
                                   f"vulnerability identified: {verdict}\n"
                                   "Action: AgentTerminator()"})
    rules.append({"pattern": scoped,
                  "response_text": f"Observation: the report says {title}\n"
                                   "vulnerability identified: Undecided\n"
                                   "Action: ScrAnalyzer([SCR1])"})

    # identify script for the target half: first-token logprobs pin p("Yes")
    p_yes = 0.9 if vul else 0.1
    reply = f"Yes. This matches {cwe}." if vul else "No. Not a vulnerability."
    rules.insert(0, {"pattern": re.escape(f'"id": "demo/app#{n}"'),
                     "response_text": reply,
                     "first_token_logprobs": {"Yes": math.log(p_yes),
                                              "No": math.log(1.0 - p_yes)}})

# guidance and correction replies, matched before everything else
rules.insert(0, {"pattern": r"According to the following relevant reasoning graphs",
                 "response_text": "STEP-1: look for executable payloads in the "
                                  "screenshots\nSTEP-2: decide and name the CWE"})
rules.insert(1, {"pattern": r"The following reasoning path may contain factual",
                 "response_text": "the path agrees with the golden knowledge."})

save_corpus(irs, workdir / "corpus.jsonl")
(workdir / "rules.jsonl").write_text(
    "".join(json.dumps(r, sort_keys=True) + "\n" for r in rules), encoding="utf-8")
save_store(ingest([
    KnowledgeRecord("demo-glossary", "gold-79",
                    "cross site scripting executes attacker script in the "
                    "victim browser", "CWE-79"),
    KnowledgeRecord("demo-glossary", "gold-89",
                    "sql injection lets crafted input rewrite a database "
                    "query", "CWE-89"),
]), workdir / "va.jsonl")

(workdir / "pipeline.ini").write_text(f"""\
[pipeline]
corpus_path = {workdir / 'corpus.jsonl'}
theta_sim = 0.05
theta_out = 0.55
seed = 17

[llm]
backend = stub
stub_rules_path = {workdir / 'rules.jsonl'}

[tool]
scr_backend = stub
code_backend = stub
scr_fixtures_dir = {scr_dir}

[va]
path = {workdir / 'va.jsonl'}
""", encoding="utf-8")

# ------------------------------------------------------------------------
# Run the chained pipeline exactly as an operator would. The command
# prints a summary; every artifact lands under --out-dir.
# ------------------------------------------------------------------------

out_dir = workdir / "run-out"
print(f"$ python -m vulrtex.cli run-all -c {workdir / 'pipeline.ini'} --out-dir {out_dir}",
      flush=True)
subprocess.run([sys.executable, "-m", "vulrtex.cli", "run-all",
                "-c", str(workdir / "pipeline.ini"), "--out-dir", str(out_dir)],
               check=True)

report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
print("\nmetrics from report.json:")
for key in ("precision", "recall", "f1", "auroc", "auprc"):
    print(f"  {key}: {report['metrics'][key]:.3f}")

print("\nartifacts:")
for path in sorted(out_dir.rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(workdir)}")

tmp.cleanup()
