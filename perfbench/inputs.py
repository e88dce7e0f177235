"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of (seed, pass index, scale), so the same
seed always yields byte-identical corpora, stores, rule tables and prediction
files. The structure of the inputs (family, screenshots and code snippets
of every report, score spread) is fixed by the scale; the seed and the pass
only vary the wording and the scores, so every seed and every pass costs
the same amount of work. Reports repeat their family and shape with period
CLASS_PERIOD, so report j and report j + CLASS_PERIOD are items of one class.

Reports come in families. A family fixes the vulnerability class, its CWE,
the words its texts draw from, and the scripted Yes-probability of its
targets. The stub rule table is keyed by family and by the rich-text shape
of the prompt, never by report, so it stays the same size however large the
corpus grows.
"""

from __future__ import annotations

import configparser
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from vulrtex.corpus import CanonicalIR, RichTextElement
from vulrtex.identifier import Prediction, write_predictions
from vulrtex.knowledge import KnowledgeRecord, ingest, save_store
from vulrtex.tools import sidecar_filename

BASE_TS = 1_700_000_000
SCR_CYCLE = (1, 2, 3, 3, 4, 5, 6, 6)
MAX_SCR = max(SCR_CYCLE)
MAX_CODE = 3
THETA_OUT = 0.55
THETA_SIM = 0.05


@dataclass(frozen=True)
class Family:
    key: str
    phrase: str
    cwe: str | None
    p_yes: float
    finding: str
    words: tuple[str, ...]
    code: tuple[str, ...]

    @property
    def vul(self) -> bool:
        return self.cwe is not None


FAMILIES = (
    Family("xss", "stored xss", "CWE-79", 0.91,
           "markup that executes for every visitor",
           ("script", "markup", "alert", "payload", "render", "escape", "html",
            "inject", "browser", "tag", "attribute", "stored"),
           ("<?php echo $_POST['{c}']; ?>", "el.innerHTML = params.{c}",
            "<td><%= {c}.note %></td>")),
    Family("sqli", "sql injection", "CWE-89", 0.86,
           "input spliced into the query string",
           ("query", "quote", "database", "rows", "select", "statement",
            "parameter", "concatenate", "table", "error", "union", "bind"),
           ("SELECT * FROM {c} WHERE ref = '\" + term + \"'",
            "db.query(\"SELECT * FROM {c} WHERE id = %s\" % key)",
            "sql = 'DELETE FROM {c} WHERE name = ' + name")),
    Family("csrf", "request forgery", "CWE-352", 0.77,
           "state changes accepted from any origin",
           ("token", "origin", "forged", "post", "session", "cookie", "cross",
            "submit", "state", "request", "referer", "change"),
           ("<form action=\"/{c}/save\" method=\"post\">",
            "app.post('/{c}', (req, res) => save(req.body))",
            "GET /{c}/unsubscribe?email=victim")),
    Family("traversal", "path traversal", "CWE-22", 0.71,
           "file paths escaping the storage root",
           ("path", "file", "directory", "dot", "download", "filename", "root",
            "read", "archive", "storage", "slash", "traversal"),
           ("open(base + request.args['{c}'])",
            "readFile(dir + '/' + req.query.{c})",
            "include $_GET['{c}'] . '.php';")),
    Family("ssrf", "server side fetch", "CWE-918", 0.63,
           "requests forwarded to internal hosts",
           ("url", "fetch", "internal", "host", "metadata", "proxy", "webhook",
            "redirect", "address", "callback", "network", "server"),
           ("requests.get(request.form['{c}'])",
            "fetch(req.body.{c}).then(r => r.text())",
            "curl_exec(curl_init($_GET['{c}']));")),
    Family("layout", "broken layout", None, 0.31,
           "a styling defect without attacker influence",
           ("layout", "column", "overlap", "margin", "mobile", "width", "font",
            "wrap", "scroll", "theme", "icon", "contrast"),
           ("color: #222; margin: 0 auto;", ".{c} {{ display: flex; }}",
            "<div class=\"{c}-grid\"></div>")),
    Family("perf", "slow rendering", None, 0.22,
           "a performance cost without security impact",
           ("slow", "seconds", "spinner", "latency", "cache", "memory", "load",
            "timeout", "paint", "profile", "frame", "delay"),
           ("setInterval(poll, 1000)", "for item in {c}: render(item)",
            "console.log('{c} loaded')")),
    Family("typo", "copy typo", None, 0.12,
           "a wording mistake in static copy",
           ("typo", "label", "spelling", "caption", "text", "wording", "banner",
            "translation", "button", "title", "message", "copy"),
           ("<h1>Recieve your {c}</h1>", "label = 'Sumbit {c}'",
            "msg = 'Your {c} has been saved sucessfully'")),
)

# report i and report i + CLASS_PERIOD share family, screenshots and snippets
CLASS_PERIOD = len(FAMILIES)
assert len(SCR_CYCLE) == CLASS_PERIOD and CLASS_PERIOD % (MAX_CODE + 1) == 0

COMPONENTS = ("ticket", "invoice", "profile", "search", "comment", "upload",
              "checkout", "dashboard", "order", "account", "settings", "message",
              "calendar", "export", "gallery", "wiki", "forum", "cart", "coupon",
              "newsletter")
WIDGETS = ("form", "page", "widget", "panel", "endpoint", "dialog", "list",
           "editor", "filter", "preview", "header", "api")
FILLER = ("user", "admin", "field", "value", "screen", "reported", "again",
          "after", "visible", "shown", "saved", "opened", "customer", "team",
          "update", "version", "staging", "production", "login", "click",
          "button", "page", "link", "image", "report", "issue", "steps",
          "expected", "actual", "result", "browser", "mobile", "desktop",
          "account", "record", "entry", "detail", "summary", "history",
          "option", "menu", "window", "tab", "row", "column", "item", "list",
          "setting", "email", "notice", "status", "owner", "group", "role",
          "event", "queue", "job", "plugin", "module", "release")


def _words(rng: random.Random, family: Family, n_family: int, n_filler: int) -> str:
    words = rng.sample(family.words, n_family) + rng.sample(FILLER, n_filler)
    rng.shuffle(words)
    return " ".join(words)


def _scr_url(ir_id: str, j: int) -> str:
    return f"https://bench.test/{ir_id}/shot{j}.png"


def family_of(ir_id: str) -> Family:
    """Report ids are "bench/<family key>#<serial>"."""
    key = ir_id.split("/", 1)[1].split("#", 1)[0]
    return next(f for f in FAMILIES if f.key == key)


def reports(seed: int, tag: str, n: int,
            first_ts: int = 0) -> tuple[list[CanonicalIR], dict[str, str]]:
    """n reports plus the screenshot sidecar texts they need (url -> text).

    Report i is of family FAMILIES[i % 8], with SCR_CYCLE[i % 8]
    screenshots and i % 4 code snippets, whatever the seed; the seed and
    the tag pick the wording. The two six-screenshot families top the
    cycle, so the 90th-percentile item sits inside their cluster.
    Screenshot texts avoid ";", "(" and ")" because the stub rules read the
    last observation of a reasoning context up to its closing parenthesis.
    """
    rng = random.Random(f"vulrtex-bench:{seed}:{tag}")
    out: list[CanonicalIR] = []
    sidecars: dict[str, str] = {}
    for i in range(n):
        family = FAMILIES[i % len(FAMILIES)]
        component = rng.choice(COMPONENTS)
        widget = rng.choice(WIDGETS)
        ir_id = f"bench/{family.key}#{tag}-{i}"
        n_scr = SCR_CYCLE[i % len(SCR_CYCLE)]
        n_code = i % (MAX_CODE + 1)
        rich = []
        for j in range(1, n_scr + 1):
            url = _scr_url(ir_id, j)
            rich.append(RichTextElement("SCR", f"[SCR{j}]", url))
            sidecars[url] = (f"the {component} {widget} screenshot shows "
                             + _words(rng, family, 3, rng.randint(2, 5)))
        for j in range(1, n_code + 1):
            template = family.code[(i + j) % len(family.code)]
            rich.append(RichTextElement("CODE", f"[CODE{j}]",
                                        template.format(c=component)))
        tags = " ".join(el.tag for el in rich)
        body = _words(rng, family, 4, rng.randint(3, 7))
        out.append(CanonicalIR(
            id=ir_id,
            title=f"{family.phrase} in the {component} {widget}",
            content=f"{family.key} report: {body}; the evidence is collected in {tags}",
            rich_text=rich,
            created_at=BASE_TS + first_ts + i * 3600,
            label_vul=family.vul,
            cwe_id=family.cwe))
    return out, sidecars


def write_sidecars(scr_dir: Path, sidecars: dict[str, str]) -> None:
    scr_dir.mkdir(parents=True, exist_ok=True)
    for url, text in sidecars.items():
        (scr_dir / sidecar_filename(url)).write_text(text, encoding="utf-8")


def knowledge(seed: int, n: int) -> list[KnowledgeRecord]:
    """Golden-knowledge records: three in four speak a family's vocabulary,
    the rest are unrelated advisories, so correction lookups both hit and
    miss."""
    rng = random.Random(f"vulrtex-bench:{seed}:knowledge")
    out = []
    for i in range(n):
        if i % 4 == 3:
            text = "advisory: " + " ".join(rng.sample(FILLER, 6))
            cwe = None
        else:
            family = FAMILIES[i % len(FAMILIES)]
            text = f"{family.phrase}: " + _words(rng, family, 4, 2)
            cwe = family.cwe
        out.append(KnowledgeRecord("bench-glossary", f"gold-{i:04d}", text, cwe))
    return out


def write_knowledge(path: Path, seed: int, n: int) -> None:
    save_store(ingest(knowledge(seed, n)), path)


# ---------------------------------------------------------------------------
# stub rule table

# the stub sees system_prompt + "\n" + user_prompt, hence the leading \s*
_REASON = r"\A\s*Please think step by step"
_LAST_SCR = r"ScrAnalyzer\(\[SCR{k}\]\): [^;()\n]*\)\Z"


def stub_rules() -> list[dict]:
    """The scripted model, first match wins.

    Reasoning walks the screenshots in index order: the root explores [SCR1]
    and [SCR2]; the node that analyzed [SCRk] explores [SCRk+1] and
    [SCRk+2] while [SCRk+2] exists (so [SCRk+1] becomes a dedup link to the
    node a sibling already made), and otherwise decides with the family's
    verdict, citing [CODE1] as evidence when the report has code. Every
    deciding node of a report shares one terminal. Identification scores
    come from the family's scripted Yes-probability.
    """
    rules: list[dict] = [
        {"pattern": (r"\A\s*According to the following relevant reasoning graphs"
                     r".*\nTarget IR \(JSON\): \{\"Content\": \"(\w+) report:"),
         "response_text": ("STEP-1: inspect the screenshots for \\1 symptoms\n"
                           "STEP-2: trace the reported input through the code snippets\n"
                           "STEP-3: decide whether the \\1 behaviour is exploitable "
                           "and name its CWE")},
        {"pattern": (r"\A\s*The following reasoning path may contain factual errors"
                     r".*?\nGolden knowledge:\n- ([^\n;(),]{1,60})"
                     r".*\((O\d+\.\d+): [^;()\n]*\)\Z"),
         "response_text": "\\2: verdict reviewed against golden knowledge on \\1"},
        {"pattern": r"\A\s*The following reasoning path may contain factual errors",
         "response_text": "no corrections needed"},
    ]
    for f in FAMILIES:
        verdict = "Yes" if f.vul else "No"
        cwe = f", {f.cwe}" if f.vul else ""
        rules.append({
            "pattern": (r"\A\s*Please identify whether.{0,3000}?\n\{\"Content\": \""
                        + f.key + r" report: (\w+)"),
            "response_text": f"{verdict}, the report shows {f.finding} around \\1{cwe}",
            "first_token_logprobs": {"Yes": math.log(f.p_yes),
                                     "No": math.log(1.0 - f.p_yes)},
        })
    for k in range(1, MAX_SCR - 1):
        rules.append({
            "pattern": (_REASON + rf".*?\n\[SCR{k + 2}\] SCR: .*"
                        + _LAST_SCR.format(k=k)),
            "response_text": (f"Observation: screenshot [SCR{k}] points at later screenshots\n"
                              "vulnerability identified: Undecided\n"
                              f"Action: ScrAnalyzer([SCR{k + 1}])\n"
                              f"Action: ScrAnalyzer([SCR{k + 2}])"),
        })
    for f in FAMILIES:
        verdict = f"Yes {f.cwe}" if f.vul else "No"
        head = _REASON + r".{0,1500}?\nIR title: ([^\n]*)\nIR content: " + f.key + " report:"
        decide = ("Observation: the screenshots of \\1 show " + f.finding
                  + f"\nvulnerability identified: {verdict}\n")
        rules.append({
            "pattern": head + r".*?\n(\[CODE1\]) CODE: .*" + _LAST_SCR.format(k=r"\d"),
            "response_text": decide + "Action: CodeAnalyzer(\\2)\nAction: AgentTerminator()",
        })
        rules.append({
            "pattern": head + ".*" + _LAST_SCR.format(k=r"\d"),
            "response_text": decide + "Action: AgentTerminator()",
        })
    rules += [
        {"pattern": _REASON + r".*?\n\[SCR2\] SCR: ",
         "response_text": ("Observation: the report cites several screenshots\n"
                           "vulnerability identified: Undecided\n"
                           "Action: ScrAnalyzer([SCR1])\nAction: ScrAnalyzer([SCR2])")},
        {"pattern": _REASON,
         "response_text": ("Observation: the report cites one screenshot\n"
                           "vulnerability identified: Undecided\n"
                           "Action: ScrAnalyzer([SCR1])")},
    ]
    return rules


def write_rules(path: Path) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in stub_rules()),
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# predictions for the evaluate stage

VUL_FAMILIES = [f for f in FAMILIES if f.vul]


def truth(seed: int, n_targets: int) -> list[dict]:
    """Truth rows for n_targets reports, two in five of them vulnerable."""
    rng = random.Random(f"vulrtex-bench:{seed}:truth")
    rows = []
    for i in range(n_targets):
        vul = rng.random() < 0.4
        cwe = rng.choice(VUL_FAMILIES).cwe if vul else None
        rows.append({"ir_id": f"bench/eval#{i}", "label_vul": vul, "cwe_id": cwe})
    return rows


def write_truth(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(t, sort_keys=True) + "\n" for t in rows),
                    encoding="utf-8")


def predictions(seed: int, tag: str, truth: list[dict], runs: int) -> list[Prediction]:
    """Scored predictions for the truth rows over several runs. Scores are
    logistic draws around each label rounded to nine digits, so nearly
    every score is distinct and the classes overlap."""
    rng = random.Random(f"vulrtex-bench:{seed}:{tag}")
    preds = []
    for run in range(runs):
        for row in truth:
            logit = rng.gauss(1.0 if row["label_vul"] else -1.0, 1.3)
            p_yes = round(1.0 / (1.0 + math.exp(-logit)), 9)
            verdict = p_yes >= THETA_OUT
            cwe = None
            if verdict:
                cwe = row["cwe_id"] if row["cwe_id"] and rng.random() < 0.7 \
                    else rng.choice(VUL_FAMILIES).cwe
            preds.append(Prediction(row["ir_id"], p_yes, verdict, cwe, THETA_OUT,
                                    guidance_used=True,
                                    latency_seconds=round(rng.uniform(0.2, 2.0), 6),
                                    run=run))
    return preds


def write_predictions_pass(preds_path: Path, seed: int, tag: str, truth: list[dict],
                           runs: int, config_hash: str) -> None:
    write_predictions(predictions(seed, tag, truth, runs), preds_path, header={
        "kind": "predictions", "config_hash": config_hash, "runs": runs})


# ---------------------------------------------------------------------------
# configuration

def write_config(path: Path, *, corpus: Path, rules: Path, scr_dir: Path,
                 va: Path | None, seed: int, runs: int = 1, jitter: float = 0.0,
                 proportion: float = 0.6) -> Path:
    parser = configparser.ConfigParser()
    parser["pipeline"] = {
        "corpus_path": str(corpus),
        "theta_sim": str(THETA_SIM),
        "theta_out": str(THETA_OUT),
        "seed": str(seed),
        "runs": str(runs),
        "historical_proportion": repr(proportion),
        "correction_enabled": "true" if va is not None else "false",
    }
    parser["llm"] = {"backend": "stub", "stub_rules_path": str(rules),
                     "stub_jitter": repr(jitter)}
    parser["tool"] = {"scr_backend": "stub", "code_backend": "stub",
                      "scr_fixtures_dir": str(scr_dir)}
    parser["va"] = {"path": str(va) if va is not None else ""}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path
