"""Output checks run after every pass, outside the timed region.

Each check function returns a `CheckResult`: how many items the pass
attempted, how many of them failed (a graph whose status is not ok, an
unscored prediction), how many output checks ran and failed, a few failure
messages, and the SHA-256 digests of the pass's output files. The metric
oracles here are written independently of `vulrtex.metrics`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from inputs import family_of
from vulrtex.graph import graph_filename

TOLERANCE = 1e-9


@dataclass
class CheckResult:
    items: int = 0
    failed_items: int = 0
    checks: int = 0
    failed_checks: int = 0
    messages: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok:
            self.failed_checks += 1
            if len(self.messages) < 5:
                self.messages.append(message)
        return ok


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """Digest over every file under root, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# prepare-db

def check_prepare(summary: dict | None, reports: list, db_dir: Path) -> CheckResult:
    """One ok graph per report. The scripted reasoning gives every graph the
    root, one node per screenshot and one shared terminal carrying the
    family's verdict."""
    res = CheckResult(items=len(reports))
    if summary is None:
        res.failed_items = len(reports)
        return res
    statuses = summary["status"]
    res.failed_items = sum(1 for ir in reports if statuses.get(ir.id) != "ok")
    res.expect(summary["graphs_built"] == len(reports),
               f"built {summary['graphs_built']} graphs for {len(reports)} reports")
    graphs_dir = db_dir / "graphs"
    for ir in reports:
        path = graphs_dir / graph_filename(ir.id)
        if not res.expect(path.is_file(), f"{ir.id}: no graph file"):
            continue
        g = json.loads(path.read_text(encoding="utf-8"))
        n_scr = sum(1 for el in ir.rich_text if el.kind == "SCR")
        decided = [n for n in g["nodes"] if n["verdict"] != "undecided"]
        family = family_of(ir.id)
        want = ("vul", family.cwe) if family.vul else ("not_vul", None)
        res.expect(len(g["nodes"]) == n_scr + 2
                   and [(n["verdict"], n["cwe_id"]) for n in decided] == [want],
                   f"{ir.id}: {len(g['nodes'])} nodes, decided {decided!r}")
    res.digests["db"] = tree_digest(db_dir)
    return res


# ---------------------------------------------------------------------------
# identify

def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def check_identify(summary: dict | None, targets: list, runs: int, theta_out: float,
                   jitter: float, config_hash: str, preds_path: Path) -> CheckResult:
    """One scored prediction per (target, run) whose verdict is p_yes >=
    theta_out, whose score lies within the stub jitter of the family's
    scripted probability, and whose CWE is the family's on a positive
    verdict."""
    res = CheckResult(items=len(targets) * runs)
    if summary is None or not preds_path.is_file():
        res.failed_items = res.items
        return res
    lines = [json.loads(ln) for ln in preds_path.read_text(encoding="utf-8").splitlines()
             if ln.strip()]
    header, rows = lines[0], lines[1:]
    res.expect(header.get("kind") == "predictions" and header.get("runs") == runs
               and header.get("config_hash") == config_hash, f"bad header {header!r}")
    expected = {(t.id, run) for t in targets for run in range(runs)}
    seen = [(r["ir_id"], r["run"]) for r in rows]
    res.expect(len(seen) == len(expected) and set(seen) == expected,
               f"{len(seen)} predictions for {len(expected)} (target, run) pairs")
    res.failed_items = len(expected - set(seen))
    for r in rows:
        if r["unscored"] or r["p_yes"] is None:
            res.failed_items += 1
            continue
        family = family_of(r["ir_id"])
        p = r["p_yes"]
        band = abs(_logit(p) - _logit(family.p_yes)) <= 2.0 * jitter + TOLERANCE
        cwe = family.cwe if r["verdict"] else None
        res.expect(r["verdict"] == (p >= theta_out) and r["theta_out"] == theta_out
                   and band and r["cwe_id"] == cwe,
                   f"{r['ir_id']} run {r['run']}: p_yes={p} verdict={r['verdict']} "
                   f"cwe={r['cwe_id']}")
    res.digests["preds.jsonl"] = file_digest(preds_path)
    return res


# ---------------------------------------------------------------------------
# evaluate

def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p > 0 and r > 0 else 0.0)


def oracle_report(rows: list[tuple[float, bool, str | None, str | None, float]],
                  theta: float) -> dict:
    """rows: (score, truth, truth cwe, predicted cwe, latency). AUPRC by one
    sorted sweep over distinct scores, AUROC by midranks."""
    n_pos = sum(1 for r in rows if r[1])
    ranked = sorted(rows, key=lambda r: -r[0])
    area = prev = 0.0
    tp = fp = 0
    i = 0
    while i < len(ranked):
        score = ranked[i][0]
        while i < len(ranked) and ranked[i][0] == score:
            tp += ranked[i][1]
            fp += not ranked[i][1]
            i += 1
        recall = tp / n_pos
        area += (recall - prev) * (tp / (tp + fp))
        prev = recall
    ascending = sorted(r[0] for r in rows)
    midrank: dict[float, float] = {}
    i = 0
    while i < len(ascending):
        j = i
        while j < len(ascending) and ascending[j] == ascending[i]:
            j += 1
        midrank[ascending[i]] = (i + 1 + j) / 2.0
        i = j
    n_neg = len(rows) - n_pos
    rank_sum = sum(midrank[r[0]] for r in rows if r[1])
    auroc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    precision, recall, f1 = _prf(
        sum(1 for r in rows if r[1] and r[0] >= theta),
        sum(1 for r in rows if not r[1] and r[0] >= theta),
        sum(1 for r in rows if r[1] and r[0] < theta))
    vul = [r for r in rows if r[1] and r[2]]
    labels = sorted({r[2] for r in vul})
    macro = [_prf(sum(1 for r in vul if r[2] == lab and r[3] == lab),
                  sum(1 for r in vul if r[2] != lab and r[3] == lab),
                  sum(1 for r in vul if r[2] == lab and r[3] != lab)) for lab in labels]
    return {
        "precision": precision, "recall": recall, "f1": f1,
        "auroc": auroc, "auprc": area,
        "macro_p": sum(m[0] for m in macro) / len(macro),
        "macro_r": sum(m[1] for m in macro) / len(macro),
        "macro_f1": sum(m[2] for m in macro) / len(macro),
        "mean_latency": sum(r[4] for r in rows) / len(rows),
    }


def check_evaluate(summary: dict | None, preds_path: Path, truth_path: Path,
                   report_path: Path, curve_path: Path, theta: float,
                   interval: float, config_hash: str) -> CheckResult:
    """report.json and curve.csv parse, and every metric in them matches the
    oracle recomputed from the input files."""
    preds = [json.loads(ln) for ln in preds_path.read_text(encoding="utf-8").splitlines()
             if ln.strip()]
    preds = [p for p in preds if "kind" not in p]
    res = CheckResult(items=len(preds))
    if summary is None or not report_path.is_file() or not curve_path.is_file():
        res.failed_items = res.items
        return res
    truth = {}
    for ln in truth_path.read_text(encoding="utf-8").splitlines():
        t = json.loads(ln)
        truth[t["ir_id"]] = (t["label_vul"], t["cwe_id"])
    res.failed_items = sum(1 for p in preds if p["unscored"])
    runs = sorted({p["run"] for p in preds})
    per_run = []
    for run in runs:
        per_run.append(oracle_report(
            [(p["p_yes"], truth[p["ir_id"]][0], truth[p["ir_id"]][1], p["cwe_id"],
              p["latency_seconds"]) for p in preds if p["run"] == run], theta))
    mean = {k: sum(r[k] for r in per_run) / len(per_run) for k in per_run[0]}
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        res.expect(False, f"report.json does not parse: {exc}")
        return res
    res.expect(report.get("config_hash") == config_hash and report.get("n_runs") == len(runs)
               and report.get("excluded_unscored") == 0, "report header mismatch")
    for got, want, label in [(report["metrics"], mean, "mean")] + [
            (g, w, f"run {i}") for i, (g, w) in enumerate(zip(report["per_run"], per_run))]:
        for key, value in want.items():
            res.expect(abs(got[key] - value) <= TOLERANCE,
                       f"{label} {key}: report {got[key]!r}, oracle {value!r}")
    res.expect(len(report["per_run"]) == len(runs), "per_run length")

    text = curve_path.read_text(encoding="utf-8").splitlines()
    res.expect(text[:2] == [f"# config_hash={config_hash}", "theta,precision,recall"],
               f"curve header {text[:2]!r}")
    first = [(p["p_yes"], truth[p["ir_id"]][0]) for p in preds if p["run"] == runs[0]]
    grid = [round(i * interval, 12) for i in range(int(1 / interval) + 2)]
    grid = [t for t in grid if t <= 1.0]
    if grid[-1] != 1.0:
        grid.append(1.0)
    rows = list(csv.reader(text[2:]))
    res.expect(len(rows) == len(grid), f"curve has {len(rows)} rows for {len(grid)} thetas")
    for row, theta_i in zip(rows, grid):
        t, precision, recall = (float(x) for x in row)
        want_p, want_r, _ = _prf(sum(1 for s, y in first if y and s >= theta_i),
                                 sum(1 for s, y in first if not y and s >= theta_i),
                                 sum(1 for s, y in first if y and s < theta_i))
        res.expect(t == theta_i and abs(precision - want_p) <= TOLERANCE
                   and abs(recall - want_r) <= TOLERANCE,
                   f"curve row {row!r}, oracle {(theta_i, want_p, want_r)!r}")
    res.digests["report.json"] = file_digest(report_path)
    res.digests["curve.csv"] = file_digest(curve_path)
    return res

