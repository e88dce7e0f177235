"""Command-line front end: reasoning-database preparation, retrieval,
identification, evaluation, and chained end-to-end runs.

Every subcommand resolves one PipelineConfig (defaults < config file < flags)
and stamps its artifacts with the config hash so later stages refuse inputs
built under different settings. `--json` switches stdout to a machine-readable
summary; progress and warnings go to stderr.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from collections import defaultdict
from pathlib import Path

import click

from .config import (PipelineConfig, apply_overrides, check_artifact_hash,
                     config_hash, load_config)
from .corpus import CanonicalIR, load_corpus, save_corpus, split_corpus
from .errors import ConfigError, VulrtexError
from .gateway import make_gateway
from .graph import GraphStore
from .identifier import (Prediction, Unscored, generate_guidance, identify,
                         read_scored, write_predictions)
from .jsonl import read_jsonl, write_jsonl
from .knowledge import KnowledgeStore, load_store, save_store
from .metrics import ScoredLabel, build_report, pr_curve, repeated_mean
from .reasoner import ReasonerConfig, generate_reasoning_graph
from .retrieval import Target, count_graphs, retrieve_relevant
from .tools import make_toolkit

PREDICTIONS_KIND = "predictions"

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# config plumbing

def _resolve_config(config_path: str | None, overrides: dict) -> PipelineConfig:
    cfg = load_config(config_path)
    apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            click.echo(line)


def _print_resolved(cfg: PipelineConfig, as_json: bool) -> None:
    payload = {**cfg.resolved_dict(), "config_hash": config_hash(cfg)}
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        click.echo("dry run; resolved configuration:")
        click.echo(json.dumps(payload, sort_keys=True, indent=2))


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (VulrtexError, OSError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc
    return wrapper


def _config_options(fn):
    fn = click.option("--json", "as_json", is_flag=True,
                      help="Emit a machine-readable JSON summary on stdout.")(fn)
    fn = click.option("--config", "-c", "config_path",
                      type=click.Path(exists=True, dir_okay=False),
                      help="INI configuration file.")(fn)
    return fn


def _pipeline_options(fn):
    opts = [
        click.option("--corpus", "corpus_path", type=click.Path(), default=None,
                     help="Canonical IR corpus (JSONL); overrides the config."),
        click.option("--db", "db_path", type=click.Path(), default=None,
                     help="Reasoning-database directory; overrides the config."),
        click.option("--seed", type=int, default=None,
                     help="Master random seed; overrides the config."),
        click.option("--runs", type=int, default=None,
                     help="Number of repeated identification passes."),
        click.option("--walks", type=int, default=None,
                     help="Random walks per stored graph during retrieval."),
        click.option("--theta-sim", type=float, default=None,
                     help="Similarity threshold for retrieval."),
        click.option("--theta-out", type=float, default=None,
                     help="Output-probability threshold for the verdict."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return _config_options(fn)


# ---------------------------------------------------------------------------
# component builders

def _build_knowledge(cfg: PipelineConfig) -> KnowledgeStore | None:
    """The awareness store that corrects reasoning paths; None, and nothing
    read, when correction is off."""
    if not cfg.correction_enabled:
        return None
    if not cfg.va.path:
        raise ConfigError(
            "factual correction is enabled but va.path is not set; "
            "point it at the awareness store or disable correction")
    if not Path(cfg.va.path).is_file():
        raise ConfigError(f"vulnerability-awareness store not found: {cfg.va.path}")
    return load_store(cfg.va.path)


def _open_db(cfg: PipelineConfig) -> tuple[GraphStore, dict]:
    store = GraphStore(cfg.db_path)
    try:
        manifest = store.read_manifest()
    except FileNotFoundError as exc:
        raise ConfigError(
            f"no reasoning database at {cfg.db_path}; run prepare-db first") from exc
    check_artifact_hash(manifest.get("config_hash"), cfg, "reasoning database")
    return store, manifest


def _db_targets(cfg: PipelineConfig) -> list[CanonicalIR]:
    path = Path(cfg.db_path) / "targets.jsonl"
    if not path.is_file():
        raise ConfigError(f"database at {cfg.db_path} has no targets.jsonl")
    return load_corpus(path)


# ---------------------------------------------------------------------------
# stages (shared by the standalone subcommands and run-all)

def stage_prepare(cfg: PipelineConfig) -> dict:
    """Split the corpus, build one reasoning graph per historical IR, and
    persist graphs plus both corpus halves under db_path."""
    if not cfg.corpus_path:
        raise ConfigError("corpus_path is not set")
    irs = load_corpus(cfg.corpus_path)
    split = split_corpus(irs, cfg.historical_proportion)
    knowledge = _build_knowledge(cfg)
    reasoner_cfg = ReasonerConfig(
        llm=make_gateway(cfg.llm), tools=make_toolkit(cfg.tool), store=knowledge,
        max_depth=cfg.max_depth, max_nodes=cfg.max_nodes, branch_limit=cfg.branch_limit,
        theta_sim=cfg.theta_sim, inclusion_order=cfg.inclusion_order)
    db_dir = Path(cfg.db_path)
    db_dir.mkdir(parents=True, exist_ok=True)
    graph_store = GraphStore(db_dir)
    statuses: dict[str, str] = {}
    built = 0
    for ir in split.historical:
        try:
            g = generate_reasoning_graph(ir, reasoner_cfg)
        except VulrtexError as exc:
            statuses[ir.id] = f"failed: {exc}"
            continue
        graph_store.save(g)
        built += 1
        statuses[ir.id] = "partial" if g.meta.get("partial") else "ok"
    save_corpus(split.historical, db_dir / "historical.jsonl")
    save_corpus(split.target, db_dir / "targets.jsonl")
    summary = {
        "config_hash": config_hash(cfg),
        "historical": len(split.historical),
        "targets": len(split.target),
        "graphs_built": built,
        "status": statuses,
    }
    graph_store.write_manifest(summary)
    return {"db_path": str(db_dir), **summary}


def stage_retrieve(cfg: PipelineConfig,
                   target_ids: tuple[str, ...] = ()) -> list[dict]:
    """Prune every stored graph against each target and keep the relevant
    ones; one result record per target."""
    graph_store, _ = _open_db(cfg)
    targets = _db_targets(cfg)
    if target_ids:
        by_id = {t.id: t for t in targets}
        missing = [t for t in target_ids if t not in by_id]
        if missing:
            raise ConfigError(f"unknown target ids: {missing}")
        targets = [by_id[t] for t in target_ids]
    toolkit = make_toolkit(cfg.tool)
    graphs = count_graphs(graph_store.load_all())
    results = []
    for target in targets:
        kept = retrieve_relevant(graphs, Target(target, toolkit), cfg.theta_sim,
                                 walks=cfg.walks, seed=cfg.seed)
        results.append({
            "ir_id": target.id,
            "retrieved": [{
                "origin_ir": r.origin_ir,
                "similarity": r.similarity,
                "nodes": len(r.graph.nodes),
                "actions": len(r.graph.edges),
                "description": r.description,
            } for r in kept],
        })
    return results


def stage_identify(cfg: PipelineConfig, out_path: str | Path) -> dict:
    """Retrieve, build guidance, and score every target, repeated over
    cfg.runs seed-shifted passes; predictions land in one JSONL file."""
    graph_store, _ = _open_db(cfg)
    targets = _db_targets(cfg)
    llm = make_gateway(cfg.llm)
    toolkit = make_toolkit(cfg.tool)
    graphs = count_graphs(graph_store.load_all())
    # every run walks each (graph, target) pair again under its own seed;
    # each target is flattened, counted and serialized once for all runs,
    # and only a repeated run can reuse the pairs' walk probabilities
    prepared = [Target(t, toolkit, {} if cfg.runs > 1 else None) for t in targets]
    preds: list[Prediction] = []
    failed = 0
    for run in range(cfg.runs):
        run_seed = cfg.seed + run
        for target in prepared:
            kept = retrieve_relevant(graphs, target, cfg.theta_sim,
                                     walks=cfg.walks, seed=run_seed)
            # a failing LLM call costs this (target, run) alone: it becomes
            # an unscored row, while retrieval and database errors end the stage
            try:
                guide = generate_guidance(kept, target, llm)
                pred = identify(target, guide, llm, cfg.theta_out, seed=run_seed)
            except VulrtexError as exc:
                log.warning("%s: run %d failed, left unscored (%s)", target.id, run, exc)
                failed += 1
                pred = Prediction(target.id, None, False, None, cfg.theta_out, False,
                                  unscored=True)
            pred.run = run
            preds.append(pred)
    write_predictions(preds, out_path, header={
        "kind": PREDICTIONS_KIND,
        "config_hash": config_hash(cfg),
        "runs": cfg.runs,
    })
    return {
        "out": str(out_path),
        "targets": len(targets),
        "runs": cfg.runs,
        "predictions": len(preds),
        "positive": sum(1 for p in preds if p.verdict),
        "unscored": sum(1 for p in preds if p.unscored),
        "failed": failed,
    }


def _truth_row(d: dict) -> tuple[str, bool | None, str | None]:
    if "ir_id" in d:
        return d["ir_id"], d.get("label_vul"), d.get("cwe_id")
    ir = CanonicalIR.from_dict(d)
    return ir.id, ir.label_vul, ir.cwe_id


def _load_truth(path: str | Path) -> dict[str, tuple[bool, str | None]]:
    """Ground-truth labels, either {"ir_id","label_vul","cwe_id"} rows or a
    canonical IR corpus whose records carry labels."""
    truth: dict[str, tuple[bool, str | None]] = {}
    for ir_id, label, cwe in read_jsonl(path, _truth_row):
        if label is None:
            raise ConfigError(f"truth record {ir_id} has no label")
        if ir_id in truth:
            raise ConfigError(f"truth file repeats {ir_id}")
        truth[ir_id] = (bool(label), cwe if label else None)
    if not truth:
        raise ConfigError(f"no truth records in {path}")
    return truth


def stage_evaluate(cfg: PipelineConfig, preds_path: str | Path,
                   truth_path: str | Path, report_path: str | Path,
                   curve_path: str | Path) -> dict:
    """Join predictions with ground truth, compute per-run metrics, average
    them, and write report.json plus the precision/recall curve CSV."""
    rows = read_scored(preds_path, lambda header: check_artifact_hash(
        header.get("config_hash"), cfg, "predictions file"))
    if not rows:
        raise ConfigError(f"no predictions in {preds_path}")
    truth = _load_truth(truth_path)
    # each run's rows, in file order
    by_run: defaultdict[int, list[ScoredLabel]] = defaultdict(list)
    seen: defaultdict[int, set[str]] = defaultdict(set)
    excluded = 0
    for row in rows:
        ids = seen[row.run]
        if row.ir_id in ids:
            raise ConfigError(f"predictions file repeats {row.ir_id} in run {row.run}")
        ids.add(row.ir_id)
        if type(row) is Unscored:
            excluded += 1
            continue
        label = truth.get(row.ir_id)
        if label is None:
            raise ConfigError(f"prediction {row.ir_id} has no ground-truth record")
        row.truth_vul, row.truth_cwe = label
        by_run[row.run].append(row)
    if not by_run:
        raise ConfigError("every prediction is unscored; nothing to evaluate")
    runs = sorted(by_run)
    # one build_report call per run, made through this module's binding: a
    # run's report is the stage's unit of work, which the benchmark times as
    # one item, so its sort and sweep stay inside that call
    per_run = [build_report(by_run[run], cfg.theta_out) for run in runs]
    mean = repeated_mean(per_run)
    digest = config_hash(cfg)
    payload = {
        "config_hash": digest,
        "theta_out": cfg.theta_out,
        "n_runs": len(runs),
        "excluded_unscored": excluded,
        "metrics": mean.to_dict(),
        "per_run": [r.to_dict() for r in per_run],
    }
    Path(report_path).write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    curve = pr_curve(by_run[runs[0]], cfg.pr_interval)
    lines = [f"# config_hash={digest}", "theta,precision,recall"]
    lines += [f"{theta!r},{precision!r},{recall!r}"
              for theta, precision, recall in curve]
    Path(curve_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {**payload, "report": str(report_path), "curve": str(curve_path)}


# ---------------------------------------------------------------------------
# commands

@click.group()
def main():
    """Vulnerability identification from issue-report rich text.

    Historical issue reports become reasoning graphs; for each new target the
    relevant graphs are pruned, retrieved, and turned into guidance for the
    final verdict.
    """


@main.command("prepare-db")
@_pipeline_options
@click.option("--dry-run", is_flag=True,
              help="Print the resolved configuration and exit.")
@_cli_errors
def cmd_prepare_db(config_path, as_json, dry_run, **overrides):
    """Build the reasoning database from the historical corpus half."""
    cfg = _resolve_config(config_path, overrides)
    if dry_run:
        _print_resolved(cfg, as_json)
        return
    summary = stage_prepare(cfg)
    failures = [f"  {ir_id}: {status}" for ir_id, status in summary["status"].items()
                if status != "ok"]
    lines = [f"built {summary['graphs_built']} reasoning graphs "
             f"({summary['historical']} historical, {summary['targets']} targets) "
             f"-> {summary['db_path']}"]
    if failures:
        lines.append("degraded records:")
        lines.extend(failures)
    _emit(summary, as_json, lines)


@main.command("retrieve")
@_pipeline_options
@click.option("--target-id", "target_ids", multiple=True,
              help="Limit retrieval to these target ids (repeatable).")
@_cli_errors
def cmd_retrieve(config_path, as_json, target_ids, **overrides):
    """Show which stored graphs are relevant to each target."""
    cfg = _resolve_config(config_path, overrides)
    results = stage_retrieve(cfg, target_ids)
    lines = []
    for result in results:
        lines.append(f"{result['ir_id']}: {len(result['retrieved'])} graphs kept")
        for r in result["retrieved"]:
            lines.append(f"  {r['origin_ir']} similarity={r['similarity']:.4f} "
                         f"({r['nodes']} nodes, {r['actions']} actions)")
    _emit({"targets": results}, as_json, lines)


@main.command("identify")
@_pipeline_options
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              default="preds.jsonl", show_default=True,
              help="Prediction output file (JSONL).")
@_cli_errors
def cmd_identify(config_path, as_json, out_path, **overrides):
    """Score every target against the reasoning database."""
    cfg = _resolve_config(config_path, overrides)
    summary = stage_identify(cfg, out_path)
    lines = [f"wrote {summary['predictions']} predictions "
             f"({summary['targets']} targets x {summary['runs']} runs) "
             f"-> {summary['out']}",
             f"positive verdicts: {summary['positive']}, "
             f"unscored: {summary['unscored']} ({summary['failed']} failed)"]
    _emit(summary, as_json, lines)


@main.command("evaluate")
@_pipeline_options
@click.option("--preds", "preds_path", type=click.Path(exists=True, dir_okay=False),
              default="preds.jsonl", show_default=True,
              help="Predictions file from identify.")
@click.option("--truth", "truth_path", type=click.Path(exists=True, dir_okay=False),
              default="truth.jsonl", show_default=True,
              help="Ground-truth labels (JSONL).")
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default="report.json", show_default=True)
@click.option("--curve", "curve_path", type=click.Path(dir_okay=False),
              default="curve.csv", show_default=True)
@_cli_errors
def cmd_evaluate(config_path, as_json, preds_path, truth_path, report_path,
                 curve_path, **overrides):
    """Compute the metric report and precision/recall curve."""
    cfg = _resolve_config(config_path, overrides)
    summary = stage_evaluate(cfg, preds_path, truth_path, report_path, curve_path)
    if summary["excluded_unscored"]:
        click.echo(f"warning: {summary['excluded_unscored']} unscored predictions "
                   "excluded from metrics", err=True)
    m = summary["metrics"]
    lines = [("precision={precision:.4f} recall={recall:.4f} f1={f1:.4f} "
              "auroc={auroc:.4f} auprc={auprc:.4f}").format(**m),
             ("macro_p={macro_p:.4f} macro_r={macro_r:.4f} "
              "macro_f1={macro_f1:.4f} over {n} runs").format(
                  n=summary["n_runs"], **m),
             f"report -> {summary['report']}",
             f"curve -> {summary['curve']}"]
    _emit(summary, as_json, lines)


@main.command("run-all")
@_pipeline_options
@click.option("--out-dir", type=click.Path(file_okay=False), default="run-out",
              show_default=True, help="Directory for all run artifacts.")
@click.option("--dry-run", is_flag=True,
              help="Print the resolved configuration and exit.")
@_cli_errors
def cmd_run_all(config_path, as_json, out_dir, dry_run, **overrides):
    """Chain prepare-db, identify, and evaluate into one run directory."""
    cfg = _resolve_config(config_path, overrides)
    out = Path(out_dir)
    cfg.db_path = str(out / "db")
    if dry_run:
        _print_resolved(cfg, as_json)
        return
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "config_hash": config_hash(cfg),
        "completed": False,
        "failed_stage": None,
        "stages": [],
    }

    def write_manifest() -> None:
        (out / "run_manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n",
            encoding="utf-8")

    def run_stage(name, fn):
        start = time.monotonic()
        try:
            result = fn()
        except Exception as exc:
            manifest["stages"].append({
                "name": name, "ok": False,
                "seconds": round(time.monotonic() - start, 3),
                "error": str(exc),
            })
            manifest["failed_stage"] = name
            write_manifest()
            raise
        manifest["stages"].append({
            "name": name, "ok": True,
            "seconds": round(time.monotonic() - start, 3),
        })
        return result

    def identify_and_truth():
        targets = _db_targets(cfg)
        rows = []
        for t in targets:
            if t.label_vul is None:
                raise ConfigError(f"target {t.id} has no label; cannot evaluate")
            rows.append({
                "ir_id": t.id,
                "label_vul": bool(t.label_vul),
                "cwe_id": t.cwe_id if t.label_vul else None,
            })
        write_jsonl(out / "truth.jsonl", rows)
        return stage_identify(cfg, out / "preds.jsonl")

    prep = run_stage("prepare-db", lambda: stage_prepare(cfg))
    run_stage("identify", identify_and_truth)
    evaluation = run_stage("evaluate", lambda: stage_evaluate(
        cfg, out / "preds.jsonl", out / "truth.jsonl",
        out / "report.json", out / "curve.csv"))
    manifest["completed"] = True
    write_manifest()
    summary = {
        "out_dir": str(out),
        "config_hash": manifest["config_hash"],
        "graphs_built": prep["graphs_built"],
        "targets": prep["targets"],
        "n_runs": evaluation["n_runs"],
        "metrics": evaluation["metrics"],
        "stages": manifest["stages"],
    }
    m = evaluation["metrics"]
    lines = [f"{s['name']}: {'ok' if s['ok'] else 'failed'} "
             f"({s['seconds']:.3f}s)" for s in manifest["stages"]]
    lines.append(("precision={precision:.4f} recall={recall:.4f} f1={f1:.4f} "
                  "auroc={auroc:.4f} auprc={auprc:.4f}").format(**m))
    lines.append(f"artifacts -> {out}")
    _emit(summary, as_json, lines)


@main.group()
def va():
    """Vulnerability-awareness store maintenance."""


@va.command("ingest")
@_config_options
@click.option("--records", "records_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Raw knowledge records (JSONL).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Store output path; defaults to va.path from the config.")
@_cli_errors
def cmd_va_ingest(config_path, as_json, records_path, out_path):
    """Check golden-knowledge records and write them as the awareness store."""
    cfg = _resolve_config(config_path, {})
    out_path = out_path or cfg.va.path
    if not out_path:
        raise ConfigError("no output path: pass --out or set va.path")
    store = load_store(records_path)
    save_store(store, out_path)
    summary = {"records": len(store), "out": str(out_path)}
    _emit(summary, as_json, [f"ingested {len(store)} records -> {out_path}"])


if __name__ == "__main__":
    main()
