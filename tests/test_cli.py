"""End-to-end subcommand tests over the scripted 20-report corpus."""

import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from e2e_fixture import (E2E_HISTORICAL, E2E_TARGET_COUNT, e2e_corpus,
                         e2e_knowledge, write_e2e_config, write_e2e_fixture)
from vulrtex import cli
from vulrtex.cli import main
from vulrtex.config import config_hash, load_config
from vulrtex.corpus import load_corpus
from vulrtex.errors import MalformedReply, TransportError
from vulrtex.identifier import read_predictions, write_predictions
from vulrtex.knowledge import load_store

TARGET_VERDICTS = {
    "e2e/shop#13": (True, 0.92),
    "e2e/shop#14": (False, 0.08),
    "e2e/shop#15": (True, 0.88),
    "e2e/shop#16": (True, 0.63),
    "e2e/shop#17": (False, 0.41),
    "e2e/shop#18": (False, 0.22),
    "e2e/shop#19": (True, 0.77),
    "e2e/shop#20": (False, 0.12),
}

# confusion table for the scripted verdicts at theta_out 0.55:
# TP {13, 15, 19}, FP {16}, FN {17}, TN {14, 18, 20}
EXPECTED = {
    "precision": 0.75,
    "recall": 0.75,
    "f1": 0.75,
    "auroc": 15 / 16,
    "auprc": 0.95,
    "macro_p": 1.0,
    "macro_r": 5 / 6,
    "macro_f1": 8 / 9,
}


@pytest.fixture()
def env(tmp_path):
    fx = write_e2e_fixture(tmp_path / "fx")
    config = write_e2e_config(tmp_path / "config.ini", fx)
    return SimpleNamespace(root=tmp_path, fx=fx, config=str(config),
                           runner=CliRunner())


def run_ok(env, *args):
    result = env.runner.invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return result


def run_fail(env, *args):
    result = env.runner.invoke(main, list(args))
    assert result.exit_code != 0
    return result


def prepared_db(env):
    db = env.root / "db"
    run_ok(env, "prepare-db", "-c", env.config, "--db", str(db))
    return db


def header_of(preds: Path) -> dict:
    """The header record, the first line identify writes."""
    return json.loads(preds.read_text(encoding="utf-8").splitlines()[0])


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_truth(env) -> Path:
    rows = []
    for ir in e2e_corpus()[E2E_HISTORICAL:]:
        rows.append(json.dumps({"ir_id": ir.id, "label_vul": bool(ir.label_vul),
                                "cwe_id": ir.cwe_id}, sort_keys=True))
    path = env.root / "truth.jsonl"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestPrepareDb:
    def test_builds_every_historical_graph(self, env):
        db = env.root / "db"
        result = run_ok(env, "prepare-db", "-c", env.config, "--db", str(db), "--json")
        payload = json.loads(result.stdout)
        assert payload["historical"] == E2E_HISTORICAL
        assert payload["targets"] == E2E_TARGET_COUNT
        assert payload["graphs_built"] == E2E_HISTORICAL
        assert set(payload["status"].values()) == {"ok"}
        assert len(list((db / "graphs").glob("*.json"))) == E2E_HISTORICAL

    def test_manifest_and_corpus_halves(self, env):
        db = prepared_db(env)
        manifest = json.loads((db / "manifest.json").read_text())
        cfg = load_config(env.config)
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["count"] == E2E_HISTORICAL
        assert len(load_corpus(db / "historical.jsonl")) == E2E_HISTORICAL
        assert len(load_corpus(db / "targets.jsonl")) == E2E_TARGET_COUNT

    def test_rerun_is_byte_identical(self, env):
        run_ok(env, "prepare-db", "-c", env.config, "--db", str(env.root / "db1"))
        run_ok(env, "prepare-db", "-c", env.config, "--db", str(env.root / "db2"))
        assert tree_bytes(env.root / "db1") == tree_bytes(env.root / "db2")

    def test_dry_run_touches_nothing(self, env):
        db = env.root / "db"
        result = run_ok(env, "prepare-db", "-c", env.config, "--db", str(db),
                        "--dry-run", "--json")
        payload = json.loads(result.stdout)
        assert "config_hash" in payload
        assert payload["db_path"] == str(db)
        assert not db.exists()

    def test_correction_without_store_is_refused(self, env):
        bare = env.root / "bare.ini"
        bare.write_text(
            "[pipeline]\n"
            f"corpus_path = {env.fx['corpus']}\n"
            "correction_enabled = true\n"
            "[llm]\n"
            f"stub_rules_path = {env.fx['rules']}\n"
            "[tool]\n"
            f"scr_fixtures_dir = {env.fx['scr_dir']}\n",
            encoding="utf-8")
        result = run_fail(env, "prepare-db", "-c", str(bare),
                          "--db", str(env.root / "db"))
        assert "va.path" in result.output

    def test_correction_off_reads_no_store(self, env, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_store", lambda path: loads.append(path))
        config = write_e2e_config(env.root / "off.ini",
                                  {**env.fx, "va": str(env.root / "missing.jsonl")},
                                  pipeline={"correction_enabled": "false"})
        result = run_ok(env, "prepare-db", "-c", str(config), "--db", str(env.root / "db"),
                        "--json")
        assert json.loads(result.stdout)["graphs_built"] == E2E_HISTORICAL
        assert loads == []

    @pytest.mark.parametrize("rule, reason", [
        ({"pattern": "a(", "response_text": "x"}, "missing ), unterminated subpattern"),
        ({"pattern": "a", "response_text": "\\g<nope>"}, "unknown group name 'nope'"),
    ])
    def test_bad_stub_rule_names_file_and_line(self, env, rule, reason):
        rules = Path(env.fx["rules"]).read_text().splitlines()
        rules.insert(1, json.dumps(rule))
        bad = env.root / "rules.jsonl"
        bad.write_text("\n".join(rules) + "\n", encoding="utf-8")
        config = env.root / "bad-rules.ini"
        config.write_text(Path(env.config).read_text().replace(env.fx["rules"], str(bad)),
                          encoding="utf-8")
        result = env.runner.invoke(main, ["prepare-db", "-c", str(config),
                                          "--db", str(env.root / "db")])
        assert result.exit_code == 1
        assert f"rules.jsonl:2: bad stub rule: {reason}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("content, rich, reason", [
        ("see [SCR1] and [CODE1]", [{"kind": "SCR", "tag": "[SCR1]", "payload": "a.png"}],
         "content tags ['[CODE1]', '[SCR1]'] != table tags ['[SCR1]']"),
        ("see [SCR1]", [{"kind": "SCR", "tag": "[SCR1]", "payload": "a.png"},
                        {"kind": "SCR", "tag": "[SCR1]", "payload": "b.png"}],
         "duplicate tags in rich_text"),
    ])
    def test_record_with_mismatched_tags_names_file_and_line(self, env, content, rich,
                                                             reason):
        lines = Path(env.fx["corpus"]).read_text().splitlines()
        record = {**json.loads(lines[1]), "Content": content, "Rich-Text": rich}
        lines[1] = json.dumps(record)
        bad = env.root / "corpus.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        db = env.root / "db"
        result = env.runner.invoke(main, ["prepare-db", "-c", env.config,
                                          "--corpus", str(bad), "--db", str(db)])
        assert result.exit_code == 1
        assert f"corpus.jsonl:2: IR {record['id']}: {reason}" in result.output
        assert "Traceback" not in result.output
        assert not db.exists()

    def test_http_tool_backend_without_endpoint_is_refused_at_load(self, env):
        config = env.root / "http-scr.ini"
        config.write_text(Path(env.config).read_text().replace(
            "scr_backend = stub", "scr_backend = http"), encoding="utf-8")
        db = env.root / "db"
        result = env.runner.invoke(main, ["prepare-db", "-c", str(config), "--db", str(db)])
        assert result.exit_code == 1
        assert "an http backend needs tool.scr_endpoint, which is empty" in result.output
        assert "Traceback" not in result.output
        assert not db.exists()


class TestRetrieve:
    def test_every_target_reports_relevant_graphs(self, env):
        db = prepared_db(env)
        result = run_ok(env, "retrieve", "-c", env.config, "--db", str(db), "--json")
        payload = json.loads(result.stdout)
        assert len(payload["targets"]) == E2E_TARGET_COUNT
        historical_ids = {ir.id for ir in e2e_corpus()[:E2E_HISTORICAL]}
        for entry in payload["targets"]:
            assert entry["retrieved"], entry["ir_id"]
            sims = [r["similarity"] for r in entry["retrieved"]]
            assert sims == sorted(sims, reverse=True)
            for r in entry["retrieved"]:
                assert r["origin_ir"] in historical_ids
                assert r["similarity"] > 0.05
                assert r["nodes"] >= 2

    def test_target_filter(self, env):
        db = prepared_db(env)
        result = run_ok(env, "retrieve", "-c", env.config, "--db", str(db),
                        "--target-id", "e2e/shop#13", "--json")
        payload = json.loads(result.stdout)
        assert [t["ir_id"] for t in payload["targets"]] == ["e2e/shop#13"]

    def test_unknown_target_rejected(self, env):
        db = prepared_db(env)
        result = run_fail(env, "retrieve", "-c", env.config, "--db", str(db),
                          "--target-id", "e2e/shop#99")
        assert "unknown target" in result.output

    def test_missing_database_is_explained(self, env):
        result = run_fail(env, "retrieve", "-c", env.config,
                          "--db", str(env.root / "nowhere"))
        assert "prepare-db" in result.output

    @pytest.mark.parametrize("body, reason", [
        ("{}", "KeyError: 'ir_id'"),
        ('{"ir_id": "x", "nodes": 3, "edges": []}', "TypeError: 'int' object is not iterable"),
        ("{not json", "JSONDecodeError: Expecting property name"),
        ('{"ir_id": "zz", "nodes": [{"id": "O1", "text": "a"}, {"id": "O1", "text": "b"}],'
         ' "edges": []}', "DuplicateId: observation O1 already present"),
        ('{"ir_id": "zz", "nodes": [{"id": "O1", "text": "a"}],'
         ' "edges": [{"id": "A1", "src": "O1", "dst": "O2", "tool": "t"}]}',
         "DanglingEndpoint: action A1: O1->O2 references a missing node"),
        ('{"ir_id": "zz", "nodes": [{"id": "O1", "text": "a"}, {"id": "O2", "text": "b"}],'
         ' "edges": [{"id": "A1", "src": "O1", "dst": "O2", "tool": "t"},'
         ' {"id": "A2", "src": "O2", "dst": "O1", "tool": "t"}]}',
         "CycleIntroduced: action A2: O2->O1 would close a cycle"),
    ])
    def test_corrupt_graph_file_is_named(self, env, body, reason):
        db = prepared_db(env)
        (db / "graphs" / "zz.json").write_text(body, encoding="utf-8")
        result = env.runner.invoke(main, ["retrieve", "-c", env.config, "--db", str(db)])
        assert result.exit_code == 1
        # exited through the CLI's error handler, not an uncaught exception
        assert isinstance(result.exception, SystemExit)
        assert f"zz.json: not a reasoning graph: {reason}" in result.output
        assert "Traceback" not in result.output

    def test_graph_file_of_another_id_is_refused(self, env):
        # a copied graph file would give two graphs one id
        db = prepared_db(env)
        stored = sorted((db / "graphs").glob("*.json"))[0].read_text(encoding="utf-8")
        (db / "graphs" / "zz.json").write_text(stored, encoding="utf-8")
        result = env.runner.invoke(main, ["retrieve", "-c", env.config, "--db", str(db)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        ir_id = json.loads(stored)["ir_id"]
        assert f"zz.json: holds the graph of {ir_id!r}, not of 'zz'" in result.output
        assert "Traceback" not in result.output


class TestIdentify:
    def test_predictions_follow_the_script(self, env):
        db = prepared_db(env)
        out = env.root / "preds.jsonl"
        run_ok(env, "identify", "-c", env.config, "--db", str(db), "--out", str(out))
        preds = read_predictions(out)
        assert len(preds) == E2E_TARGET_COUNT
        for pred in preds:
            verdict, p = TARGET_VERDICTS[pred.ir_id]
            assert pred.verdict is verdict
            assert pred.p_yes == pytest.approx(p, abs=1e-12)
            assert pred.guidance_used
            assert pred.run == 0
        by_id = {p.ir_id: p for p in preds}
        assert by_id["e2e/shop#13"].cwe_id == "CWE-79"
        assert by_id["e2e/shop#15"].cwe_id == "CWE-89"
        assert by_id["e2e/shop#19"].cwe_id == "CWE-352"
        assert by_id["e2e/shop#17"].cwe_id is None

    def test_header_carries_config_hash(self, env):
        db = prepared_db(env)
        out = env.root / "preds.jsonl"
        run_ok(env, "identify", "-c", env.config, "--db", str(db), "--out", str(out))
        header = header_of(out)
        assert header["kind"] == "predictions"
        assert header["config_hash"] == config_hash(load_config(env.config))
        assert header["runs"] == 1

    def test_database_from_other_config_is_refused(self, env):
        db = prepared_db(env)
        result = run_fail(env, "identify", "-c", env.config, "--db", str(db),
                          "--seed", "99", "--out", str(env.root / "p.jsonl"))
        assert "refusing to mix" in result.output

    def test_target_with_untabled_tag_names_file_and_line(self, env):
        db = prepared_db(env)
        targets = db / "targets.jsonl"
        lines = targets.read_text().splitlines()
        record = json.loads(lines[2])
        record["Content"] += " see [CODE9]"
        lines[2] = json.dumps(record)
        targets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = env.root / "preds.jsonl"
        result = env.runner.invoke(main, ["identify", "-c", env.config, "--db", str(db),
                                          "--out", str(out)])
        assert result.exit_code == 1
        assert f"targets.jsonl:3: IR {record['id']}: content tags" in result.output
        assert not out.exists()


class TestEvaluate:
    def finished_run(self, env):
        db = prepared_db(env)
        preds = env.root / "preds.jsonl"
        run_ok(env, "identify", "-c", env.config, "--db", str(db),
               "--out", str(preds))
        return preds, write_truth(env)

    def test_report_matches_hand_confusion(self, env):
        preds, truth = self.finished_run(env)
        report = env.root / "report.json"
        curve = env.root / "curve.csv"
        result = run_ok(env, "evaluate", "-c", env.config, "--preds", str(preds),
                        "--truth", str(truth), "--report", str(report),
                        "--curve", str(curve), "--json")
        payload = json.loads(result.stdout)
        assert payload["n_runs"] == 1
        assert payload["excluded_unscored"] == 0
        for key, want in EXPECTED.items():
            assert payload["metrics"][key] == pytest.approx(want, abs=1e-12), key
        on_disk = json.loads(report.read_text())
        assert on_disk["metrics"] == payload["metrics"]

    def test_curve_rows(self, env):
        preds, truth = self.finished_run(env)
        curve = env.root / "curve.csv"
        run_ok(env, "evaluate", "-c", env.config, "--preds", str(preds),
               "--truth", str(truth), "--report", str(env.root / "report.json"),
               "--curve", str(curve))
        lines = curve.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "theta,precision,recall"
        assert len(lines) == 2 + 21  # 0.0 .. 1.0 at 0.05
        assert "0.55,0.75,0.75" in lines

    def test_unscored_predictions_are_excluded(self, env):
        preds, truth = self.finished_run(env)
        rows = read_predictions(preds)
        header = header_of(preds)
        rows = [replace(p, p_yes=None, verdict=False, cwe_id=None, unscored=True)
                if p.ir_id == "e2e/shop#14" else p for p in rows]
        write_predictions(rows, preds, header=header)
        result = run_ok(env, "evaluate", "-c", env.config, "--preds", str(preds),
                        "--truth", str(truth),
                        "--report", str(env.root / "report.json"),
                        "--curve", str(env.root / "curve.csv"), "--json")
        payload = json.loads(result.stdout)
        assert payload["excluded_unscored"] == 1
        assert payload["metrics"]["precision"] == pytest.approx(0.75, abs=1e-12)

    def test_predictions_from_other_config_refused(self, env):
        preds, truth = self.finished_run(env)
        result = run_fail(env, "evaluate", "-c", env.config, "--seed", "99",
                          "--preds", str(preds), "--truth", str(truth),
                          "--report", str(env.root / "report.json"),
                          "--curve", str(env.root / "curve.csv"))
        assert "refusing to mix" in result.output

    def test_missing_truth_record_is_an_error(self, env):
        preds, truth = self.finished_run(env)
        kept = [l for l in truth.read_text().splitlines() if "#20" not in l]
        truth.write_text("\n".join(kept) + "\n", encoding="utf-8")
        result = run_fail(env, "evaluate", "-c", env.config, "--preds", str(preds),
                          "--truth", str(truth),
                          "--report", str(env.root / "report.json"),
                          "--curve", str(env.root / "curve.csv"))
        assert "no ground-truth" in result.output

    def test_repeated_prediction_row_is_an_error(self, env):
        preds, truth = self.finished_run(env)
        rows = preds.read_text().splitlines()
        repeated = next(l for l in rows if "e2e/shop#14" in l)
        preds.write_text("\n".join(rows + [repeated] * 5) + "\n", encoding="utf-8")
        result = run_fail(env, "evaluate", "-c", env.config, "--preds", str(preds),
                          "--truth", str(truth),
                          "--report", str(env.root / "report.json"),
                          "--curve", str(env.root / "curve.csv"))
        assert "repeats e2e/shop#14 in run 0" in result.output
        assert not (env.root / "report.json").exists()

    def test_malformed_truth_line_names_file_and_line(self, env):
        preds, truth = self.finished_run(env)
        rows = truth.read_text().splitlines()
        rows[1] = rows[1][:len(rows[1]) // 2]  # a truncated second row
        truth.write_text("\n".join(rows) + "\n", encoding="utf-8")
        result = env.runner.invoke(main, [
            "evaluate", "-c", env.config, "--preds", str(preds), "--truth", str(truth),
            "--report", str(env.root / "report.json"),
            "--curve", str(env.root / "curve.csv")])
        assert result.exit_code == 1
        assert "truth.jsonl:2: " in result.output
        assert "Traceback" not in result.output

    def test_invalid_prediction_row_names_file_and_line(self, env):
        preds, truth = self.finished_run(env)
        rows = preds.read_text().splitlines()
        bad = json.loads(rows[3])
        bad["verdict"] = not bad["verdict"]
        rows[3] = json.dumps(bad)
        preds.write_text("\n".join(rows) + "\n", encoding="utf-8")
        result = env.runner.invoke(main, [
            "evaluate", "-c", env.config, "--preds", str(preds), "--truth", str(truth),
            "--report", str(env.root / "report.json"),
            "--curve", str(env.root / "curve.csv")])
        assert result.exit_code == 1
        assert "preds.jsonl:4: verdict must equal p_yes >= theta_out" in result.output


    @pytest.mark.parametrize("change, reason", [
        ({"p_yes": None, "unscored": False},
         "p_yes must be null exactly when the row is unscored"),
        ({"latency_seconds": -1.0}, "e2e/shop#13: latency -1.0 is not a number >= 0"),
        ({"p_yes": True}, "e2e/shop#13: p_yes True is not a number in [0, 1]"),
        ({"run": "0"}, "run '0' is not an integer"),
    ])
    def test_mistyped_prediction_row_names_file_and_line(self, env, change, reason):
        preds, truth = self.finished_run(env)
        rows = preds.read_text().splitlines()
        # a positive row, so p_yes true would agree with its verdict
        k = next(i for i, line in enumerate(rows) if '"e2e/shop#13"' in line)
        rows[k] = json.dumps({**json.loads(rows[k]), **change})
        preds.write_text("\n".join(rows) + "\n", encoding="utf-8")
        result = env.runner.invoke(main, [
            "evaluate", "-c", env.config, "--preds", str(preds), "--truth", str(truth),
            "--report", str(env.root / "report.json"),
            "--curve", str(env.root / "curve.csv")])
        assert result.exit_code == 1
        assert f"preds.jsonl:{k + 1}: {reason}" in result.output
        assert "Traceback" not in result.output
        assert not (env.root / "report.json").exists()


class FailingFor:
    """A backend that fails every prompt naming `ir_id` with `error` and
    passes the rest to the stub."""

    def __init__(self, inner, ir_id, error):
        self.inner, self.ir_id, self.error = inner, ir_id, error
        self.name = inner.name

    def complete(self, req):
        if self.ir_id in req.user_prompt:
            raise self.error("scripted failure")
        return self.inner.complete(req)


def fail_target(monkeypatch, ir_id, error):
    """Make every gateway the CLI builds fail the prompts of one target;
    a TransportError is retried without sleeping, then GatewayExhausted."""
    make_gateway = cli.make_gateway

    def failing_gateway(*args, **kwargs):
        gw = make_gateway(*args, **kwargs)
        gw.backend = FailingFor(gw.backend, ir_id, error)
        gw.backoff_base = 0.0
        return gw

    monkeypatch.setattr(cli, "make_gateway", failing_gateway)


class TestRunAll:
    def test_repeated_runs_are_byte_identical(self, env):
        artifacts = ("preds.jsonl", "report.json", "curve.csv", "truth.jsonl")
        outputs = []
        for rep in range(3):
            out = env.root / f"run{rep}"
            run_ok(env, "run-all", "-c", env.config, "--out-dir", str(out))
            outputs.append({name: (out / name).read_bytes() for name in artifacts})
        assert outputs[0] == outputs[1] == outputs[2]

    def test_manifest_and_summary(self, env):
        out = env.root / "run"
        result = run_ok(env, "run-all", "-c", env.config, "--out-dir", str(out),
                        "--json")
        payload = json.loads(result.stdout)
        assert payload["graphs_built"] == E2E_HISTORICAL
        assert payload["n_runs"] == 1
        for key, want in EXPECTED.items():
            assert payload["metrics"][key] == pytest.approx(want, abs=1e-12), key
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["completed"] is True
        assert manifest["failed_stage"] is None
        assert [s["name"] for s in manifest["stages"]] == \
            ["prepare-db", "identify", "evaluate"]
        assert all(s["ok"] for s in manifest["stages"])

    def test_stage_failure_recorded_and_nonzero_exit(self, env):
        broken = env.root / "broken.ini"
        body = Path(env.config).read_text()
        body = body.replace(env.fx["rules"], str(env.root / "missing-rules.jsonl"))
        broken.write_text(body, encoding="utf-8")
        out = env.root / "run"
        run_fail(env, "run-all", "-c", str(broken), "--out-dir", str(out))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["completed"] is False
        assert manifest["failed_stage"] == "prepare-db"
        assert manifest["stages"][0]["ok"] is False

    def test_seeded_repeat_runs_average(self, tmp_path):
        fx = write_e2e_fixture(tmp_path / "fx")
        config = write_e2e_config(tmp_path / "config.ini", fx,
                                  pipeline={"runs": 3}, jitter=0.05)
        runner = CliRunner()
        out = tmp_path / "run"
        result = runner.invoke(main, ["run-all", "-c", str(config),
                                      "--out-dir", str(out), "--json"])
        assert result.exit_code == 0, result.output
        preds = read_predictions(out / "preds.jsonl")
        assert len(preds) == 3 * E2E_TARGET_COUNT
        assert {p.run for p in preds} == {0, 1, 2}
        by_run = {run: {p.ir_id: p.p_yes for p in preds if p.run == run}
                  for run in (0, 1, 2)}
        spread = {by_run[run]["e2e/shop#13"] for run in (0, 1, 2)}
        assert len(spread) == 3  # jitter shifts every seeded pass
        report = json.loads((out / "report.json").read_text())
        assert report["n_runs"] == 3
        assert len(report["per_run"]) == 3
        mean = sum(r["precision"] for r in report["per_run"]) / 3
        assert report["metrics"]["precision"] == pytest.approx(mean, abs=1e-12)

    @pytest.mark.parametrize("error", [TransportError, MalformedReply])
    def test_failing_target_costs_one_prediction(self, env, monkeypatch, caplog, error):
        fail_target(monkeypatch, "e2e/shop#14", error)
        out = env.root / "run"
        run_ok(env, "run-all", "-c", env.config, "--out-dir", str(out))
        assert "e2e/shop#14: run 0 failed, left unscored" in caplog.text
        preds = read_predictions(out / "preds.jsonl")
        assert len(preds) == E2E_TARGET_COUNT
        for pred in preds:
            assert pred.unscored is (pred.ir_id == "e2e/shop#14")
        failed = next(p for p in preds if p.unscored)
        assert (failed.p_yes, failed.verdict) == (None, False)
        report = json.loads((out / "report.json").read_text())
        assert report["excluded_unscored"] == 1

    def test_identify_counts_failed_targets(self, env, monkeypatch):
        db = prepared_db(env)
        fail_target(monkeypatch, "e2e/shop#17", MalformedReply)
        result = run_ok(env, "identify", "-c", env.config, "--db", str(db),
                        "--out", str(env.root / "preds.jsonl"), "--json")
        payload = json.loads(result.stdout)
        assert (payload["failed"], payload["unscored"]) == (1, 1)
        assert payload["predictions"] == E2E_TARGET_COUNT

    def test_dry_run_creates_nothing(self, env):
        out = env.root / "run"
        result = run_ok(env, "run-all", "-c", env.config, "--out-dir", str(out),
                        "--dry-run", "--json")
        payload = json.loads(result.stdout)
        assert payload["db_path"] == str(out / "db")
        assert not out.exists()


class TestVaIngest:
    def test_ingest_builds_store(self, env):
        records = env.root / "records.jsonl"
        records.write_text(
            "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n"
                    for r in e2e_knowledge()), encoding="utf-8")
        out = env.root / "store.jsonl"
        result = run_ok(env, "va", "ingest", "--records", str(records),
                        "--out", str(out), "--json")
        payload = json.loads(result.stdout)
        assert payload["records"] == len(e2e_knowledge())
        assert len(load_store(out)) == len(e2e_knowledge())
        assert not out.with_suffix(".index.json").exists()

    def test_out_defaults_to_configured_path(self, env, tmp_path):
        records = env.root / "records.jsonl"
        records.write_text(
            "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n"
                    for r in e2e_knowledge()), encoding="utf-8")
        target = tmp_path / "configured-store.jsonl"
        ini = env.root / "va.ini"
        ini.write_text(f"[va]\npath = {target}\n", encoding="utf-8")
        run_ok(env, "va", "ingest", "-c", str(ini), "--records", str(records))
        assert target.exists()

    def test_no_output_path_is_an_error(self, env):
        records = env.root / "records.jsonl"
        records.write_text(json.dumps(e2e_knowledge()[0].to_dict()) + "\n",
                           encoding="utf-8")
        result = run_fail(env, "va", "ingest", "--records", str(records))
        assert "--out" in result.output

    def test_record_without_text_names_file_and_line(self, env):
        records = env.root / "records.jsonl"
        record = e2e_knowledge()[0].to_dict()
        del record["text"]
        records.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        result = env.runner.invoke(main, ["va", "ingest", "--records", str(records),
                                          "--out", str(env.root / "store.jsonl")])
        assert result.exit_code == 1
        assert "records.jsonl:2: missing key 'text'" in result.output

    def test_record_with_non_string_text_names_file_and_line(self, env):
        records = env.root / "records.jsonl"
        record = {**e2e_knowledge()[0].to_dict(), "text": 5}
        records.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = env.root / "store.jsonl"
        result = env.runner.invoke(main, ["va", "ingest", "--records", str(records),
                                          "--out", str(out)])
        assert result.exit_code == 1
        assert "records.jsonl:1: knowledge record text must be a string" in result.output
        assert not out.exists()

    def test_record_without_terms_names_file_and_line(self, env):
        records = env.root / "records.jsonl"
        good = e2e_knowledge()[0].to_dict()
        bad = {**good, "key": "stopwords", "text": "the of into"}
        records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n",
                           encoding="utf-8")
        out = env.root / "store.jsonl"
        result = env.runner.invoke(main, ["va", "ingest", "--records", str(records),
                                          "--out", str(out)])
        assert result.exit_code == 1
        assert "records.jsonl:2: knowledge record" in result.output
        assert "has no terms in 'the of into'" in result.output
        assert not out.exists()
