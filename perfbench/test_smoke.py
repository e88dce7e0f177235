"""Tiny-scale smoke runs of every workload, plain and traced.

    python3 -m pytest -q perfbench

Each run generates its inputs, runs its stage on the stub backends, checks
the outputs and prints the result line; the whole module takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, out: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny", "--seconds", "0.2",
         "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_listed_metric(workload, trace, tmp_path):
    proc = bench("--workload", workload, "--seed", "3", "--trace", trace,
                 out=tmp_path / "results.jsonl")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace == "1":
        assert (tmp_path / f"spans-{workload}-s3.jsonl").is_file()


def test_counts_and_digests_repeat_across_runs(tmp_path):
    out = tmp_path / "results.jsonl"
    for _ in range(2):
        proc = bench("--workload", "identify-repeat", "--seed", "5", "--trace", "1", out=out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    first, second = (json.loads(line) for line in out.read_text().splitlines())
    assert first["digests"] == second["digests"]
    counts = [name for name, m in first["metrics"].items() if m["unit"] != "s"
              and name not in ("items_per_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb",
                               "trace.overhead_ratio")]
    assert counts
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["retrieval.prune_cache.hit_ratio"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "identify-wide", "--seed", "1", out=tmp_path / "r.jsonl",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
