"""Byte-identity of the e2e pipeline outputs, pinned as SHA-256 digests.

A change that claims to keep outputs the same (a refactor, a cache, a faster
walk) must leave these digests alone. The config hash is masked: it covers
the fixture's absolute paths, so it differs between checkouts and tmp dirs.
Similarities from `stage_retrieve` are written as `float.hex`, so a change in
the last bit shows.
"""

import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from e2e_fixture import write_e2e_config, write_e2e_fixture
from vulrtex import cli
from vulrtex.config import load_config

ARTIFACTS = ("preds.jsonl", "report.json", "curve.csv")

EXPECTED = {
    "runs1": {
        "preds.jsonl": "1f38fe7a18b043b3e1c7ea23d9689b54b53d6726fdd2eb827010d71cce002b04",
        "report.json": "b9849fc65c80bdc8d07a2d52425cdab80d4197943d9559ff2d502f2a709658fa",
        "curve.csv": "b124be22357b62fe92f720a2f78de25c9e6444c73a34c10438905036f595161a",
        "retrieve": "6333221c740cc3e29b029a9acd8c9fe49400c71b61a27ede67ad65208dbbd9ed",
    },
    "runs3": {
        "preds.jsonl": "3f639485bf7e2399d2ad8c4134bb916a12660d7856ae86590db1eae2a0b9cd23",
        "report.json": "c597bb3ad65d65020c6f052db95f65dde542292c53810a1ccc3037045e816513",
        "curve.csv": "b124be22357b62fe92f720a2f78de25c9e6444c73a34c10438905036f595161a",
    },
}

_HASH = re.compile(rb"(config_hash\W+)[0-9a-f]{16}")


def _digest(data: bytes) -> str:
    return hashlib.sha256(_HASH.sub(rb"\1<masked>", data)).hexdigest()


def _run_all(root, runs: int) -> dict[str, str]:
    fx = write_e2e_fixture(root / "fx")
    config = write_e2e_config(root / "config.ini", fx, pipeline={"runs": runs},
                              jitter=0.3)
    out = root / "run"
    result = CliRunner().invoke(cli.main, ["run-all", "-c", str(config),
                                           "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    digests = {name: _digest((out / name).read_bytes()) for name in ARTIFACTS}
    if runs == 1:
        cfg = load_config(str(config))
        cfg.db_path = str(out / "db")
        records = cli.stage_retrieve(cfg)
        for record in records:
            for r in record["retrieved"]:
                r["similarity"] = r["similarity"].hex()
        digests["retrieve"] = _digest(
            json.dumps(records, sort_keys=True).encode("utf-8"))
    return digests


@pytest.mark.parametrize("runs", [1, 3])
def test_outputs_match_recorded_digests(tmp_path, runs):
    first = _run_all(tmp_path / "a", runs)
    second = _run_all(tmp_path / "elsewhere" / "b", runs)
    assert first == second
    assert first == EXPECTED[f"runs{runs}"]
