"""Metamorphic relations of the pipeline over the e2e fixture.

The acceptance gates pin formulas against oracles; these pin what must not
move when an input changes in a way the method ignores, and how far the
output threshold may move the predictions:

- the line order of the corpus and of the awareness store moves no output;
- adding runs leaves the rows of the runs already there as they were;
- theta_out moves only each row's verdict, its theta_out and its CWE, and a
  higher threshold never turns a negative verdict positive;
- prepare-db into a database directory used before gives the same database,
  and the same retrieval from it, as into a fresh directory.

The stub rules file is exempt from the first: the stub backend answers with
the first rule that matches, so its line order is part of its meaning.

Every run-all uses two runs and a jittered stub, so the p_yes values vary
by run.
The config hash is masked: it covers the input paths, which differ per run.
"""

import json
import re
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from e2e_fixture import e2e_corpus, e2e_knowledge, write_e2e_config, write_e2e_fixture
from vulrtex import cli

ARTIFACTS = ("preds.jsonl", "report.json", "curve.csv")
_HASH = re.compile(rb"(config_hash\W+)[0-9a-f]{16}")

cheap = settings(max_examples=10, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


def _run_all(root, fx: dict, **pipeline) -> dict[str, bytes]:
    """The three determinism files of run-all, with the config hash masked."""
    root.mkdir(parents=True, exist_ok=True)
    config = write_e2e_config(root / "config.ini", fx,
                              pipeline={"runs": 2, **pipeline}, jitter=0.3)
    out = root / "run"
    result = CliRunner().invoke(cli.main, ["run-all", "-c", str(config),
                                           "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    return {name: _HASH.sub(rb"\1<masked>", (out / name).read_bytes())
            for name in ARTIFACTS}


def _rows(outputs: dict[str, bytes]) -> list[dict]:
    """The prediction rows, without the header line."""
    return [json.loads(line) for line in outputs["preds.jsonl"].splitlines()[1:]]


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    fx = write_e2e_fixture(root / "fx")
    return root, fx, _run_all(root / "base", fx)


def _reordered(path: str, order: list[int], to: Path) -> str:
    """The file's lines written to `to` in the given order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    to.write_text("".join(lines[i] for i in order), encoding="utf-8")
    return str(to)


@cheap
@given(st.permutations(range(len(e2e_corpus()))),
       st.permutations(range(len(e2e_knowledge()))))
def test_line_order_of_the_inputs_moves_no_output(fixture, corpus_order, va_order):
    root, fx, base = fixture
    case = Path(tempfile.mkdtemp(dir=root))
    moved = {**fx, "corpus": _reordered(fx["corpus"], corpus_order, case / "corpus.jsonl"),
             "va": _reordered(fx["va"], va_order, case / "va.jsonl")}
    assert _run_all(case, moved) == base


def test_adding_runs_keeps_the_earlier_runs_rows(fixture, tmp_path):
    root, fx, base = fixture
    three = _rows(_run_all(tmp_path / "three", fx, runs=3))
    assert {r["run"] for r in three} == {0, 1, 2}
    assert [r for r in three if r["run"] < 2] == _rows(base)
    assert [r for r in three if r["run"] < 1] == _rows(_run_all(tmp_path / "one", fx, runs=1))


_KEYS_THETA_MOVES = ("verdict", "theta_out", "cwe_id")


@cheap
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted))
def test_theta_out_moves_only_the_verdicts(fixture, thetas):
    root, fx, base = fixture
    low, high = (_rows(_run_all(Path(tempfile.mkdtemp(dir=root)), fx, theta_out=theta))
                 for theta in thetas)
    assert len(low) == len(high) == len(_rows(base))
    for lo, hi in zip(low, high):
        assert (lo["theta_out"], hi["theta_out"]) == tuple(thetas)
        assert lo["p_yes"] == hi["p_yes"]
        # a higher threshold never turns a negative verdict positive
        assert lo["verdict"] or not hi["verdict"]
        if lo["verdict"] == hi["verdict"]:
            assert lo["cwe_id"] == hi["cwe_id"]
        assert ({k: v for k, v in lo.items() if k not in _KEYS_THETA_MOVES}
                == {k: v for k, v in hi.items() if k not in _KEYS_THETA_MOVES})


def test_fixture_verdicts_fall_on_both_sides_of_the_threshold(fixture):
    # the relation above is not vacuous: the fixture's p_yes spread over both
    # sides of a threshold
    root, fx, base = fixture
    verdicts = {r["verdict"] for r in _rows(base)}
    assert verdicts == {True, False}


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_prepare_into_a_used_db_equals_prepare_into_a_fresh_one(tmp_path):
    fx = write_e2e_fixture(tmp_path / "fx")
    # the first 10 reports: 6 historical, and reports 7-10 as targets, whose
    # graphs the 20-report database before them holds
    first = {**fx, "corpus": _reordered(fx["corpus"], list(range(10)),
                                        tmp_path / "first.jsonl")}
    configs = {name: str(write_e2e_config(tmp_path / f"{name}.ini", corpus))
               for name, corpus in (("all", fx), ("first", first))}

    def invoke(command: str, config: str, db: Path, *args: str) -> str:
        result = CliRunner().invoke(cli.main, [command, "-c", configs[config],
                                               "--db", str(db), *args])
        assert result.exit_code == 0, result.output
        return result.stdout

    used, fresh = tmp_path / "used", tmp_path / "fresh"
    invoke("prepare-db", "all", used)
    invoke("prepare-db", "first", used)
    invoke("prepare-db", "first", fresh)
    assert _tree(used) == _tree(fresh)
    assert len(list((used / "graphs").iterdir())) == 6
    assert invoke("retrieve", "first", used, "--json") == \
        invoke("retrieve", "first", fresh, "--json")
