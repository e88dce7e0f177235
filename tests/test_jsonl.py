"""The JSONL reader decodes each stripped line exactly as json.loads would."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulrtex.identifier import Prediction, read_predictions, write_predictions
from vulrtex.jsonl import read_jsonl


def same(value):
    return value


def write(tmp_path, text):
    path = tmp_path / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("line", [
    '{"a":1} {"b":2}',
    '{"a":1},{"b":2}',
    '[1] [2]',
    '1 2',
    '"a""b"',
    '{"a":1}}',
])
def test_two_values_on_one_line_are_refused(tmp_path, line):
    with pytest.raises(ValueError, match="rows.jsonl:1: Extra data"):
        read_jsonl(write(tmp_path, line + "\n"), same)


def test_object_split_over_two_lines_is_refused(tmp_path):
    path = write(tmp_path, '{"a": 1}\n{"b":\n 2}\n')
    with pytest.raises(ValueError, match="rows.jsonl:2: "):
        read_jsonl(path, same)


def test_bom_prefixed_line_is_refused(tmp_path):
    path = write(tmp_path, '\ufeff{"a": 1}\n')
    with pytest.raises(ValueError, match="rows.jsonl:1: "):
        read_jsonl(path, same)
    with pytest.raises(ValueError):
        json.loads('\ufeff{"a": 1}')


def test_blank_and_whitespace_lines_are_skipped(tmp_path):
    path = write(tmp_path, '\n  \n{"a": 1}\n\t \r\n [2] \n\n')
    assert read_jsonl(path, same) == [{"a": 1}, [2]]


def test_line_numbers_count_skipped_lines(tmp_path):
    path = write(tmp_path, '\n{"a": 1}\n\n{"a": tru}\n')
    with pytest.raises(ValueError, match=r"rows.jsonl:4: Expecting value"):
        read_jsonl(path, same)


def test_row_errors_carry_the_location(tmp_path):
    path = write(tmp_path, '{"a": 1}\n{"b": 2}\n')

    def positive(d):
        if d.get("a", 0) <= 0:
            raise ValueError("not positive")
        return d["a"]

    with pytest.raises(ValueError, match=r"rows.jsonl:2: not positive"):
        read_jsonl(path, positive)
    with pytest.raises(ValueError, match=r"rows.jsonl:2: missing key 'a'"):
        read_jsonl(path, lambda d: d["a"])
    with pytest.raises(ValueError, match=r"rows.jsonl:1: unsupported operand"):
        read_jsonl(path, lambda d: d["a"] + "x")


def test_read_predictions_skips_the_header(tmp_path):
    preds = [Prediction("a#1", 0.9, True, "CWE-79", 0.55, True, run=0),
             Prediction("a#2", 0.1, False, None, 0.55, False, run=0)]
    path = tmp_path / "preds.jsonl"
    write_predictions(preds, path, header={"kind": "predictions", "config_hash": "x"})
    assert read_predictions(path) == preds


# single lines: JSON values, two values joined, and near-misses (no line
# breaks, which would make them two lines)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_lines = st.one_of(
    _json_values.map(json.dumps),
    st.tuples(_json_values.map(json.dumps), st.sampled_from([" ", ",", "", "\t"]),
              _json_values.map(json.dumps)).map("".join),
    st.text(alphabet='{}[]",:0123456789.-+eE tfnrualsNIiy\\\ufeff\xa0', max_size=12),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lines)
def test_each_line_reads_as_json_loads(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        stripped = line.strip()
        try:
            want = [json.loads(stripped)] if stripped else []
        except ValueError:
            with pytest.raises(ValueError, match="rows.jsonl:1: "):
                read_jsonl(path, same)
        else:
            # compared as JSON text, where NaN equals NaN
            assert json.dumps(read_jsonl(path, same)) == json.dumps(want)
