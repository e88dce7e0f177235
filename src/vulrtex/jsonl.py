"""The one reader behind every JSON Lines input: corpus, awareness store,
stub rules, truth labels and predictions.

Each non-blank line holds one JSON value and is decoded on its own, so a bad
line is reported as `<path>:<line>: <reason>` and cannot be masked by its
neighbours.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path
from typing import Any, TypeVar

T = TypeVar("T")

_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str | Path, row: Callable[[Any], T]) -> list[T]:
    """`row` of each line's value, in file order; blank lines are skipped.

    A stripped line decodes exactly as json.loads would take it: raw_decode
    reads one value from its first character and any text left after that
    value is "Extra data" (a BOM, which json.loads refuses, is no value).
    A line that does not decode, or whose `row` raises ValueError, KeyError
    or TypeError, raises ValueError naming the path and line number.
    """
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            value, end = _raw_decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            out.append(row(value))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing key {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out
