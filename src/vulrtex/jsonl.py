"""The one reader behind every JSON Lines input (corpus, awareness store,
stub rules, truth labels and predictions) and the one writer behind every
JSON Lines output.

Each non-blank line holds one JSON value and is decoded on its own, so a bad
line is reported as `<path>:<line>: <reason>` and cannot be masked by its
neighbours. A file is read one line at a time, so reading holds one line of
it beside the rows made so far. `typed` is the check of one decoded field's
JSON type that the row parsers, and the graph files' reader, share.
`dumps_sorted` is the one compact, key-sorted encoder behind every
JSON Lines row, graph file, serialized report and config hash.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any, TypeVar

T = TypeVar("T")

_scan_once = json.JSONDecoder().scan_once


def iter_jsonl(path: str | Path, row: Callable[[Any], T]) -> Iterator[T]:
    """`row` of each line's value, in file order; blank lines are skipped.

    Lines end at "\n" alone, so a "\r" before it strips as whitespace and
    a U+2028, U+2029 or U+0085 inside a JSON string is content. Each line
    is UTF-8, decoded on its own.
    A stripped line decodes exactly as json.loads would take it: the
    decoder's scanner reads one value from the line's first character, a
    line where none starts raises what JSONDecoder.raw_decode raises, and
    any text left after the value is "Extra data" (a BOM, which json.loads
    refuses, is no value).
    A line that is not UTF-8, does not decode, or whose `row` raises
    ValueError, KeyError or TypeError, raises ValueError naming the path
    and line number.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                # UnicodeDecodeError is a ValueError
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                try:
                    value, end = _scan_once(line, 0)
                except StopIteration as err:
                    raise json.JSONDecodeError("Expecting value", line, err.value) from None
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                value = row(value)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing key {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield value


_KINDS = {str: "a string", int: "an integer", bool: "a boolean", list: "a list",
          dict: "an object"}


# json.dumps(value, sort_keys=True), with one encoder for every call rather
# than a new one per call
dumps_sorted = json.JSONEncoder(sort_keys=True).encode


def typed(value: Any, kind: type, name: str, nullable: bool = False) -> Any:
    """`value` when its type is exactly `kind`, as JSON decodes it (a bool is
    no integer), or when it is None and `nullable`; otherwise ValueError
    naming the field `name`."""
    if type(value) is kind or (nullable and value is None):
        return value
    raise ValueError(f"{name} {value!r} is not {_KINDS[kind]}")


def read_jsonl(path: str | Path, row: Callable[[Any], T]) -> list[T]:
    """The rows of iter_jsonl as a list."""
    return list(iter_jsonl(path, row))


def write_jsonl(path: str | Path, rows: Iterable[Any]) -> None:
    """One `dumps_sorted(row)` line per row, each ending in a newline; no
    rows write an empty file."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps_sorted(row) + "\n")
