#!/usr/bin/env python3
"""Summarize or compare benchmark result files.

    python3 perfbench/compare.py RESULTS.jsonl            # medians and spreads
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl  # verdict per metric

A result file holds one record per run, as run.py appends them. Only plain
(--trace 0) runs are used. Every end-to-end metric is reported on its own
row per workload; metrics are never combined into one score.

The spread of a metric is the distance between its first and third
quartile (statistics.quantiles, n=4) as a share of its median. The bound is
the metric's bound in BENCHMARK.json; metrics without one (the exact LLM,
tool and failure counts) get bound 0, so any change in the worse direction
is a regression. Verdicts, with "worse" measured in the metric's better
direction:

  regressed   CHANGE's median is worse than BASE's by more than the bound
  unresolved  either side spreads wider than the bound, unless every CHANGE
              run beats (or loses to) every BASE run
  improved    CHANGE's median is better by more than BASE's own spread
  unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: str, meta: dict[str, tuple[str, str]]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over plain runs; fills meta with each
    metric's (unit, better)."""
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"]:
            continue
        for name, m in rec["metrics"].items():
            runs[rec["workload"]][name].append(m["value"])
            meta[name] = (m["unit"], m["better"])
    return runs


def bounds() -> dict[str, float]:
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return {m["name"]: m["bound"]
            for m in json.loads(spec.read_text(encoding="utf-8"))["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float | None:
    q1, med, q3 = quartiles(values)
    if len(values) < 2:
        return None
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def worse_by(base: float, change: float, better: str) -> float:
    """Share by which change is worse than base (negative when better)."""
    diff = change - base if better == "lower" else base - change
    if base == 0:
        return 0.0 if diff == 0 else (float("inf") if diff > 0 else float("-inf"))
    return diff / abs(base)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    worse = worse_by(statistics.median(a), statistics.median(b), better)
    spreads = [spread(a), spread(b)]
    if bound > 0 and (None in spreads or max(spreads) > bound):
        sign = 1 if better == "lower" else -1
        if all(sign * y < sign * x for x in a for y in b):
            return "improved"
        if all(sign * y > sign * x for x in a for y in b):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > (spreads[0] or 0.0):
        return "improved"
    return "unchanged"


def summarize(path: str) -> None:
    meta: dict[str, tuple[str, str]] = {}
    runs, limit = load(path, meta), bounds()
    print(f"{'workload':16s} {'metric':24s} {'unit':6s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload in sorted(runs):
        for name, values in runs[workload].items():
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = limit.get(name)
            flag = ""
            if bound is not None and s is not None:
                flag = "ok" if s < bound / 3 else ("WIDE" if s > bound else "near")
            print(f"{workload:16s} {name:24s} {meta[name][0]:6s} {len(values):3d} "
                  f"{med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{'-' if s is None else f'{s:.3f}':>7s} "
                  f"{'-' if bound is None else bound:>6} {flag}")


def compare(base_path: str, change_path: str) -> None:
    meta: dict[str, tuple[str, str]] = {}
    base, change, limit = load(base_path, meta), load(change_path, meta), bounds()
    print(f"{'workload':16s} {'metric':24s} {'unit':6s} {'base':>12s} {'change':>12s} "
          f"{'ratio':>8s} {'bound':>6s} verdict")
    for workload in sorted(set(base) & set(change)):
        for name, a in base[workload].items():
            b = change[workload].get(name)
            if not b:
                continue
            unit, better = meta[name]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:.4f}" if ma else "-"
            bound = limit.get(name, 0.0)
            print(f"{workload:16s} {name:24s} {unit:6s} {ma:12.6g} {mb:12.6g} {ratio:>8s} "
                  f"{bound:6} {verdict(a, b, better, bound)}")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        summarize(sys.argv[1])
    elif len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    else:
        sys.exit(__doc__)
