#!/usr/bin/env python3
"""vulrtex benchmark: seeded workloads on the stub backends.

    python3 perfbench/run.py --workload identify-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ./src, inputs
are generated under ./.bench_work (removed afterwards), and the full result
record is appended to ./.bench_out/results.jsonl (traced runs write their
spans beside it). Stdout gets a table of every metric with its unit and
sample count, then one JSON line with the metrics BENCHMARK.json names:
its end_to_end list with --trace 0, its per_layer list with --trace 1.

With --trace 0 only the per-item entry points are wrapped, plus counters on
the LLM backend and the toolkit. With --trace 1 every pass runs twice on the
same inputs, untraced then traced (see tracing.py); the traced copy gives
the per-layer numbers and trace.overhead_ratio, and its output digests must
match the untraced copy's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MIN_PASSES = 4
SETUP_ROUND_S = 0.1   # set-up repeats after each pass take at least this long,
SETUP_ROUND_MAX = 5   # or this many of them
clock = time.perf_counter


def _import_program():
    """Import vulrtex from ./src and nowhere else."""
    if not (SRC / "vulrtex" / "__init__.py").is_file():
        sys.exit(f"error: no vulrtex sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import vulrtex
    if SRC.resolve() not in Path(vulrtex.__file__).resolve().parents:
        sys.exit(f"error: vulrtex imported from {vulrtex.__file__}, not {SRC}")


_import_program()

import numpy  # noqa: E402
from vulrtex import cli  # noqa: E402
from vulrtex.config import config_hash, load_config  # noqa: E402
from vulrtex.corpus import save_corpus  # noqa: E402
from vulrtex.prompts import (CORRECTION_REQUEST, GUIDANCE_REQUEST, P_IDENTIFY,  # noqa: E402
                             P_REASON)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import LAYERS, Patcher, Tracer  # noqa: E402

# ---------------------------------------------------------------------------
# workloads


class Workload:
    stage = ""
    scales: dict[str, dict] = {}

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = scale
        self.params = self.scales[scale]
        self.cfg = None

    def load_cfg(self, path: Path) -> None:
        self.cfg = load_config(path)
        self.cfg.validate()

    def setup(self) -> None:
        """Write the inputs every pass shares and build the database the
        timed stage needs, in cwd. This is what setup_s times."""
        raise NotImplementedError

    def begin_pass(self, k: int) -> None:
        """Write the fresh inputs of pass k, so no two passes share work."""
        raise NotImplementedError

    def run(self, out: Path) -> dict:
        raise NotImplementedError

    def check(self, summary: dict | None, out: Path) -> checks.CheckResult:
        raise NotImplementedError

    def item_class(self, j: int) -> int:
        """Items of one class do the same work on different wording: item j
        is a report of family and shape j % CLASS_PERIOD."""
        return j % inputs.CLASS_PERIOD

    def segment_class(self, i: int, n_items: int) -> tuple:
        """Class of piece i of a pass cut at every item start and end: the
        stretch before the first item, an item, the stretch after an item
        and before the next (which finishes that item's work), or the
        stretch after the last item."""
        if i % 2:
            return ("item", self.item_class(i // 2))
        if i == 0:
            return ("head",)
        if i == 2 * n_items:
            return ("tail",)
        return ("between", self.item_class(i // 2 - 1))


class PrepareCorrect(Workload):
    """stage_prepare with factual correction against a generated store."""

    stage = "prepare"
    scales = {"full": {"reports": 100, "store": 40},
              "tiny": {"reports": 6, "store": 20}}

    def setup(self) -> None:
        inputs.write_rules(Path("rules.jsonl"))
        inputs.write_knowledge(Path("va.jsonl"), self.seed, self.params["store"])
        self.load_cfg(inputs.write_config(
            Path("config.ini"), corpus=Path("corpus.jsonl"), rules=Path("rules.jsonl"),
            scr_dir=Path("scr"), va=Path("va.jsonl"), seed=self.seed, proportion=0.999))

    def begin_pass(self, k: int) -> None:
        self.reports, sidecars = inputs.reports(self.seed, f"h{k}", self.params["reports"])
        save_corpus(self.reports, Path("corpus.jsonl"))
        inputs.write_sidecars(Path("scr"), sidecars)

    def run(self, out: Path) -> dict:
        return cli.stage_prepare(replace(self.cfg, db_path=str(out / "db")))

    def check(self, summary, out):
        return checks.check_prepare(summary, self.reports, out / "db")


class Identify(Workload):
    """stage_identify against a database of reasoner-built graphs, corrected
    against a small awareness store when the database is built. Pass 0's
    targets are part of the corpus the database is built from; their
    screenshot texts are written with each pass's targets."""

    stage = "identify"

    def setup(self) -> None:
        p = self.params
        inputs.write_rules(Path("rules.jsonl"))
        inputs.write_knowledge(Path("va.jsonl"), self.seed, p["store"])
        history, sidecars = inputs.reports(self.seed, "h", p["graphs"])
        targets, _ = inputs.reports(self.seed, "t0", p["targets"], first_ts=10 ** 8)
        save_corpus(history + targets, Path("corpus.jsonl"))
        inputs.write_sidecars(Path("scr"), sidecars)
        self.load_cfg(inputs.write_config(
            Path("config.ini"), corpus=Path("corpus.jsonl"), rules=Path("rules.jsonl"),
            scr_dir=Path("scr"), va=Path("va.jsonl"), seed=self.seed, runs=p["runs"],
            jitter=p["jitter"], proportion=p["graphs"] / (p["graphs"] + p["targets"])))
        self.cfg.db_path = "db"
        built = cli.stage_prepare(self.cfg)
        if built["graphs_built"] != p["graphs"] or built["targets"] != p["targets"]:
            raise RuntimeError(f"database setup built {built['graphs_built']} graphs "
                               f"and {built['targets']} targets")

    def begin_pass(self, k: int) -> None:
        self.targets, sidecars = inputs.reports(self.seed, f"t{k}", self.params["targets"],
                                                first_ts=10 ** 8)
        save_corpus(self.targets, Path("db") / "targets.jsonl")
        inputs.write_sidecars(Path("scr"), sidecars)

    def run(self, out: Path) -> dict:
        return cli.stage_identify(self.cfg, out / "preds.jsonl")

    def item_class(self, j: int) -> int:
        """Item j is target j % targets of some run."""
        return super().item_class(j % self.params["targets"])

    def check(self, summary, out):
        return checks.check_identify(summary, self.targets, self.cfg.runs,
                                     self.cfg.theta_out, self.cfg.llm.stub_jitter,
                                     config_hash(self.cfg), out / "preds.jsonl")


class IdentifyWide(Identify):
    scales = {"full": {"graphs": 12, "store": 40, "targets": 100, "runs": 1, "jitter": 0.0},
              "tiny": {"graphs": 6, "store": 10, "targets": 4, "runs": 1, "jitter": 0.0}}


class IdentifyRepeat(Identify):
    scales = {"full": {"graphs": 12, "store": 40, "targets": 25, "runs": 4, "jitter": 0.4},
              "tiny": {"graphs": 6, "store": 10, "targets": 2, "runs": 2, "jitter": 0.4}}


class EvaluateLarge(Workload):
    """stage_evaluate over a generated predictions file."""

    stage = "evaluate"
    scales = {"full": {"targets": 750, "runs": 8},
              "tiny": {"targets": 60, "runs": 2}}

    def setup(self) -> None:
        self.load_cfg(inputs.write_config(
            Path("config.ini"), corpus=Path("corpus.jsonl"), rules=Path("rules.jsonl"),
            scr_dir=Path("scr"), va=None, seed=self.seed, runs=self.params["runs"]))
        self.truth = inputs.truth(self.seed, self.params["targets"])
        inputs.write_truth(Path("truth.jsonl"), self.truth)

    def begin_pass(self, k: int) -> None:
        inputs.write_predictions_pass(Path("preds.jsonl"), self.seed, f"p{k}", self.truth,
                                      self.params["runs"], config_hash(self.cfg))

    def run(self, out: Path) -> dict:
        return cli.stage_evaluate(self.cfg, "preds.jsonl", "truth.jsonl",
                                  out / "report.json", out / "curve.csv")

    def item_class(self, j: int) -> int:
        """Item j is run j's metric report. Every run scores the same rows,
        so all reports are one class."""
        return 0

    def check(self, summary, out):
        return checks.check_evaluate(summary, Path("preds.jsonl"), Path("truth.jsonl"),
                                     out / "report.json", out / "curve.csv",
                                     self.cfg.theta_out, self.cfg.pr_interval,
                                     config_hash(self.cfg))


WORKLOADS = {
    "prepare-correct": PrepareCorrect,
    "identify-wide": IdentifyWide,
    "identify-repeat": IdentifyRepeat,
    "evaluate-large": EvaluateLarge,
}

# ---------------------------------------------------------------------------
# per-item wrappers and cost counters


def purpose(prompt: str) -> str:
    for header, name in ((P_REASON, "reason"), (CORRECTION_REQUEST, "correct"),
                         (GUIDANCE_REQUEST, "guide"), (P_IDENTIFY, "identify")):
        if prompt.lstrip().startswith(header):
            return name
    return "other"


class CountingBackend:
    """Counts every LLM attempt and its prompt characters, then delegates."""

    def __init__(self, inner, probe: "Probe"):
        self.inner = inner
        self.name = inner.name
        self.probe = probe

    def complete(self, req):
        self.probe.llm_calls += 1
        self.probe.prompt_chars += len(req.system_prompt) + len(req.user_prompt)
        return self.inner.complete(req)


class Probe:
    """Thin wrappers on the cli bindings of the per-item entry points.

    An item is a report (generate_reasoning_graph), a (target, run) pair
    (from retrieve_relevant to the end of identify), or one run's metric
    report (build_report). The gateway and toolkit the stage builds are
    captured so their calls can be counted.
    """

    def __init__(self, stage: str, pass_index: int, tracer: Tracer | None):
        self.stage = stage
        self.pass_index = pass_index
        self.tracer = tracer
        self.latencies: list[float] = []
        self.marks: list[float] = []  # start and end of every item, in order
        self.llm_calls = 0
        self.prompt_chars = 0
        self.toolkits: list = []
        self.tool_calls = 0
        self.tool_warnings = 0
        self._patcher = Patcher()
        self._start = 0.0

    def _set_item(self, item: str | None) -> None:
        if self.tracer is not None:
            self.tracer.item = None if item is None else f"{self.pass_index}:{item}"

    def install(self) -> None:
        p = self._patcher
        make_gateway, make_toolkit = cli.make_gateway, cli.make_toolkit

        def gateway(*args, **kwargs):
            gw = make_gateway(*args, **kwargs)
            gw.backend = CountingBackend(gw.backend, self)
            return gw

        def toolkit(*args, **kwargs):
            tk = make_toolkit(*args, **kwargs)
            self.toolkits.append(tk)
            return tk

        p.set(cli, "make_gateway", gateway)
        p.set(cli, "make_toolkit", toolkit)
        if self.stage == "prepare":
            p.set(cli, "generate_reasoning_graph",
                  self._timed(cli.generate_reasoning_graph, lambda a: a[0].id))
        elif self.stage == "identify":
            retrieve, identify = cli.retrieve_relevant, cli.identify

            def retrieve_relevant(*args, **kwargs):
                self._set_item(f"{args[1].id}@{kwargs.get('seed')}")
                self._start = clock()
                self.marks.append(self._start)
                return retrieve(*args, **kwargs)

            def identify_item(*args, **kwargs):
                try:
                    return identify(*args, **kwargs)
                finally:
                    self._end_item(self._start)

            p.set(cli, "retrieve_relevant", retrieve_relevant)
            p.set(cli, "identify", identify_item)
        else:
            p.set(cli, "build_report",
                  self._timed(cli.build_report, lambda a: f"report{len(self.latencies)}"))

    def _timed(self, fn, item_of):
        def timed(*args, **kwargs):
            self._set_item(item_of(args))
            start = clock()
            self.marks.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end_item(start)
        return timed

    def _end_item(self, start: float) -> None:
        end = clock()
        self.latencies.append(end - start)
        self.marks.append(end)
        self._set_item(None)

    def restore(self) -> None:
        """Undo the wrappers and keep only the toolkits' counts, so a pass
        leaves none of its caches on the heap for later passes to scan."""
        self._patcher.restore()
        self.tool_calls = sum(tk.backend_calls for tk in self.toolkits)
        self.tool_warnings = sum(len(tk.warnings) for tk in self.toolkits)
        self.toolkits.clear()


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    index: int
    stage_s: float
    segments: list[float]  # stage time cut at every item start and end
    probe: Probe
    check: checks.CheckResult
    error: str | None
    snapshot: dict = field(default_factory=dict)


def run_pass(wl: Workload, k: int, tracer: Tracer | None) -> Pass:
    out = Path(f"pass{k}-{'traced' if tracer else 'plain'}")
    out.mkdir()
    probe = Probe(wl.stage, k, tracer)
    summary, error = None, None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    probe.install()
    try:
        gc.collect()
        start = clock()
        try:
            summary = wl.run(out)
        except Exception as exc:  # a failing stage is a measured outcome
            error = f"pass {k}: {type(exc).__name__}: {exc}"
        stop = clock()
    finally:
        probe.restore()
        if tracer is not None:
            tracer.restore()
    result = wl.check(summary, out)
    if error:
        result.messages.insert(0, error)
    shutil.rmtree(out)
    snapshot = tracer.snapshot() if tracer is not None else {}
    bounds = [start, *probe.marks, stop]
    segments = [b - a for a, b in zip(bounds, bounds[1:])]
    return Pass(k, stop - start, segments, probe, result, error, snapshot)


def run_passes(wl: Workload, start: float, seconds: float, tracer: Tracer | None,
               setup_again) -> list[tuple[Pass, Pass | None]]:
    """Passes on fresh inputs, each followed by a round of timed set-ups,
    until the next pass and round would end more than `seconds` after
    `start`; at least MIN_PASSES of them. Traced runs pair each plain pass with a
    traced pass on the same inputs."""
    pairs = []
    k = 0
    while True:
        wl.begin_pass(k)
        plain = run_pass(wl, k, None)
        pairs.append((plain, run_pass(wl, k, tracer) if tracer else None))
        if plain.error:
            break
        setup_again()
        elapsed = clock() - start
        # a round is a pass and its set-ups; the first set-up counts as one
        next_end = elapsed + elapsed / (len(pairs) + 1)
        if len(pairs) >= MIN_PASSES and next_end > seconds:
            break
        k += 1
    return pairs


# ---------------------------------------------------------------------------
# per-layer counters gathered by the tracer


def register_observers(tracer: Tracer) -> None:
    def kept(c, args, kwargs, result):
        c["retrieval.kept"] += len(result)
        c["retrieval.description_chars"] += sum(len(r.description) for r in result)

    def complete(c, args, kwargs, result):
        req = args[1]
        name = purpose(req.user_prompt)
        c[f"gateway.calls.{name}"] += 1
        c[f"gateway.prompt_chars.{name}"] += len(req.system_prompt) + len(req.user_prompt)

    def graph(c, args, kwargs, result):
        c["reasoner.nodes"] += len(result.nodes)
        c["reasoner.partial_graphs"] += bool(result.meta.get("partial"))

    tracer.observers.update({
        "retrieval.retrieve_relevant": kept,
        "retrieval.PruneCache.get": lambda c, a, k, r: c.update(
            {"retrieval.prune_cache.hits": r is not None}),
        "graph.extract_terminated_paths": lambda c, a, k, r: c.update({"graph.paths": len(r)}),
        "knowledge.retrieve_golden": lambda c, a, k, r: c.update({"knowledge.hits": bool(r)}),
        "reasoner.generate_reasoning_graph": graph,
        "gateway.Gateway.complete": complete,
        "identifier.identify": lambda c, a, k, r: c.update({"identifier.unscored": r.unscored}),
        "metrics.auprc": lambda c, a, k, r: c.update(
            {"metrics.distinct_scores": len({row.p_yes for row in a[0]})}),
    })


# ---------------------------------------------------------------------------
# metrics

# name -> (unit, better); end-to-end metrics first
CATALOGUE: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_p50_ms": ("ms", "lower"),
    "item_p90_ms": ("ms", "lower"),
    "llm_calls_per_item": ("count", "lower"),
    "prompt_kchars_per_item": ("kchar", "lower"),
    "tool_calls_per_item": ("count", "lower"),
    "failed_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# span behind each per-layer time metric
SELF_TIMES = {
    "textindex.vectorize.self_s": "textindex.TfIdfIndex.vectorize",
    "textindex.build_index.self_s": "textindex.build_index",
    "retrieval.build_adjacency.self_s": "retrieval.build_adjacency",
    "retrieval.edge_probabilities.self_s": "retrieval.edge_probabilities",
    "retrieval.random_walk_prune.self_s": "retrieval.random_walk_prune",
    "retrieval.retrieve_relevant.self_s": "retrieval.retrieve_relevant",
    "graph.store_load.self_s": "graph.GraphStore.load_all",
    "graph.store_save.self_s": "graph.GraphStore.save",
    "graph.extract_terminated_paths.self_s": "graph.extract_terminated_paths",
    "knowledge.retrieve_golden.self_s": "knowledge.retrieve_golden",
    "reasoner.generate_reasoning_graph.self_s": "reasoner.generate_reasoning_graph",
    "reasoner.correct_path.self_s": "reasoner.correct_path",
    "gateway.complete.self_s": "gateway.Gateway.complete",
    "tools.flatten_ir.self_s": "tools.ToolKit.flatten_ir",
    "identifier.generate_guidance.self_s": "identifier.generate_guidance",
    "identifier.identify.self_s": "identifier.identify",
    "identifier.read_predictions.self_s": "identifier.read_predictions",
    "identifier.write_predictions.self_s": "identifier.write_predictions",
    "metrics.auprc.self_s": "metrics.auprc",
    "metrics.auroc.self_s": "metrics.auroc",
    "metrics.pr_curve.self_s": "metrics.pr_curve",
    "metrics.build_report.self_s": "metrics.build_report",
}
STAGE_TIMES = {f"cli.stage_{s}.s": f"cli.stage_{s}" for s in ("prepare", "identify", "evaluate")}
PURPOSES = ("reason", "correct", "guide", "identify")

CATALOGUE.update({
    "textindex.vectorize.calls": ("count", "lower"),
    "textindex.tokenize.calls": ("count", "lower"),
    "retrieval.graphs_pruned": ("count", "lower"),
    "retrieval.kept_ratio": ("ratio", "higher"),
    "retrieval.description_chars": ("chars", "lower"),
    "retrieval.prune_cache.gets": ("count", "lower"),
    "retrieval.prune_cache.hit_ratio": ("ratio", "higher"),
    "graph.store_load.calls": ("count", "lower"),
    "graph.extract_terminated_paths.calls": ("count", "lower"),
    "graph.paths_per_graph": ("count", "lower"),
    "knowledge.retrieve_golden.calls": ("count", "lower"),
    "knowledge.hit_ratio": ("ratio", "higher"),
    "reasoner.correct_path.calls": ("count", "lower"),
    "reasoner.nodes_per_graph": ("count", "higher"),
    "reasoner.partial_graphs": ("count", "lower"),
    **{f"gateway.calls.{p}": ("count", "lower") for p in PURPOSES},
    **{f"gateway.prompt_chars.{p}": ("chars", "lower") for p in PURPOSES},
    "gateway.retries": ("count", "lower"),
    "gateway.failures": ("count", "lower"),
    "tools.run_tool.calls": ("count", "lower"),
    "tools.backend_calls": ("count", "lower"),
    "tools.cache_hit_ratio": ("ratio", "higher"),
    "tools.warnings": ("count", "lower"),
    "identifier.unscored": ("count", "lower"),
    "metrics.distinct_scores": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.untraced_s": ("s", "lower"),
    **{name: ("s", "lower") for name in SELF_TIMES},
    **{name: ("s", "lower") for name in STAGE_TIMES},
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p90(values: list[float]) -> float:
    """90th percentile by statistics.quantiles' default (exclusive) method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def end_to_end(wl: Workload, setup_rounds: list[list[float]],
               passes: list[Pass]) -> dict[str, tuple[float, int]]:
    """(value, samples) per end-to-end metric.

    Every pass does the same work on fresh wording: its j-th item is a
    report or (target, run) of the same family and shape in every pass,
    and items of one class (Workload.item_class) do the same work within a
    pass too. The latency of item j is the fastest time measured for any
    item of its class in any pass. The stage time behind items_per_s is
    cut at every item start and end, and is the sum over its pieces of
    the fastest time measured for a piece of that class
    (Workload.segment_class). A slower program slows every piece alike,
    while other tenants of the host slow this one in bursts: a piece of
    tens of milliseconds measured dozens of times escapes them at least
    once, but a whole pass of seconds never does. setup_s is the median of
    all set-ups. Counts come from pass 0, whose inputs depend only on the
    seed, so they repeat exactly.
    """
    setup_s = [t for times in setup_rounds for t in times]
    first = passes[0]
    n = len(first.probe.latencies)
    fastest: dict[tuple, float] = {}
    for p in passes:
        for i, t in enumerate(p.segments):
            c = wl.segment_class(i, len(p.probe.latencies))
            fastest[c] = min(fastest.get(c, t), t)
    if all(len(p.probe.latencies) == n for p in passes):
        stage_s = sum(fastest[wl.segment_class(i, n)] for i in range(2 * n + 1))
    else:  # a failed pass stopped early
        stage_s = min(p.stage_s for p in passes)
    latencies = [fastest[wl.segment_class(2 * j + 1, n)] for j in range(n)]
    attempted = sum(p.check.items + p.check.checks for p in passes)
    failed = sum(p.check.failed_items + p.check.failed_checks for p in passes)
    n0 = first.check.items
    return {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "items_per_s": (_ratio(first.check.items, stage_s), len(passes)),
        "item_p50_ms": (statistics.median(latencies) * 1e3, len(latencies)),
        "item_p90_ms": (_p90(latencies) * 1e3, len(latencies)),
        "llm_calls_per_item": (_ratio(first.probe.llm_calls, n0), n0),
        "prompt_kchars_per_item": (_ratio(first.probe.prompt_chars, n0) / 1e3, n0),
        "tool_calls_per_item": (_ratio(first.probe.tool_calls, n0), n0),
        "failed_ratio": (_ratio(failed, attempted), attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(pairs: list[tuple[Pass, Pass]]) -> dict[str, tuple[float, int]]:
    """Counts from the first traced pass; times are medians over traced
    passes; ratios carry their base as a separate count."""
    traced = [t for _, t in pairs]
    first = traced[0]
    s0 = first.snapshot
    calls, c = s0["calls"], s0["counters"]
    n = len(traced)
    out: dict[str, tuple[float, int]] = {}

    def median(key: str, span: str) -> float:
        return statistics.median(t.snapshot[key][span] for t in traced)

    for name, span in SELF_TIMES.items():
        out[name] = (median("self", span), n)
    for name, span in STAGE_TIMES.items():
        out[name] = (median("total", span), n)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (median("layer_self", layer), n)

    pruned = calls["retrieval.random_walk_prune"] + c["retrieval.prune_cache.hits"]
    run_tool = calls["tools.ToolKit.run_tool"]
    backend = sum(v for k, v in calls.items() if k.endswith(".analyze"))
    gateway_calls = calls["gateway.Gateway.complete"]
    counts = {
        "textindex.vectorize.calls": calls["textindex.TfIdfIndex.vectorize"],
        "textindex.tokenize.calls": calls["textindex.tokenize"],
        "retrieval.graphs_pruned": pruned,
        "retrieval.kept_ratio": _ratio(c["retrieval.kept"], pruned),
        "retrieval.description_chars": _ratio(c["retrieval.description_chars"],
                                              calls["retrieval.retrieve_relevant"]),
        "retrieval.prune_cache.gets": calls["retrieval.PruneCache.get"],
        "retrieval.prune_cache.hit_ratio": _ratio(c["retrieval.prune_cache.hits"],
                                                  calls["retrieval.PruneCache.get"]),
        "graph.store_load.calls": calls["graph.GraphStore.load_all"],
        "graph.extract_terminated_paths.calls": calls["graph.extract_terminated_paths"],
        "graph.paths_per_graph": _ratio(c["graph.paths"],
                                        calls["graph.extract_terminated_paths"]),
        "knowledge.retrieve_golden.calls": calls["knowledge.retrieve_golden"],
        "knowledge.hit_ratio": _ratio(c["knowledge.hits"], calls["knowledge.retrieve_golden"]),
        "reasoner.correct_path.calls": calls["reasoner.correct_path"],
        "reasoner.nodes_per_graph": _ratio(c["reasoner.nodes"],
                                           calls["reasoner.generate_reasoning_graph"]),
        "reasoner.partial_graphs": c["reasoner.partial_graphs"],
        **{f"gateway.calls.{p}": c[f"gateway.calls.{p}"] for p in PURPOSES},
        **{f"gateway.prompt_chars.{p}": c[f"gateway.prompt_chars.{p}"] for p in PURPOSES},
        "gateway.retries": first.probe.llm_calls - gateway_calls,
        "gateway.failures": s0["raised"]["gateway.Gateway.complete"],
        "tools.run_tool.calls": run_tool,
        "tools.backend_calls": backend,
        "tools.cache_hit_ratio": _ratio(run_tool - backend, run_tool),
        "tools.warnings": first.probe.tool_warnings,
        "identifier.unscored": c["identifier.unscored"],
        "metrics.distinct_scores": _ratio(c["metrics.distinct_scores"],
                                          calls["metrics.auprc"]),
    }
    out.update({name: (value, 1) for name, value in counts.items()})
    plain_s = sum(p.stage_s for p, _ in pairs)
    out["trace.overhead_ratio"] = (_ratio(sum(t.stage_s for t in traced), plain_s), n)
    out["trace.untraced_s"] = (plain_s, n)
    return out


# ---------------------------------------------------------------------------
# command line


def environment(wl: Workload, seed: int, seconds: float, scale: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "scale": scale,
        "params": wl.params,
        "config_hash": config_hash(wl.cfg),
        "run_seconds": seconds,
    }


def timed_setup(wl: Workload, directory: Path) -> float:
    directory.mkdir()
    os.chdir(directory)
    gc.collect()
    start = clock()
    wl.setup()
    return clock() - start


def setup_repeater(wl: Workload, run_dir: Path, rounds: list[list[float]]):
    """A callable that runs one round of set-ups: fresh copies of `wl`, each
    in a directory of its own, until they took SETUP_ROUND_S or
    SETUP_ROUND_MAX of them ran. It appends the round's times to `rounds`,
    deletes each copy and returns to the directory the passes run in.
    Calling it after every pass spreads the rounds over the whole run."""
    home = Path.cwd()

    def again() -> None:
        times: list[float] = []
        while len(times) < SETUP_ROUND_MAX and sum(times) < SETUP_ROUND_S:
            directory = run_dir / f"setup{len(rounds)}-{len(times)}"
            try:
                times.append(timed_setup(type(wl)(wl.seed, wl.scale), directory))
            finally:
                os.chdir(home)
                shutil.rmtree(directory, ignore_errors=True)
        rounds.append(times)
    return again


def benchmark_names() -> dict[str, list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test")
    ap.add_argument("--out", type=Path, default=OUT / "results.jsonl",
                    help="result file the run's record is appended to")
    args = ap.parse_args(argv)
    names = benchmark_names()

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    run_dir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wall = clock()
    try:
        # the first set-up feeds the passes; a round of fresh ones follows
        # every pass, so setup_s samples the host over the whole run
        setup_rounds = [[timed_setup(wl, run_dir / "setup0")]]
        tracer = None
        if args.trace:
            tracer = Tracer()
            register_observers(tracer)
        pairs = run_passes(wl, wall, args.seconds, tracer,
                           setup_repeater(wl, run_dir, setup_rounds))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    plain = [p for p, _ in pairs]
    metrics = end_to_end(wl, setup_rounds, plain)
    passes = plain + [t for _, t in pairs if t is not None]
    attempted = sum(p.check.items + p.check.checks for p in passes)
    failed = sum(p.check.failed_items + p.check.failed_checks for p in passes)
    messages = [m for p in passes for m in p.check.messages][:10]
    if args.trace:
        metrics.update(per_layer(pairs))
        for p, t in pairs:
            attempted += 1
            if p.check.digests != t.check.digests:
                failed += 1
                messages.append(f"pass {p.index}: traced outputs differ from plain ones")
        args.out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(args.out.parent / f"spans-{args.workload}-s{args.seed}.jsonl",
                           {"workload": args.workload, "seed": args.seed})
    correct = failed == 0 and not any(p.error for p in passes)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(wl, args.seed, args.seconds, args.scale),
        "passes": len(plain),
        "setup_seconds": setup_rounds,
        "pass_seconds": [p.stage_s for p in plain],
        "pass_latencies_ms": [[round(t * 1e3, 4) for t in p.probe.latencies] for p in plain],
        "wall_s": clock() - wall,
        "digests": plain[0].check.digests,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "metrics": {name: {"value": v, "unit": CATALOGUE[name][0],
                           "better": CATALOGUE[name][1], "samples": n}
                    for name, (v, n) in metrics.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"{args.workload} seed={args.seed} passes={len(plain)} "
          f"config_hash={record['env']['config_hash']} correct={correct}")
    for name, (value, n) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {CATALOGUE[name][0]:6s} n={n}")
    for m in messages:
        print(f"  ! {m}")
    listed = names["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": CATALOGUE[name][0]}
                    for name in listed}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
