"""Span tracing applied to vulrtex from outside the program.

`Tracer.install` replaces every public function of the layer modules, and the
public methods of their service classes, with a timing wrapper. A function
is patched at every module that binds its name, so the wrapper runs both
when `retrieval.prune_for_target` calls `build_adjacency` and when
`cli.stage_identify` calls `retrieve_relevant`. `Tracer.restore` puts every
original back.

Spans (name, start, end, parent, item id) are kept in memory and written out
by `write_spans`. Per-name statistics are kept alongside: calls, total time
and self time. Self time is a span's duration minus the time covered by its
child spans in *other* layers, so `retrieval.retrieve_relevant` owns the
retrieval-layer work beneath it (build_adjacency included) but not the
textindex or graph work it calls. A layer's total self time sums only its
outermost spans, so nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "corpus", "textindex", "graph", "gateway", "tools", "knowledge",
          "reasoner", "retrieval", "identifier", "prompts", "metrics")

# data-structure classes whose accessors run per node or per walk step; their
# cost is part of the callers' layer self time
UNWRAPPED_CLASSES = {"ReasoningGraph"}

# per-call helpers counted but not stored as spans, which keeps the span file
# to thousands rather than millions of records per pass
FOLDED = {
    "textindex.tokenize", "textindex.cosine", "textindex.similarity",
    "textindex.vectorize", "textindex.TfIdfIndex.vectorize",
    "textindex.TfIdfIndex.similarity", "textindex.TfIdfIndex.idf",
    "graph.describe_path", "graph.graph_filename", "graph.GraphStore.load",
    "retrieval.graph_walk_seed", "retrieval.PruneCache.get",
    "retrieval.PruneCache.put", "prompts.ir_json", "prompts.rich_text_table",
    "tools.sidecar_filename", "tools.ToolKit.run_tool",
    "tools.StubScrAnalyzer.analyze", "tools.StubCodeAnalyzer.analyze",
}

MAX_SPANS = 400_000


class Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, old))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


def layer_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"vulrtex.{layer}") for layer in LAYERS}


def _targets(layer: str, module) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every traced callable
    defined in `module`."""
    out = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((f"{layer}.{name}", module, name, obj))
        elif (inspect.isclass(obj) and obj.__module__ == module.__name__
              and not dataclasses.is_dataclass(obj)
              and not issubclass(obj, BaseException)
              and name not in UNWRAPPED_CLASSES):
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    out.append((f"{layer}.{name}.{attr}", obj, attr, raw))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.item: str | None = None
        self.observers: dict[str, object] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patcher = Patcher()
        self.reset()

    # ------------------------------------------------------------------
    # statistics

    def reset(self) -> None:
        """Start a fresh set of statistics; stored spans are kept."""
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.layer_self: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()

    def snapshot(self) -> dict:
        return {"calls": Counter(self.calls), "self": Counter(self.self_time),
                "total": Counter(self.total), "raised": Counter(self.raised),
                "layer_self": Counter(self.layer_self),
                "counters": Counter(self.counters)}

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        modules = layer_modules()
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for span, owner, attr, raw in _targets(layer, module):
                if isinstance(raw, (classmethod, staticmethod)):
                    value = type(raw)(self._wrap(span, layer, raw.__func__))
                else:
                    value = self._wrap(span, layer, raw)
                    wrapped[id(raw)] = value
                self._patcher.set(owner, attr, value)
        # every other module that imported one of those functions by name
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped \
                        and obj.__module__ != module.__name__:
                    self._patcher.set(module, attr, wrapped[id(obj)])

    def restore(self) -> None:
        self._patcher.restore()

    def _wrap(self, span: str, layer: str, fn):
        tracer = self
        store = span not in FOLDED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            # frame: layer, foreign child time, nearest stored span id
            frame = [layer, 0.0, sid if store else (parent[2] if parent else None)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[span] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                tracer.calls[span] += 1
                tracer.total[span] += dur
                tracer.self_time[span] += own
                if parent is None or parent[0] != layer:
                    tracer.layer_self[layer] += own
                if parent is not None:
                    parent[1] += dur if parent[0] != layer else frame[1]
                if store:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((sid, parent[2] if parent else None, span,
                                             tracer.item, start, end))
                    else:
                        tracer.spans_dropped += 1
            observer = tracer.observers.get(span)
            if observer is not None:
                observer(tracer.counters, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # output

    def write_spans(self, path: Path, meta: dict) -> None:
        """One header line, then one JSON array per span:
        [id, parent id, name, item id, start s, end s]."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "fields": ["id", "parent", "name", "item",
                                                    "start_s", "end_s"],
                                 "dropped": self.spans_dropped}, sort_keys=True) + "\n")
            for sid, parent, name, item, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, item,
                                     round(start - origin, 9), round(end - origin, 9)])
                         + "\n")
