"""Span recorder for the traced run.

While a Tracer is installed it replaces public library functions with
wrappers that record a span (name, start, end, parent) around each call,
plus exact counts taken from the calls' arguments and results. Spans stay in
memory; the caller cuts them into windows (one per timed op) and turns each
window into per-layer numbers. Nothing inside the library changes.

The library imports some names into the modules that call them
(`focal_loss`, `evaluate`, `read_container`, `build_hetero_graph`), so each
wrapper is installed where the caller looks the name up.
"""

from __future__ import annotations

import functools
import gc
import time
from array import array
from collections import defaultdict

from avhgnn import data, layers, metrics, tensor, training

# (span name, owner, attribute). Methods are patched on their class.
SPAN_TARGETS = (
    ("tensor.backward", tensor.ComputeGraph, "backward"),
    ("layers.forward", layers.HgnnModel, "forward"),
    ("layers.hetero", layers.HeteroLayer, "forward"),
    ("layers.gcn", layers.GcnLayer, "forward"),
    ("layers.fusion", layers.GatFusionLayer, "forward"),
    ("training.loss", training, "focal_loss"),
    ("training.adam_step", training.Adam, "step"),
    ("training.save_checkpoint", training, "save_checkpoint"),
    ("training.load_checkpoint", training, "load_checkpoint"),
    ("metrics.score", metrics, "score_matrix"),
    ("metrics.ap_auc", metrics, "evaluate_scores"),
    ("data.load_dataset", data, "load_dataset"),
    ("data.read_container", data, "read_container"),
    ("graph.build", data, "build_hetero_graph"),
)
GC_SPAN = "tensor.gc"

CONTAINER_HEADER_BYTES = 24


def _count_backward(counts, args):
    counts["backward_graphs"] += 1
    counts["backward_tape_ops"] += len(args[0])


def _count_forward(counts, args, out):
    counts["forward_graphs"] += 1
    counts["forward_tape_ops"] += len(args[1])


def _count_container(counts, args, out):
    counts["containers"] += 1
    counts["container_bytes"] += CONTAINER_HEADER_BYTES + 4 * (out.audio.size + out.video.size)


def _count_graph(counts, args, out):
    counts["graphs_built"] += 1
    counts["adjacency_bytes"] += out.adj_aa.data.nbytes + out.adj_vv.data.nbytes + out.adj_va.nbytes


def _count_load(counts, args, out):
    counts["loads"] += 1


BEFORE_HOOKS = {"tensor.backward": _count_backward}
AFTER_HOOKS = {
    "layers.forward": _count_forward,
    "data.read_container": _count_container,
    "graph.build": _count_graph,
    "data.load_dataset": _count_load,
}


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        # Spans live in flat arrays: unlike lists they are not tracked by the
        # cyclic GC, so keeping them does not change the collections counted.
        self.spans = SpanStore()
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._gc_span = -1
        self._gc_name = self.spans.name_id(GC_SPAN)

    # -- installation ----------------------------------------------------------

    def __enter__(self):
        for name, owner, attr in SPAN_TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, BEFORE_HOOKS.get(name),
                                            AFTER_HOOKS.get(name)))
        original_matmul = tensor.ComputeGraph.matmul
        self._saved.append((tensor.ComputeGraph, "matmul", original_matmul))
        tensor.ComputeGraph.matmul = self._count_matmul(original_matmul)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, before, after):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        name_id = spans.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args)
            index = spans.open(name_id, clock(), stack[-1] if stack else -1)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans.end[index] = clock()
            if after is not None:
                after(counts, args, out)
            return out

        return wrapper

    def _count_matmul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(graph, a, b):
            counts["matmul_flops"] += 2 * a.rows * a.cols * b.cols
            return fn(graph, a, b)

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_span = self.spans.open(self._gc_name, time.perf_counter(),
                                            self._stack[-1] if self._stack else -1)
        elif self._gc_span >= 0:
            self.spans.end[self._gc_span] = time.perf_counter()
            self._gc_span = -1
            self.counts[f"gc_gen{info['generation']}"] += 1
            self.counts["gc_collections"] += 1

    # -- windows ---------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        return len(self.spans), dict(self.counts)

    def window(self, mark) -> "Window":
        start, counts_before = mark
        delta = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}
        return Window(self.spans, start, len(self.spans), delta)


class SpanStore:
    """Append-only spans as parallel arrays: name id, start, end, parent index."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int, start: float, parent: int) -> int:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(parent)
        return len(self.name) - 1


class Window:
    """Spans [start, end) of the tracer plus the count deltas over that range."""

    def __init__(self, spans: SpanStore, start: int, end: int, counts: dict):
        self.spans, self.start, self.end = spans, start, end
        self.counts = {k: v for k, v in counts.items() if v}

    def layer_times(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}; self time excludes child spans."""
        s = self.spans
        child = defaultdict(float)
        for i in range(self.start, self.end):
            if s.parent[i] >= self.start:
                child[s.parent[i]] += s.end[i] - s.start[i]
        out: dict = {}
        for i in range(self.start, self.end):
            duration = s.end[i] - s.start[i]
            row = out.setdefault(s.names[s.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def rows(self):
        """(index, name, start, end, parent) for every span in the window."""
        s = self.spans
        return ((i, s.names[s.name[i]], s.start[i], s.end[i], s.parent[i])
                for i in range(self.start, self.end))
