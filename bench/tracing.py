"""Span recorder for the traced benchmark run.

A traced run wraps the public functions of each ``csm`` module from the
outside, so the library itself is unchanged. Each wrapped call records a
span (name, start, end, parent); the spans stay in memory and are written
out once, when the run ends. Callables handed into the library (objectives,
score functions, Stein fields, ratio functions) are wrapped by the
workloads through :meth:`Tracer.fn` before they are passed in.

The untraced run uses :class:`NullTracer`, whose hooks return their
arguments unchanged, so end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) of every public function or method the traced run
# wraps, with the span name it records; "Class.method" patches the class.
TRACED = (
    ("csm.data", "gen_1d_toy", "data.generate"),
    ("csm.data", "gen_2d_toy", "data.generate"),
    ("csm.data", "load_tabular_csv", "data.generate"),
    ("csm.graphs", "NeighborhoodStructure.adjacency", "graphs.adjacency"),
    ("csm.graphs", "NeighborhoodStructure.undirected_view", "graphs.undirected_view"),
    ("csm.graphs", "build_reverse_index", "graphs.reverse_index"),
    ("csm.graphs", "is_weakly_connected", "graphs.is_weakly_connected"),
    ("csm.models", "fit", "models.fit"),
    ("csm.autodiff", "Tensor.backward", "autodiff.backward"),
    ("csm.autodiff", "Adam.step", "autodiff.adam"),
    ("csm.samplers", "run_chain", "samplers.run_chain"),
    ("csm.samplers", "langevin", "samplers.langevin"),
    ("csm.exact", "reconstruct_density", "exact.reconstruct_density"),
    ("csm.denoise", "denoise_sample", "denoise.denoise_sample"),
)


class NullTracer:
    """Tracing off: every hook is the identity."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def fn(self, name: str, f, count=None):
        return f

    def counted(self, name: str, f):
        return f

    def stage(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Spans and counters kept in memory for one traced run.

    ``spans`` holds ``[name, start, end, parent]`` rows in start order;
    ``parent`` is the row index of the enclosing span, or -1. Because the
    run is single-threaded, the descendants of a span are the rows that
    follow it up to the first one starting after it ends.
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.current_stage = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        row = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span for one pipeline stage; counters are keyed by it."""
        saved, self.current_stage = self.current_stage, name
        try:
            with self.span("stage." + name):
                yield
        finally:
            self.current_stage = saved

    def fn(self, name: str, f, count=None):
        """``f`` wrapped in a span; ``count(args, result)`` adds to counter ``name``."""

        @functools.wraps(f)
        def traced(*args, **kwargs):
            with self.span(name):
                out = f(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(args, out)
            return out

        return traced

    def counted(self, name: str, f):
        """``f`` wrapped to count its calls per stage, without a span."""
        counts = self.counts

        @functools.wraps(f)
        def counting(*args, **kwargs):
            counts[name + "@" + self.current_stage] += 1
            return f(*args, **kwargs)

        return counting

    # -- patching the library ------------------------------------------------

    def install(self):
        """Wrap every function in :data:`TRACED` under each name it is bound to."""
        for module_name, attr, span_name in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.fn(span_name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.fn(span_name, original)
            # a module that imported the function by name holds its own binding
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "csm" or name.startswith("csm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        tensor = sys.modules["csm.autodiff"].Tensor
        self._set(tensor, "__init__", self.counted("autodiff.tensors", tensor.__init__))

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- reading the spans -----------------------------------------------------

    def subtree(self, idx: int) -> range:
        """Row indices of every descendant of span ``idx``."""
        end = self.spans[idx][2]
        j = idx + 1
        while j < len(self.spans) and self.spans[j][1] < end:
            j += 1
        return range(idx + 1, j)

    def find(self, name: str, rows=None) -> list[int]:
        rows = range(len(self.spans)) if rows is None else rows
        return [i for i in rows if self.spans[i][0] == name]

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def total(self, name: str, rows=None) -> float:
        return sum(self.duration(i) for i in self.find(name, rows))

    def self_time(self, name: str, rows=None) -> float:
        """Summed durations of ``name`` spans minus their direct children."""
        out = 0.0
        for i in self.find(name, rows):
            out += self.duration(i)
            out -= sum(self.duration(j) for j in self.subtree(i) if self.spans[j][3] == i)
        return out

    def total_under(self, name: str, parent_name: str, rows=None) -> float:
        """Summed durations of ``name`` spans whose direct parent is ``parent_name``."""
        return sum(
            self.duration(i)
            for i in self.find(name, rows)
            if self.spans[i][3] >= 0 and self.spans[self.spans[i][3]][0] == parent_name
        )

    def write(self, path, extra: dict):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
