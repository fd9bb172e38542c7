"""Spans around calls into the program's public functions.

A traced run replaces each target function, under every name an
``amff`` module holds it by, with a wrapper that records a span: the
target's name, the span that was open when it was called, a start and
an end.  Spans stay in flat in-memory arrays until the run ends.  A
span's self time is its duration minus the durations of its child
spans.  ``tensor.as_vector`` runs hundreds of thousands of times per
training round, so it is only counted, and its time stays in its
caller's self time.

The recorder keeps one stack of open spans and is not thread-safe; the
benchmark drives the program from one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute path, timed).  Untimed targets are counted only.
TARGETS = (
    ("tensor", "as_vector", False),
    ("aff", "aff_forward", True),
    ("aff", "aff_backward", True),
    ("scoring", "model_forward", True),
    ("scoring", "model_backward", True),
    ("scoring", "mlp_forward", True),
    ("scoring", "mlp_backward", True),
    ("scoring", "similarity_score", True),
    ("scoring", "ModelGrads.add_", True),
    ("losses", "total_loss", True),
    ("trainer", "train", True),
    ("trainer", "adamw_step", True),
    ("trainer", "evaluate_model", True),
    ("trainer", "save_checkpoint", True),
    ("trainer", "load_checkpoint", True),
    ("metrics", "krcc", True),
    ("metrics", "plcc", True),
    ("metrics", "srcc", True),
    ("dataio", "read_feature_records", True),
    ("dataio", "write_feature_records", True),
    ("dataio", "synth_generate", True),
    ("dataio", "split_random", True),
    ("encoder", "read_image", True),
    ("encoder", "rescale_bilinear", True),
    ("encoder", "grid_cell_stats", True),
    ("encoder", "toy_encode_text", True),
    ("cli", "main", True),
)


def metric_names() -> list[str]:
    """Per-layer metric names, in table order."""
    names = []
    for module, attr, timed in TARGETS:
        names.append(f"{module}.{attr}.calls")
        if timed:
            names.append(f"{module}.{attr}.self_s")
    return names


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    def _timed(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "amff") -> None:
        """Wrap every target under every name an ``amff`` module binds it to."""
        if self._patches is None:
            self._patches = self._plan(package)
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._patches or ():
            setattr(holder, key, original)

    def _plan(self, package: str) -> list[tuple[object, str, object, object]]:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        patches = []
        for module_name, attr, timed in TARGETS:
            name = f"{module_name}.{attr}"
            owner = sys.modules.get(f"{package}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._timed(name, original) if timed else self._counted(name, original)
            for holder in [owner] if path else modules:
                patches += [(holder, key, value, wrapper) for key, value in vars(holder).items() if value is original]
        return patches

    def mark(self) -> tuple[int, dict[str, int]]:
        """A phase boundary: span index and count snapshot."""
        return len(self.start), dict(self.counts)

    def summarize(self, lo: tuple[int, dict], hi: tuple[int, dict]) -> dict:
        """Calls and self time per target between two marks, plus the top-level total."""
        a, b = lo[0], hi[0]
        names = np.array(self.span_name[a:b], dtype=np.int64)
        parent = np.array(self.parent[a:b], dtype=np.int64)
        dur = np.array(self.end[a:b]) - np.array(self.start[a:b])
        nested = parent >= 0
        child = np.bincount(parent[nested] - a, weights=dur[nested], minlength=b - a)
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        selfs = np.bincount(names, weights=self_time, minlength=n)
        out = {}
        for module_name, attr, timed in TARGETS:
            name = f"{module_name}.{attr}"
            if not timed:
                out[name] = (hi[1].get(name, 0) - lo[1].get(name, 0), None)
            elif name in self.names:
                k = self.names.index(name)
                out[name] = (int(calls[k]), float(selfs[k]))
            else:
                out[name] = (0, 0.0)
        return {"layers": out, "top_level_s": float(dur[~nested].sum()), "spans": b - a}

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.span_name, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }
