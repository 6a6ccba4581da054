"""Outside-in tracing of griduq: timing wrappers installed from the benchmark.

``Tracer.install`` replaces every public function of the traced modules
(plus ``train._pooled_loss``, which delimits validation loss) with a
wrapper that records one span per call: name, start, end, parent span,
thread and an optional work figure computed from the call's shapes. It is
rebound wherever griduq holds the function, including the copies that
``from ... import`` made in other modules, and ``unwrapped_bindings``
reports any copy still pointing at an original. Spans stay in memory;
the run writes them out when it ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
import time
from pathlib import Path

MODULES = ("cli", "data", "autodiff", "model", "losses", "train", "uq", "metrics", "export")
PRIVATE = {"train": ("_pooled_loss",)}  # delimits train.val_loss_s

# span record fields
NAME, START, END, PARENT, THREAD, WORK = range(6)


def _conv2d_work(fn, args, kwargs, out):
    """(FLOPs, im2col bytes) of one conv2d forward, computed from shapes."""
    n, cin = args[0].shape[:2]
    cout, _, kh, kw = args[1].shape
    ho, wo = out.shape[2:]
    cells = n * ho * wo * cin * kh * kw
    return (2 * cells * cout, 4 * cells)


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _written_bytes(fn, args, kwargs, out):
    return os.path.getsize(_bound(fn, args, kwargs, "path"))


def _mc_passes(fn, args, kwargs, out):
    return _bound(fn, args, kwargs, "t_passes")


def _dataset_bytes(fn, args, kwargs, out):
    return sum(p.stat().st_size for p in Path(_bound(fn, args, kwargs, "path")).iterdir())


WORK_FIGURES = {
    "autodiff.conv2d": _conv2d_work,
    "data.read_dataset": _dataset_bytes,
    "uq.mc_dropout_predict": _mc_passes,
    **{f"export.{n}": _written_bytes for n in ("write_heatmap", "write_grid_csv",
                                                "write_ranks_csv", "write_series_csv",
                                                "write_report")},
}


def _griduq_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "griduq" or name.startswith("griduq."))]


class Tracer:
    """Records spans for wrapped griduq calls; ``install``/``uninstall`` bracket a traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._root_stack: list[list] = []
        self._wrappers: dict = {}   # original function -> wrapper
        self._saved: list = []      # (module, name, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans, clock = self.spans, time.perf_counter
        figure = WORK_FIGURES.get(name)
        root_stack = self._root_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the installing thread's open span
            parent = stack[-1] if stack else (root_stack[-1] if root_stack else None)
            label = f"cli.{args[0][0]}" if name == "cli.main" else name
            rec = [label, clock(), 0.0, parent, threading.get_ident(), None]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if figure is not None:
                rec[WORK] = figure(fn, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap and rebind; returns the bindings still unwrapped (empty when complete)."""
        for mname in MODULES:
            module = importlib.import_module(f"griduq.{mname}")
            names = [n for n, v in vars(module).items()
                     if inspect.isfunction(v) and v.__module__ == module.__name__
                     and not n.startswith("_")]
            for n in names + list(PRIVATE.get(mname, ())):
                fn = getattr(module, n)
                self._wrappers[fn] = self._wrap(f"{mname}.{n}", fn)
        self._root_stack[:] = []
        self._local.stack = self._root_stack
        for module in _griduq_modules():
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._saved.append((module, key, value))
                    setattr(module, key, self._wrappers[value])
        return self.unwrapped_bindings()

    def unwrapped_bindings(self) -> list[str]:
        return [f"{module.__name__}.{key}" for module in _griduq_modules()
                for key, value in list(vars(module).items())
                if inspect.isfunction(value) and value in self._wrappers]

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()


def merged_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanView:
    """Derived per-span facts: self time, the cli stage at the root, ancestor names."""

    def __init__(self, spans: list[list]):
        children: dict[int, list] = {}
        for rec in spans:
            if rec[PARENT] is not None:
                children.setdefault(id(rec[PARENT]), []).append((rec[START], rec[END]))
        self.self_s = {}
        self.stage = {}
        self.ancestors = {}
        self.nesting_errors = 0
        interned: dict = {}
        for rec in spans:  # parents are appended before their children
            key = id(rec)
            kids = children.get(key, ())
            self.self_s[key] = rec[END] - rec[START] - merged_length(kids)
            parent = rec[PARENT]
            if parent is None:
                self.stage[key] = rec[NAME] if rec[NAME].startswith("cli.") else None
                self.ancestors[key] = frozenset()
            else:
                pkey = id(parent)
                self.stage[key] = self.stage[pkey]
                anc = (id(self.ancestors[pkey]), parent[NAME])
                if anc not in interned:
                    interned[anc] = self.ancestors[pkey] | {parent[NAME]}
                self.ancestors[key] = interned[anc]
                if rec[START] < parent[START] or rec[END] > parent[END]:
                    self.nesting_errors += 1
