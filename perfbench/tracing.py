"""In-memory span tracer wrapped around driftsolve's public functions.

The tracer lives entirely in the benchmark: it replaces each public function
of the measured modules by a wrapper that records a span (name, parent span,
problem id, start, end) and calls the original.  The wrapper is installed in
every ``driftsolve`` module namespace that holds the function, so calls made
through names bound by ``from .grid import laplacian`` are traced as well.
The caller names further modules (the benchmark's own) whose bound names
are patched the same way.  ``numpy.fft.fftn``/``ifftn`` get a counting
wrapper (calls and transformed points, no spans) and
``scipy.sparse.linalg.gmres`` gets a span.  While ``active`` is false the
wrappers call straight through and record nothing.

Spans stay in memory until :meth:`Tracer.write` dumps them; :func:`summarize`
turns them into per-function call counts, inclusive seconds and self seconds
(span time minus the time of its direct children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("grid", "scalar", "momentum", "stability", "coupled", "physical")

# fields of one span record
NAME, PARENT, PROBLEM, START, END = range(5)


class Tracer:
    """Installs and removes the wrappers and owns the recorded spans."""

    def __init__(self):
        self.spans = []
        self.problem = "setup"
        self.active = True
        self.fft_calls = 0
        self.fft_points = 0
        self._stack = [-1]
        self._patches = []

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1], self.problem, clock(), 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def _fft_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self.active:
                self.fft_calls += 1
                self.fft_points += a.size
            return fn(a, *args, **kwargs)

        return counted

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, namespaces=()):
        """Wrap every public function of the measured layers, FFTs and GMRES,
        in every driftsolve module and in each module of ``namespaces``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.fft
        import scipy.sparse.linalg

        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"driftsolve.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, self._span_wrapper(f"{layer}.{attr}", obj))
        holders = [mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "driftsolve" or name.startswith("driftsolve."))]
        for mod in holders + list(namespaces):
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        self._patch(numpy.fft, "fftn", self._fft_wrapper(numpy.fft.fftn))
        self._patch(numpy.fft, "ifftn", self._fft_wrapper(numpy.fft.ifftn))
        self._patch(scipy.sparse.linalg, "gmres",
                    self._span_wrapper("grid.gmres", scipy.sparse.linalg.gmres))

    def uninstall(self):
        """Put every original function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def write(self, path):
        """Dump all spans as tab-separated rows with a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tproblem\tstart_ns\tend_ns\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i}\t{rec[PARENT]}\t{rec[NAME]}\t{rec[PROBLEM]}\t"
                         f"{rec[START]}\t{rec[END]}\n")


def summarize(spans, keep=lambda rec: True):
    """Per-name totals over the spans selected by ``keep``.

    Returns ``(table, edges)``: ``table[name] = [calls, seconds, self_seconds]``
    and ``edges[(parent_name, child_name)]`` counts direct parent-child pairs.
    Children of a span run one after another in one thread, so self time is
    the span's duration minus the sum of its direct children's durations.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    table = {}
    edges = {}
    for i, rec in enumerate(spans):
        if not keep(rec):
            continue
        dur = rec[END] - rec[START]
        row = table.setdefault(rec[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur * 1e-9
        row[2] += (dur - child_ns[i]) * 1e-9
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        edges[(parent, rec[NAME])] = edges.get((parent, rec[NAME]), 0) + 1
    return table, edges
