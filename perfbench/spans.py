"""Spans for the traced run, recorded from the benchmark's own files.

:class:`Patches` wraps public callables at the attribute their callers
look up: class methods on the class, module functions at every
``repro`` module global that holds them (each import site, plus the
defining module for call-time imports).  A wrapper records a span --
name, start, end, parent span, op id -- and, after the call returned,
may read counts off its arguments and result.  It passes arguments and
results through untouched, so the traced run computes bitwise what the
untraced run does.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counters: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self._stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        c = self.counters[self.op_id]
        c[key] = c.get(key, 0) + value

    def begin_op(self) -> int:
        """Start the next op's root span (named ``op``)."""
        self.op_id += 1
        self.counters.append({})
        return self.open("op")

    def per_op(self) -> list[dict]:
        """Per op: ``{span name: [self_s, total_s, calls]}`` plus the
        root's wall seconds under ``"op"``.

        Self time is a span's duration minus its children's; a call
        counts only when its parent span has another name, so nested
        pricing helpers count as one call into the layer.
        """
        name = np.array(self.name)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_s = dur - child
        outer = ~has | (name[np.where(has, parent, 0)] != name)
        ops: list[dict] = [defaultdict(lambda: [0.0, 0.0, 0])
                           for _ in self.counters]
        for i, op in enumerate(self.op):
            acc = ops[op][self.name[i]]
            acc[0] += self_s[i]
            acc[1] += dur[i]
            acc[2] += int(outer[i])
        return ops

    def queue_waits(self) -> list[float]:
        """Per op, the mean wall wait of its submitted requests: from a
        submit span's end to the start of the first block dispatch after
        it (0 for ops without submits)."""
        dispatches = defaultdict(list)
        for i, n in enumerate(self.name):
            if n == "batch.pcg_block":
                dispatches[self.op[i]].append(self.start[i])
        waits: list[list[float]] = [[] for _ in self.counters]
        for i, n in enumerate(self.name):
            if n == "batch.service.submit":
                later = [s for s in dispatches[self.op[i]]
                         if s >= self.end[i]]
                if later:
                    waits[self.op[i]].append(min(later) - self.end[i])
        return [float(np.mean(w)) if w else 0.0 for w in waits]

    def dump(self, path: Path) -> None:
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        rows = [[index[n], s, e, p, o] for n, s, e, p, o in
                zip(self.name, self.start, self.end, self.parent, self.op)]
        path.write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "names": names, "spans": rows}))


def _wrap(tracer: Tracer, fn: Callable, name: str,
          probe: Callable | None) -> Callable:
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if probe is not None:
            probe(tracer, args, kwargs, out)
        return out

    return functools.update_wrapper(traced, fn)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _columns(v: np.ndarray) -> int:
    return 1 if v.ndim == 1 else v.shape[1]


def _spmv_probe(tr, args, kwargs, out):
    # Computed bytes: the matrix arrays once, then per right-hand-side
    # column one gathered x value per nonzero and one y value per row.
    a, x = args[0], np.asarray(_arg(args, kwargs, 1, "x"))
    tr.count("sparse.spmv.bytes",
             a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
             + _columns(x) * (a.nnz * x.itemsize + a.n_rows * out.itemsize))


def _trisolve_probe(tr, args, kwargs, out):
    # Computed bytes: each stored entry (off-diagonal plus one diagonal
    # op per row) read once as value + index, then per column one x
    # gather per entry and one x write per row.
    solver, b = args[0], np.asarray(_arg(args, kwargs, 1, "b"))
    stored = solver.nnz
    tr.count("precond.trisolve.levels", solver.n_levels)
    tr.count("precond.trisolve.bytes",
             stored * 16 + _columns(b) * (stored + solver.n) * 8)


def _pcg_probe(tr, args, kwargs, out):
    tr.count("solvers.pcg.iterations", out.n_iters)


def _block_probe(tr, args, kwargs, out):
    tr.count("batch.pcg_block.sweeps", out.block_iters)
    tr.count("batch.pcg_block.column_iters", int(out.n_iters.sum()))
    tr.count("batch.pcg_block.slots", out.block_iters * out.batch)


def _algorithm2_probe(tr, args, kwargs, out):
    tr.count("core.candidates", len(out.candidates))
    tr.count("core.wavefronts.before", out.w_original)
    for c in out.candidates:
        if c.ratio_percent == out.chosen_ratio and c.wavefronts is not None:
            tr.count("core.wavefronts.after", c.wavefronts)


#: (module, class, method, span name, probe)
METHODS = (
    ("repro.sparse.csr", "CSRMatrix", "matvec", "sparse.spmv", _spmv_probe),
    ("repro.sparse.csr", "CSRMatrix", "matmat", "sparse.spmv", _spmv_probe),
    ("repro.precond.triangular", "ScheduledTriangularSolver", "solve",
     "precond.trisolve", _trisolve_probe),
    ("repro.precond.ilu0", "ILU0Preconditioner", "apply",
     "precond.apply", None),
    ("repro.precond.fsai", "FSAIPreconditioner", "apply",
     "precond.apply", None),
    ("repro.precond.ilu0", "ILU0Preconditioner", "__init__",
     "precond.factor", None),
    ("repro.precond.fsai", "FSAIPreconditioner", "__init__",
     "precond.factor", None),
    ("repro.streams.session", "SolveSession", "step", "streams.step", None),
    ("repro.serve.scheduler", "ServeScheduler", "run", "serve.scheduler",
     None),
    ("repro.batch.service", "SolverService", "submit",
     "batch.service.submit", None),
    ("repro.batch.service", "SolverService", "flush", "batch.service",
     None),
)

#: (defining module, function, span name, probe)
FUNCTIONS = (
    ("repro.solvers.cg", "pcg", "solvers.pcg", _pcg_probe),
    ("repro.batch.block", "pcg_block", "batch.pcg_block", _block_probe),
    ("repro.streams.recycle", "recycling_pcg", "streams.recycle", None),
    ("repro.core.wavefront_aware", "wavefront_aware_sparsify",
     "core.algorithm2", _algorithm2_probe),
    ("repro.core.sparsify", "sparsify_magnitude", "core.sparsify", None),
    ("repro.core.indicators", "convergence_indicator", "core.indicator",
     None),
    ("repro.graph.levels", "level_schedule", "graph.level_schedule", None),
    ("repro.perf.fingerprint", "matrix_fingerprint", "perf.fingerprint",
     None),
    ("repro.perf.fingerprint", "structure_fingerprint", "perf.fingerprint",
     None),
)

#: Every public pricing function of the machine model is one layer.
PRICING_MODULE = "repro.machine.kernels"


class Patches:
    """The wrapper set; :meth:`install` and :meth:`remove` swap it in
    and out (a few hundred ``setattr`` calls, cheap enough per op).

    Build it after the workload has run once, so every module on the
    op path is imported and all import sites are found.
    """

    def __init__(self, tracer: Tracer):
        self._sites: list[tuple[object, str, object, object]] = []
        for mod, cls_name, attr, span, probe in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            original = cls.__dict__[attr]
            wrapper = _wrap(tracer, original, span, probe)
            # Aliases such as ``__call__ = solve`` share the wrapper.
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    self._sites.append((cls, key, original, wrapper))
        targets = [(sys.modules[mod], fn, span, probe)
                   for mod, fn, span, probe in FUNCTIONS]
        kernels = sys.modules[PRICING_MODULE]
        targets += [(kernels, fn, "machine.pricing", None)
                    for fn, obj in vars(kernels).items()
                    if inspect.isfunction(obj) and not fn.startswith("_")
                    and obj.__module__ == PRICING_MODULE]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro"
                                         or n.startswith("repro."))]
        for home, fn, span, probe in targets:
            original = getattr(home, fn)
            wrapper = _wrap(tracer, original, span, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, key, original, wrapper))

    def install(self) -> None:
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)
