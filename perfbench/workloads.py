"""The four closed-loop workloads, their inputs and their answer checks.

Each workload draws every input from the benchmark seed before timing
starts; the program receives only the generated ``A``, ``b`` (and, in
the stream, the session keeps its own warm starts).  Ops come one
*round* at a time -- one op per registry matrix, or one whole stream --
and a run times a fixed number of whole rounds, so per-op averages and
percentiles cover the same mix of matrices on every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Generator

import numpy as np

from repro import spcg
from repro.batch import SolverService
from repro.core import wavefront_aware_sparsify
from repro.core.spcg import make_preconditioner
from repro.datasets import load
from repro.graph import wavefront_count
from repro.harness.stream_study import build_heat_stream_operator
from repro.machine import A100
from repro.machine.kernels import (iteration_cost, time_precond_setup,
                                   time_sparsification)
from repro.perf.cache import ArtifactCache, use_cache
from repro.solvers import StoppingCriterion, pcg
from repro.sparse import CSRMatrix
from repro.sparse.ops import extract_lower
from repro.streams import DriftSchedule, SolveSession

#: Registry matrices of the one-shot and service workloads, with their
#: lower-triangle wavefront counts before -> after Algorithm 2:
#: 79 -> 41, 148 -> 99 and 163 -> 145.
REGISTRY = ("thermal_1600_s102", "structural_2500_s104",
            "graphics_3025_s105")
#: The matrix whose preconditioner build ``setup_s`` times.
SETUP_MATRIX = "structural_2500_s104"
#: Paper stopping rule (absolute 1e-12, 1000 iterations) with ||b|| = 1.
PAPER_RULE = StoppingCriterion.paper_default()
#: Requests per service flush.
BATCH = 8
#: Distinct right-hand sides (one-shot) or batches (service) per
#: matrix; rounds cycle through them.
POOL = 4
#: Fewest untraced rounds of a workload that cycles the registry.  The
#: tail has ten ops beyond it, so with R rounds it is the (R - 10)-th
#: op of the slowest matrix; from 15 rounds on it sits a third into
#: that matrix's ops, not at their edge where the sorted mix changes
#: matrix.
MIX_ROUNDS = 15

STREAM_SIDE = 50            # n = 2500
STREAM_DT = 20.0
STREAM_STEPS = 24
STREAM_DRIFT = 1e-3         # relative drift per step
STREAM_RULE = StoppingCriterion(rtol=1e-10, atol=0.0, max_iters=1000)
STREAM_RECYCLE = 8


@dataclass
class Solve:
    """One right-hand side an op answered, as the benchmark checks it."""

    a: CSRMatrix
    b: np.ndarray
    x: np.ndarray
    iters: int
    converged: bool
    threshold: float


@dataclass
class Op:
    """One blocking call into the public API, timed by the runner.

    ``call`` runs under ``cache`` (installed with ``use_cache`` by the
    runner, outside the timed region).  ``solves`` and ``facts`` read
    the call's result after the clock stopped: the answers to verify,
    and the per-op facts of the traced run (modeled seconds, stream
    counters).
    """

    call: Callable[[], Any]
    cache: ArtifactCache
    solves: Callable[[Any], list[Solve]]
    facts: Callable[[Any], dict] = field(default=lambda out: {})


def csr_matvec(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """``A x`` straight from the CSR arrays, with ``np.bincount`` row
    sums rather than the program's SpMV: inputs and answer checks do
    not depend on the kernels under test."""
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    return np.bincount(rows, weights=a.data * x[a.indices],
                       minlength=a.n_rows)


def passes(s: Solve) -> bool:
    """Converged, finite, and the true residual meets the threshold the
    solve was asked for."""
    return (s.converged and bool(np.all(np.isfinite(s.x)))
            and float(np.linalg.norm(s.b - csr_matvec(s.a, s.x)))
            <= s.threshold)


def _unit_rhs(a: CSRMatrix, rng: np.random.Generator) -> np.ndarray:
    """``b = A x*`` for a seeded ``x*``, scaled to ``||b|| = 1``."""
    b = csr_matvec(a, rng.standard_normal(a.n_rows))
    return b / np.linalg.norm(b)


def _paper_solve(a: CSRMatrix, b: np.ndarray, res) -> Solve:
    return Solve(a, b, res.x, int(res.n_iters), bool(res.converged),
                 PAPER_RULE.threshold(float(np.linalg.norm(b))))


def _timed(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _sparsified_setup(a: CSRMatrix) -> float:
    """Wall seconds of Algorithm 2 plus ILU(0) of ``Â`` -- the setup of
    ``spcg`` and of a ``SolveSession`` (re)factor -- from a fresh cache."""
    def build():
        make_preconditioner(wavefront_aware_sparsify(a).a_hat, "ilu0")

    with use_cache(ArtifactCache()):
        return _timed(build)


class Workload:
    """Inputs and op stream of one workload.

    ``round(r)`` yields round ``r``'s ops; the runner sends each op's
    result back into the generator (the stream builds its next
    right-hand side from it).  Two generators of the same round yield
    identical ops, which is what the traced run's bitwise comparison
    relies on.
    """

    name = ""
    #: Ops the runner executes untimed before the timed phase.
    warm_ops = 0
    #: Right-hand sides one op solves.
    rhs_per_op = 1
    #: Nominal wall seconds of one untraced round on the reference host
    #: (2 vCPUs of an Intel Xeon at 2.0 GHz, in its slower and more
    #: common speed state); sets the round count.
    round_s: float
    #: Fewest rounds of an untraced run.
    min_rounds = 1

    def round(self, r: int) -> Generator[Op, Any, None]:
        raise NotImplementedError

    def setup_once(self) -> float:
        """Wall seconds of one preconditioner build from a fresh cache."""
        raise NotImplementedError

    def extra_metrics(self) -> dict:
        """Traced-run metrics measured outside the op loop."""
        return {}


class OneShot(Workload):
    """``spcg(a, b)`` per op, each under a fresh ``ArtifactCache``."""

    name = "oneshot_ilu0"
    warm_ops = len(REGISTRY)
    round_s = 0.85
    min_rounds = MIX_ROUNDS

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.matrices = {n: load(n) for n in REGISTRY}
        self.rhs = {n: [_unit_rhs(a, rng) for _ in range(POOL)]
                    for n, a in self.matrices.items()}

    def round(self, r):
        for name, a in self.matrices.items():
            b = self.rhs[name][r % POOL]
            yield Op(call=partial(spcg, a, b), cache=ArtifactCache(),
                     solves=partial(self._solves, a, b),
                     facts=partial(self._facts, a))

    @staticmethod
    def _solves(a, b, out):
        return [_paper_solve(a, b, out.solve)]

    @staticmethod
    def _facts(a, out):
        m = out.preconditioner
        modeled = (time_sparsification(A100, a.nnz,
                                       len(out.decision.candidates))
                   + time_precond_setup(A100, m)
                   + out.solve.n_iters * iteration_cost(A100, a, m).total)
        facts = {"machine.modeled_s": modeled}
        d = out.decision
        if not any(c.ratio_percent == d.chosen_ratio
                   and c.wavefronts is not None for c in d.candidates):
            # Algorithm 2 fell back without counting the chosen cut.
            facts["core.wavefronts.after"] = wavefront_count(
                extract_lower(d.a_hat))
        return facts

    def setup_once(self):
        return _sparsified_setup(self.matrices[SETUP_MATRIX])

    def extra_metrics(self):
        """``core.speedup_vs_unsparsified``: pcg wall with ILU(0) of
        ``A`` over pcg wall with ILU(0) of ``Â``, same ``b``, untraced
        (measured form of the paper's Fig. 4/10), mean over matrices."""
        ratios = {}
        for name, a in self.matrices.items():
            b = self.rhs[name][0]
            with use_cache(ArtifactCache()):
                m_hat = make_preconditioner(
                    wavefront_aware_sparsify(a).a_hat, "ilu0")
                m_full = make_preconditioner(a, "ilu0")
                full, hat = [], []
                for _ in range(3):
                    full.append(_timed(partial(pcg, a, b, m_full)))
                    hat.append(_timed(partial(pcg, a, b, m_hat)))
            ratios[name] = float(np.median(full) / np.median(hat))
        return {"core.speedup_vs_unsparsified":
                float(np.mean(list(ratios.values()))),
                "speedup_by_matrix": ratios}


class Service(Workload):
    """``SolverService`` flushes of ``BATCH`` requests on one matrix per
    op (submits included), on a cache warmed by one untimed round.  With
    ILU(0) the service factors ``A`` itself and sweeps both triangles
    over the whole block (the 2-D sweep); FSAI applies as two SpMVs, with
    no triangular sweep."""

    warm_ops = len(REGISTRY)
    rhs_per_op = BATCH
    min_rounds = MIX_ROUNDS
    #: ``round_s`` by preconditioner.
    ROUND_S = {"ilu0": 2.0, "fsai": 1.3}

    def __init__(self, seed: int, preconditioner: str):
        self.name = f"service_{preconditioner}"
        self.preconditioner = preconditioner
        self.round_s = self.ROUND_S[preconditioner]
        rng = np.random.default_rng(seed)
        self.matrices = {n: load(n) for n in REGISTRY}
        self.rhs = {n: [[_unit_rhs(a, rng) for _ in range(BATCH)]
                        for _ in range(POOL)]
                    for n, a in self.matrices.items()}
        self.cache = ArtifactCache()
        self.service = SolverService(preconditioner=preconditioner)

    def _flush(self, a, batch):
        for b in batch:
            self.service.submit(a, b)
        return self.service.flush()

    def round(self, r):
        for name, a in self.matrices.items():
            batch = self.rhs[name][r % POOL]
            yield Op(call=partial(self._flush, a, batch), cache=self.cache,
                     solves=partial(self._solves, a, batch),
                     facts=self._facts)

    @staticmethod
    def _solves(a, batch, report):
        return [_paper_solve(a, b, res)
                for b, res in zip(batch, report.results)]

    @staticmethod
    def _facts(report):
        return {"machine.modeled_s": report.modeled_seconds}

    def setup_once(self):
        a = self.matrices[SETUP_MATRIX]
        with use_cache(ArtifactCache()):
            return _timed(partial(make_preconditioner, a,
                                  self.preconditioner))


class Stream(Workload):
    """``SolveSession.step`` per op on a drifting heat stream; each
    stream (one round) runs under a fresh cache."""

    name = "stream_ilu0"
    warm_ops = 4
    round_s = 4.8

    def __init__(self, seed: int):
        self.a0 = build_heat_stream_operator(STREAM_SIDE, STREAM_DT)
        # Steady drift: the detector reuses the factor for a few steps,
        # then accumulated drift forces a refactor (15-17 reuse and 6-8
        # refactor steps of 24).  No shock: a shock makes Algorithm 2
        # cut the factor from 99 to 45 levels on some seeds and not on
        # others, which would make the work per step seed-dependent.
        # Rounds cycle through POOL drift draws, so a run averages the
        # reuse/refactor mix of several draws rather than repeating one.
        self.streams = [self._drifted(seed * POOL + k) for k in range(POOL)]
        rng = np.random.default_rng(seed)
        n = self.a0.n_rows
        self.forcing = np.zeros(n)
        self.forcing[rng.choice(n, 4, replace=False)] = rng.uniform(
            50.0, 150.0, 4)

    def round(self, r):
        cache = ArtifactCache()
        session = SolveSession(preconditioner="ilu0",
                               criterion=STREAM_RULE,
                               recycle=STREAM_RECYCLE)
        u = np.zeros(self.a0.n_rows)
        for step, a in enumerate(self.streams[r % POOL], start=1):
            # Backward Euler: b_t = u_{t-1} / dt + f.
            b = u / STREAM_DT + self.forcing
            record = yield Op(
                call=partial(self._step, session, a, b, f"t{step}"),
                cache=cache, solves=partial(self._solves, a, b),
                facts=self._facts)
            u = record.result.x

    def _drifted(self, seed: int) -> list[CSRMatrix]:
        drift = DriftSchedule(seed=seed, magnitude=STREAM_DRIFT)
        matrices, a = [], self.a0
        for step in range(1, STREAM_STEPS + 1):
            a = drift.evolve(a, step)
            matrices.append(a)
        return matrices

    @staticmethod
    def _step(session, a, b, tag):
        # Looked up at call time, so the traced run sees its wrapper.
        return session.step(a, b, tag=tag)

    @staticmethod
    def _solves(a, b, record):
        return [Solve(a, b, record.result.x, record.total_iters,
                      record.result.converged,
                      STREAM_RULE.threshold(float(np.linalg.norm(b))))]

    @staticmethod
    def _facts(record):
        return {"machine.modeled_s": record.modeled_seconds,
                "streams.iterations": record.total_iters,
                "streams.refine_iters": record.refine_iters,
                "streams.deflated": record.deflated,
                "streams.steps": 1,
                "streams.reuse": int(record.action == "reuse"),
                f"streams.action.{record.action}": 1}

    def setup_once(self):
        return _sparsified_setup(self.a0)


def make(name: str, seed: int) -> Workload:
    """Build workload *name*'s inputs from *seed*."""
    if name == "oneshot_ilu0":
        return OneShot(seed)
    if name in ("service_ilu0", "service_fsai"):
        return Service(seed, name.removeprefix("service_"))
    if name == "stream_ilu0":
        return Stream(seed)
    raise ValueError(f"unknown workload {name!r}")
