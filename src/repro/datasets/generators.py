"""Per-category SPD matrix generators.

Every generator is deterministic in ``(n, seed)`` and returns a canonical
float64 :class:`~repro.sparse.csr.CSRMatrix` that is symmetric positive
definite by construction (graph-Laplacian form ``D − W`` with
``D = rowsum(W)·(1+δ) + shift``, strictly diagonally dominant with
positive diagonal).

The categories differ in exactly the knobs the paper's analysis keys on —
see :mod:`~repro.datasets.categories` for the mapping rationale.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DatasetError
from ..sparse.coo import COOMatrix
from ..sparse.csr import CSRMatrix

__all__ = ["GENERATORS", "generate"]


# ----------------------------------------------------------------------
# shared assembly helpers
# ----------------------------------------------------------------------

def _spd_from_edges(rows: np.ndarray, cols: np.ndarray,
                    weights: np.ndarray, n: int, *,
                    dominance: float = 0.02, shift: float = 0.0,
                    signs: np.ndarray | None = None) -> CSRMatrix:
    """Assemble ``A = D − W`` (Laplacian-like) from undirected edges.

    Parameters
    ----------
    rows, cols, weights:
        Edge list with *positive* weights; each edge contributes the
        off-diagonal value ``−w`` (or ``sign·w`` when *signs* given) at
        both ``(i, j)`` and ``(j, i)``.
    dominance:
        Diagonal excess δ: ``D_ii = Σ|w| · (1+δ) + shift``.  Strictly
        positive δ makes the matrix strictly diagonally dominant with
        positive diagonal, hence SPD.
    shift:
        Additive diagonal shift (mass term).
    """
    if np.any(weights <= 0):
        raise DatasetError("edge weights must be positive")
    offvals = -weights if signs is None else signs * weights
    all_rows = np.concatenate([rows, cols, np.arange(n)])
    all_cols = np.concatenate([cols, rows, np.arange(n)])
    all_vals = np.concatenate([offvals, offvals, np.zeros(n)])
    a = COOMatrix(all_rows, all_cols, all_vals, (n, n), check=False).tocsr()
    rid = np.repeat(np.arange(n, dtype=np.int64), a.row_lengths())
    off = rid != a.indices
    row_abs = np.zeros(n, dtype=np.float64)
    np.add.at(row_abs, rid[off], np.abs(a.data[off]))
    diag = row_abs * (1.0 + dominance) + shift
    # Isolated vertices (random-graph generators can produce them) get a
    # unit diagonal: real SPD collections never carry near-zero pivots,
    # and a 1e-12 pivot would explode the condition-number proxy.
    diag[diag < 1e-10] = 1.0
    dmask = rid == a.indices
    data = a.data.copy()
    data[dmask] = diag[rid[dmask]]
    return CSRMatrix(a.indptr, a.indices, data, a.shape, check=False)


def _grid_edges_2d(nx: int, ny: int,
                   offsets: tuple[tuple[int, int], ...] = ((1, 0), (0, 1))
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of an ``nx × ny`` grid for the given neighbor offsets.

    Returns ``(i, j, offset_id)`` arrays; node index is ``x·ny + y``.
    """
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    xs = xs.ravel()
    ys = ys.ravel()
    out_i, out_j, out_k = [], [], []
    for k, (dx, dy) in enumerate(offsets):
        ok = (xs + dx < nx) & (xs + dx >= 0) & (ys + dy < ny) & (ys + dy >= 0)
        i = xs[ok] * ny + ys[ok]
        j = (xs[ok] + dx) * ny + (ys[ok] + dy)
        out_i.append(i)
        out_j.append(j)
        out_k.append(np.full(i.shape[0], k, dtype=np.int64))
    return (np.concatenate(out_i), np.concatenate(out_j),
            np.concatenate(out_k))


def _grid_edges_3d(nx: int, ny: int, nz: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor edges of an ``nx × ny × nz`` lattice."""
    xs, ys, zs = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    xs, ys, zs = xs.ravel(), ys.ravel(), zs.ravel()
    out_i, out_j = [], []
    for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        ok = (xs + dx < nx) & (ys + dy < ny) & (zs + dz < nz)
        i = (xs[ok] * ny + ys[ok]) * nz + zs[ok]
        j = ((xs[ok] + dx) * ny + (ys[ok] + dy)) * nz + (zs[ok] + dz)
        out_i.append(i)
        out_j.append(j)
    return np.concatenate(out_i), np.concatenate(out_j)


def _weaken_fronts(i: np.ndarray, j: np.ndarray, w: np.ndarray,
                   coord_sum: np.ndarray, rng: np.random.Generator, *,
                   max_fronts: int = 4, factor: float = 1e-6,
                   zero_prob: float = 0.22) -> np.ndarray:
    """Multiply by *factor* the weights of edges crossing random fronts.

    A *front* is a level set of the node coordinate sum (an anti-diagonal
    plane of the grid); edges crossing it model physically weak interfaces
    — material boundaries, contact surfaces, weakly coupled subsystems.
    Every dependence chain of the lower-triangular DAG advances the
    coordinate sum monotonically, so once a front's edges are sparsified
    away the wavefront count genuinely drops (the chains are severed, not
    rerouted).  This is the structural mechanism behind the wavefront
    reductions the paper observes on irregular application matrices.

    The number of fronts is drawn in ``[0, max_fronts]`` so the suite
    contains both reducible and irreducible systems.
    """
    s_max = float(coord_sum.max(initial=0))
    if s_max <= 2:
        return w
    if rng.random() < zero_prob:
        return w
    n_fronts = int(rng.integers(1, max_fronts + 1))
    w = w.copy()
    for _ in range(n_fronts):
        c = rng.uniform(0.2, 0.9) * s_max
        strength = factor * 10.0 ** rng.uniform(0.0, 1.5)
        crossing = (coord_sum[i] < c) != (coord_sum[j] < c)
        w[crossing] *= strength
    return w


def _jacobi_scaled(a: CSRMatrix) -> CSRMatrix:
    """Symmetric Jacobi scaling ``D^{-1/2} A D^{-1/2}`` (unit diagonal).

    SuiteSparse application matrices are commonly pre-scaled; scaling
    decorrelates "row is weak" from "row's entries are globally small",
    which keeps the magnitude-based drop budget spread across rows
    instead of wiping out the weakest row — matching the regime in which
    the paper's safety indicator operates.
    """
    d = a.diagonal().astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(d)
    rid = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_lengths())
    data = a.data * inv_sqrt[rid] * inv_sqrt[a.indices]
    return CSRMatrix(a.indptr, a.indices, data, a.shape, check=False)


def _square_side(n: int) -> int:
    return max(2, int(round(np.sqrt(n))))


def _cube_side(n: int) -> int:
    return max(2, int(round(n ** (1.0 / 3.0))))


# ----------------------------------------------------------------------
# category generators
# ----------------------------------------------------------------------

def gen_2d3d(n: int, seed: int, *, dim: int = 2,
             coeff_sigma: float = 1.8) -> CSRMatrix:
    """Variable-coefficient Poisson stencil on a 2-D or 3-D grid."""
    rng = np.random.default_rng(seed)
    if dim == 2:
        side = _square_side(n)
        nn = side * side
        i, j, _ = _grid_edges_2d(side, side)
    elif dim == 3:
        side = _cube_side(n)
        nn = side ** 3
        i, j = _grid_edges_3d(side, side, side)
    else:
        raise DatasetError(f"dim must be 2 or 3, got {dim}")
    w = rng.lognormal(mean=0.0, sigma=coeff_sigma, size=i.shape[0])
    if dim == 2:
        coord_sum = np.arange(nn) // side + np.arange(nn) % side
    else:
        idx = np.arange(nn)
        coord_sum = idx // (side * side) + (idx // side) % side + idx % side
    w = _weaken_fronts(i, j, w, coord_sum, rng)
    return _jacobi_scaled(_spd_from_edges(i, j, w, nn, dominance=0.02))


def gen_acoustics(n: int, seed: int, *, shift: float = 0.15) -> CSRMatrix:
    """Positive-shifted Laplacian (damped Helmholtz): stencil + mass."""
    rng = np.random.default_rng(seed)
    side = _square_side(n)
    i, j, _ = _grid_edges_2d(side, side)
    w = 1.0 + 0.25 * rng.standard_normal(i.shape[0])
    w = np.abs(w) + 1e-3
    coord_sum = np.arange(side * side) // side + np.arange(side * side) % side
    w = _weaken_fronts(i, j, w, coord_sum, rng, max_fronts=4)
    return _jacobi_scaled(_spd_from_edges(i, j, w, side * side,
                                          dominance=0.0, shift=shift))


def gen_circuit(n: int, seed: int, *, decades: float = 6.0,
                avg_degree: float = 4.0) -> CSRMatrix:
    """Conductance network with log-uniform weight spread."""
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    keep = i != j
    i, j = i[keep], j[keep]
    w = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=i.shape[0])
    # Ground leaks on 5% of the nodes keep the system well-posed.
    leak = np.zeros(n)
    picks = rng.choice(n, size=max(1, n // 20), replace=False)
    leak[picks] = 10.0 ** rng.uniform(-1, 1, size=picks.shape[0])
    a = _spd_from_edges(i, j, w, n, dominance=0.01)
    rid = np.repeat(np.arange(n, dtype=np.int64), a.row_lengths())
    dmask = rid == a.indices
    data = a.data.copy()
    data[dmask] += leak[rid[dmask]]
    return CSRMatrix(a.indptr, a.indices, data, a.shape, check=False)


def gen_cfd(n: int, seed: int, *, eps: float = 0.03) -> CSRMatrix:
    """Anisotropic diffusion: x-direction couples with strength *eps*."""
    rng = np.random.default_rng(seed)
    side = _square_side(n)
    i, j, k = _grid_edges_2d(side, side)
    w = np.where(k == 0, eps, 1.0) * (
        1.0 + 0.02 * np.abs(rng.standard_normal(i.shape[0])))
    coord_sum = np.arange(side * side) // side + np.arange(side * side) % side
    w = _weaken_fronts(i, j, w, coord_sum, rng, max_fronts=4)
    return _jacobi_scaled(_spd_from_edges(i, j, w, side * side,
                                          dominance=0.01))


def gen_graphics(n: int, seed: int, *, sigma: float = 2.0) -> CSRMatrix:
    """Mesh-like 8-neighbor Laplacian with cotangent-style random weights."""
    rng = np.random.default_rng(seed)
    side = _square_side(n)
    i, j, k = _grid_edges_2d(side, side,
                             offsets=((1, 0), (0, 1), (1, 1), (1, -1)))
    w = rng.lognormal(mean=0.0, sigma=sigma, size=i.shape[0])
    # Diagonal (k>=2) couplings are systematically weaker, as in cotan
    # weights of near-right triangles.
    w = np.where(k >= 2, 0.3 * w, w)
    coord_sum = np.arange(side * side) // side + np.arange(side * side) % side
    w = _weaken_fronts(i, j, w, coord_sum, rng, max_fronts=4)
    return _jacobi_scaled(_spd_from_edges(i, j, w, side * side,
                                          dominance=0.01))


def gen_counter(n: int, seed: int) -> CSRMatrix:
    """Adversarial near-uniform magnitudes: no signal for dropping."""
    rng = np.random.default_rng(seed)
    side = _square_side(n)
    i, j, _ = _grid_edges_2d(side, side)
    w = 1.0 + 1e-6 * rng.standard_normal(i.shape[0])
    return _spd_from_edges(i, j, np.abs(w), side * side, dominance=0.005)


def gen_model_reduction(n: int, seed: int, *, band: int = 14,
                        alpha: float = 0.35) -> CSRMatrix:
    """Banded Gramian-like matrix with exponentially decaying bands."""
    rng = np.random.default_rng(seed)
    rows_all, cols_all, w_all = [], [], []
    for k in range(1, band + 1):
        length = n - k
        if length <= 0:
            break
        r = np.arange(length, dtype=np.int64)
        # Irregular band: reduced models are not dense-banded, and a full
        # band would make ILU(0) exact (trivializing the baseline).
        keep = rng.random(length) < (1.0 if k == 1 else 0.45)
        r = r[keep]
        w = np.exp(-alpha * k) * (1.0 + 0.4 * np.abs(
            rng.standard_normal(r.shape[0])))
        rows_all.append(r)
        cols_all.append(r + k)
        w_all.append(w)
    # Long-range correction couplings: projected reduced models are not
    # purely banded; the scattered terms defeat level-of-fill closure so
    # moderate-K ILU stays genuinely incomplete.
    m_extra = max(1, n // 3)
    ii = rng.integers(0, n, size=m_extra)
    jj = rng.integers(0, n, size=m_extra)
    keep = np.abs(ii - jj) > band
    rows_all.append(ii[keep])
    cols_all.append(jj[keep])
    w_all.append(0.05 * rng.lognormal(0.0, 0.5, size=int(keep.sum())))
    i = np.concatenate(rows_all)
    j = np.concatenate(cols_all)
    w = np.concatenate(w_all)
    # Weakly coupled subsystem blocks: edges crossing block boundaries are
    # orders of magnitude weaker — the classic reduced-model structure.
    w = _weaken_fronts(i, j, w, np.arange(n, dtype=np.float64), rng,
                       max_fronts=4)
    return _spd_from_edges(i, j, w, n, dominance=0.005)


def gen_optimization(n: int, seed: int, *, density: float = 0.004,
                     spread: float = 1.0) -> CSRMatrix:
    """Normal-equation-like random SPD system."""
    rng = np.random.default_rng(seed)
    m = max(n, int(density * n * n / 2))
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    keep = i != j
    i, j = i[keep], j[keep]
    w = rng.lognormal(mean=0.0, sigma=spread, size=i.shape[0])
    return _spd_from_edges(i, j, w, n, dominance=0.02)


def gen_economic(n: int, seed: int, *, tail: float = 1.5) -> CSRMatrix:
    """Input–output model: power-law coupling magnitudes, strong diagonal."""
    rng = np.random.default_rng(seed)
    m = 3 * n
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    keep = i != j
    i, j = i[keep], j[keep]
    w = rng.pareto(tail, size=i.shape[0]) + 1e-3
    return _spd_from_edges(i, j, w, n, dominance=0.05)


def gen_electromagnetics(n: int, seed: int) -> CSRMatrix:
    """Curl-curl-like wide-band stencil with mixed-sign couplings."""
    rng = np.random.default_rng(seed)
    side = _square_side(n)
    i, j, k = _grid_edges_2d(side, side,
                             offsets=((1, 0), (0, 1), (2, 0), (0, 2)))
    w = np.where(k < 2, 1.0, 0.08) * (
        1.0 + 0.05 * np.abs(rng.standard_normal(i.shape[0])))
    # Next-nearest couplings are positive (sign +1), nearest negative.
    signs = np.where(k < 2, -1.0, +1.0)
    coord_sum = np.arange(side * side) // side + np.arange(side * side) % side
    w = _weaken_fronts(i, j, w, coord_sum, rng, max_fronts=4)
    return _jacobi_scaled(_spd_from_edges(i, j, w, side * side,
                                          dominance=0.02, signs=signs))


def gen_materials(n: int, seed: int, *, contrast: float = 100.0
                  ) -> CSRMatrix:
    """Two-phase lattice with high-contrast coefficients."""
    rng = np.random.default_rng(seed)
    side = _cube_side(n)
    nn = side ** 3
    phase = np.where(rng.random(nn) < 0.3, contrast, 1.0)
    i, j = _grid_edges_3d(side, side, side)
    # Harmonic mean of the endpoint phases (flux continuity).
    w = 2.0 * phase[i] * phase[j] / (phase[i] + phase[j])
    idx = np.arange(nn)
    coord_sum = idx // (side * side) + (idx // side) % side + idx % side
    w = _weaken_fronts(i, j, w, coord_sum, rng, max_fronts=4)
    return _jacobi_scaled(_spd_from_edges(i, j, w, nn, dominance=0.02))


def gen_random2d3d(n: int, seed: int, *, k_nearest: int = 6) -> CSRMatrix:
    """Random geometric-graph Laplacian on scattered 2-D points.

    Points are bucketed on a grid and each connects to its *k* nearest
    within the 3×3 neighborhood — O(n) expected work, no SciPy KD-tree.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    cells_per_side = max(1, int(np.sqrt(n / 4)))
    cell = np.minimum((pts * cells_per_side).astype(np.int64),
                      cells_per_side - 1)
    cell_id = cell[:, 0] * cells_per_side + cell[:, 1]
    order = np.argsort(cell_id, kind="stable")
    sorted_ids = cell_id[order]
    boundaries = np.searchsorted(sorted_ids,
                                 np.arange(cells_per_side ** 2 + 1))
    rows_l, cols_l, w_l = [], [], []
    for cx in range(cells_per_side):
        for cy in range(cells_per_side):
            cid = cx * cells_per_side + cy
            mine = order[boundaries[cid]:boundaries[cid + 1]]
            if mine.size == 0:
                continue
            neigh = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    ex, ey = cx + dx, cy + dy
                    if 0 <= ex < cells_per_side and 0 <= ey < cells_per_side:
                        eid = ex * cells_per_side + ey
                        neigh.append(order[boundaries[eid]:
                                           boundaries[eid + 1]])
            cand = np.concatenate(neigh)
            d2 = ((pts[mine][:, None, :] - pts[cand][None, :, :]) ** 2
                  ).sum(axis=2)
            kk = min(k_nearest + 1, cand.shape[0])
            nearest = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
            src = np.repeat(mine, kk)
            dst = cand[nearest.ravel()]
            ok = src != dst
            rows_l.append(src[ok])
            cols_l.append(dst[ok])
            w_l.append(1.0 / (1e-3 + np.sqrt(
                d2[np.repeat(np.arange(mine.size), kk),
                   nearest.ravel()][ok])))
    return _spd_from_edges(np.concatenate(rows_l), np.concatenate(cols_l),
                           np.concatenate(w_l), n, dominance=0.05)


def gen_statmath(n: int, seed: int, *, corr_len: float = 2.0,
                 band: int = 10, keep_prob: float = 0.6) -> CSRMatrix:
    """Covariance-like matrix ``A_ij ∝ exp(−|i−j|/l)`` on an irregular band.

    Entries inside the band are kept with probability *keep_prob*: a
    thresholded covariance is not a dense band, and the resulting pattern
    makes ILU(0) genuinely incomplete (a full band would factor exactly).
    """
    rng = np.random.default_rng(seed)
    rows_all, cols_all, w_all = [], [], []
    for k in range(1, band + 1):
        length = n - k
        if length <= 0:
            break
        r = np.arange(length, dtype=np.int64)
        keep = rng.random(length) < (1.0 if k == 1 else keep_prob)
        r = r[keep]
        w = np.exp(-k / corr_len) * (1.0 + 0.3 * np.abs(
            rng.standard_normal(r.shape[0])))
        rows_all.append(r)
        cols_all.append(r + k)
        w_all.append(w)
    return _spd_from_edges(np.concatenate(rows_all),
                           np.concatenate(cols_all),
                           np.concatenate(w_all), n, dominance=0.02)


def gen_structural(n: int, seed: int, *, stiff_fraction: float = 0.2,
                   stiffness_ratio: float = 50.0) -> CSRMatrix:
    """FEM-like 9-point stencil with a stiff/soft element mix."""
    rng = np.random.default_rng(seed)
    side = _square_side(n)
    nn = side * side
    stiff = np.where(rng.random(nn) < stiff_fraction, stiffness_ratio, 1.0)
    i, j, k = _grid_edges_2d(side, side,
                             offsets=((1, 0), (0, 1), (1, 1), (1, -1)))
    w = 0.5 * (stiff[i] + stiff[j]) * rng.lognormal(
        0.0, 1.8, size=i.shape[0])
    w = np.where(k >= 2, 0.25 * w, w)
    coord_sum = np.arange(nn) // side + np.arange(nn) % side
    w = _weaken_fronts(i, j, w, coord_sum, rng, max_fronts=4)
    return _spd_from_edges(i, j, w, nn, dominance=0.02)


def gen_thermal(n: int, seed: int) -> CSRMatrix:
    """Heat conduction with a smooth conductivity field."""
    rng = np.random.default_rng(seed)
    side = _square_side(n)
    xs, ys = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side),
                         indexing="ij")
    conduct = (1.0 + 0.9 * np.sin(2 * np.pi * xs) * np.sin(2 * np.pi * ys)
               + 0.05 * rng.random((side, side))).ravel()
    i, j, _ = _grid_edges_2d(side, side)
    w = 0.5 * (conduct[i] + conduct[j]) * rng.lognormal(
        0.0, 1.5, size=i.shape[0])
    coord_sum = np.arange(side * side) // side + np.arange(side * side) % side
    w = _weaken_fronts(i, j, w, coord_sum, rng, max_fronts=4)
    return _jacobi_scaled(_spd_from_edges(i, j, w, side * side,
                                          dominance=0.02))


# ----------------------------------------------------------------------
# dispatch table
# ----------------------------------------------------------------------

GENERATORS: dict[str, Callable[..., CSRMatrix]] = {
    "2d3d": gen_2d3d,
    "acoustics": gen_acoustics,
    "circuit": gen_circuit,
    "cfd": gen_cfd,
    "graphics": gen_graphics,
    "counter": gen_counter,
    "dup_model_reduction": lambda n, seed, **kw: gen_model_reduction(
        n, seed, band=kw.pop("band", 10), alpha=kw.pop("alpha", 0.5), **kw),
    "dup_optimization": lambda n, seed, **kw: gen_optimization(
        n, seed, density=kw.pop("density", 0.006),
        spread=kw.pop("spread", 1.5), **kw),
    "economic": gen_economic,
    "electromagnetics": gen_electromagnetics,
    "materials": gen_materials,
    "model_reduction": gen_model_reduction,
    "optimization": gen_optimization,
    "random2d3d": gen_random2d3d,
    "statmath": gen_statmath,
    "structural": gen_structural,
    "thermal": gen_thermal,
}


def generate(category: str, n: int, seed: int, **params) -> CSRMatrix:
    """Generate one matrix of the given category (deterministic)."""
    try:
        gen = GENERATORS[category]
    except KeyError:
        raise DatasetError(f"unknown category {category!r}; "
                           f"known: {sorted(GENERATORS)}") from None
    if n < 4:
        raise DatasetError("n must be at least 4")
    return gen(n, seed, **params)
