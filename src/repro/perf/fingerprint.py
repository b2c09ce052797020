"""Content fingerprints of sparse matrices.

The artifact cache (:mod:`repro.perf.cache`) must recognise "the same
matrix" across call sites that each hold their own :class:`CSRMatrix`
instance — the suite rebuilds ``Â`` for every (ratio, preconditioner)
pair, and a grid search re-sparsifies identical inputs per grid point.
Object identity is therefore useless as a key; content is what matters.

Two fingerprints are provided:

* :func:`structure_fingerprint` — hashes shape + ``indptr`` + ``indices``
  only.  Keys artifacts that depend on the *pattern* alone: level
  schedules, dependence DAGs, ILU factorization plans.
* :func:`matrix_fingerprint` — additionally hashes ``data`` (and its
  dtype).  Keys numeric artifacts: factors, preconditioners, scheduled
  solvers.

Hashing is BLAKE2b over the raw array bytes: 0.29, 0.76 and 0.88 ms per
:func:`matrix_fingerprint` on the three matrices of perfbench's
workloads (orders 1,600 to 3,025), far below one factorization but
several per cent of a cached solve.  A :class:`CSRMatrix` is read-only,
so each matrix is hashed once: both digests and the BLAKE2b state after
its pattern are kept on the object, and the matrix digest extends a copy
of that state, so a matrix's two fingerprints hash its pattern once.  A
matrix built anew from the same content is hashed anew.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["structure_fingerprint", "matrix_fingerprint"]


def _update(h, arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr)
    # Dtype is part of the identity: float32 and float64 values with
    # identical bytes must not collide.
    h.update(str(a.dtype).encode("ascii"))
    h.update(a.tobytes())


def _pattern_hash(a):
    """The BLAKE2b state after *a*'s shape, ``indptr`` and ``indices``,
    kept on *a*.  Never updated once kept: the matrix digest extends a
    copy.  Threads racing here at worst hash the pattern twice."""
    h = a._pattern_hash
    if h is None:
        h = hashlib.blake2b(digest_size=16)
        h.update(f"csr:{a.shape[0]}x{a.shape[1]}:".encode("ascii"))
        _update(h, a.indptr)
        _update(h, a.indices)
        a._pattern_hash = h
    return h


def structure_fingerprint(a) -> str:
    """Hash of the sparsity pattern (shape, ``indptr``, ``indices``)."""
    fp = a._structure_fp
    if fp is None:
        fp = a._structure_fp = _pattern_hash(a).hexdigest()
    return fp


def matrix_fingerprint(a) -> str:
    """Hash of the full content (pattern plus values)."""
    fp = a._matrix_fp
    if fp is None:
        h = _pattern_hash(a).copy()
        _update(h, a.data)
        fp = a._matrix_fp = h.hexdigest()
    return fp
