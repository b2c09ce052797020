"""Dependence DAG of a sparse triangular solve.

The DAG is the inspector-side object of wavefront parallelism: vertex *i*
is the computation of unknown ``x_i``; an edge ``j → i`` exists for every
stored off-diagonal entry ``L[i, j]``.  For a lower-triangular matrix all
edges point from lower to higher row index, so the graph is acyclic by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NotTriangularError
from ..sparse.csr import CSRMatrix

__all__ = ["DependenceDAG", "dependence_dag"]


@dataclass(frozen=True)
class DependenceDAG:
    """Adjacency of the triangular-solve dependence graph, CSR-like.

    Attributes
    ----------
    n:
        Number of vertices (matrix rows).
    out_ptr, out_adj:
        Children lists: ``out_adj[out_ptr[j]:out_ptr[j+1]]`` are the rows
        that consume ``x_j`` (edges ``j → i``).
    in_degree:
        Number of incoming edges per vertex — off-diagonal entries in the
        corresponding matrix row.
    """

    n: int
    out_ptr: np.ndarray
    out_adj: np.ndarray
    in_degree: np.ndarray

    @property
    def n_edges(self) -> int:
        """Total number of dependence edges (off-diagonal nonzeros)."""
        return int(self.out_ptr[-1])

    def children(self, j: int) -> np.ndarray:
        """Rows that directly depend on row *j*."""
        return self.out_adj[self.out_ptr[j]:self.out_ptr[j + 1]]

    def roots(self) -> np.ndarray:
        """Vertices with no dependences (the first wavefront)."""
        return np.flatnonzero(self.in_degree == 0)

    def critical_path_length(self) -> int:
        """Length (in vertices) of the longest dependence chain.

        Equals the number of wavefronts: no schedule can use fewer
        barriers than the longest chain.
        """
        # Longest path via Kahn's algorithm; works for either traversal
        # direction (lower or upper triangular inputs).
        if self.n == 0:
            return 0
        dist = np.zeros(self.n, dtype=np.int64)
        indeg = self.in_degree.copy()
        queue = list(np.flatnonzero(indeg == 0))
        visited = 0
        while queue:
            j = queue.pop()
            visited += 1
            for i in self.children(j):
                if dist[j] + 1 > dist[i]:
                    dist[i] = dist[j] + 1
                indeg[i] -= 1
                if indeg[i] == 0:
                    queue.append(int(i))
        if visited != self.n:
            raise ValueError("dependence graph contains a cycle")
        return int(dist.max(initial=0)) + 1


def dependence_dag(tri: CSRMatrix, *, kind: str = "lower",
                   strict: bool = True) -> DependenceDAG:
    """Build the dependence DAG of a triangular CSR matrix.

    Parameters
    ----------
    tri:
        Square triangular matrix (diagonal entries are ignored for edge
        purposes; their absence is permitted here and diagnosed by the
        solver instead).
    kind:
        ``"lower"`` for forward substitution (row *i* depends on columns
        ``j < i``) or ``"upper"`` for backward substitution (columns
        ``j > i``).
    strict:
        When ``True`` (default) verify that no entry lies on the wrong
        side of the diagonal and raise :class:`NotTriangularError`
        otherwise.
    """
    n = tri.n_rows
    rows = _entry_rows(tri, kind, strict=strict)
    cols = tri.indices
    off = (cols < rows) if kind == "lower" else (cols > rows)
    src = cols[off]
    dst = rows[off]
    in_degree = np.zeros(n, dtype=np.int64)
    np.add.at(in_degree, dst, 1)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(out_ptr, src + 1, 1)
    np.cumsum(out_ptr, out=out_ptr)
    order = np.argsort(src, kind="stable")
    out_adj = dst[order]
    return DependenceDAG(n=n, out_ptr=out_ptr, out_adj=out_adj,
                         in_degree=in_degree)


def _entry_rows(tri: CSRMatrix, kind: str, *, strict: bool = True
                ) -> np.ndarray:
    """Row of every stored entry of the triangular matrix *tri*.

    Raises :class:`ValueError` for a *kind* other than ``"lower"`` or
    ``"upper"``, and :class:`NotTriangularError` for a non-square *tri*
    or, when *strict*, for an entry on the wrong side of the diagonal.
    """
    if kind not in ("lower", "upper"):
        raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    if tri.shape[0] != tri.shape[1]:
        raise NotTriangularError(
            f"a triangular matrix must be square, got {tri.shape}")
    rows = np.repeat(np.arange(tri.n_rows, dtype=np.int64),
                     tri.row_lengths())
    if strict and np.any(tri.indices > rows if kind == "lower"
                         else tri.indices < rows):
        raise NotTriangularError(
            f"matrix has entries outside the {kind} triangle")
    return rows
