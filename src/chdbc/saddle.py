"""The constant-in-time saddle-point step matrix and its reusable factorization.

Every time step of the coupled system solves the same 2N x 2N block matrix

    K = [[ (delta0/tau) M,  A ],
         [ -A,               M ]]

so a sparse LU factorization is computed once at build time and reused for
the whole trajectory. Nonsingularity for any tau > 0 follows from M being
positive definite and A positive semidefinite: a kernel vector (x, y) would
satisfy y^T M y + (delta0/tau) x^T M x = 0.

With s = (delta0/tau)^(-1/2), K (u, w) = (b1, b2) is the complex N x N
system (M - i s A) z = s b1 + i b2 with u = s Re z and w = Im z, and only
the LU of M - i s A is stored. It eliminates the nodes in a geometric
nested-dissection order (George 1973; Lipton, Rose and Tarjan 1979).
SuperLU keeps that order and pivots on the diagonal unless a diagonal entry
falls below PIVOT_THRESHOLD times the largest entry of its column; the
Hermitian part of M - i s A is the positive definite M at every step size.
While SuperLU factorizes, the permuted M - i s A it reads is the only
complex copy alive, and it works on panels of PANEL_SIZE columns, whose
dense work array holds N x PANEL_SIZE complex entries. Why this is safe and
accurate, and what it saves, is set out in the README's "Solver" section.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

LEAF_SIZE = 32
PIVOT_THRESHOLD = 0.1
# SuperLU's default is 20; 4 cuts the panel work with the same fill and time
# (README "Solver"). Above 20, SciPy 1.17.1's splu corrupted its heap.
PANEL_SIZE = 4


def _edges(M: sp.spmatrix):
    """Node pairs (i < j) of the off-diagonal pattern of M: the mesh edges.

    They come in row order, so i never decreases.
    """
    upper = sp.triu(sp.csr_matrix(M), k=1).tocoo()
    return upper.row.astype(np.int64), upper.col.astype(np.int64)


def _bisect(nodes: np.ndarray, idx: np.ndarray, ei: np.ndarray,
            ej: np.ndarray, side: np.ndarray):
    """Split node set idx (edges ei-ej inside it) at the coordinate median.

    Returns (lower, upper, separator, lower edges, upper edges): the
    separator is the lower-side nodes with an upper-side neighbour, so no
    edge joins what is left of the lower side to the upper side. `side` is
    a work array over all nodes.
    """
    xy = nodes[idx]
    axis = int(np.argmax(xy.max(axis=0) - xy.min(axis=0)))
    half = len(idx) // 2
    part = np.argpartition(xy[:, axis], half)
    side[idx[part[:half]]] = 0
    side[idx[part[half:]]] = 1
    cross = side[ei] != side[ej]
    side[np.where(side[ei[cross]] == 0, ei[cross], ej[cross])] = 2
    si, sj = side[ei], side[ej]
    low, up = (si == 0) & (sj == 0), (si == 1) & (sj == 1)
    s = side[idx]
    return (idx[s == 0], idx[s == 1], idx[s == 2],
            (ei[low], ej[low]), (ei[up], ej[up]))


def nested_dissection_order(nodes: np.ndarray, M: sp.spmatrix) -> np.ndarray:
    """Node elimination order: halves first, each separator after its halves.

    A cut is an index i that no edge spans (no edge i' <= i < j'). The cuts
    split the nodes into index ranges with no edge between them, and each
    range is ordered on its own, in index order: so a disjoint union of
    meshes gets each part's own order, offset by its first index. A
    connected mesh has no cut. Each range is bisected recursively until a
    part holds at most LEAF_SIZE nodes; the neighbours come from the
    off-diagonal pattern of M.
    """
    n = M.shape[0]
    side = np.empty(n, dtype=np.int8)
    blocks: List[np.ndarray] = []

    def dissect(idx, edges):
        if len(idx) <= LEAF_SIZE:
            blocks.append(idx)
            return
        lower, upper, sep, low_edges, up_edges = _bisect(nodes, idx, *edges, side)
        dissect(lower, low_edges)
        dissect(upper, up_edges)
        blocks.append(sep)

    ei, ej = _edges(M)
    # spans[i] counts the edges with ei <= i < ej
    spans = np.cumsum(np.bincount(ei, minlength=n) - np.bincount(ej, minlength=n))
    bounds = np.r_[0, np.flatnonzero(spans[:-1] == 0) + 1, n]
    del spans
    # ei is sorted, so each range's edges are one slice of the edge arrays
    firsts = np.searchsorted(ei, bounds)
    for a, b, e0, e1 in zip(bounds, bounds[1:], firsts, firsts[1:]):
        dissect(np.arange(a, b), (ei[e0:e1], ej[e0:e1]))
    return np.concatenate(blocks)


class StepMatrix:
    """The step matrix K and the LU of its complex form. Immutable after build.

    `matrix` assembles K in the blocked (u, w) numbering from M and A on
    each read; `_lu` is the SuperLU handle of C = M - i s A with its rows
    and columns taken in `_order`.
    """

    def __init__(self, M: sp.spmatrix, A: sp.spmatrix, lu, order: np.ndarray,
                 delta0_over_tau: float):
        self._M, self._A = M, A
        self._lu, self._order = lu, order
        self.delta0_over_tau = delta0_over_tau

    @property
    def matrix(self) -> sp.csc_matrix:
        """K = [[(delta0/tau) M, A], [-A, M]], built anew on each read."""
        M, A = self._M, self._A
        return sp.bmat([[self.delta0_over_tau * M, A], [-A, M]], format="csc")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K x = rhs reusing the stored factorization."""
        rhs = np.asarray(rhs, dtype=float)
        n = self._M.shape[0]
        if rhs.shape != (2 * n,):
            raise ValueError(
                f"rhs length {rhs.shape} does not match system size {2 * n}"
            )
        if not np.isfinite(rhs).all():
            raise ValueError("rhs contains non-finite entries")
        s = self.delta0_over_tau ** -0.5
        b = s * rhs[:n] + 1j * rhs[n:]
        z = np.empty_like(b)
        z[self._order] = self._lu.solve(b[self._order])
        return np.concatenate([s * z.real, z.imag])


def build_step_matrix(M: sp.spmatrix, A: sp.spmatrix, delta0_over_tau: float,
                      order: np.ndarray) -> StepMatrix:
    """Factorize the step matrix as the complex N x N matrix M - i s A.

    s = (delta0/tau)^(-1/2), and the nodes are eliminated in `order` (from
    `nested_dissection_order`). The StepMatrix solves K x = b, u first.
    """
    if M.shape != A.shape or M.shape[0] != M.shape[1]:
        raise ValueError(f"M and A must be square and equal-sized, "
                         f"got {M.shape} and {A.shape}")
    if not (delta0_over_tau > 0):
        raise ValueError(f"delta0/tau must be positive, got {delta0_over_tau}")
    # SuperLU keeps the order of P C P^T and pivots as the module docstring
    # says. C and its row-permuted copy are temporaries of this one
    # expression, so P C P^T is the only complex matrix left when it runs.
    permuted = sp.csc_matrix(
        sp.csr_matrix(M - 1j * delta0_over_tau ** -0.5 * A)[order][:, order])
    try:
        lu = spla.splu(permuted, permc_spec="NATURAL",
                       diag_pivot_thresh=PIVOT_THRESHOLD, panel_size=PANEL_SIZE,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise RuntimeError(
            f"step matrix factorization failed ({exc}); the mass or "
            f"stiffness matrix is likely invalid"
        ) from exc
    return StepMatrix(M, A, lu, order, float(delta0_over_tau))
