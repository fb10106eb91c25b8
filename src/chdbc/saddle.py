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
Why this is safe and accurate, and what it saves, is set out in the
README's "Solver" section.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

LEAF_SIZE = 32
PIVOT_THRESHOLD = 0.1


def _edges(M: sp.spmatrix):
    """Node pairs (i < j) of the off-diagonal pattern of M: the mesh edges."""
    upper = sp.triu(M, k=1).tocoo()
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

    Bisects recursively until a part holds at most LEAF_SIZE nodes; the
    neighbours come from the off-diagonal pattern of M.
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

    dissect(np.arange(n), _edges(M))
    return np.concatenate(blocks)


def _ordered_lu(matrix: sp.spmatrix, perm: np.ndarray):
    """LU of `matrix` with its rows and columns taken in the order perm.

    SuperLU factorizes P matrix P^T, keeping that order and pivoting as the
    module docstring says; the matrix may be real or complex. Returns the
    SuperLU handle and a solve of matrix x = b through it.
    """
    lu = spla.splu(sp.csc_matrix(sp.csr_matrix(matrix)[perm][:, perm]),
                   permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESHOLD,
                   options={"SymmetricMode": True})

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        x[perm] = lu.solve(rhs[perm])
        return x

    return lu, solve


def solve_ordered(matrix: sp.spmatrix, order: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """One solve with a square matrix, factorized in the given node order."""
    _, solve = _ordered_lu(matrix, order)
    return solve(np.asarray(rhs, dtype=float))


class StepMatrix:
    """The step matrix K and the LU of its complex form. Immutable after build.

    `matrix` assembles K in the blocked (u, w) numbering from M and A on
    each read; `_lu` is the SuperLU handle of C = M - i s A, through which
    `_solve` solves C z = b.
    """

    def __init__(self, M: sp.spmatrix, A: sp.spmatrix, lu, solve,
                 delta0_over_tau: float):
        self._M, self._A = M, A
        self._lu = lu
        self._solve = solve
        self.block_dim = M.shape[0]
        self.delta0_over_tau = delta0_over_tau

    @property
    def matrix(self) -> sp.csc_matrix:
        """K = [[(delta0/tau) M, A], [-A, M]], built anew on each read."""
        M, A = self._M, self._A
        return sp.bmat([[self.delta0_over_tau * M, A], [-A, M]], format="csc")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K x = rhs reusing the stored factorization."""
        rhs = np.asarray(rhs, dtype=float)
        n = self.block_dim
        if rhs.shape != (2 * n,):
            raise ValueError(
                f"rhs length {rhs.shape} does not match system size {2 * n}"
            )
        if not np.isfinite(rhs).all():
            raise ValueError("rhs contains non-finite entries")
        s = self.delta0_over_tau ** -0.5
        z = self._solve(s * rhs[:n] + 1j * rhs[n:])
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
    try:
        lu, solve = _ordered_lu(M - 1j * delta0_over_tau ** -0.5 * A, order)
    except RuntimeError as exc:
        raise RuntimeError(
            f"step matrix factorization failed ({exc}); the mass or "
            f"stiffness matrix is likely invalid"
        ) from exc
    return StepMatrix(M, A, lu, solve, float(delta0_over_tau))
