"""The constant-in-time saddle-point step matrix and its reusable factorization.

Every time step of the coupled system solves the same 2N x 2N block matrix

    [[ (delta0/tau) M,  A ],
     [ -A,               M ]]

so the sparse LU factorization is computed once at build time and reused for
the whole trajectory. Nonsingularity for any tau > 0 follows from M being
positive definite and A positive semidefinite: a kernel vector (x, y) would
satisfy y^T M y + (delta0/tau) x^T M x = 0.

The factorization eliminates the unknowns in a geometric nested-dissection
order of the mesh nodes (George 1973; Lipton, Rose and Tarjan 1979), with
the u and w unknowns of each node next to each other, and the u unknowns
scaled by (delta0/tau)^(-1/2) so that the scaled matrix has the symmetric
part blockdiag(M, M) at every step size. SuperLU keeps that order and
pivots on the diagonal unless a diagonal entry falls below PIVOT_THRESHOLD
times the largest entry of its column. Why this is safe and accurate, and
what it saves, is set out in the README's "Solver" section.
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


def _ordered_lu(matrix: sp.spmatrix, perm: np.ndarray, scale: np.ndarray):
    """LU of `matrix` in the elimination order perm, scaled by `scale`.

    SuperLU factorizes S P matrix P^T S, where P takes rows and columns in
    the order perm and S = diag(scale[perm]), keeping that order and
    pivoting as the module docstring says. Returns the SuperLU handle and a
    solve of matrix x = b through it.
    """
    s = scale[perm]
    S = sp.diags(s)
    lu = spla.splu(sp.csc_matrix(S @ sp.csr_matrix(matrix)[perm][:, perm] @ S),
                   permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESHOLD,
                   options={"SymmetricMode": True})

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        x[perm] = s * lu.solve(s * rhs[perm])
        return x

    return lu, solve


def solve_ordered(matrix: sp.spmatrix, order: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """One solve with a square matrix, factorized in the given node order."""
    _, solve = _ordered_lu(matrix, order, np.ones(matrix.shape[0]))
    return solve(np.asarray(rhs, dtype=float))


class StepMatrix:
    """Assembled block matrix plus its sparse LU handle. Immutable after build.

    `matrix` is K in the blocked (u, w) numbering; `_lu` is the SuperLU
    handle of its scaled, reordered copy and `_solve` solves K x = b
    through it.
    """

    def __init__(self, matrix: sp.csc_matrix, lu, solve,
                 block_dim: int, delta0_over_tau: float):
        self.matrix = matrix
        self._lu = lu
        self._solve = solve
        self.block_dim = block_dim
        self.delta0_over_tau = delta0_over_tau

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K x = rhs reusing the stored factorization."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (2 * self.block_dim,):
            raise ValueError(
                f"rhs length {rhs.shape} does not match system size "
                f"{2 * self.block_dim}"
            )
        if not np.isfinite(rhs).all():
            raise ValueError("rhs contains non-finite entries")
        return self._solve(rhs)


def build_step_matrix(M: sp.spmatrix, A: sp.spmatrix, delta0_over_tau: float,
                      order: np.ndarray) -> StepMatrix:
    """Assemble and eagerly factorize the step matrix.

    Unknown ordering is blocked: the u coefficients come first, the w
    coefficients second. The factorization eliminates the nodes in `order`
    (from `nested_dissection_order`), the u and w unknowns of each node
    next to each other, and scales the u unknowns by (delta0/tau)^(-1/2).
    """
    if M.shape != A.shape or M.shape[0] != M.shape[1]:
        raise ValueError(f"M and A must be square and equal-sized, "
                         f"got {M.shape} and {A.shape}")
    if not (delta0_over_tau > 0):
        raise ValueError(f"delta0/tau must be positive, got {delta0_over_tau}")
    n = M.shape[0]
    K = sp.bmat([[delta0_over_tau * M, A], [-A, M]], format="csc")
    perm = np.column_stack([order, order + n]).ravel()
    scale = np.concatenate([np.full(n, delta0_over_tau ** -0.5), np.ones(n)])
    try:
        lu, solve = _ordered_lu(K, perm, scale)
    except RuntimeError as exc:
        raise RuntimeError(
            f"step matrix factorization failed ({exc}); the mass or "
            f"stiffness matrix is likely invalid"
        ) from exc
    return StepMatrix(K, lu, solve, n, float(delta0_over_tau))
