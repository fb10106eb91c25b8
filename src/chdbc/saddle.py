"""The constant-in-time saddle-point step matrix and its reusable factorization.

Every time step of the coupled system solves the same 2N x 2N block matrix

    [[ (delta0/tau) M,  A ],
     [ -A,               M ]]

so the sparse LU factorization is computed once at build time and reused for
the whole trajectory. Nonsingularity for any tau > 0 follows from M being
positive definite and A positive semidefinite: a kernel vector (x, y) would
satisfy y^T M y + (delta0/tau) x^T M x = 0.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class StepMatrix:
    """Assembled block matrix plus its sparse LU handle. Immutable after build."""

    def __init__(self, matrix: sp.csc_matrix, lu, block_dim: int,
                 delta0_over_tau: float):
        self.matrix = matrix
        self._lu = lu
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
        return self._lu.solve(rhs)


def build_step_matrix(M: sp.spmatrix, A: sp.spmatrix,
                      delta0_over_tau: float) -> StepMatrix:
    """Assemble and eagerly factorize the step matrix.

    Unknown ordering is blocked: the u coefficients come first, the w
    coefficients second.
    """
    if M.shape != A.shape or M.shape[0] != M.shape[1]:
        raise ValueError(f"M and A must be square and equal-sized, "
                         f"got {M.shape} and {A.shape}")
    if not (delta0_over_tau > 0):
        raise ValueError(f"delta0/tau must be positive, got {delta0_over_tau}")
    n = M.shape[0]
    K = sp.bmat([[delta0_over_tau * M, A], [-A, M]], format="csc")
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise RuntimeError(
            f"step matrix factorization failed ({exc}); the mass or "
            f"stiffness matrix is likely invalid"
        ) from exc
    return StepMatrix(K, lu, n, float(delta0_over_tau))
