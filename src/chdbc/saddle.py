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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

LEAF_SIZE = 8
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


def nested_dissection_order(nodes: np.ndarray, M: sp.spmatrix) -> np.ndarray:
    """Node elimination order: halves first, each separator after its halves.

    A cut is an index i that no edge spans (no edge i' <= i < j'). The cuts
    split the nodes into index ranges with no edge between them, and each
    range is ordered on its own, the ranges in index order: so a disjoint
    union of meshes gets each part's own order, offset by its first index.
    A connected mesh has no cut. Each range is bisected recursively until a
    part holds at most LEAF_SIZE nodes, numbered in index order; the
    neighbours come from the off-diagonal pattern of M.

    A part of m nodes splits at the median of one coordinate: its m // 2
    nodes lowest by (coordinate, index) form the lower half. The separator
    is either the lower-side or the upper-side ends of the edges joining
    the halves, so no edge joins what is left of the two halves. Of the four
    choices the smallest separator is taken, the first of equal ones in the
    order x lower, x upper, y lower, y upper. Its nodes are numbered in
    index order after both halves.

    All parts of one level split at once. Each node gains one base-3 digit
    per level, 0 or 1 for the half it falls in and 2 in a separator, and 0
    once it is numbered, so sorting by (range, digits, index) gives the
    order. A level halves every part, so an int64 key, 39 digits, covers
    any mesh that fits in memory.
    """
    n = M.shape[0]
    ei, ej = _edges(M)
    # spans[i] counts the edges with ei <= i < ej
    spans = np.cumsum(np.bincount(ei, minlength=n) - np.bincount(ej, minlength=n))
    ranges = np.r_[0, np.cumsum(spans[:-1] == 0)]
    del spans
    key = np.zeros(n, dtype=np.int64)
    # by_axis lists the nodes part by part, each part sorted by (coordinate,
    # index); p[i] is the part of node idx[i] = by_axis[0][i], -1 in a separator
    by_axis = [np.lexsort((nodes[:, a], ranges)) for a in (0, 1)]
    idx, part = by_axis[0], np.empty(n, dtype=np.int64)
    p = ranges[idx]
    while True:
        # the parts larger than LEAF_SIZE split now, numbered from 0 in part[v];
        # the other nodes are numbered and get -1 (a p of -1 picks the last -1)
        sizes = np.bincount(p[p >= 0])
        big = sizes > LEAF_SIZE
        part[idx] = np.r_[np.where(big, np.cumsum(big) - 1, -1), -1][p]
        sizes = sizes[big]
        if not sizes.size:
            break
        # stable: each part keeps its (coordinate, index) order
        by_axis = [listed[np.argsort(part[listed], kind="stable")]
                   for listed in (listed[part[listed] >= 0] for listed in by_axis)]
        # ei-ej are the edges inside the parts
        pi = part[ei]
        inside = (pi >= 0) & (pi == part[ej])
        ei, ej = ei[inside], ej[inside]
        # bit a of upper[v]: v lies in its part's upper half along axis a.
        # Both lists hold part 0's nodes, then part 1's, ...
        p = np.repeat(np.arange(len(sizes)), sizes)
        in_upper = np.arange(len(p)) >= (np.cumsum(sizes) - sizes + sizes // 2)[p]
        upper = np.zeros(n, dtype=np.uint8)
        for a, listed in enumerate(by_axis):
            upper[listed] += in_upper * np.uint8(1 << a)
        # bit 2a (2a + 1) of ends[v]: v is the lower (upper) end of an edge
        # whose ends lie in different halves along axis a
        ends = np.zeros(n, dtype=np.uint8)
        ui = upper[ei]
        cut = ui ^ upper[ej]
        for a in (0, 1):
            c = (cut >> a) & 1 == 1
            i_up = (ui[c] >> a) & 1 == 1
            ends[np.where(i_up, ej[c], ei[c])] |= np.uint8(1 << 2 * a)
            ends[np.where(i_up, ei[c], ej[c])] |= np.uint8(2 << 2 * a)
        idx = by_axis[0]
        e = ends[idx]
        # the first of the smallest: x before y, then lower side before upper
        choice = np.argmin([np.bincount(p[(e >> c) & 1 == 1], minlength=len(sizes))
                            for c in range(4)], axis=0)[p]
        side, sep = (upper[idx] >> (choice >> 1)) & 1, (e >> choice) & 1 == 1
        key *= 3
        key[idx] += np.where(sep, 2, side)
        # the halves less the separator are the next level's parts
        p = np.where(sep, -1, 2 * p + side)
    return np.lexsort((key, ranges))


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
        # P C P^T is complex symmetric, so its transpose has the same solution;
        # SuperLU's transposed substitution runs faster
        z[self._order] = self._lu.solve(b[self._order], trans="T")
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
