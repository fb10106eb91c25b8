"""P1 finite element assembly on a disk mesh with boundary coupling.

The inner product and the energy bilinear form both have a bulk part
(integrals over the triangles) and a surface part (integrals along the
boundary polygon, where the tangential gradient of a P1 function reduces to
the along-edge difference quotient). All integrands are polynomial, so the
element matrices are exact closed forms and no quadrature error enters.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh2D, segment_lengths, signed_areas

# Reference P1 mass matrix on a triangle, to be scaled by area/12.
_TRI_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
# Reference P1 mass matrix on a segment, to be scaled by length/6.
_SEG_MASS = np.array([[2.0, 1.0], [1.0, 2.0]])
_SEG_STIFF = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _gradient_coefficients(mesh: Mesh2D):
    p = mesh.nodes[mesh.triangles]  # (t, 3, 2)
    # b_i = y_j - y_k and c_i = x_k - x_j for cyclic (i, j, k)
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
    return b, c


def _scatter(n, conn, blocks) -> sp.csr_matrix:
    # COO duplicates are summed in a deterministic order by the CSR
    # conversion, so repeated assembly is bit-identical.
    w = conn.shape[1]
    rows = np.repeat(conn, w, axis=1).ravel()
    cols = np.tile(conn, (1, w)).ravel()
    return sp.csr_matrix((blocks.reshape(-1), (rows, cols)), shape=(n, n))


def assemble_bulk_mass(mesh: Mesh2D) -> sp.csr_matrix:
    """Triangle part of the mass matrix (no boundary contribution)."""
    blocks = signed_areas(mesh)[:, None, None] / 12.0 * _TRI_MASS
    return _scatter(mesh.node_count, mesh.triangles, blocks)


def assemble_surface_mass(mesh: Mesh2D) -> sp.csr_matrix:
    """Boundary-segment part of the mass matrix."""
    blocks = segment_lengths(mesh)[:, None, None] / 6.0 * _SEG_MASS
    return _scatter(mesh.node_count, mesh.boundary_edges, blocks)


def assemble_mass(mesh: Mesh2D) -> sp.csr_matrix:
    """The solver's M: bulk triangle mass plus boundary segment mass."""
    return assemble_bulk_mass(mesh) + assemble_surface_mass(mesh)


def assemble_bulk_stiffness(mesh: Mesh2D) -> sp.csr_matrix:
    """Triangle part of the stiffness matrix (gradient inner products)."""
    b, c = _gradient_coefficients(mesh)
    blocks = (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    ) / (4.0 * signed_areas(mesh))[:, None, None]
    return _scatter(mesh.node_count, mesh.triangles, blocks)


def assemble_surface_stiffness(mesh: Mesh2D) -> sp.csr_matrix:
    """Boundary part: tangential-gradient products, (1/L)[[1,-1],[-1,1]]."""
    blocks = 1.0 / segment_lengths(mesh)[:, None, None] * _SEG_STIFF
    return _scatter(mesh.node_count, mesh.boundary_edges, blocks)


def assemble_stiffness(mesh: Mesh2D) -> sp.csr_matrix:
    """Full stiffness matrix: bulk gradients plus boundary tangential part."""
    return assemble_bulk_stiffness(mesh) + assemble_surface_stiffness(mesh)


def _at_nodes(values, shape, what: str, times=None) -> np.ndarray:
    """One evaluation's result as a fresh, finite float array of `shape`.

    `shape` is (N,), or (N, S) for the S `times`. A constant is broadcast; a
    result that cannot broadcast raises NumPy's ValueError, a non-finite
    entry one naming `what`, the earliest such time and its first node.
    """
    vals = np.empty(shape)
    vals[...] = values
    finite = np.isfinite(vals)
    if not finite.all():
        first = int(np.argmin(finite.T))  # time-major: earliest time first
        j, i = divmod(first, shape[0])
        at = "" if times is None else f", t = {times[j]}"
        raise ValueError(f"{what} returned {vals.T.flat[first]} at node {i}{at}")
    return vals


def nodal_interpolate(f: Callable, mesh: Mesh2D, t) -> np.ndarray:
    """Nodal interpolation: f at every node and time, from one call of f.

    Every field is called on the node x time grid, f(x[:, None], y[:, None],
    t[None, :]). A 1-D array of S times gives shape (N, S), and a scalar t
    gives (N,), the grid's one column. Raises ValueError naming where f is
    first non-finite: the earliest such time and its first node.
    """
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    times = np.array(t, dtype=float, ndmin=1)
    vals = _at_nodes(f(x[:, None], y[:, None], times[None, :]),
                     (len(x), len(times)), "field", times)
    return vals if np.ndim(t) else vals[:, 0]


def _node_vector(M: sp.spmatrix, v, ndims=(1,)) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim not in ndims or v.shape[0] != M.shape[0]:
        raise ValueError(
            f"vector length {v.shape} does not match matrix "
            f"dimension {M.shape[0]}"
        )
    return v


def load_vector(M: sp.spmatrix, f_nodes: np.ndarray) -> np.ndarray:
    """Load vector of an interpolated source: exactly M @ f_nodes.

    f_nodes is one node vector (N,) or an (N, S) array, one column per time.
    """
    return M @ _node_vector(M, f_nodes, (1, 2))


def nonlinearity_vector(M: sp.spmatrix, F: Callable, u_nodes: np.ndarray) -> np.ndarray:
    """Nonlinear load M @ F(u_nodes), F applied entrywise.

    The nonlinearity is interpolated at the nodes before integration, the
    same treatment the plain load vector gets.
    """
    u_nodes = _node_vector(M, u_nodes)
    # overflow to inf is fine here: non-finite outputs get reported with
    # the offending node index
    with np.errstate(over="ignore", invalid="ignore"):
        vals = F(u_nodes)
    return M @ _at_nodes(vals, u_nodes.shape, "nonlinearity")

