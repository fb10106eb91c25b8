"""Discrete norms, a state's errors (`final_error`) and convergence orders (`eoc`)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import assembly
from .mesh import Mesh2D
from .problems import ProblemSpec


@dataclass(frozen=True)
class ErrorReport:
    """Errors of one state in the combined bulk+surface norms."""

    err_L2: float
    err_H1: float
    err_w_L2: float
    err_w_H1: float


def _norm(e: np.ndarray, *forms) -> float:
    """sqrt(sum of e^T F e over the forms F), summed in the given order."""
    e = np.asarray(e, dtype=float)
    n = forms[0].shape[0]
    if e.shape != (n,):
        raise ValueError(f"vector length {e.shape} does not match {n}")
    q = sum(float(e @ (F @ e)) for F in forms)
    if q < -1e-12 * max(1.0, float(e @ e)):
        raise ValueError(f"quadratic form is negative ({q})")
    return math.sqrt(max(q, 0.0))


def l2_norm(M, e: np.ndarray) -> float:
    """Discrete L2 norm sqrt(e^T M e) over bulk and surface together."""
    return _norm(e, M)


def h1_norm(M, A, e: np.ndarray) -> float:
    """Discrete H1 norm sqrt(e^T (A + M) e)."""
    return _norm(e, A, M)


def final_error(problem: ProblemSpec, mesh: Mesh2D, t: float, u: np.ndarray,
                w: np.ndarray) -> ErrorReport:
    """Errors of the state (u, w) at time t against the interpolated exact solution.

    The comparison target is the nodal interpolant, whose own L2 error is
    O(h^2) and therefore does not pollute the measured second order. The
    norms use the M and A of `mesh`, and u and w must have shape (N,).
    """
    if not problem.has_exact_solution:
        raise ValueError("final_error needs a problem with exact solutions")
    # checked before the subtraction, which would broadcast an (N, 1) to N x N
    if not np.shape(u) == np.shape(w) == (mesh.node_count,):
        raise ValueError(f"u and w have shapes {np.shape(u)} and {np.shape(w)}, "
                         f"but the mesh has N = {mesh.node_count} nodes")
    M, A = assembly.assemble_mass(mesh), assembly.assemble_stiffness(mesh)
    t = float(t)
    eu = u - assembly.nodal_interpolate(problem.exact_u, mesh, t)
    ew = w - assembly.nodal_interpolate(problem.exact_w, mesh, t)
    return ErrorReport(
        err_L2=l2_norm(M, eu),
        err_H1=h1_norm(M, A, eu),
        err_w_L2=l2_norm(M, ew),
        err_w_H1=h1_norm(M, A, ew),
    )


def eoc(errors: Sequence[float], hs: Sequence[float]) -> List[Optional[float]]:
    """Experimental orders log(e_i/e_{i+1}) / log(h_i/h_{i+1}).

    One error gives no order, []. A zero error makes the order undefined;
    those entries are None rather than +/-inf so downstream tables can print
    a sentinel.
    """
    if len(errors) != len(hs) or not errors:
        raise ValueError("need equally long, non-empty error/h lists")
    if any(e < 0 for e in errors) or any(h <= 0 for h in hs):
        raise ValueError("errors must be nonnegative and hs positive")
    if any(h1 <= h2 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("hs must be strictly decreasing")
    orders: List[Optional[float]] = []
    for e1, e2, h1, h2 in zip(errors, errors[1:], hs, hs[1:]):
        if e1 == 0.0 or e2 == 0.0:
            orders.append(None)
        else:
            orders.append(math.log(e1 / e2) / math.log(h1 / h2))
    return orders
