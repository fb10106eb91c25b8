"""Test references, one copy each: fixture meshes, step matrices, independent
oracles, the seeded temporal-order measurement, the exact semi-discrete
solution of the linear problem and the manufactured-residual check.

The brute-force P1 assembly, the BDF coefficient expansions and the
finite-difference residual of a manufactured solution are derived
differently from `chdbc` on purpose, so a test that compares against them
checks the package, not a copy of it. The suite's tests import from here;
this module defines no tests.
"""

from dataclasses import replace
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from chdbc import analysis, assembly
from chdbc.integrator import Stepper, bdf_scheme, step_count
from chdbc.problems import ProblemSpec, manufactured_linear
from chdbc.saddle import build_step_matrix, nested_dissection_order

UNIT_TRIANGLE = """\
MESH v1
NODES 3
0.0 0.0
1.0 0.0
0.0 1.0
TRIANGLES 1
0 1 2
BOUNDARY_EDGES 3
0 1
1 2
2 0
"""

UNIT_SQUARE = """\
MESH v1
NODES 4
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
TRIANGLES 2
0 1 2
0 2 3
BOUNDARY_EDGES 4
0 1
1 2
2 3
3 0
"""


def scalar_step_matrix(m, a, ratio):
    """The step matrix of the 1x1 system M = [m], A = [a]."""
    return build_step_matrix(sp.csr_matrix(np.array([[m]])),
                             sp.csr_matrix(np.array([[a]])), ratio, np.arange(1))


def disk_step_matrix(mesh, ratio):
    """M, A and the step matrix K at delta0/tau = ratio, in the solver's order."""
    M, A = assembly.assemble_mass(mesh), assembly.assemble_stiffness(mesh)
    return M, A, build_step_matrix(M, A, ratio, nested_dissection_order(mesh.nodes, M))


# --- brute-force P1 assembly: edge-midpoint quadrature, exact for the
# quadratic mass integrands, and per-element linear solves for the gradients

def brute_force_mass(mesh):
    n = mesh.node_count
    M = np.zeros((n, n))
    for t in mesh.triangles:
        p = mesh.nodes[t]
        area = 0.5 * abs(np.linalg.det(np.column_stack([p[1] - p[0], p[2] - p[0]])))
        coeff = np.linalg.solve(np.column_stack([np.ones(3), p]), np.eye(3))
        mids = [(p[0] + p[1]) / 2, (p[1] + p[2]) / 2, (p[2] + p[0]) / 2]
        for a in range(3):
            for b in range(3):
                val = sum(
                    (coeff[0, a] + coeff[1, a] * q[0] + coeff[2, a] * q[1])
                    * (coeff[0, b] + coeff[1, b] * q[0] + coeff[2, b] * q[1])
                    for q in mids
                )
                M[t[a], t[b]] += area / 3.0 * val
    for e in mesh.boundary_edges:
        length = float(np.hypot(*(mesh.nodes[e[1]] - mesh.nodes[e[0]])))
        # Simpson on the segment, exact for the quadratic products
        for a in range(2):
            for b in range(2):
                f = lambda s: (1 - s if a == 0 else s) * (1 - s if b == 0 else s)
                M[e[a], e[b]] += length * (f(0.0) + 4 * f(0.5) + f(1.0)) / 6.0
    return M


def brute_force_stiffness(mesh):
    n = mesh.node_count
    A = np.zeros((n, n))
    for t in mesh.triangles:
        p = mesh.nodes[t]
        area = 0.5 * abs(np.linalg.det(np.column_stack([p[1] - p[0], p[2] - p[0]])))
        coeff = np.linalg.solve(np.column_stack([np.ones(3), p]), np.eye(3))
        grads = coeff[1:, :]  # rows: x and y coefficients
        A[np.ix_(t, t)] += area * grads.T @ grads
    for e in mesh.boundary_edges:
        length = float(np.hypot(*(mesh.nodes[e[1]] - mesh.nodes[e[0]])))
        dphi = np.array([-1.0, 1.0]) / length
        A[np.ix_(e, e)] += length * np.outer(dphi, dphi)
    return A


# --- BDF coefficients as the doubles nearest their exact rational expansions

def oracle_delta(k):
    """Expand sum_{l=1..k} (1/l)(1-xi)^l with exact binomials."""
    co = [Fraction(0)] * (k + 1)
    for l in range(1, k + 1):
        for j in range(l + 1):
            co[j] += Fraction(1, l) * comb(l, j) * Fraction(-1) ** j
    return [float(c) for c in co]


def oracle_gamma(k):
    """Divide 1 - (1-xi)^k by xi with exact arithmetic."""
    numerator = [-comb(k, j) * Fraction(-1) ** j for j in range(k + 1)]
    numerator[0] += 1
    assert numerator[0] == 0
    return [float(c) for c in numerator[1:]]


# --- temporal order by self-convergence, seeded past the start transient

def seeded_temporal_eocs(problem, mesh, k, tau_ref, t_off, taus):
    """BDF-k L2 EOCs at t = 1 between the step sizes `taus`, largest first.

    The reference is a run at `tau_ref` from exact starts. Each coarse run
    takes its k starting values from the reference at t_off, t_off + tau,
    ... (t_off and every tau are multiples of tau_ref) and is measured
    against the reference's u at t = 1. A run starts at t = 0, so the coarse
    runs step the problem shifted in time: its forcings at t are the
    problem's at t_off + t, the very doubles a run from t_off would load.
    """
    M = assembly.assemble_mass(mesh)
    scheme = bdf_scheme(k)
    ref_stepper = Stepper(problem, mesh, tau_ref, scheme)
    ref = [(u, w) for _, _, u, w in ref_stepper.stream(
        step_count(tau_ref, 1.0, k), ref_stepper.starts("exact"))]
    i0 = round(t_off / tau_ref)

    def later(f):
        return lambda x, y, t: f(x, y, t_off + t)

    shifted = replace(problem, **{name: later(getattr(problem, name)) for name in
                                  ("f1_bulk", "f2_bulk", "f1_surf", "f2_surf")})
    errs = []
    for tau in taus:
        stride = round(tau / tau_ref)
        starts = [ref[i0 + j * stride] for j in range(k)]
        stepper = Stepper(shifted, mesh, tau, scheme)
        for _, _, u, _ in stepper.stream(step_count(tau, 1.0 - t_off, k), starts):
            pass  # u ends as the level at t = 1
        errs.append(analysis.l2_norm(M, u - ref[-1][0]))
    return analysis.eoc(errs, taus)


# --- the exact semi-discrete solution of the linear problem, by modes

def semi_discrete_linear(mesh):
    """t -> (u_h(t), w_h(t)), the exact solution in time of the semi-discrete
    `manufactured_linear` on `mesh`, from u_h(0) = I_h u0.

    The system is M u' + A w = b1(t), M w - A u = b2(t). Every forcing is
    exp(-t) times a field of x and y, so b = exp(-t) beta, with beta the
    load at t = 0. The modes A V = M V diag(lam), V^T M V = I, come from a
    dense generalized eigensolve; in them u_h = V a and each a_i solves
    a_i' = -lam_i^2 a_i + exp(-t) c_i, c = V^T beta1 - lam V^T beta2, in
    closed form. Then w_h = V (lam a + exp(-t) V^T beta2). A BDF run's error
    against it is its temporal error alone.
    """
    problem = manufactured_linear()
    M_bulk = assembly.assemble_bulk_mass(mesh)
    M_surf = assembly.assemble_surface_mass(mesh)
    M = (M_bulk + M_surf).toarray()
    lam, V = scipy.linalg.eigh(assembly.assemble_stiffness(mesh).toarray(), M)
    beta1, beta2 = (M_bulk @ assembly.nodal_interpolate(bulk, mesh, 0.0)
                    + M_surf @ assembly.nodal_interpolate(surf, mesh, 0.0)
                    for bulk, surf in ((problem.f1_bulk, problem.f1_surf),
                                       (problem.f2_bulk, problem.f2_surf)))
    a0 = V.T @ (M @ assembly.nodal_interpolate(problem.u0, mesh, 0.0))
    c, mu = V.T @ beta1 - lam * (V.T @ beta2), lam ** 2

    def at(t):
        # the forced part is c t exp(-t) phi((1 - mu) t), phi(x) = expm1(x)/x
        x = (1.0 - mu) * t
        phi = np.expm1(x) / np.where(x == 0.0, 1.0, x) + (x == 0.0)
        a = np.exp(-mu * t) * a0 + c * t * np.exp(-t) * phi
        return V @ a, V @ (lam * a + np.exp(-t) * (V.T @ beta2))

    return at


# --- strong-form residual of a manufactured solution, by finite differences

def disk_points(inside, on_circle, seed):
    """`inside` points in the disk of radius 0.95, then `on_circle` points on
    the unit circle, drawn in that order from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    r = 0.95 * np.sqrt(rng.random(inside))
    th = 2 * np.pi * rng.random(inside)
    th2 = 2 * np.pi * rng.random(on_circle)
    return (list(zip(r * np.cos(th), r * np.sin(th)))
            + list(zip(np.cos(th2), np.sin(th2))))


# 4th-order central difference stencils. Plain second-order differences at
# spacing ~1e-5 bottom out near 1e-6 absolute (roundoff ~ 4 eps |f| / d^2),
# far above the 1e-8 residual budget; the wider stencil at d = 1e-3 reaches
# ~1e-10.
def _d1(g, d):
    return (-g(2 * d) + 8 * g(d) - 8 * g(-d) + g(-2 * d)) / (12 * d)


def _d2(g, d):
    return (-g(2 * d) + 16 * g(d) - 30 * g(0.0) + 16 * g(-d) - g(-2 * d)) / (
        12 * d * d
    )


def verify_manufactured(spec: ProblemSpec, sample_points: Sequence,
                        times: Sequence[float]) -> float:
    """Max absolute strong-form residual of the stated exact solution.

    Evaluates both equations at every sample point and time at once: the
    bulk equations at points strictly inside the unit disk, the surface
    equations (circle-parametrized tangential derivatives, radial normal
    derivatives) at points on the unit circle. All derivatives are central
    finite differences of step 1e-3. Returns the worst residual (0.0 for no
    points); a correct forcing derivation stays below 1e-8, a sign error
    shows up at order one.
    """
    if not spec.has_exact_solution:
        raise ValueError("verify_manufactured needs exact_u and exact_w")
    u, w, F = spec.exact_u, spec.exact_w, spec.nonlinearity
    d = 1e-3  # the stencil spacing; see the note above _d1
    p = np.asarray(sample_points, dtype=float).reshape(-1, 2)
    x, y, t = p[:, :1], p[:, 1:], np.asarray(times, dtype=float)[None, :]
    r = np.hypot(x, y)
    on_circle = np.abs(r - 1.0) <= 1e-9
    outside = ~on_circle & (r >= 1.0)
    if outside.any():
        px, py = p[np.argmax(outside)]
        raise ValueError(
            f"sample point ({px}, {py}) is neither inside the disk "
            f"nor on the circle"
        )
    theta = np.arctan2(y, x)

    def laplacian(g):
        """Delta g inside the disk, Delta_Gamma g - d_nu g on the circle."""
        bulk = (_d2(lambda s: g(x + s, y, t), d)
                + _d2(lambda s: g(x, y + s, t), d))
        surf = (_d2(lambda s: g(np.cos(theta + s), np.sin(theta + s), t), d)
                - _d1(lambda s: g((1 + s) * x, (1 + s) * y, t), d))
        return np.where(on_circle, surf, bulk)

    def forcing(bulk, surf):
        return np.where(on_circle, surf(x, y, t), bulk(x, y, t))

    r1 = (_d1(lambda s: u(x, y, t + s), d) - laplacian(w)
          - forcing(spec.f1_bulk, spec.f1_surf))
    r2 = (w(x, y, t) + laplacian(u)
          - forcing(spec.f2_bulk, spec.f2_surf) - F(u(x, y, t)))
    return float(np.abs(np.broadcast_arrays(r1, r2)).max(initial=0.0))
