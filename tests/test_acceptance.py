"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from chdbc import analysis, assembly, problems
from chdbc.cli import main as cli_main
from chdbc.integrator import Stepper, bdf_scheme, run, step_count
from chdbc.mesh import generate_disk_mesh, import_mesh, mesh_size
from chdbc.problems import (
    ProblemSpec,
    evolution_problem,
    manufactured_linear,
    manufactured_nonlinear,
    verify_manufactured,
)
from chdbc.saddle import build_step_matrix, nested_dissection_order

SWEEP_TAU = 0.0025
SWEEP_REFINEMENTS = (1, 2, 3, 4, 5)


def _report(num, label, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _sweep(problem):
    reports = []
    for i in SWEEP_REFINEMENTS:
        mesh = generate_disk_mesh(2 ** i * 10, 1.0)
        traj = run(problem, mesh, SWEEP_TAU, 1.0, bdf_scheme(3),
                   start_mode="exact")
        reports.append((mesh_size(mesh), analysis.final_error(traj, problem, mesh)))
    return reports


@pytest.fixture(scope="module")
def linear_sweep():
    start = time.time()
    reports = _sweep(manufactured_linear())
    return reports, time.time() - start


@pytest.fixture(scope="module")
def nonlinear_sweep():
    start = time.time()
    reports = _sweep(manufactured_nonlinear())
    return reports, time.time() - start


def _last_pair_eoc(reports, attr):
    hs = [h for h, _ in reports]
    errs = [getattr(r, attr) for _, r in reports]
    return analysis.eoc(errs, hs)[-1]


def test_criterion_1_spatial_order_linear(linear_sweep):
    reports, elapsed = linear_sweep
    order = _last_pair_eoc(reports, "err_L2")
    ok = 1.7 <= order <= 2.3 and elapsed <= 120.0
    _report(1, "spatial order, linear L2", ok,
            f"EOC={order:.3f} in [1.7, 2.3], sweep took {elapsed:.1f}s <= 120s")


def test_criterion_2_spatial_order_nonlinear(nonlinear_sweep):
    reports, elapsed = nonlinear_sweep
    order = _last_pair_eoc(reports, "err_L2")
    ok = 1.7 <= order <= 2.3 and elapsed <= 180.0
    _report(2, "spatial order, nonlinear L2", ok,
            f"EOC={order:.3f} in [1.7, 2.3], sweep took {elapsed:.1f}s <= 180s")


def test_criterion_3_h1_orders(linear_sweep, nonlinear_sweep):
    o_lin = _last_pair_eoc(linear_sweep[0], "err_H1")
    o_non = _last_pair_eoc(nonlinear_sweep[0], "err_H1")
    ok = o_lin >= 0.9 and o_non >= 0.9
    _report(3, "H1 order >= 0.9 (observed reported)", ok,
            f"linear EOC={o_lin:.3f}, nonlinear EOC={o_non:.3f}")


def test_criterion_4_temporal_order_bdf3():
    start = time.time()
    problem = manufactured_linear()
    mesh = generate_disk_mesh(80, 1.0)
    M = assembly.assemble_mass(mesh)
    scheme = bdf_scheme(3)
    tau_ref = 0.00125
    ref_stepper = Stepper(problem, mesh, tau_ref, scheme)
    ref = [(u, w) for _, _, u, w in ref_stepper.stream(
        step_count(tau_ref, 1.0, scheme.k), ref_stepper.starts("exact"))]
    # seed the coarse runs from the reference past its start transient; the
    # offset is a common multiple of every step size involved
    t_off = 0.04
    i0 = round(t_off / tau_ref)
    taus = [0.02, 0.01, 0.005]
    errs = []
    for tau in taus:
        stride = round(tau / tau_ref)
        starts = [ref[i0 + j * stride] for j in range(scheme.k)]
        stepper = Stepper(problem, mesh, tau, scheme, t_off)
        n_steps = step_count(tau, 1.0 - t_off, scheme.k)
        for _, _, u, _ in stepper.stream(n_steps, starts):
            pass  # u ends as the level at t = 1
        errs.append(analysis.l2_norm(M, u - ref[-1][0]))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(taus[i] / taus[i + 1])
              for i in range(len(errs) - 1)]
    elapsed = time.time() - start
    ok = all(2.6 <= o <= 3.4 for o in orders) and elapsed <= 60.0
    _report(4, "temporal order BDF3", ok,
            f"EOCs={[f'{o:.3f}' for o in orders]} in 3.0+/-0.4, "
            f"{elapsed:.1f}s <= 60s")


def test_criterion_5_mass_conservation():
    problem = evolution_problem(strength=10.0, seed=3)
    mesh = generate_disk_mesh(160, 1.0)
    tau = 1e-5  # inside the extrapolated k=3 stability region on this mesh
    traj = run(problem, mesh, tau, 100 * tau, bdf_scheme(3),
               start_mode="bootstrap")
    drift = float(np.abs(traj.mass - traj.mass[0]).max() / abs(traj.mass[0]))
    ok = drift <= 1e-10 and len(traj.times) == 101
    _report(5, "mass conservation over 100 steps", ok,
            f"relative drift={drift:.3e} <= 1e-10")


def test_criterion_6_energy_decay_backward_euler():
    mesh = generate_disk_mesh(160, 1.0)
    problem = ProblemSpec(u0=evolution_problem(seed=12).u0)
    stepper = Stepper(problem, mesh, 0.005, bdf_scheme(1))
    levels = stepper.stream(step_count(0.005, 200 * 0.005, 1),
                            stepper.starts("bootstrap"))
    A = assembly.assemble_stiffness(mesh)
    half_energy = np.array([0.5 * float(u @ (A @ u)) for _, _, u, _ in levels])
    increases = np.diff(half_energy)
    worst = float(increases.max())
    ok = bool((increases <= 1e-12).all())
    _report(6, "energy decay over 200 steps", ok,
            f"worst per-step increase={worst:.3e} <= 1e-12")


# --- independent brute-force references for criterion 7 -------------------

def _brute_force_mass(mesh):
    n = mesh.node_count
    M = np.zeros((n, n))
    for t in mesh.triangles:
        p = mesh.nodes[t]
        area = 0.5 * abs(np.linalg.det(np.column_stack([p[1] - p[0],
                                                        p[2] - p[0]])))
        V = np.column_stack([np.ones(3), p])
        coeff = np.linalg.solve(V, np.eye(3))
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
        for a in range(2):
            for b in range(2):
                f = lambda s: (1 - s if a == 0 else s) * (1 - s if b == 0 else s)
                M[e[a], e[b]] += length * (f(0.0) + 4 * f(0.5) + f(1.0)) / 6.0
    return M


def _brute_force_stiffness(mesh):
    n = mesh.node_count
    A = np.zeros((n, n))
    for t in mesh.triangles:
        p = mesh.nodes[t]
        area = 0.5 * abs(np.linalg.det(np.column_stack([p[1] - p[0],
                                                        p[2] - p[0]])))
        coeff = np.linalg.solve(np.column_stack([np.ones(3), p]), np.eye(3))
        grads = coeff[1:, :]
        A[np.ix_(t, t)] += area * grads.T @ grads
    for e in mesh.boundary_edges:
        length = float(np.hypot(*(mesh.nodes[e[1]] - mesh.nodes[e[0]])))
        dphi = np.array([-1.0, 1.0]) / length
        A[np.ix_(e, e)] += length * np.outer(dphi, dphi)
    return A


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


def test_criterion_7_oracle_equivalence():
    square = import_mesh(UNIT_SQUARE)
    M = assembly.assemble_mass(square).toarray()
    A = assembly.assemble_stiffness(square).toarray()
    m_err = np.abs(M - _brute_force_mass(square)).max()
    a_err = np.abs(A - _brute_force_stiffness(square)).max()
    # frozen hand-computed dense references
    M_hand = np.array([
        [5 / 6, 5 / 24, 1 / 12, 5 / 24],
        [5 / 24, 3 / 4, 5 / 24, 0.0],
        [1 / 12, 5 / 24, 5 / 6, 5 / 24],
        [5 / 24, 0.0, 5 / 24, 3 / 4],
    ])
    A_hand = np.array([
        [3.0, -1.5, 0.0, -1.5],
        [-1.5, 3.0, -1.5, 0.0],
        [0.0, -1.5, 3.0, -1.5],
        [-1.5, 0.0, -1.5, 3.0],
    ])
    m_hand_err = np.abs(M - M_hand).max()
    a_hand_err = np.abs(A - A_hand).max()

    mesh = generate_disk_mesh(20, 1.0)
    M_mesh = assembly.assemble_mass(mesh)
    K = build_step_matrix(M_mesh, assembly.assemble_stiffness(mesh),
                          bdf_scheme(3).delta[0] / SWEEP_TAU,
                          nested_dissection_order(mesh.nodes, M_mesh))
    dense = K.matrix.toarray()
    rng = np.random.default_rng(123)
    solve_err = 0.0
    for _ in range(5):
        rhs = rng.standard_normal(2 * mesh.node_count)
        diff = K.solve(rhs) - np.linalg.solve(dense, rhs)
        solve_err = max(solve_err, float(np.abs(diff).max()))

    ok = (m_err <= 1e-12 and a_err <= 1e-12 and m_hand_err <= 1e-12
          and a_hand_err <= 1e-12 and solve_err <= 1e-10)
    _report(7, "assembly and saddle oracles", ok,
            f"square M/A vs brute force {m_err:.1e}/{a_err:.1e}, "
            f"vs hand {m_hand_err:.1e}/{a_hand_err:.1e}, "
            f"saddle vs dense {solve_err:.1e}")


def _oracle_delta(k):
    co = [Fraction(0)] * (k + 1)
    for l in range(1, k + 1):
        for j in range(l + 1):
            co[j] += Fraction(1, l) * comb(l, j) * Fraction(-1) ** j
    return [float(c) for c in co]


def _oracle_gamma(k):
    numerator = [-comb(k, j) * Fraction(-1) ** j for j in range(k + 1)]
    numerator[0] += 1
    assert numerator[0] == 0
    return [float(c) for c in numerator[1:]]


def test_criterion_8_coefficient_exactness():
    worst = 0.0
    exact = True
    for k in range(1, 6):
        d = bdf_scheme(k).delta
        g = bdf_scheme(k).gamma
        exact &= list(d) == _oracle_delta(k) and list(g) == _oracle_gamma(k)
        worst = max(
            worst,
            float(np.abs(np.array(d) - np.array(_oracle_delta(k))).max()),
            float(np.abs(np.array(g) - np.array(_oracle_gamma(k))).max()),
        )
    _report(8, "BDF/extrapolation coefficients k=1..5", exact,
            f"exact match against rational expansion (max diff {worst:.1e})")


def test_criterion_9_manufactured_residuals():
    rng = np.random.default_rng(0)
    r = 0.95 * np.sqrt(rng.random(20))
    th = 2 * np.pi * rng.random(20)
    interior = list(zip(r * np.cos(th), r * np.sin(th)))
    th2 = 2 * np.pi * rng.random(20)
    circle = list(zip(np.cos(th2), np.sin(th2)))
    times = (0.0, 0.5, 1.0)
    res_lin = verify_manufactured(manufactured_linear(), interior + circle, times)
    res_non = verify_manufactured(manufactured_nonlinear(), interior + circle, times)
    ok = res_lin <= 1e-8 and res_non <= 1e-8
    _report(9, "manufactured forcing residuals", ok,
            f"linear {res_lin:.2e}, nonlinear {res_non:.2e} <= 1e-8")


def test_criterion_10_evolution_run(tmp_path):
    start = time.time()
    out = tmp_path / "evolution"
    rc = cli_main(["evolve", "--out", str(out)])  # paper-setup defaults
    elapsed = time.time() - start
    snapshots = sorted(p.name for p in out.glob("snapshot_t*.csv"))
    with open(out / "diagnostics.csv") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    last = dict(zip(header, lines[-1].split(",")))
    e0, e3 = float(first["energy"]), float(last["energy"])
    ok = (rc == 0 and len(snapshots) == 5 and e3 < e0
          and float(last["t"]) == 3.0 and elapsed <= 600.0)
    _report(10, "evolution run", ok,
            f"rc={rc}, snapshots={len(snapshots)}, energy {e0:.1f} -> {e3:.1f}, "
            f"{elapsed:.1f}s <= 600s")
