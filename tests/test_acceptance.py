"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from chdbc import analysis, assembly
from chdbc.cli import main as cli_main
from chdbc.integrator import Stepper, bdf_scheme, run, step_count
from chdbc.mesh import generate_disk_mesh, import_mesh
from chdbc.problems import (
    ProblemSpec,
    evolution_problem,
    manufactured_linear,
    manufactured_nonlinear,
)
from oracles import (UNIT_SQUARE, brute_force_mass, brute_force_stiffness,
                     disk_points, disk_step_matrix, oracle_delta, oracle_gamma,
                     seeded_temporal_eocs, verify_manufactured)

SWEEP_TAU = 0.0025  # the last of the default step sizes


def _report(num, label, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _default_table(problem, tmp_path_factory):
    """The rows of `chdbc convergence --problem <problem>` as it ships (four
    step sizes, refinements 1..5), and the seconds the command took."""
    out = tmp_path_factory.mktemp(problem) / "table.csv"
    start = time.time()
    rc = cli_main(["convergence", "--problem", problem, "--out", str(out)])
    elapsed = time.time() - start
    assert rc == 0
    with open(out) as fh:
        header, *rows = (line.split(",") for line in fh.read().splitlines())
    return [dict(zip(header, row)) for row in rows], elapsed


@pytest.fixture(scope="module")
def linear_table(tmp_path_factory):
    return _default_table("linear", tmp_path_factory)


@pytest.fixture(scope="module")
def nonlinear_table(tmp_path_factory):
    return _default_table("nonlinear", tmp_path_factory)


def _tau_block(rows, column):
    """`column` and h of the tau = 0.0025 rows, refinements 1..5 in order."""
    block = [r for r in rows if float(r["tau"]) == SWEEP_TAU]
    assert [r["i"] for r in block] == ["1", "2", "3", "4", "5"]
    return [float(r[column]) for r in block], [float(r["h"]) for r in block]


def _criterion_spatial(num, label, table, limit):
    rows, elapsed = table
    errs, hs = _tau_block(rows, "err_L2")
    order = analysis.eoc(errs, hs)[-1]
    # refinements 2..5 as one pair
    overall = analysis.eoc([errs[1], errs[-1]], [hs[1], hs[-1]])[0]
    falls = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    shape = len(rows) == 4 * 5 and float(rows[-1]["tau"]) == SWEEP_TAU
    ok = (shape and 1.7 <= order <= 2.3 and 1.7 <= overall <= 2.3 and falls
          and elapsed <= limit)
    _report(num, label, ok,
            f"EOC={order:.3f}, refinements 2..5 {overall:.3f}, both in "
            f"[1.7, 2.3]; err_L2 falls at every refinement: {falls}; "
            f"{len(rows)} rows; the CLI run took {elapsed:.1f}s <= {limit:.0f}s")


def test_criterion_1_spatial_order_linear(linear_table):
    _criterion_spatial(1, "spatial order, linear L2", linear_table, 120.0)


def test_criterion_2_spatial_order_nonlinear(nonlinear_table):
    _criterion_spatial(2, "spatial order, nonlinear L2", nonlinear_table, 180.0)


def test_criterion_3_h1_orders(linear_table, nonlinear_table):
    o_lin = analysis.eoc(*_tau_block(linear_table[0], "err_H1"))[-1]
    o_non = analysis.eoc(*_tau_block(nonlinear_table[0], "err_H1"))[-1]
    ok = o_lin >= 0.9 and o_non >= 0.9
    _report(3, "H1 order >= 0.9 (observed reported)", ok,
            f"linear EOC={o_lin:.3f}, nonlinear EOC={o_non:.3f}")


def _criterion_4(problem, label):
    """BDF3 temporal L2 EOCs at t = 1 on 80 nodes, tau = 0.02 -> 0.005."""
    start = time.time()
    # the coarse runs start from a tau = 0.00125 reference past its start
    # transient; t = 0.04 is a common multiple of every step size involved
    orders = seeded_temporal_eocs(problem, generate_disk_mesh(80, 1.0), 3,
                                  0.00125, 0.04, [0.02, 0.01, 0.005])
    elapsed = time.time() - start
    ok = all(2.6 <= o <= 3.4 for o in orders) and elapsed <= 60.0
    _report(4, label, ok,
            f"EOCs={[f'{o:.3f}' for o in orders]} in 3.0+/-0.4, "
            f"{elapsed:.1f}s <= 60s")


def test_criterion_4_temporal_order_bdf3():
    _criterion_4(manufactured_linear(), "temporal order BDF3")


def test_criterion_4_temporal_order_bdf3_nonlinear():
    # the same check through the extrapolated nonlinearity: a first-order
    # extrapolant drops these EOCs to about 1.1
    _criterion_4(manufactured_nonlinear(), "temporal order BDF3, nonlinear")


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


def test_criterion_7_oracle_equivalence():
    square = import_mesh(UNIT_SQUARE)
    M = assembly.assemble_mass(square).toarray()
    A = assembly.assemble_stiffness(square).toarray()
    m_err = np.abs(M - brute_force_mass(square)).max()
    a_err = np.abs(A - brute_force_stiffness(square)).max()
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
    _, _, K = disk_step_matrix(mesh, bdf_scheme(3).delta[0] / SWEEP_TAU)
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


def test_criterion_8_coefficient_exactness():
    worst = 0.0
    exact = True
    for k in range(1, 6):
        d = bdf_scheme(k).delta
        g = bdf_scheme(k).gamma
        exact &= list(d) == oracle_delta(k) and list(g) == oracle_gamma(k)
        worst = max(
            worst,
            float(np.abs(np.array(d) - np.array(oracle_delta(k))).max()),
            float(np.abs(np.array(g) - np.array(oracle_gamma(k))).max()),
        )
    _report(8, "BDF/extrapolation coefficients k=1..5", exact,
            f"exact match against rational expansion (max diff {worst:.1e})")


def test_criterion_9_manufactured_residuals():
    points, times = disk_points(20, 20, seed=0), (0.0, 0.5, 1.0)
    res_lin = verify_manufactured(manufactured_linear(), points, times)
    res_non = verify_manufactured(manufactured_nonlinear(), points, times)
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
