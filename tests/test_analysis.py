import dataclasses
import math

import numpy as np
import pytest

from chdbc import analysis, assembly
from chdbc.analysis import eoc, final_error, h1_norm, l2_norm
from chdbc.integrator import Stepper, Trajectory, bdf_scheme, run
from chdbc.mesh import (generate_disk_mesh, import_mesh, mesh_size, segment_lengths,
                        signed_areas)
from chdbc.problems import evolution_problem, manufactured_linear

TRI = """\
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


@pytest.fixture(scope="module")
def tri_bulk_mass():
    return assembly.assemble_bulk_mass(import_mesh(TRI))


def test_l2_norm_examples(tri_bulk_mass):
    M = tri_bulk_mass
    assert l2_norm(M, np.zeros(3)) == 0.0
    assert l2_norm(M, np.ones(3)) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert l2_norm(M, e) == pytest.approx(math.sqrt(M.toarray()[i, i]),
                                              rel=1e-14)


@pytest.mark.parametrize("norm", [
    l2_norm,
    lambda F, e: h1_norm(F, F, e),
], ids=["l2_norm", "h1_norm"])
def test_norms_reject_broken_quadratic_form(norm):
    import scipy.sparse as sp

    bad = sp.csr_matrix(np.array([[-1.0]]))
    with pytest.raises(ValueError, match=r"quadratic form is negative \(-"):
        norm(bad, np.ones(1))
    with pytest.raises(ValueError, match=r"vector length \(2,\) does not match 1"):
        norm(bad, np.ones(2))


def test_h1_norm_examples():
    mesh = generate_disk_mesh(40, 1.0)
    M = assembly.assemble_mass(mesh)
    A = assembly.assemble_stiffness(mesh)
    n = mesh.node_count
    assert h1_norm(M, A, np.zeros(n)) == 0.0
    c = -2.5
    expected = abs(c) * math.sqrt(float(np.ones(n) @ (M @ np.ones(n))))
    assert h1_norm(M, A, c * np.ones(n)) == pytest.approx(expected, rel=1e-12)
    rng = np.random.default_rng(8)
    e = rng.standard_normal(n)
    dense = float(e @ ((A + M).toarray() @ e))
    assert h1_norm(M, A, e) == pytest.approx(math.sqrt(dense), rel=1e-12)


def test_l2_below_h1():
    mesh = generate_disk_mesh(40, 1.0)
    M = assembly.assemble_mass(mesh)
    A = assembly.assemble_stiffness(mesh)
    rng = np.random.default_rng(17)
    for _ in range(10):
        e = rng.standard_normal(mesh.node_count)
        assert l2_norm(M, e) <= h1_norm(M, A, e) * (1 + 1e-14)


def test_eoc_examples():
    assert eoc([0.04, 0.01], [0.2, 0.1]) == [pytest.approx(2.0)]
    assert eoc([0.1, 0.05], [0.2, 0.1]) == [pytest.approx(1.0)]
    assert eoc([0.3, 0.3], [0.2, 0.1]) == [pytest.approx(0.0)]
    assert eoc([0.1, 0.0], [0.2, 0.1]) == [None]


def test_eoc_validation():
    with pytest.raises(ValueError):
        eoc([0.1], [0.2])
    with pytest.raises(ValueError):
        eoc([0.1, 0.2], [0.1, 0.2])
    with pytest.raises(ValueError):
        eoc([0.1, -0.2], [0.2, 0.1])


def test_total_mass_examples():
    mesh = generate_disk_mesh(40, 1.0)
    stepper = Stepper(evolution_problem(), mesh, 0.01, bdf_scheme(1))
    n = mesh.node_count
    assert stepper.mass(np.zeros(n)) == 0.0
    assert stepper.mass(np.ones(n)) == pytest.approx(
        signed_areas(mesh).sum() + segment_lengths(mesh).sum(), rel=1e-12)


def test_gl_energy_examples():
    mesh = generate_disk_mesh(40, 1.0)
    A = assembly.assemble_stiffness(mesh)
    n = mesh.node_count
    # W(u) = 10 (u^2 - 1)^2
    stepper = Stepper(evolution_problem(strength=10.0), mesh, 0.01, bdf_scheme(1))
    assert stepper.energy(np.ones(n)) == pytest.approx(0.0, abs=1e-10)
    assert stepper.energy(np.zeros(n)) == pytest.approx(
        10.0 * (signed_areas(mesh).sum() + segment_lengths(mesh).sum()), rel=1e-12)
    pm = evolution_problem(seed=3).u0(mesh.nodes[:, 0], mesh.nodes[:, 1], 0.0)
    e = stepper.energy(pm)
    assert e > 0.0
    assert e == pytest.approx(0.5 * float(pm @ (A @ pm)), rel=1e-12)


def test_final_error_zero_for_interpolated_exact_solution():
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    times = np.array([0.0, 0.5, 1.0])
    uh = [assembly.nodal_interpolate(problem.exact_u, mesh, t) for t in times]
    wh = [assembly.nodal_interpolate(problem.exact_w, mesh, t) for t in times]
    traj = Trajectory(times=times, mass=np.zeros(3), energy=None,
                      u_final=uh[-1], w_final=wh[-1], snapshots=[],
                      M=assembly.assemble_mass(mesh),
                      A=assembly.assemble_stiffness(mesh))
    report = final_error(traj, problem, mesh)
    assert report.err_L2 == 0.0 and report.err_H1 == 0.0
    assert report.err_w_L2 == 0.0 and report.err_w_H1 == 0.0


def test_final_error_measures_u_against_exact_u_and_w_against_exact_w():
    # both manufactured problems have exact_u is exact_w; this one does not
    problem = dataclasses.replace(manufactured_linear(),
                                  exact_w=lambda x, y, t: 2 * np.exp(-t) * x * y)
    mesh, T = generate_disk_mesh(40, 1.0), 0.5
    traj = Trajectory(times=np.array([0.0, T]), mass=np.zeros(2), energy=None,
                      u_final=assembly.nodal_interpolate(problem.exact_u, mesh, T),
                      w_final=assembly.nodal_interpolate(problem.exact_w, mesh, T),
                      snapshots=[], M=assembly.assemble_mass(mesh),
                      A=assembly.assemble_stiffness(mesh))
    assert not np.array_equal(traj.u_final, traj.w_final)
    report = final_error(traj, problem, mesh)
    assert report.err_L2 == 0.0 and report.err_H1 == 0.0
    assert report.err_w_L2 == 0.0 and report.err_w_H1 == 0.0


def test_final_error_requires_exact_solution():
    mesh = generate_disk_mesh(20, 1.0)
    traj = Trajectory(times=np.array([0.0]), mass=np.zeros(1), energy=None,
                      u_final=np.zeros(mesh.node_count),
                      w_final=np.zeros(mesh.node_count), snapshots=[],
                      M=assembly.assemble_mass(mesh),
                      A=assembly.assemble_stiffness(mesh))
    with pytest.raises(ValueError, match="exact"):
        final_error(traj, evolution_problem(), mesh)


def test_final_error_sane_for_real_run():
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    traj = run(problem, mesh, 0.005, 1.0, bdf_scheme(3))
    report = final_error(traj, problem, mesh)
    for value in (report.err_L2, report.err_H1, report.err_w_L2, report.err_w_H1):
        assert math.isfinite(value)
        assert 0.0 < value < 1.0
    assert report.err_L2 <= report.err_H1


@pytest.mark.parametrize("factory", [manufactured_linear, "nonlinear"])
def test_l2_eoc_over_refinements_2_to_5(factory):
    from chdbc.problems import manufactured_nonlinear

    problem = manufactured_nonlinear() if factory == "nonlinear" else factory()
    errs, hs = [], []
    for i in (2, 3, 4, 5):
        mesh = generate_disk_mesh(2 ** i * 10, 1.0)
        traj = run(problem, mesh, 0.0025, 1.0, bdf_scheme(3))
        report = final_error(traj, problem, mesh)
        errs.append(report.err_L2)
        hs.append(mesh_size(mesh))
    # aggregate order across the whole refinement range
    order = math.log(errs[0] / errs[-1]) / math.log(hs[0] / hs[-1])
    assert 1.7 <= order <= 2.3


def test_gl_energy_nonincreasing_along_resolved_evolution_run():
    # resolved configuration: unit disk, small tau, strength 10
    problem = evolution_problem(strength=10.0, seed=7)
    mesh = generate_disk_mesh(160, 1.0)
    traj = run(problem, mesh, 1e-5, 200e-5, bdf_scheme(1), start_mode="bootstrap")
    energies = traj.energy
    diffs = np.diff(energies[5:])
    assert (diffs <= 1e-10).all()
    assert energies[-1] < energies[0]
