import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chdbc import assembly
from chdbc.analysis import eoc, final_error, h1_norm, l2_norm
from chdbc.integrator import Stepper, bdf_scheme, run
from chdbc.mesh import generate_disk_mesh, import_mesh, segment_lengths, signed_areas
from chdbc.problems import evolution_problem, manufactured_linear
from oracles import UNIT_TRIANGLE


@pytest.fixture(scope="module")
def tri_bulk_mass():
    return assembly.assemble_bulk_mass(import_mesh(UNIT_TRIANGLE))


def test_l2_norm_examples(tri_bulk_mass):
    M = tri_bulk_mass
    assert l2_norm(M, np.zeros(3)) == 0.0
    assert l2_norm(M, np.ones(3)) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert l2_norm(M, e) == pytest.approx(math.sqrt(M.toarray()[i, i]),
                                              rel=1e-14)


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
    assert eoc([0.1], [0.2]) == []  # one refinement has no order


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


def test_final_error_measures_u_against_exact_u_and_w_against_exact_w():
    # both manufactured problems have exact_u is exact_w; this one does not
    problem = dataclasses.replace(manufactured_linear(),
                                  exact_w=lambda x, y, t: 2 * np.exp(-t) * x * y)
    mesh, T = generate_disk_mesh(40, 1.0), 0.5
    u = assembly.nodal_interpolate(problem.exact_u, mesh, T)
    w = assembly.nodal_interpolate(problem.exact_w, mesh, T)
    assert not np.array_equal(u, w)
    report = final_error(problem, mesh, T, u, w)
    assert report.err_L2 == 0.0 and report.err_H1 == 0.0
    assert report.err_w_L2 == 0.0 and report.err_w_H1 == 0.0


def test_final_error_reads_the_h1_error_of_w():
    # a w error that is not constant has a positive stiffness part, by which
    # the square of its H1 error exceeds that of its L2 error
    problem = manufactured_linear()
    mesh, T = generate_disk_mesh(40, 1.0), 0.5
    u, w = (assembly.nodal_interpolate(f, mesh, T)
            for f in (problem.exact_u, problem.exact_w))
    off = w + mesh.nodes[:, 0]
    report = final_error(problem, mesh, T, u, off)
    ew = off - w
    stiff = float(ew @ (assembly.assemble_stiffness(mesh) @ ew))
    assert stiff > 0.0
    assert report.err_w_H1 ** 2 - report.err_w_L2 ** 2 == pytest.approx(stiff, rel=1e-12)


def test_final_error_measures_at_the_given_time():
    # the state is the exact interpolant at t = 0.37, not at a final time
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    u, w = (assembly.nodal_interpolate(f, mesh, 0.37)
            for f in (problem.exact_u, problem.exact_w))
    report = final_error(problem, mesh, 0.37, u, w)
    assert report.err_L2 == 0.0 and report.err_H1 == 0.0
    assert report.err_w_L2 == 0.0 and report.err_w_H1 == 0.0
    later = final_error(problem, mesh, 0.5, u, w)
    assert min(later.err_L2, later.err_H1, later.err_w_L2, later.err_w_H1) > 0.0


@pytest.mark.parametrize("u_shape, w_shape", [((640, 1), (640,)), ((641,), (640,)),
                                              ((640,), (640, 1)), ((640,), (639,))])
def test_final_error_rejects_a_state_of_the_wrong_shape(u_shape, w_shape):
    # the check comes before u - interpolant, which would broadcast an
    # (N, 1) state to an N x N temporary (3.3 MB at N = 640)
    problem = manufactured_linear()
    mesh = generate_disk_mesh(640, 1.0)
    assert mesh.node_count == 640
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            final_error(problem, mesh, 0.5, np.zeros(u_shape), np.zeros(w_shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bad = u_shape if u_shape != (640,) else w_shape
    assert str(bad) in str(info.value) and "N = 640" in str(info.value)
    assert peak < 640 * 640 * 8 // 4


def test_final_error_sane_for_real_run():
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    traj = run(problem, mesh, 0.005, 1.0, bdf_scheme(3), start_mode="exact")
    report = final_error(problem, mesh, traj.times[-1], traj.u_final, traj.w_final)
    for value in (report.err_L2, report.err_H1, report.err_w_L2, report.err_w_H1):
        assert math.isfinite(value)
        assert 0.0 < value < 1.0
    assert report.err_L2 <= report.err_H1


def test_gl_energy_nonincreasing_along_resolved_evolution_run():
    # resolved configuration: unit disk, small tau, strength 10
    problem = evolution_problem(strength=10.0, seed=7)
    mesh = generate_disk_mesh(160, 1.0)
    traj = run(problem, mesh, 1e-5, 200e-5, bdf_scheme(1), start_mode="bootstrap")
    energies = traj.energy
    diffs = np.diff(energies[5:])
    assert (diffs <= 1e-10).all()
    assert energies[-1] < energies[0]
