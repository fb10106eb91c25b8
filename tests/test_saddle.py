import numpy as np
import pytest
import scipy.sparse as sp

from chdbc import integrator
from chdbc.assembly import assemble_mass, assemble_stiffness
from chdbc.mesh import generate_disk_mesh
from chdbc.problems import manufactured_linear
from chdbc.saddle import build_step_matrix


def _one_by_one(m, a, ratio):
    return build_step_matrix(sp.csr_matrix(np.array([[m]])),
                             sp.csr_matrix(np.array([[a]])), ratio)


def test_scalar_block_layouts():
    K = _one_by_one(1.0, 0.0, 2.0)
    np.testing.assert_allclose(K.matrix.toarray(), [[2.0, 0.0], [0.0, 1.0]])
    K = _one_by_one(1.0, 1.0, 1.0)
    np.testing.assert_allclose(K.matrix.toarray(), [[1.0, 1.0], [-1.0, 1.0]])
    assert np.linalg.det(K.matrix.toarray()) == pytest.approx(2.0)


def test_scalar_solves():
    K = _one_by_one(1.0, 1.0, 1.0)
    np.testing.assert_allclose(K.solve(np.array([2.0, 0.0])), [1.0, 1.0],
                               atol=1e-15)
    np.testing.assert_array_equal(K.solve(np.zeros(2)), np.zeros(2))


def test_matches_dense_solve_on_small_mesh():
    mesh = generate_disk_mesh(20, 1.0)
    M, A = assemble_mass(mesh), assemble_stiffness(mesh)
    K = build_step_matrix(M, A, 1.0 / 0.0025)
    dense = K.matrix.toarray()
    assert np.linalg.det(dense) != 0
    rng = np.random.default_rng(11)
    for _ in range(5):
        rhs = rng.standard_normal(2 * mesh.node_count)
        np.testing.assert_allclose(K.solve(rhs), np.linalg.solve(dense, rhs),
                                   rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("tau", [0.025, 0.0125, 0.005, 0.0025])
def test_nonsingular_for_experiment_step_sizes(tau):
    mesh = generate_disk_mesh(40, 1.0)
    M, A = assemble_mass(mesh), assemble_stiffness(mesh)
    delta0 = 11.0 / 6.0
    K = build_step_matrix(M, A, delta0 / tau)
    rhs = np.ones(2 * mesh.node_count)
    x = K.solve(rhs)
    residual = np.abs(K.matrix @ x - rhs).max() / np.abs(rhs).max()
    assert residual <= 1e-10


def test_solve_residual_bound_on_random_rhs():
    mesh = generate_disk_mesh(80, 1.0)
    K = build_step_matrix(assemble_mass(mesh), assemble_stiffness(mesh), 400.0)
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal(2 * mesh.node_count)
    x = K.solve(rhs)
    assert np.abs(K.matrix @ x - rhs).max() / np.abs(rhs).max() <= 1e-10


def test_factorization_happens_once(monkeypatch):
    # run() factorizes as often for 40 steps as for 4: once for the main
    # loop, plus once for the BDF1 substeps of a k > 1 bootstrap
    calls = []

    def counting(*args):
        calls.append(args)
        return build_step_matrix(*args)

    monkeypatch.setattr(integrator, "build_step_matrix", counting)
    mesh = generate_disk_mesh(40, 1.0)
    for k, start_mode, expected in ((1, "exact", 1), (3, "bootstrap", 2)):
        counts = []
        for n_steps in (4, 40):
            calls.clear()
            integrator.run(manufactured_linear(), mesh, 0.01, n_steps * 0.01,
                           integrator.bdf_scheme(k), start_mode=start_mode)
            counts.append(len(calls))
        assert counts == [expected, expected]


def test_rejects_bad_inputs():
    mesh = generate_disk_mesh(20, 1.0)
    M, A = assemble_mass(mesh), assemble_stiffness(mesh)
    with pytest.raises(ValueError):
        build_step_matrix(M, A, 0.0)
    with pytest.raises(ValueError):
        build_step_matrix(M, sp.identity(3, format="csr"), 1.0)
    K = build_step_matrix(M, A, 1.0)
    bad = np.zeros(2 * mesh.node_count)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        K.solve(bad)
    with pytest.raises(ValueError, match="size"):
        K.solve(np.zeros(3))


def test_concurrent_style_solves_do_not_interfere():
    mesh = generate_disk_mesh(20, 1.0)
    K = build_step_matrix(assemble_mass(mesh), assemble_stiffness(mesh), 50.0)
    rng = np.random.default_rng(0)
    rhs_a = rng.standard_normal(2 * mesh.node_count)
    rhs_b = rng.standard_normal(2 * mesh.node_count)
    xa1 = K.solve(rhs_a)
    xb = K.solve(rhs_b)
    xa2 = K.solve(rhs_a)
    np.testing.assert_array_equal(xa1, xa2)
    assert not np.array_equal(xa1, xb)
