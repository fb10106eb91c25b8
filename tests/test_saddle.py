import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chdbc import integrator
from chdbc.assembly import assemble_mass, assemble_stiffness
from chdbc.mesh import generate_disk_mesh
from chdbc.problems import manufactured_linear
from chdbc.saddle import build_step_matrix, nested_dissection_order


def _one_by_one(m, a, ratio):
    return build_step_matrix(sp.csr_matrix(np.array([[m]])),
                             sp.csr_matrix(np.array([[a]])), ratio, np.arange(1))


def _disk_step_matrix(mesh, ratio):
    M = assemble_mass(mesh)
    return build_step_matrix(M, assemble_stiffness(mesh), ratio,
                             nested_dissection_order(mesh.nodes, M))


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
    K = _disk_step_matrix(mesh, 1.0 / 0.0025)
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
    delta0 = 11.0 / 6.0
    K = _disk_step_matrix(mesh, delta0 / tau)
    rhs = np.ones(2 * mesh.node_count)
    x = K.solve(rhs)
    residual = np.abs(K.matrix @ x - rhs).max() / np.abs(rhs).max()
    assert residual <= 1e-10


def test_solve_residual_bound_on_random_rhs():
    mesh = generate_disk_mesh(80, 1.0)
    K = _disk_step_matrix(mesh, 400.0)
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
    order = nested_dissection_order(mesh.nodes, M)
    with pytest.raises(ValueError):
        build_step_matrix(M, A, 0.0, order)
    with pytest.raises(ValueError):
        build_step_matrix(M, sp.identity(3, format="csr"), 1.0, order)
    K = build_step_matrix(M, A, 1.0, order)
    bad = np.zeros(2 * mesh.node_count)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        K.solve(bad)
    with pytest.raises(ValueError, match="size"):
        K.solve(np.zeros(3))


def test_concurrent_style_solves_do_not_interfere():
    mesh = generate_disk_mesh(20, 1.0)
    K = _disk_step_matrix(mesh, 50.0)
    rng = np.random.default_rng(0)
    rhs_a = rng.standard_normal(2 * mesh.node_count)
    rhs_b = rng.standard_normal(2 * mesh.node_count)
    xa1 = K.solve(rhs_a)
    xb = K.solve(rhs_b)
    xa2 = K.solve(rhs_a)
    np.testing.assert_array_equal(xa1, xa2)
    assert not np.array_equal(xa1, xb)


@pytest.mark.parametrize("nodes", [20, 320, 2560])
def test_nested_dissection_order_is_a_permutation(nodes):
    mesh = generate_disk_mesh(nodes, 1.0)
    order = nested_dissection_order(mesh.nodes, assemble_mass(mesh))
    np.testing.assert_array_equal(np.sort(order), np.arange(mesh.node_count))


def test_no_edge_joins_the_halves_of_the_top_level_split():
    # The top-level split of n nodes numbers the rest of its lower half
    # first, then its upper half (n - n//2 nodes), then its separator of s
    # nodes taken from the lower half.
    mesh = generate_disk_mesh(2560, 1.0)
    order = nested_dissection_order(mesh.nodes, assemble_mass(mesh))
    n = mesh.node_count
    edges = mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    half = np.empty(n, dtype=int)

    def joins_halves(s):
        half[:] = 2
        half[order[:n // 2 - s]] = 0
        half[order[n // 2 - s:n - s]] = 1
        ends = np.sort(half[edges], axis=1)
        return np.any((ends[:, 0] == 0) & (ends[:, 1] == 1))

    s = next(s for s in range(1, n // 2) if not joins_halves(s))
    assert s < n // 10
    upper = mesh.nodes[order[n // 2 - s:n - s]]
    rest = mesh.nodes[np.concatenate([order[:n // 2 - s], order[n - s:]])]
    assert any(rest[:, axis].max() <= upper[:, axis].min() for axis in (0, 1))


@pytest.mark.parametrize("delta0_over_tau", [800.0, 7e4, 1e7])
def test_nested_dissection_fills_less_than_the_default_ordering(delta0_over_tau):
    # 800 is the default evolve step; 7e4 and 1e7 are bootstrap BDF1 and
    # small-tau step scales, where unscaled threshold pivoting left the
    # diagonal and filled more than the default ordering. Both sides count
    # stored reals: an entry of the complex LU holds two.
    K = _disk_step_matrix(generate_disk_mesh(2560, 10.0), delta0_over_tau)
    default = spla.splu(K.matrix)
    reals = K._lu.L.dtype.itemsize // default.L.dtype.itemsize
    assert (reals * (K._lu.L.nnz + K._lu.U.nnz)
            <= 0.8 * (default.L.nnz + default.U.nnz))


@pytest.mark.parametrize("delta0_over_tau", [1e-3, 0.1, 10.0, 800.0, 1e7])
def test_ordered_solve_residual_over_step_scales(delta0_over_tau):
    mesh = generate_disk_mesh(2560, 1.0)
    K = _disk_step_matrix(mesh, delta0_over_tau)
    rhs = np.random.default_rng(5).standard_normal(2 * mesh.node_count)
    x = K.solve(rhs)
    assert np.abs(K.matrix @ x - rhs).max() / np.abs(rhs).max() <= 1e-9


@pytest.mark.parametrize("delta0_over_tau", [1e-3, 800.0, 1e7])
def test_complex_solve_matches_the_block_matrix(delta0_over_tau):
    # each block row is checked on its own, so a sign flip of i s A or a
    # missing s on u shows in the row it breaks
    mesh = generate_disk_mesh(2560, 1.0)
    M, A = assemble_mass(mesh), assemble_stiffness(mesh)
    K = build_step_matrix(M, A, delta0_over_tau,
                          nested_dissection_order(mesh.nodes, M))
    rng = np.random.default_rng(9)
    b1, b2 = rng.standard_normal((2, mesh.node_count))
    rhs = np.concatenate([b1, b2])
    x, ref = K.solve(rhs), spla.spsolve(K.matrix, rhs)
    assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()
    u, w = x[:mesh.node_count], x[mesh.node_count:]
    assert (np.abs(delta0_over_tau * (M @ u) + A @ w - b1).max()
            <= 1e-9 * np.abs(b1).max())
    assert np.abs(-(A @ u) + M @ w - b2).max() <= 1e-9 * np.abs(b2).max()


def test_step_matrix_holds_no_block_matrix():
    # K is built on demand from M and A, which the stepper already holds
    mesh = generate_disk_mesh(320, 1.0)
    K = _disk_step_matrix(mesh, 800.0)
    held = list(vars(K).values())
    held += [c.cell_contents for v in held
             for c in getattr(v, "__closure__", None) or ()]
    shape = (2 * mesh.node_count,) * 2
    assert K.matrix.shape == shape
    assert not any(sp.issparse(v) and v.shape == shape for v in held)
