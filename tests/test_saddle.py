import gc
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chdbc import integrator
from chdbc.assembly import assemble_mass
from chdbc.mesh import Mesh2D, disjoint_union, generate_disk_mesh
from chdbc.problems import evolution_problem, manufactured_linear
from chdbc import saddle
from chdbc.saddle import PANEL_SIZE, build_step_matrix, nested_dissection_order
from oracles import disk_step_matrix, scalar_step_matrix


def test_scalar_block_layouts():
    K = scalar_step_matrix(1.0, 0.0, 2.0)
    np.testing.assert_allclose(K.matrix.toarray(), [[2.0, 0.0], [0.0, 1.0]])
    K = scalar_step_matrix(1.0, 1.0, 1.0)
    np.testing.assert_allclose(K.matrix.toarray(), [[1.0, 1.0], [-1.0, 1.0]])
    assert np.linalg.det(K.matrix.toarray()) == pytest.approx(2.0)


def test_scalar_solves():
    K = scalar_step_matrix(1.0, 1.0, 1.0)
    np.testing.assert_allclose(K.solve(np.array([2.0, 0.0])), [1.0, 1.0],
                               atol=1e-15)
    np.testing.assert_array_equal(K.solve(np.zeros(2)), np.zeros(2))


@pytest.mark.parametrize("k, start_mode, step_counts, factorizations", [
    (1, "exact", (4, 40), 1),
    (3, "bootstrap", (4, 40), 2),
    (3, "exact", (2,), 0),
    (3, "bootstrap", (2,), 1),
], ids=["k1-exact", "k3-bootstrap", "k3-exact-starts-only", "k3-bootstrap-starts-only"])
def test_factorizations_per_run(monkeypatch, k, start_mode, step_counts,
                                factorizations):
    # run() factorizes as often for 40 steps as for 4: once for the main
    # loop, plus once for the BDF1 substeps of a k > 1 bootstrap. With
    # n_steps = k - 1 no step reads the main step matrix, so it is never built.
    calls = []

    def counting(*args):
        calls.append(args)
        return build_step_matrix(*args)

    monkeypatch.setattr(integrator, "build_step_matrix", counting)
    mesh = generate_disk_mesh(40, 1.0)
    for n_steps in step_counts:
        calls.clear()
        traj = integrator.run(manufactured_linear(), mesh, 0.01, n_steps * 0.01,
                              integrator.bdf_scheme(k), start_mode=start_mode)
        assert traj.times.tobytes() == (np.arange(n_steps + 1) * 0.01).tobytes()
        assert len(calls) == factorizations, n_steps


def test_concurrent_style_solves_do_not_interfere():
    mesh = generate_disk_mesh(20, 1.0)
    _, _, K = disk_step_matrix(mesh, 50.0)
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


@pytest.mark.parametrize("parts", [[(20, 1.0), (80, 1.0)],
                                   [(160, 1.0), (40, 10.0), (320, 2.0)]])
def test_a_disjoint_union_is_ordered_part_by_part(parts):
    # no edge spans the index where a part ends, so each part is dissected
    # on its own and gets its standalone order, offset by its first index
    meshes = [generate_disk_mesh(n, r) for n, r in parts]
    union = disjoint_union(meshes)
    order = nested_dissection_order(union.nodes, assemble_mass(union))
    first, expected = 0, []
    for m in meshes:
        expected.append(nested_dissection_order(m.nodes, assemble_mass(m)) + first)
        first += m.node_count
    assert np.array_equal(order, np.concatenate(expected))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_relabelled_connected_mesh_has_no_cut(seed):
    relabelled = _relabelled(generate_disk_mesh(320, 1.0), seed)
    order = nested_dissection_order(relabelled.nodes, assemble_mass(relabelled))
    np.testing.assert_array_equal(np.sort(order), np.arange(relabelled.node_count))


@pytest.mark.parametrize("nodes, digest", [
    (640, "ae50f5accafa5bb2b07198e4fc058a7e1a267c00d44549e8076de02f8df047db"),
    (40960, "555f04b947b48e4c5fac912759695534c1822cfe444dc0a04ae94e72b00bd00d"),
])
def test_connected_evolve_meshes_keep_their_order(nodes, digest):
    # sha256 of the order of the radius-10 evolve mesh: it pins the order,
    # and so the factor and the outputs, against unintended changes
    mesh = generate_disk_mesh(nodes, 10.0)
    order = nested_dissection_order(mesh.nodes, assemble_mass(mesh))
    assert hashlib.sha256(order.tobytes()).hexdigest() == digest


def _reference_order(nodes, M):
    """The dissection rule as a plain recursion, one part at a time."""
    pattern = sp.triu(M, k=1).tocoo()
    ei, ej = pattern.row, pattern.col
    n = M.shape[0]
    # reach[i]: the largest index joined to one at or below i; a cut where it is i
    reach = np.arange(n)
    np.maximum.at(reach, ei, ej)
    reach = np.maximum.accumulate(reach)
    ranges = np.split(np.arange(n), np.flatnonzero(reach[:-1] == np.arange(n - 1)) + 1)

    def dissect(idx, ei, ej):
        if len(idx) <= saddle.LEAF_SIZE:
            return [idx]
        best = None
        for axis in (0, 1):
            upper = np.zeros(n, dtype=bool)
            upper[idx[np.lexsort((idx, nodes[idx, axis]))[len(idx) // 2:]]] = True
            cut = upper[ei] != upper[ej]
            for upper_side in (False, True):
                sep = np.unique(np.where(upper[ei[cut]] == upper_side, ei[cut], ej[cut]))
                if best is None or len(sep) < len(best[1]):
                    best = upper, sep
        upper, sep = best
        blocks = []
        for side in (False, True):
            keep = upper == side
            keep[sep] = False
            inside = keep[ei] & keep[ej]
            blocks += dissect(idx[keep[idx]], ei[inside], ej[inside])
        return blocks + [sep]

    return np.concatenate([block for r in ranges for block in dissect(
        r, *(e[(ei >= r[0]) & (ei <= r[-1])] for e in (ei, ej)))])


def _relabelled(mesh, seed):
    """The mesh with its nodes renumbered at random; it must keep no cut."""
    n = mesh.node_count
    label = np.random.default_rng(seed).permutation(n)
    relabelled = Mesh2D(nodes=mesh.nodes[np.argsort(label)],
                        triangles=label[mesh.triangles],
                        boundary_edges=label[mesh.boundary_edges])
    spanned = np.zeros(n, dtype=bool)
    for i, j in np.sort(relabelled.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)):
        spanned[i:j] = True
    assert spanned[:-1].all()  # every index below n - 1 is spanned: no cut
    return relabelled


@pytest.mark.parametrize("mesh", [
    lambda: generate_disk_mesh(20, 1.0),
    lambda: generate_disk_mesh(320, 1.0),
    lambda: generate_disk_mesh(2560, 1.0),
    lambda: disjoint_union([generate_disk_mesh(n, r) for n, r in
                            ((160, 1.0), (5, 1.0), (40, 10.0), (320, 2.0))]),
    *(lambda seed=seed: _relabelled(generate_disk_mesh(320, 1.0), seed) for seed in range(3)),
], ids=["disk20", "disk320", "disk2560", "union", "relabelled0", "relabelled1", "relabelled2"])
def test_the_level_synchronous_dissection_equals_the_recursive_rule(mesh):
    # every part of a level splits at once; the rule, its tie-breaks and
    # the numbering must be those of the one-part-at-a-time recursion
    mesh = mesh()
    M = assemble_mass(mesh)
    reference = _reference_order(mesh.nodes, M)
    np.testing.assert_array_equal(np.sort(reference), np.arange(mesh.node_count))
    np.testing.assert_array_equal(nested_dissection_order(mesh.nodes, M), reference)


def test_nested_dissection_fill_bound():
    # L+U complex entries of the default evolve step on 2560 nodes: 136 074
    # with 32-node leaves and one lower-side separator along the longer axis
    _, _, K = disk_step_matrix(generate_disk_mesh(2560, 10.0), 800.0)
    assert K._lu.L.nnz + K._lu.U.nnz <= 125_000


@pytest.mark.parametrize("delta0_over_tau", [800.0, 7e4, 1e7])
def test_nested_dissection_fills_less_than_the_default_ordering(delta0_over_tau):
    # 800 is the default evolve step; 7e4 and 1e7 are bootstrap BDF1 and
    # small-tau step scales, where unscaled threshold pivoting left the
    # diagonal and filled more than the default ordering. Both sides count
    # stored reals: an entry of the complex LU holds two.
    _, _, K = disk_step_matrix(generate_disk_mesh(2560, 10.0), delta0_over_tau)
    default = spla.splu(K.matrix)
    reals = K._lu.L.dtype.itemsize // default.L.dtype.itemsize
    assert (reals * (K._lu.L.nnz + K._lu.U.nnz)
            <= 0.8 * (default.L.nnz + default.U.nnz))


@pytest.mark.parametrize("delta0_over_tau", [1e-3, 800.0, 1e8])
@pytest.mark.parametrize("refinements", [None, (1, 2, 3, 4, 5)])
def test_the_natural_ordering_implies_superlus_symmetric_mode(refinements,
                                                              delta0_over_tau):
    # build_step_matrix calls SuperLU's gstrf itself, with what public splu
    # passes it for these arguments. SymmetricMode, which splu implies for
    # permc_spec="NATURAL", is passed to both (turned off, it changes perm_c
    # and the factor on the 640-node evolve mesh). The factors must agree
    # bit for bit, so a SciPy whose splu calls gstrf otherwise fails here.
    mesh = (generate_disk_mesh(640, 10.0) if refinements is None else
            disjoint_union([generate_disk_mesh(2 ** i * 10, 1.0) for i in refinements]))
    M, A, K = disk_step_matrix(mesh, delta0_over_tau)
    lu, order = K._lu, K._order
    permuted = sp.csc_matrix(
        sp.csr_matrix(M - 1j * delta0_over_tau ** -0.5 * A)[order][:, order])
    spelled = spla.splu(permuted, permc_spec="NATURAL",
                        diag_pivot_thresh=saddle.PIVOT_THRESHOLD,
                        panel_size=PANEL_SIZE, options={"SymmetricMode": True})
    for ours, theirs in ((lu.L, spelled.L), (lu.U, spelled.U)):
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(ours, field), getattr(theirs, field))
    assert np.array_equal(lu.perm_r, spelled.perm_r)
    assert np.array_equal(lu.perm_c, spelled.perm_c)


# BDF3 (delta0 = 11/6) at each experiment tau on a ones right-hand side,
# delta0/tau = 400 (BDF1 at tau = 0.0025) on a random one, and the step
# scales from 1e-3 to 1e7 on a random one
@pytest.mark.parametrize("nodes, ratio, seed, tol", [
    *((40, 11.0 / 6.0 / tau, None, 1e-10) for tau in (0.025, 0.0125, 0.005, 0.0025)),
    (80, 400.0, 2, 1e-10),
    *((2560, ratio, 5, 1e-9) for ratio in (1e-3, 0.1, 10.0, 800.0, 1e7)),
], ids=["bdf3-0.025", "bdf3-0.0125", "bdf3-0.005", "bdf3-0.0025", "random-rhs",
        "2560-1e-3", "2560-0.1", "2560-10", "2560-800", "2560-1e7"])
def test_ordered_solve_residual_over_step_scales(nodes, ratio, seed, tol):
    mesh = generate_disk_mesh(nodes, 1.0)
    _, _, K = disk_step_matrix(mesh, ratio)
    n = 2 * mesh.node_count
    rhs = np.ones(n) if seed is None else np.random.default_rng(seed).standard_normal(n)
    x = K.solve(rhs)
    assert np.abs(K.matrix @ x - rhs).max() / np.abs(rhs).max() <= tol


@pytest.mark.parametrize("delta0_over_tau", [1e-3, 800.0, 1e7])
def test_complex_solve_matches_the_block_matrix(delta0_over_tau):
    # each block row is checked on its own, so a sign flip of i s A or a
    # missing s on u shows in the row it breaks
    mesh = generate_disk_mesh(2560, 1.0)
    M, A, K = disk_step_matrix(mesh, delta0_over_tau)
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
    _, _, K = disk_step_matrix(mesh, 800.0)
    held = list(vars(K).values())
    held += [c.cell_contents for v in held
             for c in getattr(v, "__closure__", None) or ()]
    shape = (2 * mesh.node_count,) * 2
    assert K.matrix.shape == shape
    assert not any(sp.issparse(v) and v.shape == shape for v in held)


def test_superlu_reads_the_only_complex_copy_with_a_small_panel(monkeypatch):
    # While SuperLU factorizes, the permuted M - i s A it reads is the only
    # complex matrix of the system's shape alive: the unpermuted one and the
    # row-permuted one are gone. This holds for a bootstrap's BDF1 matrix
    # and for the main step matrix. Temporaries must go by reference count,
    # so the scan runs without a collection.
    # PANEL_SIZE stays within SuperLU's default of 20: with SciPy 1.17.1,
    # factorizing a 2560-node step matrix with panel_size 24, 28, 32 or 64
    # corrupted the heap in some runs (a glibc abort or a segfault after
    # the factorization, with or without MALLOC_CHECK_=3).
    assert 1 <= PANEL_SIZE <= 20
    mesh = generate_disk_mesh(320, 1.0)
    shape = (mesh.node_count,) * 2
    gstrf, calls = saddle._superlu.gstrf, []

    def checked(n, nnz, data, *args, **kwargs):
        alive = [o for o in gc.get_objects() if sp.issparse(o)
                 and o.shape == shape and np.iscomplexobj(o.data)]
        calls.append(kwargs["options"]["PanelSize"])
        assert len(alive) == 1 and alive[0].data is data
        return gstrf(n, nnz, data, *args, **kwargs)

    monkeypatch.setattr(saddle._superlu, "gstrf", checked)
    gc.collect()
    integrator.run(manufactured_linear(), mesh, 0.01, 0.05,
                   integrator.bdf_scheme(2), start_mode="bootstrap")
    assert calls == [PANEL_SIZE, PANEL_SIZE]


def test_an_unforced_run_holds_only_M_and_A(monkeypatch):
    # M's bulk and surface parts are read by the loads alone, so a run
    # without a forcing builds neither: at each factorization the only real
    # sparse matrices of the mesh's shape alive are the stepper's M and A
    mesh = generate_disk_mesh(320, 1.0)
    shape = (mesh.node_count,) * 2
    gstrf, alive_at_calls = saddle._superlu.gstrf, []

    def checked(*args, **kwargs):
        alive_at_calls.append([o for o in gc.get_objects() if sp.issparse(o)
                               and o.shape == shape and not np.iscomplexobj(o.data)])
        return gstrf(*args, **kwargs)

    monkeypatch.setattr(saddle._superlu, "gstrf", checked)
    stepper = integrator.Stepper(evolution_problem(), mesh, 1e-5, integrator.bdf_scheme(2))
    assert stepper.M_bulk is None and stepper.M_surf is None
    gc.collect()
    for _ in stepper.stream(3, stepper.starts("bootstrap")):
        pass
    assert len(alive_at_calls) == 2  # the bootstrap's BDF1 matrix and the main one
    for alive in alive_at_calls:
        assert sorted(map(id, alive)) == sorted((id(stepper.M), id(stepper.A)))
