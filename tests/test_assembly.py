import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc.assembly import (
    assemble_bulk_mass,
    assemble_mass,
    assemble_stiffness,
    assemble_surface_mass,
    load_vector,
    nodal_interpolate,
    nonlinearity_vector,
)
from chdbc.mesh import (
    Mesh2D,
    disjoint_union,
    generate_disk_mesh,
    import_mesh,
    segment_lengths,
    signed_areas,
    validate_mesh,
)
from oracles import (UNIT_SQUARE, UNIT_TRIANGLE, brute_force_mass,
                     brute_force_stiffness)


@pytest.fixture(scope="module")
def tri():
    return import_mesh(UNIT_TRIANGLE)


def test_single_triangle_bulk_mass(tri):
    M = assemble_bulk_mass(tri).toarray()
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_boundary_edge_adds_segment_mass():
    one_edge = UNIT_TRIANGLE  # all three edges are boundary here
    mesh = import_mesh(one_edge)
    Ms = assemble_surface_mass(mesh).toarray()
    # contribution of edge (0, 1), length 1, in rows/cols {0, 1}
    seg = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    hyp = np.sqrt(2.0)
    expected = np.zeros((3, 3))
    expected[np.ix_([0, 1], [0, 1])] += seg
    expected[np.ix_([1, 2], [1, 2])] += hyp * seg
    expected[np.ix_([2, 0], [2, 0])] += seg
    np.testing.assert_allclose(Ms, expected, atol=1e-15)


def test_single_triangle_stiffness(tri):
    from chdbc.assembly import assemble_bulk_stiffness

    A = assemble_bulk_stiffness(tri).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(A, expected, atol=1e-15)


def test_surface_stiffness_is_difference_quotient(tri):
    from chdbc.assembly import assemble_surface_stiffness

    As = assemble_surface_stiffness(tri).toarray()
    seg = np.array([[1.0, -1.0], [-1.0, 1.0]])
    hyp = np.sqrt(2.0)
    expected = np.zeros((3, 3))
    expected[np.ix_([0, 1], [0, 1])] += seg
    expected[np.ix_([1, 2], [1, 2])] += seg / hyp
    expected[np.ix_([2, 0], [2, 0])] += seg
    np.testing.assert_allclose(As, expected, atol=1e-15)


def test_stiffness_annihilates_constants():
    for target in (20, 80):
        mesh = generate_disk_mesh(target, 1.0)
        A = assemble_stiffness(mesh)
        ones = np.ones(mesh.node_count)
        assert np.abs(A @ ones).max() <= 1e-13


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([5, 20, 80, 320]), st.sampled_from([1.0, 10.0]),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.7))
def test_perturbed_disk_keeps_the_constant_identities(target, radius, seed, amount):
    # Interior nodes move by less than half the smallest triangle altitude,
    # so every triangle stays counterclockwise, and the boundary polygon,
    # hence the total area and perimeter, stays fixed.
    mesh = generate_disk_mesh(target, radius)
    p = mesh.nodes[mesh.triangles]
    sides = np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    twice_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    step = amount * (twice_area / sides.max(axis=1)).min()  # 0.7 * 0.71 < 0.5
    interior = np.setdiff1d(np.arange(mesh.node_count), mesh.boundary_edges)
    nodes = mesh.nodes.copy()
    # each coordinate by at most step/2, each node by at most 0.71 * step
    nodes[interior] += 0.5 * step * np.random.default_rng(seed).uniform(
        -1.0, 1.0, (len(interior), 2))
    moved = Mesh2D(nodes=nodes, triangles=mesh.triangles,
                   boundary_edges=mesh.boundary_edges, radius=radius)
    validate_mesh(moved)

    i, j = mesh.boundary_edges.T
    x, y = nodes[:, 0], nodes[:, 1]
    polygon_area = 0.5 * float(np.sum(x[i] * y[j] - x[j] * y[i]))
    perimeter = float(np.hypot(x[j] - x[i], y[j] - y[i]).sum())
    M, A = assemble_mass(moved), assemble_stiffness(moved)
    ones = np.ones(moved.node_count)
    assert np.abs(A @ ones).max() <= 1e-12 * abs(A).max()
    total = float(ones @ (M @ ones))
    assert total == pytest.approx(polygon_area + perimeter, rel=1e-12)
    assert total == pytest.approx(
        signed_areas(moved).sum() + segment_lengths(moved).sum(), rel=1e-12)


def test_disk_mesh_matches_reference_assembler():
    mesh = generate_disk_mesh(20, 1.0)
    np.testing.assert_allclose(assemble_mass(mesh).toarray(),
                               brute_force_mass(mesh), atol=1e-12)
    np.testing.assert_allclose(assemble_stiffness(mesh).toarray(),
                               brute_force_stiffness(mesh), atol=1e-12)


def test_matrices_are_symmetric():
    mesh = generate_disk_mesh(80, 1.0)
    for mat in (assemble_mass(mesh), assemble_stiffness(mesh)):
        dense = mat.toarray()
        scale = np.abs(dense).max()
        assert np.abs(dense - dense.T).max() <= 1e-12 * scale


def test_mass_is_positive_definite():
    mesh = generate_disk_mesh(80, 1.0)
    M = assemble_mass(mesh).toarray()
    assert np.linalg.eigvalsh(M).min() > 0


def test_stiffness_kernel_is_constants():
    mesh = generate_disk_mesh(80, 1.0)
    A = assemble_stiffness(mesh).toarray()
    w = np.linalg.eigvalsh(A)
    assert w.min() > -1e-12
    assert (w < 1e-10).sum() == 1  # exactly span{1}


def test_assembly_is_reproducible():
    mesh = generate_disk_mesh(80, 1.0)
    a = assemble_mass(mesh)
    b = assemble_mass(mesh)
    assert (a != b).nnz == 0
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("refinements", [(1, 2, 3, 4, 5), (1, 3, 6)])
@pytest.mark.parametrize("assemble", [assemble_mass, assemble_stiffness])
def test_a_part_of_a_disjoint_union_assembles_the_unions_diagonal_block(
        refinements, assemble):
    # `convergence` measures each part's error with the part's own M and A,
    # so its table matches a run on the part alone only while these agree
    meshes = [generate_disk_mesh(2 ** i * 10, 1.0) for i in refinements]
    whole = assemble(disjoint_union(meshes))
    first = 0
    for m in meshes:
        part = slice(first, first + m.node_count)
        block, alone = whole[part, part], assemble(m)
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, field), getattr(alone, field))
        first += m.node_count


def test_nodal_interpolate_examples(tri):
    vals = nodal_interpolate(lambda x, y, t: x + y, tri, 0.0)
    np.testing.assert_allclose(vals, [0.0, 1.0, 1.0], atol=1e-15)
    ones = nodal_interpolate(lambda x, y, t: 1.0 + 0 * x, tri, 2.0)
    np.testing.assert_allclose(ones, 1.0)
    sq = import_mesh(UNIT_SQUARE.replace("1.0 1.0", "0.5 0.5"))
    v = nodal_interpolate(lambda x, y, t: np.exp(-t) * x * y, sq, 0.0)
    assert v[2] == pytest.approx(0.25, rel=1e-15)


def test_nodal_interpolate_calls_every_field_on_the_node_time_grid(tri):
    # one calling rule: a scalar t is the grid's one column
    shapes = []

    def f(x, y, t):
        shapes.append((x.shape, y.shape, t.shape))
        return np.exp(-t) * (x + y)

    np.testing.assert_allclose(nodal_interpolate(f, tri, 0.0), [0.0, 1.0, 1.0], atol=1e-15)
    assert nodal_interpolate(f, tri, np.array([0.0, 1.0])).shape == (3, 2)
    assert shapes == [((3, 1), (3, 1), (1, 1)), ((3, 1), (3, 1), (1, 2))]


def test_a_field_that_breaks_the_array_contract_is_refused_from_numpys_error(tri):
    # a field written for scalars, and one whose imaginary part a cast
    # would drop: the cause is NumPy's TypeError
    with pytest.raises(ValueError, match="called on node arrays") as info:
        nodal_interpolate(lambda x, y, t: float(x), tri, 0.0)
    assert type(info.value.__cause__) is TypeError
    with pytest.raises(ValueError, match="must return real values") as info:
        nodal_interpolate(lambda x, y, t: 1j * x, tri, 0.0)
    assert type(info.value.__cause__) is TypeError


def test_nodal_interpolate_on_a_time_grid_matches_each_time_bitwise():
    mesh = generate_disk_mesh(80, 1.0)
    f = lambda x, y, t: -5.0 * np.exp(-t) * x * y - (np.exp(-t) * x * y) ** 3
    times = np.arange(7) * 0.0025
    grid = nodal_interpolate(f, mesh, times)
    assert grid.shape == (mesh.node_count, 7)
    for col, t in enumerate(times.tolist()):
        assert grid[:, col].tobytes() == nodal_interpolate(f, mesh, t).tobytes()


def test_time_grid_results_broadcast(tri):
    times = np.array([0.0, 1.0, 2.0, 3.0])
    # a constant, and an (N, 1) column from a field that ignores t
    np.testing.assert_array_equal(nodal_interpolate(lambda x, y, t: 2.0, tri, times),
                                  np.full((3, 4), 2.0))
    np.testing.assert_array_equal(nodal_interpolate(lambda x, y, t: x, tri, times),
                                  np.repeat([[0.0], [1.0], [0.0]], 4, axis=1))
    with pytest.raises(ValueError):
        nodal_interpolate(lambda x, y, t: np.zeros((3, 2)), tri, times)
    M = assemble_bulk_mass(tri)
    block = load_vector(M, nodal_interpolate(lambda x, y, t: x + t, tri, times))
    for col, t in enumerate(times.tolist()):
        np.testing.assert_array_equal(block[:, col],
                                      load_vector(M, np.array([t, 1.0 + t, t])))
    with pytest.raises(ValueError, match="match"):
        load_vector(M, np.zeros((5, 2)))


def test_field_results_broadcast_to_a_writable_node_vector(tri):
    vals = nodal_interpolate(lambda x, y, t: 2.0, tri, 0.0)
    np.testing.assert_array_equal(vals, [2.0, 2.0, 2.0])
    # a field returning the read-only node coordinates still gives a copy
    xs = nodal_interpolate(lambda x, y, t: x, tri, 0.0)
    assert vals.flags.writeable and xs.flags.writeable
    with pytest.raises(ValueError):
        nodal_interpolate(lambda x, y, t: np.zeros(2), tri, 0.0)
    M = assemble_bulk_mass(tri)
    np.testing.assert_allclose(nonlinearity_vector(M, lambda u: 1.0, np.zeros(3)),
                               load_vector(M, np.ones(3)), atol=1e-16)
    with pytest.raises(ValueError):
        nonlinearity_vector(M, lambda u: np.zeros((3, 1)), np.zeros(3))


def test_load_vector_examples(tri):
    M = assemble_bulk_mass(tri)
    np.testing.assert_array_equal(load_vector(M, np.zeros(3)), np.zeros(3))
    np.testing.assert_allclose(load_vector(M, np.ones(3)),
                               [1 / 6, 1 / 6, 1 / 6], atol=1e-15)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        np.testing.assert_allclose(load_vector(M, e), M.toarray()[:, i],
                                   atol=1e-16)


def test_load_vector_linearity_sum():
    mesh = generate_disk_mesh(40, 1.0)
    M = assemble_mass(mesh)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(mesh.node_count)
    lhs = float(np.sum(load_vector(M, f)))
    row_sums = np.asarray(M.sum(axis=0)).ravel()
    assert lhs == pytest.approx(float(f @ row_sums), rel=1e-12)


def test_nonlinearity_vector_examples(tri):
    M = assemble_bulk_mass(tri)
    F = lambda u: u ** 3 - u
    np.testing.assert_allclose(nonlinearity_vector(M, F, np.ones(3)), 0.0,
                               atol=1e-16)
    out = nonlinearity_vector(M, F, 2.0 * np.ones(3))
    np.testing.assert_allclose(out, [1.0, 1.0, 1.0], rtol=1e-14)
    v = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(nonlinearity_vector(M, lambda u: u, v),
                               load_vector(M, v), atol=1e-16)
