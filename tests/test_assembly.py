import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc.assembly import (
    assemble_bulk_mass,
    assemble_mass,
    assemble_stiffness,
    assemble_surface_mass,
    dump_matrix,
    load_vector,
    nodal_interpolate,
    nonlinearity_vector,
)
from chdbc.mesh import (
    Mesh2D,
    boundary_length,
    bulk_area,
    generate_disk_mesh,
    import_mesh,
    validate_mesh,
)

TRI_NO_BOUNDARY = """\
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


@pytest.fixture(scope="module")
def tri():
    return import_mesh(TRI_NO_BOUNDARY)


@pytest.fixture(scope="module")
def square():
    return import_mesh(UNIT_SQUARE)


# ---------------------------------------------------------------------------
# independent brute-force assembler (edge-midpoint quadrature, exact for the
# quadratic mass integrands; per-element linear solves for the gradients)

def reference_mass(mesh):
    n = mesh.node_count
    M = np.zeros((n, n))
    for t in mesh.triangles:
        p = mesh.nodes[t]
        area = 0.5 * abs(np.linalg.det(np.column_stack([p[1] - p[0], p[2] - p[0]])))
        mids = [(p[0] + p[1]) / 2, (p[1] + p[2]) / 2, (p[2] + p[0]) / 2]
        for a in range(3):
            for b in range(3):
                val = 0.0
                for q in mids:
                    val += _hat(p, a, q) * _hat(p, b, q)
                M[t[a], t[b]] += area / 3.0 * val
    for e in mesh.boundary_edges:
        p0, p1 = mesh.nodes[e[0]], mesh.nodes[e[1]]
        length = float(np.hypot(*(p1 - p0)))
        # Simpson on the segment, exact for the quadratic products
        for a in range(2):
            for b in range(2):
                f = lambda s: (1 - s if a == 0 else s) * (1 - s if b == 0 else s)
                M[e[a], e[b]] += length * (f(0) + 4 * f(0.5) + f(1)) / 6.0
    return M


def reference_stiffness(mesh):
    n = mesh.node_count
    A = np.zeros((n, n))
    for t in mesh.triangles:
        p = mesh.nodes[t]
        area = 0.5 * abs(np.linalg.det(np.column_stack([p[1] - p[0], p[2] - p[0]])))
        V = np.column_stack([np.ones(3), p])
        coeff = np.linalg.solve(V, np.eye(3))  # rows: 1, x, y coefficients
        grads = coeff[1:, :]
        A[np.ix_(t, t)] += area * grads.T @ grads
    for e in mesh.boundary_edges:
        p0, p1 = mesh.nodes[e[0]], mesh.nodes[e[1]]
        length = float(np.hypot(*(p1 - p0)))
        dphi = np.array([-1.0, 1.0]) / length
        A[np.ix_(e, e)] += length * np.outer(dphi, dphi)
    return A


def _hat(p, a, q):
    V = np.column_stack([np.ones(3), p])
    coeff = np.linalg.solve(V, np.eye(3))[:, a]
    return coeff[0] + coeff[1] * q[0] + coeff[2] * q[1]


# ---------------------------------------------------------------------------


def test_single_triangle_bulk_mass(tri):
    M = assemble_bulk_mass(tri).toarray()
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_boundary_edge_adds_segment_mass():
    one_edge = TRI_NO_BOUNDARY  # all three edges are boundary here
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


def test_partition_of_unity_mass_sum():
    for target, radius in ((20, 1.0), (160, 10.0)):
        mesh = generate_disk_mesh(target, radius)
        M = assemble_mass(mesh)
        ones = np.ones(mesh.node_count)
        total = float(ones @ (M @ ones))
        assert total == pytest.approx(bulk_area(mesh) + boundary_length(mesh),
                                      rel=1e-12)


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
    assert total == pytest.approx(bulk_area(moved) + boundary_length(moved),
                                  rel=1e-12)


def test_square_matches_reference_assembler(square):
    M = assemble_mass(square).toarray()
    A = assemble_stiffness(square).toarray()
    np.testing.assert_allclose(M, reference_mass(square), atol=1e-12)
    np.testing.assert_allclose(A, reference_stiffness(square), atol=1e-12)
    # frozen dense references, hand-checked
    M_ref = np.array([
        [5 / 6, 5 / 24, 1 / 12, 5 / 24],
        [5 / 24, 3 / 4, 5 / 24, 0.0],
        [1 / 12, 5 / 24, 5 / 6, 5 / 24],
        [5 / 24, 0.0, 5 / 24, 3 / 4],
    ])
    A_ref = np.array([
        [3.0, -1.5, 0.0, -1.5],
        [-1.5, 3.0, -1.5, 0.0],
        [0.0, -1.5, 3.0, -1.5],
        [-1.5, 0.0, -1.5, 3.0],
    ])
    np.testing.assert_allclose(M, M_ref, atol=1e-12)
    np.testing.assert_allclose(A, A_ref, atol=1e-12)


def test_disk_mesh_matches_reference_assembler():
    mesh = generate_disk_mesh(20, 1.0)
    np.testing.assert_allclose(assemble_mass(mesh).toarray(),
                               reference_mass(mesh), atol=1e-12)
    np.testing.assert_allclose(assemble_stiffness(mesh).toarray(),
                               reference_stiffness(mesh), atol=1e-12)


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


def test_matvec_agrees_with_dense():
    mesh = generate_disk_mesh(40, 1.0)
    M = assemble_mass(mesh)
    dense = M.toarray()
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(mesh.node_count)
        np.testing.assert_allclose(M @ v, dense @ v, rtol=1e-13, atol=1e-15)


def test_assembly_is_reproducible():
    mesh = generate_disk_mesh(80, 1.0)
    a = assemble_mass(mesh)
    b = assemble_mass(mesh)
    assert (a != b).nnz == 0
    assert np.array_equal(a.data, b.data)


def test_nodal_interpolate_examples(tri):
    vals = nodal_interpolate(lambda x, y, t: x + y, tri, 0.0)
    np.testing.assert_allclose(vals, [0.0, 1.0, 1.0], atol=1e-15)
    ones = nodal_interpolate(lambda x, y, t: 1.0 + 0 * x, tri, 2.0)
    np.testing.assert_allclose(ones, 1.0)
    sq = import_mesh(UNIT_SQUARE.replace("1.0 1.0", "0.5 0.5"))
    v = nodal_interpolate(lambda x, y, t: np.exp(-t) * x * y, sq, 0.0)
    assert v[2] == pytest.approx(0.25, rel=1e-15)


def test_nodal_interpolate_reports_bad_node(tri):
    def f(x, y, t):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - 1.0)

    with pytest.raises(ValueError, match="node 1"):
        nodal_interpolate(f, tri, 0.0)


def test_nodal_interpolate_accepts_scalar_only_fields(tri):
    import math

    vals = nodal_interpolate(lambda x, y, t: math.exp(-t) * (x + y), tri, 0.0)
    np.testing.assert_allclose(vals, [0.0, 1.0, 1.0], atol=1e-15)


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


def test_load_vector_dimension_mismatch(tri):
    M = assemble_bulk_mass(tri)
    with pytest.raises(ValueError, match="match"):
        load_vector(M, np.zeros(5))


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


def test_nonlinearity_vector_reports_bad_node(tri):
    with pytest.raises(ValueError, match="node 2"):
        nonlinearity_vector(assemble_bulk_mass(tri),
                            lambda u: np.where(u > 1.5, np.nan, u),
                            np.array([0.0, 1.0, 2.0]))


def test_dump_matrix_sorted_coordinate_format(tri):
    M = assemble_bulk_mass(tri)
    lines = dump_matrix(M).strip().splitlines()
    assert lines[0].split() == ["0", "0", repr(1 / 12)]
    keys = [tuple(map(int, ln.split()[:2])) for ln in lines]
    assert keys == sorted(keys)
    assert dump_matrix(M) == dump_matrix(assemble_bulk_mass(tri))
