import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chdbc.mesh import (
    Mesh2D,
    MeshFormatError,
    boundary_length,
    bulk_area,
    export_mesh,
    generate_disk_mesh,
    import_mesh,
    mesh_size,
    validate_mesh,
)

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


def test_five_node_mesh_is_the_minimal_ring():
    m = generate_disk_mesh(5, 1.0)
    assert m.node_count == 5
    assert len(m.triangles) == 4
    assert len(m.boundary_edges) == 4
    np.testing.assert_allclose(m.nodes[0], [0.0, 0.0])
    # boundary nodes at angles 0, pi/2, pi, 3pi/2
    angles = np.arctan2(m.nodes[1:, 1], m.nodes[1:, 0]) % (2 * np.pi)
    np.testing.assert_allclose(sorted(angles), [0, np.pi / 2, np.pi, 3 * np.pi / 2],
                               atol=1e-15)
    np.testing.assert_allclose(np.hypot(m.nodes[1:, 0], m.nodes[1:, 1]), 1.0,
                               rtol=1e-15)


def test_generated_mesh_counts_and_invariants():
    m = generate_disk_mesh(20, 1.0)
    assert 17 <= m.node_count <= 23
    validate_mesh(m)


@pytest.mark.parametrize("target,radius", [
    (20, 1.0), (40, 1.0), (80, 1.0), (160, 1.0), (320, 1.0),
    (640, 10.0),   # the evolution experiment mesh
    (1280, 1.0), (2560, 1.0),
])
def test_node_counts_within_15_percent(target, radius):
    m = generate_disk_mesh(target, radius)
    assert abs(m.node_count - target) <= 0.15 * target
    validate_mesh(m)


@pytest.mark.parametrize("target", [4, 7, 11, 15, 33, 57, 101, 333, 1001])
def test_odd_targets_stay_quasi_uniform(target):
    m = generate_disk_mesh(target, 1.0)
    assert abs(m.node_count - target) <= 0.15 * target
    p = m.nodes[m.triangles]
    d = p - np.roll(p, -1, axis=1)
    lengths = np.sqrt(np.einsum("tij,tij->ti", d, d))
    assert lengths.max() / lengths.min() <= 3.0
    validate_mesh(m)


def test_boundary_nodes_exactly_on_circle():
    for radius in (1.0, 10.0):
        m = generate_disk_mesh(160, radius)
        bidx = sorted(set(m.boundary_edges.ravel()))
        r = np.hypot(m.nodes[bidx, 0], m.nodes[bidx, 1])
        assert np.abs(r - radius).max() <= 1e-12 * radius


def test_rejects_tiny_targets():
    with pytest.raises(ValueError):
        generate_disk_mesh(3, 1.0)
    with pytest.raises(ValueError):
        generate_disk_mesh(20, -1.0)


def test_mesh_size_single_triangle():
    m = import_mesh(UNIT_TRIANGLE)
    assert mesh_size(m) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_mesh_size_five_node_disk():
    # ring chord equals the boundary chord: sqrt(2)
    m = generate_disk_mesh(5, 1.0)
    assert mesh_size(m) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_mesh_size_roughly_halves_on_4x_refinement():
    for target in (20, 40, 80):
        h_coarse = mesh_size(generate_disk_mesh(target, 1.0))
        h_fine = mesh_size(generate_disk_mesh(4 * target, 1.0))
        assert 0.4 <= h_fine / h_coarse <= 0.6


def test_area_and_perimeter_bounds():
    for target, radius in ((20, 1.0), (80, 1.0), (320, 1.0), (640, 10.0)):
        m = generate_disk_mesh(target, radius)
        h = mesh_size(m)
        area = bulk_area(m)
        disk = math.pi * radius * radius
        assert disk * (1 - (h / radius) ** 2) <= area <= disk
        assert boundary_length(m) < 2 * math.pi * radius


def test_export_import_round_trip():
    for target, radius in ((5, 1.0), (20, 1.0), (160, 10.0)):
        m = generate_disk_mesh(target, radius)
        again = import_mesh(export_mesh(m))
        np.testing.assert_array_equal(again.nodes, m.nodes)
        np.testing.assert_array_equal(again.triangles, m.triangles)
        np.testing.assert_array_equal(again.boundary_edges, m.boundary_edges)
        assert again.radius == m.radius
        validate_mesh(again)


def test_import_minimal_triangle_without_radius():
    # circle invariant is waived when no RADIUS line is present
    m = import_mesh(UNIT_TRIANGLE)
    assert m.radius is None
    assert m.node_count == 3
    validate_mesh(m)


def test_import_error_names_nodes_section():
    bad = "MESH v1\nNODES 3\n0 0\n1 0\nTRIANGLES 1\n0 1 2\n"
    with pytest.raises(MeshFormatError, match="NODES"):
        import_mesh(bad)


def test_import_error_carries_line_numbers():
    with pytest.raises(MeshFormatError, match="line 1"):
        import_mesh("MESHv1\n")
    bad_index = UNIT_TRIANGLE.replace("0 1 2", "0 1 7")
    with pytest.raises(MeshFormatError, match="out of range"):
        import_mesh(bad_index)
    bad_coord = UNIT_TRIANGLE.replace("1.0 0.0", "1.0 zero")
    with pytest.raises(MeshFormatError, match="line 4"):
        import_mesh(bad_coord)


def test_import_rejects_open_boundary_cycle():
    open_cycle = """\
MESH v1
NODES 3
0.0 0.0
1.0 0.0
0.0 1.0
TRIANGLES 1
0 1 2
BOUNDARY_EDGES 3
0 1
2 1
2 0
"""
    with pytest.raises(MeshFormatError):
        import_mesh(open_cycle)


def test_import_rejects_zero_area_triangle():
    degenerate = UNIT_TRIANGLE.replace("0.0 1.0", "2.0 0.0")
    with pytest.raises(MeshFormatError, match="degenerate"):
        import_mesh(degenerate)


def test_import_tolerates_comments_and_blanks():
    text = "# a disk\n" + UNIT_TRIANGLE.replace("TRIANGLES", "\n# body\nTRIANGLES")
    m = import_mesh(text)
    assert m.node_count == 3


# A valid 20-node export for the import fuzz below.
FUZZ_LINES = export_mesh(generate_disk_mesh(20, 1.0)).splitlines()

_FUZZ_TOKENS = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "x", "#", "MESH", "v1", "RADIUS", "NODES",
                     "TRIANGLES", "BOUNDARY_EDGES"]),
)


def _fuzz_text(header, offset, line):
    """FUZZ_LINES with the line `offset` below `header`'s line replaced."""
    lines = list(FUZZ_LINES)
    i = next(k for k, ln in enumerate(lines) if ln.startswith(header)) + offset
    lines[i] = line
    return "\n".join(lines) + "\n"


@st.composite
def _mutated_exports(draw):
    lines = list(FUZZ_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["token", "delete", "duplicate", "insert"]))
        if op == "token":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(_FUZZ_TOKENS)
            lines[i] = " ".join(parts)
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, " ".join(draw(st.lists(_FUZZ_TOKENS, max_size=3))))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(_fuzz_text("NODES", 0, "NODES 99999999999999999999"))
@example(_fuzz_text("TRIANGLES", 1, "99999999999999999999 1 2"))
@given(_mutated_exports())
def test_import_of_a_mutated_file_raises_only_mesh_format_errors(text):
    try:
        import_mesh(text)
    except MeshFormatError as exc:
        assert exc.line is not None


@pytest.mark.parametrize("keyword, misspelt", [
    ("RADIUS", "RADIUSX"), ("NODES", "NODESQ"), ("TRIANGLES", "TRIANGLES_"),
    ("BOUNDARY_EDGES", "BOUNDARY_EDGESZ"),
])
def test_import_rejects_a_misspelt_section_keyword(keyword, misspelt):
    lines = list(FUZZ_LINES)
    i = next(k for k, ln in enumerate(lines) if ln.split()[0] == keyword)
    lines[i] = lines[i].replace(keyword, misspelt, 1)
    with pytest.raises(MeshFormatError) as exc:
        import_mesh("\n".join(lines) + "\n")
    assert exc.value.line == i + 1


def test_validate_catches_mismatched_boundary():
    m = import_mesh(UNIT_TRIANGLE)
    broken = Mesh2D(nodes=m.nodes, triangles=m.triangles,
                    boundary_edges=np.array([[0, 1], [1, 2]]))
    with pytest.raises(ValueError):
        validate_mesh(broken)


def test_validate_catches_off_circle_boundary():
    m = generate_disk_mesh(20, 1.0)
    nodes = m.nodes.copy()
    bnode = int(m.boundary_edges[0, 0])
    nodes[bnode] *= 1.0 + 1e-6
    broken = Mesh2D(nodes=nodes, triangles=m.triangles,
                    boundary_edges=m.boundary_edges, radius=1.0)
    with pytest.raises(ValueError, match="circle"):
        validate_mesh(broken)


def test_triangles_are_counterclockwise():
    m = generate_disk_mesh(80, 1.0)
    p = m.nodes[m.triangles]
    areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert (areas > 0).all()


def _disk_variant(triangles=None, boundary_edges=None):
    m = generate_disk_mesh(80, 1.0)
    return Mesh2D(nodes=m.nodes,
                  triangles=m.triangles if triangles is None else triangles,
                  boundary_edges=(m.boundary_edges if boundary_edges is None
                                  else boundary_edges),
                  radius=1.0)


@pytest.mark.parametrize("case, message", [
    ("triangle twice", "shared by more than two triangles"),
    ("boundary edge twice", "duplicate boundary edge"),
    ("both twice", "shared by more than two triangles"),
    ("boundary edge missing", "do not match the triangulation's exposed edges"),
    ("interior edge declared", "do not match the triangulation's exposed edges"),
])
def test_validate_edge_incidence_errors_in_check_order(case, message):
    m = generate_disk_mesh(80, 1.0)
    tris, edges = m.triangles, m.boundary_edges
    twice_tri = np.vstack([tris, tris[:1]])
    twice_edge = np.vstack([edges, edges[:1]])
    broken = {
        "triangle twice": _disk_variant(triangles=twice_tri),
        "boundary edge twice": _disk_variant(boundary_edges=twice_edge),
        "both twice": _disk_variant(triangles=twice_tri, boundary_edges=twice_edge),
        "boundary edge missing": _disk_variant(boundary_edges=edges[1:]),
        # edge 0-1 of the first fan triangle is interior
        "interior edge declared": _disk_variant(
            boundary_edges=np.vstack([edges[1:], tris[:1, :2]])),
    }[case]
    validate_mesh(m)
    with pytest.raises(ValueError, match=message):
        validate_mesh(broken)
