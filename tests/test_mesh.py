import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chdbc.mesh import (
    Mesh2D,
    MeshFormatError,
    disjoint_union,
    export_mesh,
    generate_disk_mesh,
    import_mesh,
    mesh_size,
    segment_lengths,
    signed_areas,
    validate_mesh,
)
from oracles import UNIT_TRIANGLE


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


@pytest.mark.parametrize("target,radius", [
    (20, 1.0), (40, 1.0), (80, 1.0), (160, 1.0), (320, 1.0),
    (640, 10.0),   # the evolution experiment mesh
    (1280, 1.0), (2560, 1.0),
    (2000, 1.5e154),  # its squared radius overflows a double, its areas do not
])
def test_node_counts_within_15_percent(target, radius):
    m = generate_disk_mesh(target, radius)
    assert abs(m.node_count - target) <= 0.15 * target


def test_a_disk_past_32_bit_edge_keys_validates_and_holds_int32():
    # lo * n overflows int32 from 46 341 nodes on, and at 163 840 nodes
    # int32 edge keys collide: the keys are formed in int64
    m = generate_disk_mesh(163840, 10.0)
    validate_mesh(m)
    assert m.node_count > 46341
    assert m.triangles.dtype == m.boundary_edges.dtype == np.int32


def test_every_built_mesh_holds_int32_connectivity():
    disk = generate_disk_mesh(20, 1.0)
    for m in (disk, import_mesh(export_mesh(disk)), disjoint_union([disk, disk]),
              Mesh2D(disk.nodes, disk.triangles.tolist(),
                     disk.boundary_edges.astype(np.int64))):
        assert m.triangles.dtype == m.boundary_edges.dtype == np.int32
        assert m.triangles.flags.c_contiguous and not m.triangles.flags.writeable


@pytest.mark.parametrize("target", [4, 7, 11, 15, 33, 57, 101, 333, 1001])
def test_odd_targets_stay_quasi_uniform(target):
    m = generate_disk_mesh(target, 1.0)
    assert abs(m.node_count - target) <= 0.15 * target
    p = m.nodes[m.triangles]
    d = p - np.roll(p, -1, axis=1)
    lengths = np.sqrt(np.einsum("tij,tij->ti", d, d))
    assert lengths.max() / lengths.min() <= 3.0


def test_boundary_nodes_exactly_on_circle():
    for radius in (1.0, 10.0):
        m = generate_disk_mesh(160, radius)
        bidx = sorted(set(m.boundary_edges.ravel()))
        r = np.hypot(m.nodes[bidx, 0], m.nodes[bidx, 1])
        assert np.abs(r - radius).max() <= 1e-12 * radius


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
        area = signed_areas(m).sum()
        disk = math.pi * radius * radius
        assert disk * (1 - (h / radius) ** 2) <= area <= disk
        assert segment_lengths(m).sum() < 2 * math.pi * radius


def test_export_import_round_trip():
    for target, radius in ((5, 1.0), (20, 1.0), (160, 10.0)):
        m = generate_disk_mesh(target, radius)
        again = import_mesh(export_mesh(m))
        np.testing.assert_array_equal(again.nodes, m.nodes)
        np.testing.assert_array_equal(again.triangles, m.triangles)
        np.testing.assert_array_equal(again.boundary_edges, m.boundary_edges)
        assert again.radius == m.radius


def test_import_holds_one_section_of_lines_at_a_time():
    # the file's lines plus one section's rows and arrays read about 7.8x
    # the text; a (line number, content) pair kept for every line reads 14x
    text = export_mesh(generate_disk_mesh(10240, 10.0))
    tracemalloc.start()
    try:
        import_mesh(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text)


def test_import_minimal_triangle_without_radius():
    # import_mesh validates: the circle invariant is waived without a RADIUS line
    m = import_mesh(UNIT_TRIANGLE)
    assert m.radius is None
    assert m.node_count == 3


def test_validate_accepts_a_thin_triangle_above_the_degenerate_area():
    # area 5e-13 h^2 lies between the threshold, 1e-14 h^2, and 1e-10 h^2
    thin = Mesh2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]]), [[0, 1, 2]],
                  [[0, 1], [1, 2], [2, 0]])
    h = mesh_size(thin)
    assert 1e-14 * h * h < signed_areas(thin)[0] < 1e-10 * h * h
    validate_mesh(thin)


def test_import_tolerates_comments_and_blanks():
    text = "# a disk\n" + UNIT_TRIANGLE.replace("TRIANGLES", "\n# body\nTRIANGLES")
    m = import_mesh(text)
    assert m.node_count == 3


# A valid 20-node export for the import tests below.
DISK_20 = export_mesh(generate_disk_mesh(20, 1.0))
FUZZ_LINES = DISK_20.splitlines()

# Every malformed file as (text, line, message); the error reads
# "line {line}: {message}". A refusal of validate_mesh names the line of the
# row at fault, or its section's header line when no single row is.
MALFORMED = [
    ("", 1, "expected header 'MESH v1'"),
    ("MESH v1\nNODES 3\n0 0\n1 0\nTRIANGLES 1\n0 1 2\n", 2,
     "NODES section declares 3 rows but only 2 follow"),
    ("MESHv1\n", 1, "expected header 'MESH v1'"),
    (UNIT_TRIANGLE.replace("0 1 2", "0 1 7"), 7,
     "triangle 0 has a node index out of range: [0, 1, 7]"),
    # connectivity is int32: a wider index is a bad row, never wrapped to node 2
    (UNIT_TRIANGLE.replace("0 1 2", "0 1 4294967298"), 7,
     "bad TRIANGLES line '0 1 4294967298'"),
    (UNIT_TRIANGLE.replace("\n2 0\n", "\n2 3\n"), 11,
     "boundary edge 2 has a node index out of range: [2, 3]"),
    (UNIT_TRIANGLE.replace("1.0 0.0", "1.0 zero"), 4, "bad NODES line '1.0 zero'"),
    # an open boundary cycle: edge 2 is node 2's second outgoing edge
    (UNIT_TRIANGLE.replace("\n1 2\n", "\n2 1\n"), 11,
     "boundary node 2 has two outgoing edges"),
    (UNIT_TRIANGLE.replace("0.0 1.0", "2.0 0.0"), 7,
     "triangle 0 is degenerate or negatively oriented (signed area 0.000e+00)"),
    # misspelt section keywords
    (DISK_20.replace("RADIUS", "RADIUSX", 1), 2, "expected NODES section"),
    (DISK_20.replace("NODES", "NODESQ", 1), 3, "expected NODES section"),
    (DISK_20.replace("TRIANGLES", "TRIANGLES_", 1), 24, "expected TRIANGLES section"),
    (DISK_20.replace("BOUNDARY_EDGES", "BOUNDARY_EDGESZ", 1), 50,
     "expected BOUNDARY_EDGES section"),
    *((DISK_20.replace("RADIUS 1.0", f"RADIUS {value}", 1), 2, message)
      for value, message in (("inf", "radius must be finite, got inf"),
                             ("nan", "radius must be finite, got nan"),
                             ("0", "radius must be positive, got 0.0"),
                             ("-2.0", "radius must be positive, got -2.0"))),
    (UNIT_TRIANGLE.replace("NODES 3", "NODES 3 4"), 2, "NODES expects one value"),
    (UNIT_TRIANGLE.replace("NODES 3", "NODES -1"), 2, "negative NODES count"),
    (UNIT_TRIANGLE.replace("NODES 3", "NODES 1_0"), 2, "bad NODES value '1_0'"),
    (DISK_20.replace("RADIUS 1.0", "RADIUS one", 1), 2, "bad RADIUS value 'one'"),
    # an empty section parses; the mesh it leaves is refused
    (UNIT_TRIANGLE.replace("TRIANGLES 1\n0 1 2\n", "TRIANGLES 0\n"), 6,
     "mesh has no triangles"),
    ("MESH v1\nNODES 2\n0 0\n1 0\nTRIANGLES 1\n0 1 1\nBOUNDARY_EDGES 2\n0 1\n1 0\n", 2,
     "mesh needs at least 3 nodes"),
    # DISK_20's node 19 on line 23, triangle 5 on line 30 and boundary edge
    # 0, 7 -> 8, on line 51; reversed, node 8 starts edges 0 and 1
    (DISK_20.replace("0.88545602565321 -0.4647231720437684", "0.88545602565321 nan"), 23,
     "node 19 has a non-finite coordinate (0.88545602565321, nan)"),
    (DISK_20.replace("\n0 6 1\n", "\n0 6 6\n"), 30,
     "triangle 5 is degenerate or negatively oriented (signed area 0.000e+00)"),
    (DISK_20.replace("\n7 8\n", "\n8 7\n"), 52, "boundary node 8 has two outgoing edges"),
    (DISK_20.replace("0.88545602565321 -", "0.88545702565321 -"), 23,
     "boundary node 19 is off the circle by 8.855e-07 (tolerance 1.000e-12)"),
]


@pytest.mark.parametrize("text, line, message", MALFORMED,
                         ids=[f"line {line}: {message}" if text else "an empty text"
                              for text, line, message in MALFORMED])
def test_import_names_the_line_of_a_malformed_file(text, line, message):
    with pytest.raises(MeshFormatError) as exc:
        import_mesh(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"

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
        assert 1 <= exc.line <= max(1, len(text.splitlines()))


def test_triangles_are_counterclockwise():
    m = generate_disk_mesh(80, 1.0)
    p = m.nodes[m.triangles]
    areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert (areas > 0).all()


@st.composite
def _reoriented_boundaries(draw):
    """A small disk or two, with boundary edges reversed at will and shuffled.

    Every such edge list passes the exposed-edge match, so only the boundary
    walk can reject it. Returns the mesh and the message it must raise (None
    when it must pass): two outgoing edges unless each disk's boundary keeps
    one orientation, then more than one cycle for two disks.
    """
    disks = [generate_disk_mesh(n, 1.0) for n in
             draw(st.sampled_from([[5], [20], [5, 5], [5, 20]]))]
    union = disks[0] if len(disks) == 1 else disjoint_union(disks)
    edges = union.boundary_edges.copy()
    flips = np.array(draw(st.lists(st.booleans(), min_size=len(edges),
                                   max_size=len(edges))))
    edges[flips] = edges[flips, ::-1]
    edges = edges[draw(st.permutations(range(len(edges))))]
    parts = np.split(flips, np.cumsum([len(d.boundary_edges) for d in disks])[:-1])
    if not all(p.all() or not p.any() for p in parts):
        message = "two outgoing edges"
    else:
        message = "more than one cycle" if len(disks) > 1 else None
    mesh = Mesh2D(nodes=union.nodes, triangles=union.triangles,
                  boundary_edges=edges, radius=union.radius)
    return mesh, message


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_reoriented_boundaries())
def test_boundary_walk_raises_only_its_two_messages(case):
    # a KeyError or a hang would mean the walk met a node without a successor
    mesh, message = case
    if message is None:
        validate_mesh(mesh)
    else:
        with pytest.raises(ValueError, match=message):
            validate_mesh(mesh)


def _reference_connectivity(target_nodes):
    """Triangles and boundary edges of the ring mesher, merged one advance
    at a time: the plain loop form of the vectorized construction."""
    m = max(1, round(math.sqrt((target_nodes - 1) / math.pi) - 0.5))
    c = 2.0 * (target_nodes - 1) / (m * (m + 1))
    counts = [max(3, round(c * j)) for j in range(1, m + 1)]
    rings, first = [], 1
    for nj in counts:
        rings.append(list(range(first, first + nj)))
        first += nj
    inner_ring = rings[0]
    n0 = len(inner_ring)
    triangles = [(0, inner_ring[q], inner_ring[(q + 1) % n0]) for q in range(n0)]
    for j in range(1, m):
        inner, outer = rings[j - 1], rings[j]
        ni, no = len(inner), len(outer)
        i = q = 0
        while i < ni or q < no:
            inner_next = 2.0 * math.pi * (i + 1) / ni
            outer_next = 2.0 * math.pi * (q + 1) / no
            if q < no and (i == ni or outer_next <= inner_next):
                triangles.append((inner[i % ni], outer[q % no], outer[(q + 1) % no]))
                q += 1
            else:
                triangles.append((inner[i % ni], outer[q % no], inner[(i + 1) % ni]))
                i += 1
    rim = rings[-1]
    edges = [(rim[q], rim[(q + 1) % len(rim)]) for q in range(len(rim))]
    return rings, np.array(triangles), np.array(edges)


@pytest.mark.parametrize("radius", [1.0, 10.0])
def test_mesher_matches_the_reference_merge(radius):
    for target in [*range(4, 401), 2560, 10240]:
        m = generate_disk_mesh(target, radius)
        rings, triangles, edges = _reference_connectivity(target)
        np.testing.assert_array_equal(m.triangles, triangles, err_msg=str(target))
        np.testing.assert_array_equal(m.boundary_edges, edges, err_msg=str(target))
        # node q of ring j sits at radius*j/m and angle 2*pi*q/n_j; libm
        # results may differ in the last bits between platforms
        expected = [(0.0, 0.0)]
        for j, ring in enumerate(rings, start=1):
            r = radius * j / len(rings)
            for q in range(len(ring)):
                a = 2.0 * math.pi * q / len(ring)
                expected.append((r * math.cos(a), r * math.sin(a)))
        np.testing.assert_allclose(m.nodes, expected, rtol=0,
                                   atol=4 * np.finfo(float).eps * radius)
