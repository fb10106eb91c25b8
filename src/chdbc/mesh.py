"""Triangulated disk meshes.

Generates quasi-uniform triangulations of a disk whose boundary vertices sit
exactly on the circle, imports/exports them in a line-oriented text format,
and validates the structural invariants that the assembly routines rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

# Triangles flatter than this fraction of h^2 would poison the stiffness
# assembly with near-zero divisions.
DEGENERATE_AREA_FACTOR = 1e-14

# Boundary vertices must sit on the circle to this relative tolerance.
CIRCLE_TOL = 1e-12


class MeshFormatError(ValueError):
    """Raised for malformed mesh files; message carries the offending line."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class MeshInvariantError(ValueError):
    """Raised by validate_mesh, naming the section at fault (RADIUS, NODES,
    TRIANGLES or BOUNDARY_EDGES) and the row at fault, or None if no single row is."""

    def __init__(self, message: str, section: str, row: Optional[int] = None):
        self.section, self.row = section, row
        super().__init__(message)


@dataclass(frozen=True)
class Mesh2D:
    """A triangulated planar domain with an explicit boundary polygon.

    Attributes
    ----------
    nodes : (n, 2) float array
        Vertex coordinates.
    triangles : (t, 3) int32 array
        Counterclockwise vertex index triples.
    boundary_edges : (b, 2) int32 array
        Ordered index pairs tracing the closed boundary polygon.
    radius : float or None
        Disk radius when the mesh discretizes a disk; None for ad-hoc
        meshes (the circle invariant is then waived).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    radius: Optional[float] = None

    def __post_init__(self):
        # own private copies so freezing them cannot alias caller arrays
        nodes = np.array(self.nodes, dtype=float, order="C")
        tris = _int32_rows(self.triangles, "triangles")
        edges = _int32_rows(self.boundary_edges, "boundary_edges")
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must be an (n, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("triangles must be a (t, 3) array")
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("boundary_edges must be a (b, 2) array")
        for a in (nodes, tris, edges):
            a.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "boundary_edges", edges)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


def _int32_rows(rows, name: str) -> np.ndarray:
    """A private C-ordered int32 copy of `rows`, refusing a value that is not
    a finite integer, which NumPy's cast would truncate, and an index that
    int32 cannot hold, which it would wrap. Integral floats such as 2.0 pass.

    No mesh the solver can factorize nears 2^31 nodes, and the connectivity
    is alive while the step matrix is factorized, at the peak of a run.
    """
    rows = np.asarray(rows)
    if rows.dtype.kind == "f":
        not_integer = ~np.isfinite(rows) | (rows != np.trunc(rows))
        if not_integer.any():
            raise ValueError(f"{name} hold the value {rows[not_integer][0]}, "
                             "which is not a node index")
    int32 = np.iinfo(np.int32)
    wide = (rows < int32.min) | (rows > int32.max)
    if wide.any():
        raise ValueError(f"{name} hold the index {rows[wide][0]}, which int32 cannot hold")
    return np.array(rows, dtype=np.int32, order="C")


def signed_areas(mesh: Mesh2D) -> np.ndarray:
    """Triangle areas, positive for counterclockwise vertex order."""
    p = mesh.nodes[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def segment_lengths(mesh: Mesh2D) -> np.ndarray:
    """Lengths of the boundary edges."""
    d = mesh.nodes[mesh.boundary_edges[:, 1]] - mesh.nodes[mesh.boundary_edges[:, 0]]
    return np.sqrt((d * d).sum(axis=1))


def mesh_size(mesh: Mesh2D) -> float:
    """Maximum edge length over all triangle edges (the mesh width h)."""
    p = mesh.nodes[mesh.triangles]
    d = p - np.roll(p, -1, axis=1)
    return float(np.sqrt(np.einsum("tij,tij->ti", d, d)).max())


def disjoint_union(meshes: Sequence[Mesh2D]) -> Mesh2D:
    """One mesh holding every given mesh as a part no triangle joins to another.

    Part p's nodes follow each other from index sum(node counts of parts
    0..p-1) on, and its triangles and boundary edges are offset by that
    index. The union is no disk, so its radius is None.
    """
    starts = np.cumsum([0] + [m.node_count for m in meshes[:-1]])
    return Mesh2D(
        nodes=np.vstack([m.nodes for m in meshes]),
        triangles=np.vstack([m.triangles + a for m, a in zip(meshes, starts)]),
        boundary_edges=np.vstack([m.boundary_edges + a for m, a in zip(meshes, starts)]))


def validate_mesh(mesh: Mesh2D) -> None:
    """Check all Mesh2D invariants, raising MeshInvariantError on the first failure.

    Checks finite coordinates and a positive finite radius first (later
    checks pass NaN), then index ranges, finite and strictly positive
    (non-degenerate) triangle areas, the boundary/interior edge incidence
    counts, that the boundary edges form a single closed cycle, and (when a
    radius is present) that every boundary vertex lies on the circle.
    """
    if not np.isfinite(mesh.nodes).all():
        k = int(np.argmin(np.isfinite(mesh.nodes).all(axis=1)))
        raise MeshInvariantError(f"node {k} has a non-finite coordinate "
                                 f"{tuple(mesh.nodes[k].tolist())}", "NODES", k)
    if mesh.radius is not None and not math.isfinite(mesh.radius):
        raise MeshInvariantError(f"radius must be finite, got {mesh.radius!r}", "RADIUS")
    if mesh.radius is not None and mesh.radius <= 0:
        raise MeshInvariantError(f"radius must be positive, got {mesh.radius!r}", "RADIUS")
    n = mesh.node_count
    if n < 3:
        raise MeshInvariantError("mesh needs at least 3 nodes", "NODES")
    for what, section, rows in (("triangle", "TRIANGLES", mesh.triangles),
                                ("boundary edge", "BOUNDARY_EDGES", mesh.boundary_edges)):
        if rows.size == 0:
            raise MeshInvariantError(f"mesh has no {what}s", section)
        if rows.min() < 0 or rows.max() >= n:
            r = int(np.argmax(((rows < 0) | (rows >= n)).any(axis=1)))
            raise MeshInvariantError(
                f"{what} {r} has a node index out of range: {rows[r].tolist()}", section, r)

    # products of coordinates past about 1.3e154 overflow: such an area is
    # refused by name, and a NaN fails the comparison below
    with np.errstate(over="ignore", invalid="ignore"):
        areas = signed_areas(mesh)
        h = mesh_size(mesh)
    if not np.isfinite(areas).all():
        t = int(np.argmin(np.isfinite(areas)))
        raise MeshInvariantError(
            f"signed area of triangle {t} overflows a double (got {areas[t]})", "TRIANGLES", t)
    if not areas.min() > DEGENERATE_AREA_FACTOR * h * h:
        t = int(np.argmin(areas))
        raise MeshInvariantError(
            f"triangle {t} is degenerate or negatively oriented "
            f"(signed area {areas[t]:.3e})", "TRIANGLES", t)

    # Undirected edge incidence: boundary edges belong to exactly one
    # triangle, interior edges to exactly two. An edge is keyed by its
    # sorted node pair, lo * n + hi, in int64: in int32, lo * n overflows
    # from 46 341 nodes on.
    def edge_keys(pairs):
        pairs = np.sort(pairs, axis=1)
        return pairs[:, 0].astype(np.int64) * n + pairs[:, 1]

    tris = mesh.triangles
    keys, counts = np.unique(
        edge_keys(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])),
        return_counts=True)
    if counts.max() > 2:
        raise MeshInvariantError("an edge is shared by more than two triangles", "TRIANGLES")
    declared = np.unique(edge_keys(mesh.boundary_edges))
    if len(declared) != len(mesh.boundary_edges):
        raise MeshInvariantError("duplicate boundary edge", "BOUNDARY_EDGES")
    if not np.array_equal(declared, keys[counts == 1]):
        raise MeshInvariantError(
            "boundary_edges do not match the triangulation's exposed edges", "BOUNDARY_EDGES")

    # Single closed cycle. The triangles at a node form fans, and each open
    # fan has two exposed rim edges, so the exposed edges at a node come in
    # pairs. Once no node has two outgoing edges, each has one incoming edge
    # too: the walk from a node returns to it, and must pass every edge.
    succ = {}
    for e, (i, j) in enumerate(mesh.boundary_edges.tolist()):
        if i in succ:
            raise MeshInvariantError(
                f"boundary node {i} has two outgoing edges", "BOUNDARY_EDGES", e)
        succ[i] = j
    start = int(mesh.boundary_edges[0, 0])
    node, length = succ[start], 1
    while node != start:
        node, length = succ[node], length + 1
    if length < len(succ):
        raise MeshInvariantError("boundary edges form more than one cycle", "BOUNDARY_EDGES")

    if mesh.radius is not None:
        rim = np.unique(mesh.boundary_edges)
        off = np.abs(np.hypot(*mesh.nodes[rim].T) - mesh.radius)
        if off.max() > CIRCLE_TOL * mesh.radius:
            k = int(rim[np.argmax(off)])
            raise MeshInvariantError(
                f"boundary node {k} is off the circle by {off.max():.3e} "
                f"(tolerance {CIRCLE_TOL * mesh.radius:.3e})", "NODES", k)


def generate_disk_mesh(target_nodes: int, radius: float = 1.0) -> Mesh2D:
    """Generate a quasi-uniform disk triangulation with ~target_nodes nodes.

    Concentric-ring construction: around the centre (ring 0), rings at radii
    j*R/m for j = 1..m, ring j carrying n_j = round(c*j) nodes at angles
    2*pi*q/n_j with c calibrated so the node count hits the target; boundary
    vertices sit exactly on the circle. Strip j joins rings j and j+1 (strip
    0 is the fan). Every node advances its ring past 2*pi*(q+1)/n_j in the
    strips on both sides of it. These angles increase along each ring, so
    sorting all advances by (strip, angle, outer before inner) merges the
    two rings of each strip. An advance emits the CCW triangle of the
    current inner and outer nodes, known from how many advances of each
    ring came before, and the next node of its ring.

    Parameters
    ----------
    target_nodes : int
        Requested node count (>= 4). The result is within +/-15%.
    radius : float
        Disk radius (positive and finite).
    """
    if target_nodes < 4:
        raise ValueError(f"target_nodes must be >= 4, got {target_nodes}")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")

    m = max(1, round(math.sqrt((target_nodes - 1) / math.pi) - 0.5))
    c = 2.0 * (target_nodes - 1) / (m * (m + 1))
    sizes = np.r_[1, np.maximum(3, np.rint(c * np.arange(1, m + 1)))].astype(np.int64)
    first = np.cumsum(sizes) - sizes  # the index of each ring's node q = 0
    n = int(first[-1] + sizes[-1])

    ring = np.repeat(np.arange(1, m + 1), sizes[1:])
    q = np.arange(1, n) - first[ring]
    a = 2.0 * math.pi * q / sizes[ring]
    # near the largest double, radius * j overflows on the outer rings;
    # validate_mesh then refuses the non-finite node, and no warning is printed
    with np.errstate(over="ignore", invalid="ignore"):
        r = radius * ring / m
        nodes = np.vstack([[0.0, 0.0], np.column_stack([r * np.cos(a), r * np.sin(a)])])

    # Outer advances of every node, then inner advances of all but the rim.
    inner = ring < m
    strip = np.r_[ring - 1, ring[inner]]
    angle = 2.0 * math.pi * (q + 1) / sizes[ring]
    is_inner = np.arange(len(strip)) >= n - 1
    order = np.lexsort((is_inner, np.r_[angle, angle[inner]], strip))
    strip, is_inner = strip[order], is_inner[order]
    # In this order the k-th advance of either kind is node k + 1's, so the
    # current node of each ring is done + 1, wrapped onto the ring.
    inner_done = np.cumsum(is_inner) - is_inner
    outer_done = np.arange(len(order)) - inner_done

    def on_ring(j, k):  # node k wrapped onto ring j
        return first[j] + (k - first[j]) % sizes[j]

    triangles = np.column_stack([
        on_ring(strip, inner_done + 1), on_ring(strip + 1, outer_done + 1),
        np.where(is_inner, on_ring(strip, inner_done + 2),
                 on_ring(strip + 1, outer_done + 2))])
    rim = np.arange(first[m], n)
    mesh = Mesh2D(nodes=nodes, triangles=triangles,
                  boundary_edges=np.column_stack([rim, np.roll(rim, -1)]),
                  radius=float(radius))
    validate_mesh(mesh)
    return mesh


def render_rows(rows: np.ndarray, sep: str) -> str:
    """An (r, c) array as r lines of c values joined by `sep`.

    Each value is written as its str: the shortest round-trip repr of a
    float, the decimal of an int, and a string as itself. The values are
    taken as Python scalars with `.tolist()`, so an object array holding
    mixed rows keeps each value's own type, and all rows are formatted in
    one pass.
    """
    r, c = rows.shape
    return ((sep.join(["%s"] * c) + "\n") * r) % tuple(rows.ravel().tolist())


def export_mesh(mesh: Mesh2D) -> str:
    """Serialize a mesh to the text format (exact float round trip)."""
    radius = "" if mesh.radius is None else f"RADIUS {float(mesh.radius)!r}\n"
    return "".join([
        f"MESH v1\n{radius}NODES {mesh.node_count}\n",
        render_rows(mesh.nodes, " "),
        f"TRIANGLES {len(mesh.triangles)}\n",
        render_rows(mesh.triangles, " "),
        f"BOUNDARY_EDGES {len(mesh.boundary_edges)}\n",
        render_rows(mesh.boundary_edges, " ")])


_SECTION_KEYWORDS = ("MESH", "RADIUS", "NODES", "TRIANGLES", "BOUNDARY_EDGES")


def _header_value(entry, keyword: str, parse):
    """The value of a `KEYWORD value` line, parsed from ASCII by `parse`."""
    ln, content = entry
    parts = content.split()
    if parts[:1] != [keyword]:
        raise MeshFormatError(f"expected {keyword} section", ln)
    if len(parts) != 2:
        raise MeshFormatError(f"{keyword} expects one value", ln)
    try:
        if parts[1].isascii() and "_" not in parts[1]:
            return parse(parts[1])
    except ValueError:
        pass
    raise MeshFormatError(f"bad {keyword} value {parts[1]!r}", ln)


def _section_rows(keyword: str, count: int, rows, width: int, dtype,
                  header_ln: int) -> np.ndarray:
    """Parse the `count` (line, content) rows of a section in one loadtxt call.

    `rows` holds the content lines that follow the header, at most `count`
    of them. On a parse failure the rows are re-checked one at a time
    to name the offending line.
    """
    if count == 0:
        return np.empty((0, width), dtype=dtype)
    if len(rows) == count:
        try:
            values = np.loadtxt([c for _, c in rows], dtype=dtype, ndmin=2)
            if values.shape[1] == width:
                return values
        except ValueError:
            pass
    for r, (ln, content) in enumerate(rows):
        parts = content.split()
        if parts[0] in _SECTION_KEYWORDS:
            break
        if len(parts) != width:
            raise MeshFormatError(f"{keyword} line needs {width} values", ln)
        try:
            np.loadtxt([content], dtype=dtype)
        except ValueError:
            raise MeshFormatError(f"bad {keyword} line {content!r}", ln) from None
    else:
        r = len(rows)
    raise MeshFormatError(f"{keyword} section declares {count} rows but only {r} follow",
                          header_ln)


def _content_lines(lines):
    """The (line number, content) of each line that holds more than a comment."""
    return ((ln, c) for ln, line in enumerate(lines, 1)
            if (c := line.partition("#")[0].strip()))


def _line_of(text: str, section: str, row: Optional[int]) -> int:
    """The line of `row` of `section` in a well-formed text, or of its header."""
    content = _content_lines(text.splitlines())
    ln = next(ln for ln, c in content if c.split()[0] == section)
    return ln if row is None else next(islice(content, row, None))[0]


def import_mesh(text: str) -> Mesh2D:
    """Parse the mesh text format and validate the result.

    Comments (`#` to the end of a line) and blank lines are ignored. Section
    keywords must match exactly, and numbers are ASCII decimals. Raises
    MeshFormatError with a line number for malformed headers, wrong counts,
    bad rows, or any invariant violation of the parsed mesh: the line of the
    row at fault, or of its section's header when no single row is.
    """
    lines = text.splitlines()
    end = (max(1, len(lines)), "")  # the missing line after the last
    content = _content_lines(lines)

    first = next(content, end)
    if first[1] != "MESH v1":
        raise MeshFormatError("expected header 'MESH v1'", first[0])
    header = next(content, end)
    radius = None
    if header[1].split()[:1] == ["RADIUS"]:
        radius = _header_value(header, "RADIUS", float)
        header = next(content, end)

    sections = []
    # an index int32 cannot hold fails to parse: a bad row, named by its line
    for keyword, width, dtype in (("NODES", 2, float),
                                  ("TRIANGLES", 3, np.int32),
                                  ("BOUNDARY_EDGES", 2, np.int32)):
        count = _header_value(header, keyword, int)
        if count < 0:
            raise MeshFormatError(f"negative {keyword} count", header[0])
        # islice rejects a stop past sys.maxsize; no section outgrows the file
        rows = list(islice(content, min(count, len(lines))))
        sections.append(_section_rows(keyword, count, rows, width, dtype, header[0]))
        header = next(content, end)

    if header is not end:
        raise MeshFormatError(f"unexpected trailing content {header[1]!r}", header[0])
    del lines, content, rows

    mesh = Mesh2D(*sections, radius=radius)
    try:
        validate_mesh(mesh)
    except MeshInvariantError as exc:
        raise MeshFormatError(str(exc), _line_of(text, exc.section, exc.row)) from exc
    return mesh
