"""Triangulated disk meshes.

Generates quasi-uniform triangulations of a disk whose boundary vertices sit
exactly on the circle, imports/exports them in a line-oriented text format,
and validates the structural invariants that the assembly routines rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Triangles flatter than this fraction of h^2 would poison the stiffness
# assembly with near-zero divisions.
DEGENERATE_AREA_FACTOR = 1e-14

# Boundary vertices must sit on the circle to this relative tolerance.
CIRCLE_TOL = 1e-12


class MeshFormatError(ValueError):
    """Raised for malformed mesh files; message carries the offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Mesh2D:
    """A triangulated planar domain with an explicit boundary polygon.

    Attributes
    ----------
    nodes : (n, 2) float array
        Vertex coordinates.
    triangles : (t, 3) int array
        Counterclockwise vertex index triples.
    boundary_edges : (b, 2) int array
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
        tris = np.array(self.triangles, dtype=np.int64, order="C")
        edges = np.array(self.boundary_edges, dtype=np.int64, order="C")
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


def _edge_lengths(mesh: Mesh2D) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    d = p - np.roll(p, -1, axis=1)
    return np.sqrt(np.einsum("tij,tij->ti", d, d)).ravel()


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
    return float(_edge_lengths(mesh).max())


def validate_mesh(mesh: Mesh2D) -> None:
    """Check all Mesh2D invariants, raising ValueError on the first failure.

    Checks index ranges, strictly positive (non-degenerate) triangle areas,
    the boundary/interior edge incidence counts, that the boundary edges
    form a single closed cycle, and (when a radius is present) that every
    boundary vertex lies on the circle.
    """
    n = mesh.node_count
    if n < 3:
        raise ValueError("mesh needs at least 3 nodes")
    if mesh.triangles.size == 0:
        raise ValueError("mesh has no triangles")
    if mesh.triangles.min() < 0 or mesh.triangles.max() >= n:
        raise ValueError("triangle node index out of range")
    if mesh.boundary_edges.size == 0:
        raise ValueError("mesh has no boundary edges")
    if mesh.boundary_edges.min() < 0 or mesh.boundary_edges.max() >= n:
        raise ValueError("boundary edge node index out of range")

    areas = signed_areas(mesh)
    h = mesh_size(mesh)
    if areas.min() <= DEGENERATE_AREA_FACTOR * h * h:
        t = int(np.argmin(areas))
        raise ValueError(
            f"triangle {t} is degenerate or negatively oriented "
            f"(signed area {areas[t]:.3e})"
        )

    # Undirected edge incidence: boundary edges belong to exactly one
    # triangle, interior edges to exactly two. An edge is keyed by its
    # sorted node pair, lo * n + hi.
    def edge_keys(pairs):
        pairs = np.sort(pairs, axis=1)
        return pairs[:, 0] * n + pairs[:, 1]

    tris = mesh.triangles
    keys, counts = np.unique(
        edge_keys(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])),
        return_counts=True)
    if counts.max() > 2:
        raise ValueError("an edge is shared by more than two triangles")
    declared = np.unique(edge_keys(mesh.boundary_edges))
    if len(declared) != len(mesh.boundary_edges):
        raise ValueError("duplicate boundary edge")
    if not np.array_equal(declared, keys[counts == 1]):
        raise ValueError(
            "boundary_edges do not match the triangulation's exposed edges"
        )

    # Single closed cycle: every boundary node has exactly one outgoing
    # edge, and following them visits all boundary nodes once.
    succ = {}
    for i, j in mesh.boundary_edges:
        if i in succ:
            raise ValueError(f"boundary node {i} has two outgoing edges")
        succ[int(i)] = int(j)
    start = int(mesh.boundary_edges[0, 0])
    seen = 0
    node = start
    while True:
        if node not in succ:
            raise ValueError(f"boundary cycle is open at node {node}")
        node = succ.pop(node)
        seen += 1
        if node == start:
            break
        if seen > len(mesh.boundary_edges):
            raise ValueError("boundary edges do not form a cycle")
    if succ:
        raise ValueError("boundary edges form more than one cycle")

    if mesh.radius is not None:
        r = np.sqrt(np.sum(mesh.nodes[np.unique(mesh.boundary_edges)] ** 2, axis=1))
        off = np.abs(r - mesh.radius)
        if off.max() > CIRCLE_TOL * mesh.radius:
            k = int(np.argmax(off))
            raise ValueError(
                f"boundary node off the circle by {off[k]:.3e} "
                f"(tolerance {CIRCLE_TOL * mesh.radius:.3e})"
            )


def generate_disk_mesh(target_nodes: int, radius: float = 1.0) -> Mesh2D:
    """Generate a quasi-uniform disk triangulation with ~target_nodes nodes.

    Concentric-ring construction: rings at radii j*R/m for j = 1..m, ring j
    carrying round(c*j) nodes with c calibrated so the total node count hits
    the target; a fan around the center and angle-merged triangle strips
    between consecutive rings. Boundary vertices are placed exactly on the
    circle of the given radius.

    Parameters
    ----------
    target_nodes : int
        Requested node count (>= 4). The result is within +/-15%.
    radius : float
        Disk radius (> 0).
    """
    if target_nodes < 4:
        raise ValueError(f"target_nodes must be >= 4, got {target_nodes}")
    if not (radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")

    m = max(1, round(math.sqrt((target_nodes - 1) / math.pi) - 0.5))
    c = 2.0 * (target_nodes - 1) / (m * (m + 1))
    counts = [max(3, round(c * j)) for j in range(1, m + 1)]

    nodes = [(0.0, 0.0)]
    rings = []
    for j, nj in enumerate(counts, start=1):
        r = radius * j / m
        first = len(nodes)
        for q in range(nj):
            a = 2.0 * math.pi * q / nj
            nodes.append((r * math.cos(a), r * math.sin(a)))
        rings.append(list(range(first, first + nj)))

    triangles = []
    inner_ring = rings[0]
    n0 = len(inner_ring)
    for q in range(n0):
        triangles.append((0, inner_ring[q], inner_ring[(q + 1) % n0]))

    for j in range(1, m):
        inner, outer = rings[j - 1], rings[j]
        ni, no = len(inner), len(outer)
        i = q = 0
        # Merge both rings by angle; each advance emits one CCW triangle.
        while i < ni or q < no:
            inner_next = 2.0 * math.pi * (i + 1) / ni
            outer_next = 2.0 * math.pi * (q + 1) / no
            if q < no and (i == ni or outer_next <= inner_next):
                triangles.append(
                    (inner[i % ni], outer[q % no], outer[(q + 1) % no])
                )
                q += 1
            else:
                triangles.append(
                    (inner[i % ni], outer[q % no], inner[(i + 1) % ni])
                )
                i += 1

    rim = rings[-1]
    edges = [(rim[q], rim[(q + 1) % len(rim)]) for q in range(len(rim))]

    mesh = Mesh2D(
        nodes=np.array(nodes, dtype=float),
        triangles=np.array(triangles, dtype=np.int64),
        boundary_edges=np.array(edges, dtype=np.int64),
        radius=float(radius),
    )
    validate_mesh(mesh)
    return mesh


def export_mesh(mesh: Mesh2D) -> str:
    """Serialize a mesh to the text format (exact float round trip)."""
    out = ["MESH v1"]
    if mesh.radius is not None:
        out.append(f"RADIUS {float(mesh.radius)!r}")
    out.append(f"NODES {mesh.node_count}")
    out += [f"{x!r} {y!r}" for x, y in mesh.nodes.tolist()]
    out.append(f"TRIANGLES {len(mesh.triangles)}")
    out += [f"{i} {j} {k}" for i, j, k in mesh.triangles.tolist()]
    out.append(f"BOUNDARY_EDGES {len(mesh.boundary_edges)}")
    out += [f"{i} {j}" for i, j in mesh.boundary_edges.tolist()]
    return "\n".join(out) + "\n"


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

    `rows` is a slice of the file's content lines, so it is never longer
    than the file. On a parse failure the rows are re-checked one at a time
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
    raise MeshFormatError(
        f"{keyword} section declares {count} rows but only {r} follow",
        header_ln)


def import_mesh(text: str) -> Mesh2D:
    """Parse the mesh text format and validate the result.

    Comments (`#` to the end of a line) and blank lines are ignored. Section
    keywords must match exactly, and numbers are ASCII decimals. Raises
    MeshFormatError with a line number for malformed headers, wrong counts,
    bad rows or indices, or any invariant violation of the parsed mesh.
    """
    lines = text.splitlines()
    content = [(ln, c) for ln, line in enumerate(lines, 1)
               if (c := line.partition("#")[0].strip())]
    end = (len(lines), "")  # stands for the missing line after the last

    first = content[0] if content else end
    if first[1] != "MESH v1":
        raise MeshFormatError("expected header 'MESH v1'", first[0])
    pos = 1
    radius = None
    if pos < len(content) and content[pos][1].split()[0] == "RADIUS":
        radius = _header_value(content[pos], "RADIUS", float)
        if not (radius > 0) or not math.isfinite(radius):
            raise MeshFormatError(
                f"RADIUS must be positive, got {radius!r}", content[pos][0])
        pos += 1

    sections = []
    for keyword, width, dtype in (("NODES", 2, float),
                                  ("TRIANGLES", 3, np.int64),
                                  ("BOUNDARY_EDGES", 2, np.int64)):
        header = content[pos] if pos < len(content) else end
        count = _header_value(header, keyword, int)
        if count < 0:
            raise MeshFormatError(f"negative {keyword} count", header[0])
        rows = content[pos + 1:pos + 1 + count]
        values = _section_rows(keyword, count, rows, width, dtype, header[0])
        if keyword == "NODES":
            n_nodes = len(values)
            bad = ~np.isfinite(values).all(axis=1)
        else:
            bad = ((values < 0) | (values >= n_nodes)).any(axis=1)
        if bad.any():
            r = int(np.argmax(bad))
            what = "non-finite value" if keyword == "NODES" else "index out of range"
            raise MeshFormatError(
                f"{what} in {keyword} row {r}: {rows[r][1]!r}", rows[r][0])
        sections.append((values, header[0]))
        pos += 1 + count

    if pos < len(content):
        raise MeshFormatError(
            f"unexpected trailing content {content[pos][1]!r}", content[pos][0])

    (nodes, _), (triangles, tri_ln), (edges, edge_ln) = sections
    mesh = Mesh2D(nodes=nodes, triangles=triangles,
                  boundary_edges=edges, radius=radius)
    try:
        validate_mesh(mesh)
    except ValueError as exc:
        # Structural defects are only detectable once everything is parsed;
        # point at the section most likely at fault.
        line = edge_ln if "boundary" in str(exc) else tri_ln
        raise MeshFormatError(str(exc), line) from exc
    return mesh


def bulk_area(mesh: Mesh2D) -> float:
    """Sum of triangle areas (the polygonal approximation of the disk)."""
    return float(signed_areas(mesh).sum())


def boundary_length(mesh: Mesh2D) -> float:
    """Perimeter of the boundary polygon."""
    return float(segment_lengths(mesh).sum())
