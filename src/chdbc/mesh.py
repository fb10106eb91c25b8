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


def _signed_areas(mesh: Mesh2D) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


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

    areas = _signed_areas(mesh)
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
    for x, y in mesh.nodes:
        out.append(f"{float(x)!r} {float(y)!r}")
    out.append(f"TRIANGLES {len(mesh.triangles)}")
    for i, j, k in mesh.triangles:
        out.append(f"{i} {j} {k}")
    out.append(f"BOUNDARY_EDGES {len(mesh.boundary_edges)}")
    for i, j in mesh.boundary_edges:
        out.append(f"{i} {j}")
    return "\n".join(out) + "\n"


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


_SECTION_KEYWORDS = ("MESH", "RADIUS", "NODES", "TRIANGLES", "BOUNDARY_EDGES")


def _looks_like_section(content: str) -> bool:
    return content.split()[0] in _SECTION_KEYWORDS


def import_mesh(text: str) -> Mesh2D:
    """Parse the mesh text format and validate the result.

    Raises MeshFormatError with a line number for malformed headers, wrong
    counts, bad indices, or any invariant violation of the parsed mesh.
    """
    lines = text.splitlines()
    pos = 0

    def next_content():
        nonlocal pos
        while pos < len(lines):
            content = _strip(lines[pos])
            pos += 1
            if content:
                return content, pos
        return None, pos

    content, ln = next_content()
    if content != "MESH v1":
        raise MeshFormatError("expected header 'MESH v1'", ln)

    radius = None
    content, ln = next_content()
    if content is not None and content.startswith("RADIUS"):
        parts = content.split()
        if len(parts) != 2:
            raise MeshFormatError("RADIUS expects one value", ln)
        try:
            radius = float(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad RADIUS value {parts[1]!r}", ln)
        if not (radius > 0) or not math.isfinite(radius):
            raise MeshFormatError(f"RADIUS must be positive, got {parts[1]}", ln)
        content, ln = next_content()

    def section(header, got, got_ln):
        if got is None or not got.startswith(header):
            raise MeshFormatError(f"expected {header} section", got_ln)
        parts = got.split()
        if len(parts) != 2:
            raise MeshFormatError(f"{header} expects a count", got_ln)
        try:
            cnt = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad {header} count {parts[1]!r}", got_ln)
        if cnt < 0:
            raise MeshFormatError(f"negative {header} count", got_ln)
        # checked before anything is sized from the count
        if cnt > len(lines) - pos:
            raise MeshFormatError(
                f"{header} section declares {cnt} rows but only "
                f"{len(lines) - pos} lines follow", got_ln)
        return cnt, got_ln

    n_nodes, header_ln = section("NODES", content, ln)
    nodes = np.empty((n_nodes, 2))
    for r in range(n_nodes):
        content, ln = next_content()
        if content is None or _looks_like_section(content):
            raise MeshFormatError(
                f"NODES section declares {n_nodes} nodes but only {r} "
                f"follow", header_ln)
        parts = content.split()
        if len(parts) != 2:
            raise MeshFormatError("node line needs 'x y'", ln)
        try:
            nodes[r] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError(f"bad node coordinates {content!r}", ln)
        if not np.isfinite(nodes[r]).all():
            raise MeshFormatError(f"non-finite node coordinates {content!r}", ln)

    def int_rows(header, width):
        content, ln0 = next_content()
        cnt, header_ln0 = section(header, content, ln0)
        rows = np.empty((cnt, width), dtype=np.int64)
        for r in range(cnt):
            content, ln1 = next_content()
            if content is None or _looks_like_section(content):
                raise MeshFormatError(
                    f"{header} section declares {cnt} rows but only {r} "
                    f"follow", header_ln0)
            parts = content.split()
            if len(parts) != width:
                raise MeshFormatError(
                    f"{header} line needs {width} indices", ln1)
            try:
                row = [int(p) for p in parts]
            except ValueError:
                raise MeshFormatError(f"bad index in {content!r}", ln1)
            # range-checked as Python ints, before they meet int64
            if min(row) < 0 or max(row) >= n_nodes:
                raise MeshFormatError(
                    f"index out of range in {header} row {r}", ln1)
            rows[r] = row
        return rows, header_ln0

    triangles, tri_ln = int_rows("TRIANGLES", 3)
    edges, edge_ln = int_rows("BOUNDARY_EDGES", 2)

    content, ln = next_content()
    if content is not None:
        raise MeshFormatError(f"unexpected trailing content {content!r}", ln)

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
    return float(_signed_areas(mesh).sum())


def boundary_length(mesh: Mesh2D) -> float:
    """Perimeter of the boundary polygon."""
    d = mesh.nodes[mesh.boundary_edges[:, 1]] - mesh.nodes[mesh.boundary_edges[:, 0]]
    return float(np.sqrt((d * d).sum(axis=1)).sum())
