"""Every refusal of the library as one row: an id, a call, its error and message.

Each row's zero-argument call raises exactly the error type, with exactly
the message. A message that embeds NumPy's or SciPy's own text is a
compiled pattern that must match all of it. The CLI's refusals are the rows
of `test_cli.REFUSALS`, and a malformed mesh file's those of
`test_mesh.MALFORMED`.
"""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from chdbc.analysis import eoc, final_error, h1_norm, l2_norm
from chdbc.assembly import (assemble_bulk_mass, load_vector, nodal_interpolate,
                            nonlinearity_vector)
from chdbc.integrator import Stepper, bdf_scheme, bdf_step, run
from chdbc.mesh import (Mesh2D, MeshInvariantError, disjoint_union, generate_disk_mesh,
                        import_mesh, validate_mesh)
from chdbc.problems import ProblemSpec, evolution_problem, manufactured_linear
from chdbc.saddle import build_step_matrix, load_superlu
from oracles import UNIT_TRIANGLE, disk_step_matrix, scalar_step_matrix

TESTS = Path(__file__).resolve().parent
TRI = import_mesh(UNIT_TRIANGLE)  # nodes (0, 0), (1, 0), (0, 1)
DISK_20 = generate_disk_mesh(20, 1.0)
DISK_80 = generate_disk_mesh(80, 1.0)
NEGATIVE = sp.csr_matrix(np.array([[-1.0]]))
TRIANGLE_TWICE = np.vstack([DISK_80.triangles, DISK_80.triangles[:1]])
EDGE_TWICE = np.vstack([DISK_80.boundary_edges, DISK_80.boundary_edges[:1]])


def with_node(mesh, i, value):
    """The mesh with node i moved to `value`."""
    nodes = mesh.nodes.copy()
    nodes[i] = value
    return replace(mesh, nodes=nodes)


def with_arrays(triangles=DISK_80.triangles, edges=DISK_80.boundary_edges):
    """The 80-node disk with its triangles or boundary edges replaced."""
    return replace(DISK_80, triangles=triangles, boundary_edges=edges)


def inf_at_x_1(x, y, t):
    with np.errstate(divide="ignore"):
        return 1.0 / (x - 1.0)


def nan_at_node_2_then_1(x, y, t):
    # node 2 at t = 0.25 comes before node 1 at t = 0.5
    return np.where(((x == 1.0) & (t == 0.5)) | ((y == 1.0) & (t == 0.25)), np.nan, x + t)


def nan_at_node_7_from_t_0_05(x, y, t):
    return np.where((t > 0.045) & (np.arange(len(x))[:, None] == 7), np.nan, 0.0 * x * t)


class NaNSolve:
    """A step matrix whose solve has blown up."""

    delta0_over_tau = 1.0

    def solve(self, b):
        return np.full_like(b, np.nan)


def bdf3_first_level(n_steps, n_starts):
    """Level 0 of a BDF3 stream on the 20-node disk, from n_starts starts:
    the exact ones, repeated from the first when more than 3 are asked for.
    `stream` refuses its arguments before it yields that level."""
    stepper = Stepper(manufactured_linear(), DISK_20, 0.01, bdf_scheme(3))
    starts = list(stepper.starts("exact"))
    return next(stepper.stream(n_steps, (starts * 2)[:n_starts]))


def disk_20_step_matrix(A=None, ratio=1.0):
    """The 20-node disk's step matrix, with another A or delta0/tau if given."""
    M20, A20, K20 = disk_step_matrix(DISK_20, 1.0)
    return build_step_matrix(M20, A20 if A is None else A, ratio, K20._order)


# (id, call, error type, message or pattern)
LIBRARY_REFUSALS = [
    # analysis
    ("l2_norm-negative-form", lambda: l2_norm(NEGATIVE, np.ones(1)), ValueError,
     "quadratic form is negative (-1.0)"),
    ("h1_norm-negative-form", lambda: h1_norm(NEGATIVE, NEGATIVE, np.ones(1)), ValueError,
     "quadratic form is negative (-2.0)"),
    ("l2_norm-wrong-length", lambda: l2_norm(NEGATIVE, np.ones(2)), ValueError,
     "vector length (2,) does not match 1"),
    ("h1_norm-wrong-length", lambda: h1_norm(NEGATIVE, NEGATIVE, np.ones(2)), ValueError,
     "vector length (2,) does not match 1"),
    ("eoc-empty", lambda: eoc([], []), ValueError,
     "need equally long, non-empty error/h lists"),
    ("eoc-hs-not-decreasing", lambda: eoc([0.1, 0.2], [0.1, 0.2]), ValueError,
     "hs must be strictly decreasing"),
    ("eoc-negative-error", lambda: eoc([0.1, -0.2], [0.2, 0.1]), ValueError,
     "errors must be nonnegative and hs positive"),
    ("final_error-no-exact-solution",
     lambda: final_error(evolution_problem(), DISK_20, 0.0, np.zeros(DISK_20.node_count),
                         np.zeros(DISK_20.node_count)),
     ValueError, "final_error needs a problem with exact solutions"),
    # assembly
    ("nodal_interpolate-inf", lambda: nodal_interpolate(inf_at_x_1, TRI, 0.0), ValueError,
     "field returned inf at node 1, t = 0.0"),
    ("nodal_interpolate-grid-nan",
     lambda: nodal_interpolate(nan_at_node_2_then_1, TRI, np.array([0.0, 0.25, 0.5])),
     ValueError, "field returned nan at node 2, t = 0.25"),
    ("nodal_interpolate-grid-inf",
     lambda: nodal_interpolate(lambda x, y, t: np.where((x == 1.0) & (t == 0.5), np.inf, y),
                               TRI, np.array([0.0, 0.5])),
     ValueError, "field returned inf at node 1, t = 0.5"),
    ("load_vector-wrong-length", lambda: load_vector(assemble_bulk_mass(TRI), np.zeros(5)),
     ValueError, "vector length (5,) does not match matrix dimension 3"),
    ("nonlinearity_vector-nan",
     lambda: nonlinearity_vector(assemble_bulk_mass(TRI),
                                 lambda u: np.where(u > 1.5, np.nan, u),
                                 np.array([0.0, 1.0, 2.0])),
     ValueError, "nonlinearity returned nan at node 2"),
    # integrator
    *((f"bdf_scheme({k})", lambda k=k: bdf_scheme(k), ValueError,
       f"BDF order k must be an integer in [1, 5], got {k}") for k in (0, 6, 7, -1, 9)),
    ("bdf_step-short-history",
     lambda: bdf_step(ProblemSpec(), bdf_scheme(2), scalar_step_matrix(1.0, 1.0, 1.0),
                      sp.csr_matrix(np.eye(1)), [np.zeros(1)], np.zeros(1), np.zeros(1)),
     ValueError, "history must hold exactly 2 vectors, got 1"),
    ("bdf_step-non-finite-solution",
     lambda: bdf_step(ProblemSpec(), bdf_scheme(1), NaNSolve(), sp.csr_matrix(np.eye(2)),
                      [np.zeros(2)], np.zeros(2), np.zeros(2)),
     ValueError, "non-finite solution; the extrapolated scheme is likely outside its "
     "stability region"),
    ("run-exact-mode-no-exact-solution",
     lambda: run(evolution_problem(), DISK_20, 0.01, 0.02, bdf_scheme(2), "exact"),
     ValueError, "start mode 'exact' needs exact solutions"),
    ("run-unknown-start-mode",
     lambda: run(manufactured_linear(), DISK_20, 0.01, 0.02, bdf_scheme(2), "midpoint"),
     ValueError, "start mode must be 'exact' or 'bootstrap', got 'midpoint'"),
    ("run-tau-does-not-divide",
     lambda: run(manufactured_linear(), DISK_20, 0.3, 1.0, bdf_scheme(1), "exact"),
     ValueError, "tau=0.3 does not divide the time 1.0"),
    # tau divides T, but BDF3 needs two steps to hold its starting values
    ("run-span-too-short",
     lambda: run(manufactured_linear(), DISK_20, 0.5, 0.5, bdf_scheme(3), "exact"),
     ValueError, "tau=0.5 gives 1 step(s) over the time span 0.5, but BDF3 needs at least 2"),
    # the extrapolated k = 3 scheme far outside its stability region: the
    # energy of step 7 overflows while u is still finite
    ("run-blowup",
     lambda: run(evolution_problem(seed=1), generate_disk_mesh(160, 1.0), 0.01, 1.0,
                 bdf_scheme(3), "bootstrap"),
     RuntimeError, "aborted at step 7 (t = 0.07): the energy is inf"),
    # k = 3, tau = 0.1: 5 BDF1 substeps of 0.02 toward each start; the one
    # toward step 2 (t = 0.2) diverges at its second substep, t = 0.14
    ("run-bootstrap-blowup",
     lambda: run(evolution_problem(strength=1000.0), generate_disk_mesh(40, 10.0), 0.1, 1.0,
                 bdf_scheme(3), "bootstrap"),
     RuntimeError, "aborted at step 2, BDF1 substep 2 of 5 (t = 0.14): nonlinearity "
     "returned inf at node 0"),
    ("run-non-finite-forcing",
     lambda: run(ProblemSpec(f2_surf=nan_at_node_7_from_t_0_05), generate_disk_mesh(40, 1.0),
                 0.01, 0.1, bdf_scheme(1), "bootstrap"),
     ValueError, "field returned nan at node 7, t = 0.05"),
    *((f"stream-{n_steps}-steps-of-bdf3", lambda n_steps=n_steps: bdf3_first_level(n_steps, 3),
       ValueError, f"n_steps={n_steps} is fewer than the k - 1 = 2 steps the starting "
       "values of BDF3 fill") for n_steps in (0, 1)),
    ("stream-too-few-starts", lambda: bdf3_first_level(2, 2), ValueError,
     "the starting values fill 2 level(s), but BDF3 needs 3"),
    ("stream-too-many-starts", lambda: bdf3_first_level(2, 4), ValueError,
     "the starting values fill 4 level(s), but BDF3 needs 3"),
    # mesh
    ("generate_disk_mesh-3-nodes", lambda: generate_disk_mesh(3, 1.0), ValueError,
     "target_nodes must be >= 4, got 3"),
    *((f"generate_disk_mesh-radius-{r}", lambda r=r: generate_disk_mesh(20, r), ValueError,
       f"radius must be positive and finite, got {r}")
      for r in (-1.0, math.inf, -math.inf, math.nan)),
    *((f"Mesh2D-{name}", lambda args=args: Mesh2D(*args), ValueError, message)
      for name, args, message in (
          ("nodes-3-wide", (np.zeros((3, 3)), [[0, 1, 2]], [[0, 1]]),
           "nodes must be an (n, 2) array"),
          ("triangle-of-2", (np.eye(3)[:, :2], [[0, 1]], [[0, 1]]),
           "triangles must be a (t, 3) array"),
          ("edges-1d", (np.eye(3)[:, :2], [[0, 1, 2]], [0, 1]),
           "boundary_edges must be a (b, 2) array"),
          # an int64 index past int32, which a bare cast would wrap to node 2
          ("triangle-index-2**32+2", (np.eye(3)[:, :2], np.array([[0, 1, 2 ** 32 + 2]]),
                                      [[0, 1], [1, 2], [2, 0]]),
           "triangles hold the index 4294967298, which int32 cannot hold"),
          # values a bare cast would truncate to node 2 and wrap to -2**31
          ("triangle-value-2.7", (np.eye(3)[:, :2], [[0, 1, 2.7]], [[0, 1], [1, 2], [2, 0]]),
           "triangles hold the value 2.7, which is not a node index"),
          ("boundary-edge-value-nan", (np.eye(3)[:, :2], [[0, 1, 2]],
                                       [[0, 1], [1, math.nan], [2, 0]]),
           "boundary_edges hold the value nan, which is not a node index"))),
    *((f"validate_mesh-{name}",
       lambda args=args: validate_mesh(Mesh2D(np.eye(3)[:, :2], *args)),
       MeshInvariantError, message)
      for name, args, message in (
          ("no-triangles", (np.empty((0, 3)), [[0, 1], [1, 2], [2, 0]]),
           "mesh has no triangles"),
          ("triangle-index-7", ([[0, 1, 7]], [[0, 1], [1, 2], [2, 0]]),
           "triangle 0 has a node index out of range: [0, 1, 7]"),
          ("triangle-index-minus-1", ([[0, -1, 2]], [[0, 1], [1, 2], [2, 0]]),
           "triangle 0 has a node index out of range: [0, -1, 2]"),
          ("no-boundary-edges", ([[0, 1, 2]], np.empty((0, 2))),
           "mesh has no boundary edges"),
          ("edge-index-7", ([[0, 1, 2]], [[0, 1], [1, 2], [2, 7]]),
           "boundary edge 2 has a node index out of range: [2, 7]"),
          ("edge-index-minus-1", ([[0, 1, 2]], [[0, 1], [1, 2], [2, -1]]),
           "boundary edge 2 has a node index out of range: [2, -1]"))),
    # the edge incidence checks, in check order
    ("validate_mesh-triangle-twice",
     lambda: validate_mesh(with_arrays(triangles=TRIANGLE_TWICE)),
     MeshInvariantError, "an edge is shared by more than two triangles"),
    ("validate_mesh-boundary-edge-twice",
     lambda: validate_mesh(with_arrays(edges=EDGE_TWICE)),
     MeshInvariantError, "duplicate boundary edge"),
    ("validate_mesh-both-twice",
     lambda: validate_mesh(with_arrays(TRIANGLE_TWICE, EDGE_TWICE)),
     MeshInvariantError, "an edge is shared by more than two triangles"),
    ("validate_mesh-boundary-edge-missing",
     lambda: validate_mesh(with_arrays(edges=DISK_80.boundary_edges[1:])),
     MeshInvariantError, "boundary_edges do not match the triangulation's exposed edges"),
    # edge 0-1 of the first fan triangle is interior
    ("validate_mesh-interior-edge-declared",
     lambda: validate_mesh(with_arrays(edges=np.vstack([DISK_80.boundary_edges[1:],
                                                        DISK_80.triangles[:1, :2]]))),
     MeshInvariantError, "boundary_edges do not match the triangulation's exposed edges"),
    # the 20-node disk's boundary runs 7 -> 8 -> 9 ..., and node 7 is (1, 0).
    # With edge 0 reversed, node 8 starts two edges.
    ("validate_mesh-reversed-boundary-edge",
     lambda: validate_mesh(replace(DISK_20, boundary_edges=np.vstack(
         [DISK_20.boundary_edges[:1, ::-1], DISK_20.boundary_edges[1:]]))),
     MeshInvariantError, "boundary node 8 has two outgoing edges"),
    ("validate_mesh-two-cycles", lambda: validate_mesh(disjoint_union([DISK_20, DISK_20])),
     MeshInvariantError, "boundary edges form more than one cycle"),
    ("validate_mesh-off-circle",
     lambda: validate_mesh(with_node(DISK_20, 7, (1.0 + 1e-6, 0.0))),
     MeshInvariantError,
     "boundary node 7 is off the circle by 1.000e-06 (tolerance 1.000e-12)"),
    # each coordinate prints as its repr, all 17 digits of a finite one
    *((f"validate_mesh-node-7-{name}",
       lambda node=node: validate_mesh(with_node(DISK_20, 7, node)),
       MeshInvariantError, f"node 7 has a non-finite coordinate {text}")
      for name, node, text in (
          ("nan", (1.0, math.nan), "(1.0, nan)"), ("inf", (1.0, math.inf), "(1.0, inf)"),
          ("-inf", (1.0, -math.inf), "(1.0, -inf)"),
          ("17-digits", (0.30901699437494745, math.inf), "(0.30901699437494745, inf)"))),
    # the 20-node unit disk scaled by 1e200, with no radius: its areas
    # overflow to inf, and to NaN where two infinite products cancel
    ("validate_mesh-area-overflow",
     lambda: validate_mesh(Mesh2D(DISK_20.nodes * 1e200, DISK_20.triangles,
                                  DISK_20.boundary_edges)),
     MeshInvariantError, "signed area of triangle 0 overflows a double (got inf)"),
    *((f"validate_mesh-radius-{r}", lambda r=r: validate_mesh(replace(DISK_20, radius=r)),
       MeshInvariantError, f"radius must be finite, got {r}") for r in (math.nan, math.inf)),
    # a radius <= 0 is refused by value, before the circle check could
    # misreport it as a node off the circle
    *((f"validate_mesh-radius-{r}", lambda r=r: validate_mesh(replace(DISK_20, radius=r)),
       MeshInvariantError, f"radius must be positive, got {r}") for r in (0.0, -1.0)),
    # problems
    *((f"evolution_problem-strength-{s}", lambda s=s: evolution_problem(strength=s),
       ValueError, f"strength must be positive and finite, got {s}")
      for s in (0.0, math.inf, math.nan)),
    *((f"evolution_problem-seed-{s}", lambda s=s: evolution_problem(seed=s), ValueError,
       f"seed must lie in [0, 2^64), got {s}") for s in (-1, 2 ** 64)),
    # saddle
    ("build_step_matrix-ratio-0", lambda: disk_20_step_matrix(ratio=0.0), ValueError,
     "delta0/tau must be positive and finite, got 0.0"),
    # a subnormal tau: delta0/tau overflows
    ("build_step_matrix-ratio-inf", lambda: disk_20_step_matrix(ratio=math.inf), ValueError,
     "delta0/tau must be positive and finite, got inf"),
    ("build_step_matrix-sizes-differ",
     lambda: disk_20_step_matrix(A=sp.identity(3, format="csr")), ValueError,
     "M and A must be square and equal-sized, got (20, 20) and (3, 3)"),
    # the parenthesis is SuperLU's own reason
    ("build_step_matrix-singular",
     lambda: build_step_matrix(sp.csr_matrix((3, 3)), sp.csr_matrix((3, 3)), 1.0,
                               np.arange(3)),
     RuntimeError, re.compile(r"step matrix factorization failed \(.+\); the mass or "
                              r"stiffness matrix is likely invalid")),
    # a directory without SciPy's SuperLU extension
    ("load_superlu-not-found", lambda: load_superlu(TESTS), ImportError,
     f"no SuperLU extension module _superlu in {TESTS}"),
    ("solve-non-finite-rhs",
     lambda: disk_20_step_matrix().solve(np.where(np.arange(40) == 3, np.nan, 0.0)),
     ValueError, "rhs contains non-finite entries"),
    ("solve-wrong-length", lambda: disk_20_step_matrix().solve(np.zeros(3)), ValueError,
     "rhs length (3,) does not match system size 40"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in LIBRARY_REFUSALS],
                         ids=[row[0] for row in LIBRARY_REFUSALS])
def test_a_refused_call_raises_its_exact_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    if isinstance(message, re.Pattern):
        assert message.fullmatch(str(info.value)), str(info.value)
    else:
        assert str(info.value) == message
