"""The benchmark tracer's view of the package.

`benchmarks/tracing.py` wraps chdbc's entry points by name, reads the
step matrix's LU handle and block matrix, and sizes the trajectory `run`
returns. A rename there turns its per-layer metrics into `missing` without
failing a run, so these tests pin every name it reads. The tracer is loaded
by path and never installed.
"""

import importlib.util
import math
import pathlib

import numpy as np
import pytest

from chdbc import assembly
from chdbc.integrator import bdf_scheme, run
from chdbc.mesh import generate_disk_mesh
from chdbc.problems import manufactured_linear
from oracles import disk_step_matrix

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("chdbc_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package(tracing):
    names = [(module, attr) for _, module, attr in tracing.ENTRY_POINTS]
    names += list(tracing.FACTORIES)
    for module, attr in names:
        assert module.split(".")[0] == "chdbc"
        assert tracing._resolve(module, attr) is not None, f"{module}.{attr} is gone"


def test_step_matrix_exposes_the_lu_and_the_block_matrix(tracing):
    mesh = generate_disk_mesh(40, 1.0)
    _, _, K = disk_step_matrix(mesh, 800.0)
    assert K._lu.L.nnz > 0 and K._lu.U.nnz > 0
    assert tracing._lu_nnz(K) == K._lu.L.nnz + K._lu.U.nnz
    n = 2 * mesh.node_count
    assert K.matrix.shape == (n, n)
    # the tracer's sampled residual: ||K x - b|| for a real 2N b and x
    rhs = np.random.default_rng(0).standard_normal(n)
    x = K.solve(rhs)
    assert x.shape == (n,) and x.dtype == np.float64
    assert np.abs(K.matrix @ x - rhs).max() <= 1e-9 * np.abs(rhs).max()


def test_trajectory_bytes_count_every_state_a_run_holds(tracing):
    # integrator.trajectory_mb must not drop the states a trajectory keeps
    traj = run(manufactured_linear(), generate_disk_mesh(40, 1.0), 0.01, 0.1,
               bdf_scheme(2), start_mode="exact", keep=[0, 5, 10])
    assert len(traj.snapshots) == 3
    held = sum(u.nbytes for u in traj.snapshots)
    held += traj.u_final.nbytes + traj.w_final.nbytes
    assert tracing._trajectory_bytes(traj) >= held


def test_forcings_are_interpolated_once_per_load_block(monkeypatch):
    # The tracer's problems.forcing_calls counts the calls of
    # assembly.nodal_interpolate that pass a forcing, so every forcing
    # evaluation must go through it: here 398 steps in blocks of 12.
    problem = manufactured_linear()
    forcings = {problem.f1_bulk, problem.f1_surf, problem.f2_bulk, problem.f2_surf}
    interpolate = assembly.nodal_interpolate
    calls = []

    def counted(f, mesh, t):
        calls.append(f)
        return interpolate(f, mesh, t)

    monkeypatch.setattr(assembly, "nodal_interpolate", counted)
    mesh = generate_disk_mesh(320, 1.0)
    assert mesh.node_count == 320
    run(problem, mesh, 0.0025, 1.0, bdf_scheme(3), start_mode="exact")
    assert sum(f in forcings for f in calls) == 4 * math.ceil(398 / 12) == 136
