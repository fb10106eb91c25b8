import os
import time
import tracemalloc

import numpy as np
import pytest

from chdbc import cli
from chdbc.cli import _csv, main
from chdbc.integrator import bdf_scheme, run
from chdbc.mesh import generate_disk_mesh, import_mesh, validate_mesh
from chdbc.problems import evolution_problem


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_convergence_row_count_and_header(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["convergence", "--problem", "linear", "--refinements", "1,2",
               "--tau", "0.0025", "--out", str(out)])
    assert rc == 0
    lines = read(out).decode().splitlines()
    assert lines[0] == "i,nodes,h,tau,err_L2,err_H1,eoc_L2,eoc_H1"
    assert len(lines) == 3  # header + one row per refinement
    first = lines[1].split(",")
    assert first[0] == "1" and first[6] == "NA" and first[7] == "NA"
    second = lines[2].split(",")
    assert second[0] == "2"
    assert 0.5 <= float(second[6]) <= 3.5  # a real order estimate
    assert read(out).decode().endswith("\n")
    assert b"\r" not in read(out)


def test_convergence_is_deterministic(tmp_path):
    args = ["convergence", "--problem", "nonlinear", "--refinements", "1,2",
            "--tau", "0.005", "--T", "0.5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_convergence_rejects_unknown_problem(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--problem", "evolution"])
    assert exc.value.code == 2


def test_convergence_writes_to_stdout_without_out(capsys):
    rc = main(["convergence", "--problem", "linear", "--refinements", "1",
               "--tau", "0.025", "--T", "0.1"])
    assert rc == 0
    cap = capsys.readouterr()
    assert cap.out.startswith("i,nodes,h,tau")


def test_mesh_round_trip(tmp_path):
    out = tmp_path / "disk.mesh"
    rc = main(["mesh", "--nodes", "20", "--radius", "1.0", "--out", str(out),
               "--validate"])
    assert rc == 0
    mesh = import_mesh(read(out).decode())
    validate_mesh(mesh)
    assert 17 <= mesh.node_count <= 23
    assert mesh.radius == 1.0


def test_mesh_usage_error_for_tiny_target(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--nodes", "3", "--out", str(tmp_path / "m.mesh")])
    assert exc.value.code == 2
    assert not (tmp_path / "m.mesh").exists()


def test_mesh_large_target_is_fast(tmp_path):
    start = time.time()
    rc = main(["mesh", "--nodes", "2560", "--out", str(tmp_path / "big.mesh"),
               "--validate"])
    assert rc == 0
    assert time.time() - start < 10.0


def test_evolve_snapshots_and_diagnostics(tmp_path):
    out = tmp_path / "evo"
    rc = main(["evolve", "--nodes", "160", "--radius", "10", "--k", "1",
               "--tau", "0.0125", "--T", "0.05", "--seed", "4",
               "--snapshots", "0,0.025,0.05", "--out", str(out)])
    assert rc == 0
    snap0 = read(out / "snapshot_t0.csv").decode().splitlines()
    assert snap0[0] == "x,y,u"
    values = {row.split(",")[2] for row in snap0[1:]}
    assert values <= {"1.0", "-1.0"}
    diag = read(out / "diagnostics.csv").decode().splitlines()
    assert diag[0] == "t,mass,energy"
    assert len(diag) == 1 + 5  # T/tau + 1 rows
    assert (out / "snapshot_t0.025.csv").exists()
    assert (out / "snapshot_t0.05.csv").exists()


def test_evolve_is_deterministic(tmp_path):
    args = ["evolve", "--nodes", "80", "--radius", "10", "--k", "1",
            "--tau", "0.0125", "--T", "0.025", "--seed", "9",
            "--snapshots", "0.025"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "snapshot_t0.025.csv") == read(b / "snapshot_t0.025.csv")
    assert read(a / "diagnostics.csv") == read(b / "diagnostics.csv")


def test_evolve_seed_changes_output(tmp_path):
    base = ["evolve", "--nodes", "80", "--radius", "10", "--k", "1",
            "--tau", "0.0125", "--T", "0.0125", "--snapshots", "0"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(b)]) == 0
    assert read(a / "snapshot_t0.csv") != read(b / "snapshot_t0.csv")


def test_evolve_vtk_export(tmp_path):
    out = tmp_path / "evo"
    rc = main(["evolve", "--nodes", "80", "--radius", "10", "--k", "1",
               "--tau", "0.0125", "--T", "0.0125", "--snapshots", "0",
               "--vtk", "--out", str(out)])
    assert rc == 0
    vtk = read(out / "snapshot_t0.vtk").decode().splitlines()
    assert vtk[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in vtk
    assert any(line.startswith("POINTS") for line in vtk)
    assert any(line == "SCALARS u double 1" for line in vtk)


def test_evolve_rejects_off_grid_snapshot_time(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--nodes", "80", "--k", "1", "--tau", "0.0125",
              "--T", "0.025", "--snapshots", "0.013",
              "--out", str(tmp_path / "evo")])
    assert exc.value.code == 2
    assert not (tmp_path / "evo").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_evolve_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    out = tmp_path / "evo"
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--nodes", "80", "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_rejects_non_dividing_tau(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--problem", "linear", "--refinements", "1",
              "--tau", "0.3", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", [
    ["evolve", "--nodes", "40", "--radius", "1", "--k", "3", "--tau", "0.01",
     "--T", "0.01", "--snapshots", "0"],
    ["convergence", "--problem", "linear", "--k", "3", "--tau", "0.5",
     "--T", "0.5"],
])
def test_too_few_steps_for_the_order_is_a_usage_error(tmp_path, capsys, command):
    # tau divides T; the run is one step short of BDF3's starting values
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "gives 1 step(s)" in err and "BDF3 needs at least 2" in err
    assert "divide" not in err
    assert not out.exists()


def test_convergence_rejects_out_of_range_refinement(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--problem", "linear", "--refinements", "9",
              "--tau", "0.01", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 2


def test_convergence_rejects_non_unit_radius(tmp_path):
    # the manufactured forcings encode the unit circle's curvature
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--problem", "linear", "--radius", "2",
              "--tau", "0.01", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("problem", ["linear", "nonlinear"])
def test_convergence_default_sweep_reproduces_quadratic_order(tmp_path, problem):
    out = tmp_path / "full.csv"
    rc = main(["convergence", "--problem", problem, "--out", str(out)])
    assert rc == 0
    lines = read(out).decode().splitlines()
    assert len(lines) == 1 + 4 * 5  # four default step sizes, five refinements
    # last row of the smallest tau block: EOC between the two finest meshes
    last = lines[-1].split(",")
    assert float(last[3]) == 0.0025
    assert 1.7 <= float(last[6]) <= 2.3


def test_runtime_failure_returns_one_and_removes_partial_csv(tmp_path, capsys):
    # k=3 extrapolation blows up at these parameters -> runtime error
    out = tmp_path / "evo"
    rc = main(["evolve", "--nodes", "160", "--radius", "1", "--k", "3",
               "--tau", "0.01", "--T", "0.1", "--snapshots", "0,0.1",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert not (out / "diagnostics.csv").exists()


def test_failed_evolve_write_leaves_the_earlier_outputs(tmp_path, monkeypatch):
    # the second VTK render fails after the first CSV and VTK are written
    out = tmp_path / "evo"
    out.mkdir()
    older = {"snapshot_t0.csv": b"x,y,u\n0.0,0.0,1.0\n",
             "diagnostics.csv": b"t,mass,energy\n0.0,1.0,2.0\n"}
    for name, data in older.items():
        (out / name).write_bytes(data)
    render = cli._vtk_snapshot
    calls = []

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("render failed")
        return render(*args)

    monkeypatch.setattr(cli, "_vtk_snapshot", fail_second)
    rc = main(["evolve", "--nodes", "80", "--radius", "10", "--k", "1",
               "--tau", "0.0125", "--T", "0.025", "--snapshots", "0,0.025",
               "--vtk", "--out", str(out)])
    assert rc == 1
    assert len(calls) == 2
    assert sorted(os.listdir(out)) == sorted(older)
    for name, data in older.items():
        assert read(out / name) == data


@pytest.mark.parametrize("command", [
    ["mesh", "--nodes", "20"],
    ["convergence", "--problem", "linear", "--refinements", "1",
     "--tau", "0.025", "--T", "0.1"],
])
def test_failed_rename_leaves_the_existing_file(tmp_path, monkeypatch, command):
    target = tmp_path / "existing.txt"
    target.write_bytes(b"an earlier run\n")

    def refuse(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(command + ["--out", str(target)]) == 1
    assert read(target) == b"an earlier run\n"
    assert os.listdir(tmp_path) == ["existing.txt"]


def test_written_files_get_the_permission_bits_of_a_plain_open(tmp_path):
    out = tmp_path / "disk.mesh"
    assert main(["mesh", "--nodes", "20", "--out", str(out)]) == 0
    with open(tmp_path / "plain", "w"):
        pass
    assert os.stat(out).st_mode == os.stat(tmp_path / "plain").st_mode


def test_streamed_evolve_csvs_equal_those_rendered_from_run(tmp_path):
    # k=2 bootstrap: the BDF1 substeps and the main loop both feed the files
    out = tmp_path / "evo"
    rc = main(["evolve", "--nodes", "160", "--radius", "1", "--k", "2",
               "--tau", "1e-05", "--T", "0.0002", "--seed", "3",
               "--snapshots", "0,1e-05,0.0002", "--out", str(out)])
    assert rc == 0
    mesh = generate_disk_mesh(160, 1.0)
    traj = run(evolution_problem(seed=3), mesh, 1e-5, 2e-4, bdf_scheme(2),
               start_mode="bootstrap")
    for t, idx in ((0.0, 0), (1e-5, 1), (2e-4, 20)):
        rows = [["x", "y", "u"]]
        rows += [[float(x), float(y), float(v)]
                 for (x, y), v in zip(mesh.nodes, traj.u_history[idx])]
        assert read(out / f"snapshot_t{t:g}.csv") == _csv(rows).encode()
    rows = [["t", "mass", "energy"]]
    rows += [[float(t), float(q), float(e)]
             for t, q, e in zip(traj.times, traj.mass, traj.energy)]
    assert read(out / "diagnostics.csv") == _csv(rows).encode()


def test_evolve_memory_does_not_grow_with_the_step_count(tmp_path):
    # 200 against 800 steps at 640 nodes. Storing every u and w would add
    # 2 N doubles per step, about 6 MB over the 600 extra steps; the
    # diagnostics rows of those steps take about 0.2 MB.
    peaks = []
    for T in ("0.25", "1.0"):
        tracemalloc.start()
        try:
            assert main(["evolve", "--nodes", "640", "--T", T, "--snapshots",
                         "0", "--out", str(tmp_path / T)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks
