import os
import time
import tracemalloc

import numpy as np
import pytest

from chdbc import analysis, cli, mesh as meshmod
from chdbc.cli import _csv, main
from chdbc.integrator import bdf_scheme, run
from chdbc.mesh import generate_disk_mesh, import_mesh, validate_mesh
from chdbc.problems import MANUFACTURED, evolution_problem


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


@pytest.mark.parametrize("radius", ["-1", "0", "inf", "nan"])
@pytest.mark.parametrize("command", ["evolve", "mesh"])
def test_disk_radius_must_be_positive_and_finite(tmp_path, capsys, command, radius):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--nodes", "40", "--radius", radius, "--out", str(out)])
    assert exc.value.code == 2
    assert "--radius must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("strength", ["inf", "nan", "0", "-1"])
def test_evolve_strength_must_be_positive_and_finite(tmp_path, capsys, monkeypatch,
                                                      strength):
    def no_mesh(*args):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli.meshmod, "generate_disk_mesh", no_mesh)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--nodes", "40", "--strength", strength, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--strength must be positive and finite, got {float(strength)}" in err
    assert not out.exists()


def test_convergence_builds_each_refinement_mesh_once(tmp_path, monkeypatch):
    calls = []
    generate = cli.meshmod.generate_disk_mesh
    monkeypatch.setattr(cli.meshmod, "generate_disk_mesh",
                        lambda *args: calls.append(args) or generate(*args))
    rc = main(["convergence", "--problem", "linear", "--refinements", "1,2",
               "--tau", "0.05", "--tau", "0.025", "--T", "0.1",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert calls == [(20, 1.0), (40, 1.0)]


@pytest.mark.parametrize("start_mode", ["exact", "bootstrap"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("problem", ["linear", "nonlinear"])
def test_convergence_steps_all_refinements_as_one_run_bitwise(
        tmp_path, monkeypatch, problem, k, start_mode):
    # cli.integrator and cli.analysis are the modules, so `run` (imported
    # above) and `final_error` stay the originals
    runs, errors = [], []
    monkeypatch.setattr(cli.integrator, "run",
                        lambda *a, **kw: runs.append(a) or run(*a, **kw))
    final_error = analysis.final_error
    monkeypatch.setattr(cli.analysis, "final_error", lambda traj, spec, m: errors.append(
        (traj, m, final_error(traj, spec, m))) or errors[-1][2])
    taus = (0.05, 0.025)
    rc = main(["convergence", "--problem", problem, "--k", str(k),
               "--refinements", "1,2,3", "--tau", "0.05", "--tau", "0.025",
               "--T", "0.1", "--start-mode", start_mode,
               "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert [a[2] for a in runs] == list(taus)  # one run per tau
    assert len(errors) == 3 * len(taus)
    spec = MANUFACTURED[problem]()
    for n, (traj, m, report) in enumerate(errors):
        assert m.node_count == 2 ** (n % 3 + 1) * 10
        alone = run(spec, m, taus[n // 3], 0.1, bdf_scheme(k), start_mode=start_mode)
        assert np.array_equal(traj.u_final, alone.u_final)
        assert np.array_equal(traj.w_final, alone.w_final)
        assert report == final_error(alone, spec, m)


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


def test_evolve_refuses_two_snapshot_times_on_one_step(tmp_path, capsys):
    # both times fall on step 0, and each would be written as its own file
    out = tmp_path / "evo"
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--nodes", "20", "--radius", "1", "--T", "0.01",
              "--tau", "0.005", "--snapshots", "0,1e-13", "--out", str(out)])
    assert exc.value.code == 2
    assert "times 0.0 and 1e-13 both fall on step 0" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_refuses_two_snapshot_steps_that_name_one_file(tmp_path, capsys):
    # 100000.2 and 100000.4 both print as 100000 with :g, so a run reaching
    # them would end with both renders competing for one temporary file
    out = tmp_path / "evo"
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--nodes", "20", "--radius", "1", "--T", "100000.4",
              "--tau", "0.2", "--snapshots", "100000.2,100000.4", "--out", str(out)])
    assert exc.value.code == 2
    assert ("times 100000.2 and 100000.4 (steps 500001 and 500002) both name "
            "snapshot_t100000" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("times, name", [("0,0", "0"),
                                         ("0.005,0.0050000000000001", "0.005")])
def test_evolve_writes_one_file_for_times_that_share_a_step_and_name(
        tmp_path, times, name):
    out = tmp_path / "evo"
    rc = main(["evolve", "--nodes", "20", "--radius", "1", "--T", "0.01",
               "--tau", "0.005", "--snapshots", times, "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["diagnostics.csv", f"snapshot_t{name}.csv"]


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


@pytest.mark.parametrize("command,message", [
    (["convergence", "--problem", "linear", "--refinements", "1,x"],
     "argument --refinements: expected comma-separated integers, got '1,x'"),
    (["evolve", "--snapshots", "0,x"],
     "argument --snapshots: expected comma-separated numbers, got '0,x'"),
])
def test_a_malformed_list_is_a_usage_error(tmp_path, capsys, command, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(out)])
    assert exc.value.code == 2
    assert message + "\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,message", [
    (["convergence", "--problem", "linear", "--refinements", ","],
     "no refinements given"),
    (["evolve", "--snapshots", "5"],
     "--snapshots: time 5.0 lies outside [0, "),
])
def test_an_empty_refinement_list_or_a_late_snapshot_is_a_usage_error(
        tmp_path, capsys, command, message):
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["evolve", "--T", "inf"],
    ["evolve", "--T", "nan"],
    ["evolve", "--snapshots", "inf"],
    ["evolve", "--snapshots", "nan"],
    ["convergence", "--problem", "linear", "--T", "inf"],
    ["convergence", "--problem", "linear", "--T", "nan"],
])
def test_a_non_finite_time_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # rejected by the time-grid rule, named, before a mesh is built
    built = []
    monkeypatch.setattr(meshmod, "generate_disk_mesh",
                        lambda *args: built.append(args))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"time {command[-1]} " in capsys.readouterr().err
    assert built == [] and not out.exists()


def test_snapshot_times_follow_the_step_count_rule(tmp_path, capsys):
    # 5e-11 off the grid: outside step_index's 1e-12 * max(1, |t|)
    out = tmp_path / "evo"
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--nodes", "80", "--k", "1", "--tau", "0.0125",
              "--T", "0.025", "--snapshots", "0,0.01250000005",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "does not divide the time 0.01250000005" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["evolve", "--start-mode", "bootstrap"],
    ["evolve", "--problem", "evolution"],
    ["convergence", "--problem", "linear", "--radius", "1"],
])
def test_removed_settings_are_unknown_flags(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


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


EVOLVE_SHORT = ["evolve", "--nodes", "40", "--radius", "1", "--tau", "0.01",
                "--T", "0.02", "--snapshots", "0"]
CONVERGENCE_SHORT = ["convergence", "--problem", "linear", "--refinements", "1",
                     "--tau", "0.025", "--T", "0.1"]


@pytest.mark.parametrize("command, out, named", [
    # evolve --out: os.makedirs fails on an existing file at or above it
    (EVOLVE_SHORT, "a_file", "a_file"),
    (EVOLVE_SHORT, "a_file/run", "a_file"),
    (EVOLVE_SHORT, "a_file/", "a_file"),
    # a file --out needs an existing directory and must not be one itself
    (CONVERGENCE_SHORT, "nodir/t.csv", "nodir"),
    (CONVERGENCE_SHORT, "a_file/t.csv", "a_file"),
    (CONVERGENCE_SHORT, "a_dir", "a_dir"),
    (["mesh", "--nodes", "20"], "nodir/m.mesh", "nodir"),
    (["mesh", "--nodes", "20"], "a_dir", "a_dir"),
])
def test_an_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                  command, out, named):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.meshmod, "generate_disk_mesh", no_work)
    monkeypatch.setattr(cli.integrator, "run", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_bytes(b"kept\n")
    (tmp_path / "a_dir").mkdir()
    assert main(command + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert f"chdbc {command[0]}: error: " in err
    assert repr(out) in err and repr(named) in err
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file"]
    assert read(tmp_path / "a_file") == b"kept\n"
    assert os.listdir(tmp_path / "a_dir") == []


@pytest.mark.parametrize("command, out", [
    (EVOLVE_SHORT, "new/run"),
    (EVOLVE_SHORT, "a_dir"),
    (CONVERGENCE_SHORT, "t.csv"),
])
def test_a_writable_out_passes_the_check(tmp_path, monkeypatch, command, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_dir").mkdir()
    assert main(command + ["--out", out]) == 0
    assert (tmp_path / out).exists()


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
               start_mode="bootstrap", keep=[0, 1, 20])
    assert len(traj.snapshots) == 3
    for t, u in zip((0.0, 1e-5, 2e-4), traj.snapshots):
        rows = [["x", "y", "u"]]
        rows += [[float(x), float(y), float(v)]
                 for (x, y), v in zip(mesh.nodes, u)]
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
