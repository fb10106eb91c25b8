import contextlib
import dataclasses
import io
import itertools
import os
import re
import shlex
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chdbc import analysis, cli
from chdbc.cli import main
from chdbc.integrator import bdf_scheme, run
from chdbc.mesh import (disjoint_union, export_mesh, generate_disk_mesh, import_mesh,
                        mesh_size, render_rows)
from chdbc.problems import MANUFACTURED, evolution_problem


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def rows_text(rows, sep=","):
    # the row rule written row by row, independent of the renderer: the str
    # of each value (a float's is its shortest round-trip repr), one line each
    return "".join(sep.join(map(str, row)) + "\n" for row in rows)


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
    assert 17 <= mesh.node_count <= 23
    assert mesh.radius == 1.0


def test_a_mesh_that_does_not_survive_its_round_trip_exits_1(capsys, monkeypatch):
    imported = cli.meshmod.import_mesh

    def node_0_moved(text):
        m = imported(text)
        nodes = m.nodes.copy()
        nodes[0] += 1e-3
        return dataclasses.replace(m, nodes=nodes)

    monkeypatch.setattr(cli.meshmod, "import_mesh", node_0_moved)
    assert main(["mesh", "--nodes", "20", "--validate"]) == 1
    cap = capsys.readouterr()
    assert cap.err.splitlines()[-1] == ("chdbc mesh: error: exported mesh did not survive "
                                        "a round trip")
    assert cap.out == ""


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
    monkeypatch.setattr(cli.analysis, "final_error", lambda spec, m, t, u, w: errors.append(
        (t, u, w, m, final_error(spec, m, t, u, w))) or errors[-1][4])
    taus = (0.05, 0.025)
    rc = main(["convergence", "--problem", problem, "--k", str(k),
               "--refinements", "1,2,3", "--tau", "0.05", "--tau", "0.025",
               "--T", "0.1", "--start-mode", start_mode,
               "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert [a[2] for a in runs] == list(taus)  # one run per tau
    assert len(errors) == 3 * len(taus)
    spec = MANUFACTURED[problem]()
    for n, (t, u, w, m, report) in enumerate(errors):
        assert m.node_count == 2 ** (n % 3 + 1) * 10
        alone = run(spec, m, taus[n // 3], 0.1, bdf_scheme(k), start_mode=start_mode)
        assert np.array_equal(u, alone.u_final)
        assert np.array_equal(w, alone.w_final)
        assert report == final_error(spec, m, alone.times[-1], alone.u_final,
                                     alone.w_final)


def test_mesh_large_target_is_fast(tmp_path):
    start = time.time()
    rc = main(["mesh", "--nodes", "2560", "--out", str(tmp_path / "big.mesh"),
               "--validate"])
    assert rc == 0
    assert time.time() - start < 10.0


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


@pytest.mark.parametrize("times, name", [("0,0", "0"),
                                         ("0.005,0.0050000000000001", "0.005"),
                                         ("0,-0", "0"), ("-0", "0")])
def test_evolve_writes_one_file_for_times_that_share_a_step_and_name(
        tmp_path, times, name):
    out = tmp_path / "evo"
    rc = main(["evolve", "--nodes", "20", "--radius", "1", "--T", "0.01",
               "--tau", "0.005", "--snapshots", times, "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["diagnostics.csv", f"snapshot_t{name}.csv"]


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


EVOLVE_SHORT = "evolve --nodes 40 --radius 1 --tau 0.01 --T 0.02 --snapshots 0"
CONVERGENCE_SHORT = "convergence --problem linear --refinements 1 --tau 0.025 --T 0.1"

# Every refusal as (argv, exit code, last stderr line). parser.error names
# the program, argparse's own errors and the --out refusals the subcommand.
REFUSALS = [
    ("convergence --problem evolution", 2,
     "chdbc convergence: error: argument --problem: invalid choice: 'evolution' "
     "(choose from 'linear', 'nonlinear')"),
    ("mesh --nodes 3 --out m.mesh", 2, "chdbc: error: --nodes must be >= 4, got 3"),
    *((f"{command} --nodes 40 --radius {r} --out out", 2,
       f"chdbc: error: --radius must be positive and finite, got {got}")
      for command in ("evolve", "mesh")
      for r, got in (("-1", "-1.0"), ("0", "0.0"), ("inf", "inf"), ("nan", "nan"))),
    *((f"evolve --nodes 40 --strength {s} --out out", 2,
       f"chdbc: error: --strength must be positive and finite, got {got}")
      for s, got in (("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("-1", "-1.0"))),
    *((f"evolve --nodes 80 --seed {s} --out evo", 2,
       f"chdbc: error: --seed must lie in [0, 2^64), got {s}") for s in (-1, 2 ** 64)),
    ("evolve --nodes 80 --k 1 --tau 0.0125 --T 0.025 --snapshots 0.013 --out evo", 2,
     "chdbc: error: --snapshots: tau=0.0125 does not divide the time 0.013"),
    # 5e-11 off the grid: outside step_index's 1e-12 * max(1, |t|)
    ("evolve --nodes 80 --k 1 --tau 0.0125 --T 0.025 --snapshots 0,0.01250000005 "
     "--out evo", 2,
     "chdbc: error: --snapshots: tau=0.0125 does not divide the time 0.01250000005"),
    # each time would be written as its own file of one step
    ("evolve --nodes 20 --radius 1 --T 0.01 --tau 0.005 --snapshots 0,1e-13 --out evo",
     2, "chdbc: error: --snapshots: times 0.0 and 1e-13 both fall on step 0"),
    # two steps whose renders would compete for one temporary file
    ("evolve --nodes 20 --radius 1 --T 100000.4 --tau 0.2 "
     "--snapshots 100000.2,100000.4 --out evo", 2,
     "chdbc: error: --snapshots: times 100000.2 and 100000.4 (steps 500001 and "
     "500002) both name snapshot_t100000"),
    ("evolve --snapshots 5 --out d", 2,
     "chdbc: error: --snapshots: time 5.0 lies outside [0, 3.0]"),
    *((f"evolve --tau {tau} --out out", 2,
       f"chdbc: error: evolve: tau must be positive and finite, got {got}")
      for tau, got in (("0", "0.0"), ("-1", "-1.0"))),
    *((f"convergence --problem linear --tau {tau} --out out", 2,
       f"chdbc: error: convergence: tau must be positive and finite, got {tau}")
      for tau in ("nan", "inf")),
    ("evolve --T inf --out out", 2,
     "chdbc: error: evolve: time inf is not a finite multiple of tau=0.00125"),
    ("evolve --T nan --out out", 2,
     "chdbc: error: evolve: time nan is not a finite multiple of tau=0.00125"),
    ("evolve --snapshots inf --out out", 2,
     "chdbc: error: --snapshots: time inf is not a finite multiple of tau=0.00125"),
    ("evolve --snapshots nan --out out", 2,
     "chdbc: error: --snapshots: time nan is not a finite multiple of tau=0.00125"),
    ("convergence --problem linear --T inf --out out", 2,
     "chdbc: error: convergence: time inf is not a finite multiple of tau=0.025"),
    ("convergence --problem linear --T nan --out out", 2,
     "chdbc: error: convergence: time nan is not a finite multiple of tau=0.025"),
    ("convergence --problem linear --refinements 1 --tau 0.3 --out t.csv", 2,
     "chdbc: error: convergence: tau=0.3 does not divide the time 1.0"),
    # tau divides T; the run is one step short of BDF3's starting values
    ("evolve --nodes 40 --radius 1 --k 3 --tau 0.01 --T 0.01 --snapshots 0 --out out",
     2, "chdbc: error: evolve: tau=0.01 gives 1 step(s) over the time span 0.01, "
     "but BDF3 needs at least 2"),
    ("convergence --problem linear --k 3 --tau 0.5 --T 0.5 --out out", 2,
     "chdbc: error: convergence: tau=0.5 gives 1 step(s) over the time span 0.5, "
     "but BDF3 needs at least 2"),
    ("convergence --problem linear --refinements 9 --tau 0.01 --out t.csv", 2,
     "chdbc: error: refinement indices must lie in [1, 8]"),
    ("convergence --problem linear --refinements , --out d", 2,
     "chdbc: error: no refinements given"),
    ("convergence --problem linear --refinements 1,x --out out", 2,
     "chdbc convergence: error: argument --refinements: expected comma-separated "
     "integers, got '1,x'"),
    ("evolve --snapshots 0,x --out out", 2, "chdbc evolve: error: argument "
     "--snapshots: expected comma-separated numbers, got '0,x'"),
    # removed settings
    ("evolve --start-mode bootstrap --out out", 2,
     "chdbc: error: unrecognized arguments: --start-mode bootstrap"),
    ("evolve --problem evolution --out out", 2,
     "chdbc: error: unrecognized arguments: --problem evolution"),
    ("convergence --problem linear --radius 1 --out out", 2,
     "chdbc: error: unrecognized arguments: --radius 1"),
    # os.makedirs fails on "" and on an existing file at or above an evolve --out
    (f"{EVOLVE_SHORT} --out ''", 1,
     "chdbc evolve: error: cannot create output directory '': the path is empty"),
    *((f"{EVOLVE_SHORT} --out {out}", 1, "chdbc evolve: error: cannot create output "
       f"directory {out!r}: 'a_file' is not a directory")
      for out in ("a_file", "a_file/run", "a_file/")),
    # a file --out needs an existing directory and must not be one itself
    *((f"{command} --out {out}", 1,
       f"chdbc {command.split()[0]}: error: cannot write {out!r}: {why}")
      for command, name in ((CONVERGENCE_SHORT, "t.csv"), ("mesh --nodes 20", "m.mesh"))
      for out, why in ((f"nodir/{name}", "directory 'nodir' does not exist"),
                       (f"a_file/{name}", "'a_file' is not a directory"),
                       ("a_dir", "it is a directory"))),
]


@pytest.mark.parametrize("command, code, last_line", REFUSALS,
                         ids=[command for command, _, _ in REFUSALS])
def test_a_refused_command_exits_before_any_work(tmp_path, capsys, monkeypatch,
                                                 command, code, last_line):
    # named in the last line of stderr, with no mesh built, no run started
    # and nothing written
    calls = []

    def no_work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("work started")

    monkeypatch.setattr(cli.meshmod, "generate_disk_mesh", no_work)
    monkeypatch.setattr(cli.integrator, "run", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_bytes(b"kept\n")
    (tmp_path / "a_dir").mkdir()
    with pytest.raises(SystemExit) as exc:
        sys.exit(main(shlex.split(command)))
    assert exc.value.code == code and calls == []
    cap = capsys.readouterr()
    assert cap.err.splitlines()[-1] == last_line and cap.out == ""
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file"]
    assert read(tmp_path / "a_file") == b"kept\n"
    assert os.listdir(tmp_path / "a_dir") == []


@pytest.mark.parametrize("command, last_line", [
    ("convergence --problem linear --tau 1e-300 --out t.csv",
     "chdbc convergence: error: cannot allocate the diagnostics of 1e+300 time levels"),
    ("evolve --T 1e9 --tau 1e-9 --out run",
     "chdbc evolve: error: cannot allocate the diagnostics of 1e+18 time levels"),
    # a disk too large for doubles: its triangle areas overflow
    ("evolve --nodes 20 --radius 1e200 --T 0.0025 --snapshots 0 --out o",
     "chdbc evolve: error: signed area of triangle 0 overflows a double (got inf)"),
    ("mesh --nodes 4 --radius 1e308",
     "chdbc mesh: error: signed area of triangle 0 overflows a double (got inf)"),
    # radius * 2 overflows on the second ring, with no NumPy warning
    ("mesh --nodes 14 --radius 1e308",
     "chdbc mesh: error: node 5 has a non-finite coordinate (inf, nan)"),
])
def test_a_run_that_cannot_be_held_fails_before_the_stepper(
        tmp_path, capsys, monkeypatch, command, last_line):
    calls = []
    monkeypatch.setattr(cli.integrator, "Stepper", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 1 and calls == []
    cap = capsys.readouterr()
    assert cap.err.splitlines() == [last_line] and cap.out == ""
    assert os.listdir(tmp_path) == []


# the extrapolated k = 2, 3 schemes leave their stability region, at the
# defaults (README), on a 160-node unit disk and on a 160-node disk whose run
# reaches T with a finite u; each stops at its first non-finite energy. A
# disk whose areas fit in a double overflows M u / tau in its first step
DIVERGING = [
    ("evolve --k 2 --out run", "aborted at step 71 (t = 0.08875): the energy is inf"),
    ("evolve --k 3 --out run", "aborted at step 10 (t = 0.0125): the energy is inf"),
    ("evolve --nodes 160 --radius 1 --k 3 --tau 0.01 --T 0.1 --snapshots 0,0.1 --out run",
     "aborted at step 7 (t = 0.07): the energy is nan"),
    ("evolve --k 3 --nodes 160 --radius 10 --tau 0.005 --T 0.05 --snapshots 0.05 --out d",
     "aborted at step 10 (t = 0.05): the energy is nan"),
    ("evolve --nodes 20 --radius 1e154 --T 0.0025 --snapshots 0 --out o",
     "aborted at step 1 (t = 0.00125): rhs contains non-finite entries"),
]


@pytest.mark.parametrize("command, last_line", DIVERGING,
                         ids=[command for command, _ in DIVERGING])
def test_a_diverging_evolve_exits_1_naming_its_step_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command, last_line):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 1
    assert capsys.readouterr().err.splitlines() == [f"chdbc evolve: error: {last_line}"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, out", [
    (EVOLVE_SHORT.split(), "new/run"),
    (EVOLVE_SHORT.split(), "a_dir"),
    (CONVERGENCE_SHORT.split(), "t.csv"),
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
        assert read(out / f"snapshot_t{t:g}.csv") == rows_text(rows).encode()
    rows = [["t", "mass", "energy"]]
    rows += [[float(t), float(q), float(e)]
             for t, q, e in zip(traj.times, traj.mass, traj.energy)]
    assert read(out / "diagnostics.csv") == rows_text(rows).encode()


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


# The writers below run under NumPy's 1.13 print options, where a NumPy
# float prints with 12 digits: they must format Python scalars to match
# their references.


def test_render_rows_writes_each_value_as_its_str():
    floats = [[-0.0, 5e-324], [1e16, 0.1 + 0.2], [np.inf, -np.inf]]
    ints = [[2 ** 31, -2 ** 40], [2 ** 62, 7]]
    mixed = [["x", "NA", "y"], [2 ** 40, -0.0, "NA"], [2 ** 70, 5e-324, np.inf]]
    with np.printoptions(legacy="1.13"):
        assert render_rows(np.array(floats), ",") == rows_text(floats)
        assert render_rows(np.array(ints), " ") == rows_text(ints, " ")
        assert render_rows(np.array(mixed, dtype=object), ",") == rows_text(mixed)
        assert render_rows(np.empty((0, 3)), ",") == ""
    assert rows_text(floats) == "-0.0,5e-324\n1e+16,0.30000000000000004\ninf,-inf\n"


def mesh_reference(m):
    text = "MESH v1\n" + ("" if m.radius is None else f"RADIUS {m.radius!r}\n")
    for name, rows in (("NODES", m.nodes), ("TRIANGLES", m.triangles),
                       ("BOUNDARY_EDGES", m.boundary_edges)):
        text += f"{name} {len(rows)}\n" + rows_text(rows.tolist(), " ")
    return text


def test_mesh_files_match_their_per_row_reference(tmp_path):
    out = tmp_path / "disk.mesh"
    with np.printoptions(legacy="1.13"):
        assert main(["mesh", "--nodes", "160", "--radius", "10",
                     "--out", str(out)]) == 0
        union = disjoint_union([generate_disk_mesh(20, 1.0),
                                generate_disk_mesh(40, 2.5)])
        union_text = export_mesh(union)
    assert read(out) == mesh_reference(generate_disk_mesh(160, 10.0)).encode()
    assert read(out).startswith(b"MESH v1\nRADIUS 10.0\nNODES ")
    assert union_text == mesh_reference(union)
    assert "RADIUS" not in union_text


def vtk_reference(m, u, title):
    n, t = m.node_count, len(m.triangles)
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {n} double"]
    lines += [f"{x!r} {y!r} 0.0" for x, y in m.nodes.tolist()]
    lines += [f"CELLS {t} {4 * t}"]
    lines += [f"3 {a} {b} {c}" for a, b, c in m.triangles.tolist()]
    lines += [f"CELL_TYPES {t}"] + ["5"] * t
    lines += [f"POINT_DATA {n}", "SCALARS u double 1", "LOOKUP_TABLE default"]
    lines += [repr(v) for v in u.tolist()]
    return "\n".join(lines) + "\n"


def test_evolve_files_match_their_per_row_references(tmp_path):
    out = tmp_path / "evo"
    with np.printoptions(legacy="1.13"):
        rc = main(["evolve", "--nodes", "80", "--radius", "10", "--k", "1",
                   "--tau", "0.0125", "--T", "0.025", "--snapshots", "0,0.025",
                   "--vtk", "--out", str(out)])
    assert rc == 0
    m = generate_disk_mesh(80, 10.0)
    traj = run(evolution_problem(seed=0), m, 0.0125, 0.025, bdf_scheme(1),
               start_mode="bootstrap", keep=[0, 2])
    for t, u in zip(("0", "0.025"), traj.snapshots):
        csv = [["x", "y", "u"], *np.column_stack([m.nodes, u]).tolist()]
        assert read(out / f"snapshot_t{t}.csv") == rows_text(csv).encode()
        assert read(out / f"snapshot_t{t}.vtk") == vtk_reference(
            m, u, f"u at t={t}").encode()
    diagnostics = [["t", "mass", "energy"], *zip(
        traj.times.tolist(), traj.mass.tolist(), traj.energy.tolist())]
    assert read(out / "diagnostics.csv") == rows_text(diagnostics).encode()
    assert sorted(os.listdir(out)) == sorted(
        ["diagnostics.csv", "snapshot_t0.csv", "snapshot_t0.025.csv",
         "snapshot_t0.vtk", "snapshot_t0.025.vtk"])


def test_one_mesh_convergence_table_matches_its_per_row_reference(tmp_path):
    out = tmp_path / "table.csv"
    with np.printoptions(legacy="1.13"):
        rc = main(["convergence", "--problem", "linear", "--refinements", "2",
                   "--tau", "0.05", "--tau", "0.025", "--T", "0.1", "--out", str(out)])
    assert rc == 0
    spec, m = MANUFACTURED["linear"](), generate_disk_mesh(40, 1.0)
    table = [["i", "nodes", "h", "tau", "err_L2", "err_H1", "eoc_L2", "eoc_H1"]]
    for tau in (0.05, 0.025):
        traj = run(spec, m, tau, 0.1, bdf_scheme(3), start_mode="exact")
        rep = analysis.final_error(spec, m, traj.times[-1], traj.u_final, traj.w_final)
        table.append([2, m.node_count, mesh_size(m), tau, rep.err_L2, rep.err_H1,
                      "NA", "NA"])
    assert read(out) == rows_text(table).encode()


# The CLI grammar, fuzzed in-process. Each option value is valid 3 times in 4
# and hostile otherwise. Valid values keep a run small: at most 80 nodes per
# mesh and 40 steps (T / tau). Hostile ones are refused before any work, or
# are finite extremes (a radius or a strength of 1e308, 5e-324) that a run
# must refuse or survive. `--out` is a new path, or a file where a directory
# belongs, or "" (stdout for `convergence` and `mesh`, as documented).
HOSTILE = ["0", "-0", "nan", "inf", "-inf", "1e308", "5e-324"]


def _value(*valid, hostile=HOSTILE):
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(valid if i else hostile))


def _times(*valid, hostile=()):
    # a comma list of 1-3 valid entries, or a hostile list: empty, repeated
    # or one hostile value
    return _value(*(",".join(c) for c in itertools.chain.from_iterable(
        itertools.combinations(valid, n) for n in (1, 2, 3))),
        hostile=[*HOSTILE, "", ",", f"{valid[0]},{valid[0]}", *hostile])


def _options(required, optional):
    # every required (flag, values) pair, then a drawn subset of the optional
    # ones, each with a drawn value; a value of None is a bare flag
    pairs = st.tuples(*(st.tuples(st.just(f), v) for f, v in required),
                      *(st.one_of(st.none(), st.tuples(st.just(f), v))
                        for f, v in optional))
    return pairs.map(lambda drawn: [a for pair in drawn if pair
                                    for a in (pair[0], pair[1]) if a is not None])


FLAG = st.just(None)
COMMANDS = {
    "convergence": _options(
        [("--problem", _value("linear", "nonlinear", hostile=[*HOSTILE, "", "cubic"])),
         ("--refinements", _times("1", "2", "3", hostile=["9", "1,1"])),
         ("--tau", _value("0.025", "0.05", "0.1", "0.25")),
         ("--T", _value("0.25", "0.5", "1"))],
        [("--tau", _value("0.025", "0.05", "0.1", "0.25")),
         ("--k", _value("1", "2", "3")),
         ("--start-mode", _value("exact", "bootstrap"))]),
    "evolve": _options(
        [("--nodes", _value(*map(str, range(4, 81)))),
         ("--tau", _value("0.00125", "0.0025", "0.005", "0.01")),
         ("--T", _value("0.01", "0.02", "0.05")),
         # the default times lie past every valid T
         ("--snapshots", _times("0", "0.01"))],
        [("--k", _value("1", "2", "3")),
         ("--radius", _value("1", "10", "0.5")),
         ("--seed", _value(*map(str, range(10)), hostile=[*HOSTILE, str(2 ** 64)])),
         ("--strength", _value("1", "10")),
         ("--vtk", FLAG)]),
    "mesh": _options(
        [("--nodes", _value(*map(str, range(4, 81))))],
        [("--radius", _value("1", "10", "0.5")),
         ("--validate", FLAG)]),
}
# where --out points, under a fresh directory holding one file, "blocker"
OUTS = {"evolve": _value("out", hostile=["blocker", "blocker/out", ""]),
        "convergence": _value("out", hostile=["blocker/out", ".", ""]),
        "mesh": _value("out", hostile=["blocker/out", ".", ""])}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    return command, [command, *draw(COMMANDS[command])], draw(OUTS[command])


EVOLVE_TINY = ["evolve", "--nodes", "20", "--tau", "0.01", "--T", "0.05", "--snapshots", "0,0.01"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_argvs())
# the finite extremes that reach work, each with a writable --out: exit 1 from
# the first step, from the mesh and from its generator, exit 0, and exit 1
# from a step matrix whose delta0/tau overflows
@example(("evolve", EVOLVE_TINY + ["--strength", "1e308"], "out"))
@example(("evolve", EVOLVE_TINY + ["--radius", "5e-324"], "out"))
@example(("mesh", ["mesh", "--nodes", "14", "--radius", "1e308"], "out"))
@example(("evolve", EVOLVE_TINY + ["--strength", "5e-324", "--vtk"], "out"))
@example(("evolve", ["evolve", "--nodes", "4", "--tau", "5e-324", "--T", "5e-324",
                     "--snapshots", "0"], "out"))
def test_the_cli_grammar_fuzzed(drawn):
    command, argv, out = drawn
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "blocker").write_bytes(b"kept\n")
        path = str(Path(root) / out) if out else ""
        stdout, stderr = io.StringIO(), io.StringIO()
        # the exit code is 0, 1 or 2, and any other exception fails the test
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv + ["--out", path])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), code
        err = stderr.getvalue()
        assert "Traceback" not in err
        if code == 1:
            assert re.fullmatch(rf"chdbc {command}: error: [^\n]+\n", err), err
        if code == 0:
            assert err == "" or re.fullmatch(r"mesh valid: [^\n]+\n", err), err
        written = {p.relative_to(root).as_posix(): p.read_text()
                   for p in Path(root).rglob("*") if p.is_file()}
        assert written.pop("blocker") == "kept\n"
        assert not [name for name in written if name.endswith(".tmp")]
        if code:
            # a failed run leaves no output path
            assert written == {} and os.listdir(root) == ["blocker"]
        else:
            numbers = [float(token)
                       for text in [stdout.getvalue(), *written.values()]
                       for token in re.split(r"[\s,]+", text)
                       if re.fullmatch(r"[-+]?(\d|\.\d|inf|nan).*", token, re.I)]
            assert numbers and np.isfinite(numbers).all()
