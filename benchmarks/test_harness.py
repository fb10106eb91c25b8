"""Tests of the benchmark harness's own logic.

    python3 -m pytest benchmarks -q
"""

import os
import sys
import types

import pytest

import checks
import run
import tracing


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.inner", 2.0, 3.0, 1, None],
        ["b", 5.0, 7.0, 0, None],
        ["other_root", 11.0, 12.5, -1, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 4.0, -1, None],
             ["c1", 1.0, 3.0, 0, None], ["c2", 2.0, 3.5, 0, None]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


@pytest.mark.parametrize("n, expected_p", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p):
    samples = [float(i) for i in range(n)]
    tail = run.tail_percentile(samples)
    if expected_p is None:
        assert tail is None
    else:
        p, value = tail
        assert p == expected_p
        assert value == pytest.approx((n - 1) * p / 100)
        assert sum(1 for x in samples if x > value) >= 10


def test_describe_states_median_and_sample_count():
    line = run.describe("wall_s", "s", [3.0, 1.0, 2.0])
    assert "median 2.0000 s" in line and "min 1.0000" in line
    assert "n=3" in line and "no percentile" in line


def _one_invocation_workload(check):
    def plan(out_dir, seed, setup):
        out = os.path.join(out_dir, "disk.mesh")
        return [run.Invocation(["mesh", "--nodes", "4", "--out", out],
                               lambda r: check(out))]
    return run.Workload("probe", False, plan, min_samples=1, timeout_s=60.0)


def _runner():
    run.prepare()
    return run.Runner(seconds=0.0, deadline=run.time.perf_counter() + 120.0)


def test_failed_output_check_counts_as_failed_invocation():
    def bad_check(path):
        raise checks.CheckFailed("deliberately rejected")

    runner = _runner()
    sample = runner.sample(_one_invocation_workload(bad_check), 0, False)
    assert not sample.ok
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "deliberately rejected" in runner.failures[0]

    sample = runner.sample(_one_invocation_workload(lambda path: {}), 0, False)
    assert sample.ok and sample.wall_s > 0 and sample.rss_mb > 0
    assert (runner.attempted, runner.failed) == (2, 1)


def test_nonzero_exit_counts_as_failed_invocation():
    def plan(out_dir, seed, setup):
        return [run.Invocation(["mesh", "--nodes", "2"], lambda r: {})]

    runner = _runner()
    workload = run.Workload("probe", False, plan, 1, 60.0)
    assert not runner.sample(workload, 0, False).ok
    assert runner.failed == 1 and "exit code 2" in runner.failures[0]


def test_evolve_check_rejects_mass_drift(tmp_path):
    (tmp_path / "snapshot_t0.csv").write_text("x,y,u\n0.0,0.0,1.0\n")
    diag = "t,mass,energy\n0.0,2.0,5.0\n0.5,2.0,4.0\n1.0,2.000001,3.0\n"
    (tmp_path / "diagnostics.csv").write_text(diag)
    with pytest.raises(checks.CheckFailed, match="mass drift"):
        checks.check_evolve(str(tmp_path), 1.0, 0.5, (0.0,), 1)
    (tmp_path / "diagnostics.csv").write_text(diag.replace("2.000001", "2.0"))
    out = checks.check_evolve(str(tmp_path), 1.0, 0.5, (0.0,), 1)
    assert out["energy_increases"] == 0


def test_convergence_check_compares_against_seed_table(tmp_path):
    ref = [[1, 20, 0.025, 0.04, 0.1], [2, 40, 0.025, 0.01, 0.05]]
    table = ("i,nodes,h,tau,err_L2,err_H1,eoc_L2,eoc_H1\n"
             "1,20,0.8,0.025,0.04,0.1,NA,NA\n"
             "2,40,0.4,0.025,{e},0.05,2.0,1.0\n")
    path = tmp_path / "t.csv"
    path.write_text(table.format(e="0.01"))
    checks.check_convergence(str(path), ref)
    path.write_text(table.format(e="0.0100001"))
    with pytest.raises(checks.CheckFailed, match="err_L2"):
        checks.check_convergence(str(path), ref)


def _fake_package(monkeypatch):
    core = types.ModuleType("fakepkg.core")
    core.work = lambda x: x + 1
    user = types.ModuleType("fakepkg.user")
    user.work = core.work  # a second module binding the same function by name
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


def test_vanished_entry_point_is_reported_missing(monkeypatch):
    core, user = _fake_package(monkeypatch)
    recorder = tracing.Recorder()
    entry_points = (("mesh.generate", "fakepkg.core", "work"),
                    ("saddle.solve", "fakepkg.core", "Gone.solve"))
    missing = tracing.install(recorder, "fakepkg", entry_points,
                              factories=(("fakepkg.core", "make_problem"),))
    assert missing == ["fakepkg.core.make_problem", "fakepkg.core.Gone.solve"]
    assert user.work(1) == 2 and core.work(2) == 3
    assert [s[0] for s in recorder.spans] == ["mesh.generate", "mesh.generate"]

    values = tracing.layer_metrics(recorder.spans,
                                   ["chdbc.saddle.StepMatrix.solve"])
    for name in ("saddle.solve_s", "saddle.solve_calls", "saddle.solve_ms_p50",
                 "saddle.residual_max"):
        assert values[name] is None
    assert values["mesh.generate_calls"] == 2
    assert values["saddle.factor_calls"] == 0


def test_unreadable_fill_is_missing_not_zero():
    spans = [["saddle.factor", 0.0, 1.0, -1, {"nnz": None}],
             ["saddle.solve", 1.0, 1.5, -1, None]]
    values = tracing.layer_metrics(spans)
    assert values["saddle.lu_nnz"] is None and values["saddle.residual_max"] is None
    assert values["saddle.factor_calls"] == 1 and values["saddle.solve_calls"] == 1


def test_raising_entry_point_counts_as_layer_error(monkeypatch):
    core, _ = _fake_package(monkeypatch)
    core.work = lambda x: 1 / x
    recorder = tracing.Recorder()
    tracing.install(recorder, "fakepkg", (("assembly.load", "fakepkg.core", "work"),),
                    factories=())
    with pytest.raises(ZeroDivisionError):
        core.work(0)
    values = tracing.layer_metrics(recorder.spans)
    assert values["assembly.errors"] == 1 and values["assembly.load_calls"] == 1


def test_traced_evolve_classifies_fields_and_spans_layers():
    def plan(out_dir, seed, setup):
        out = os.path.join(out_dir, "evolve")
        args = ["evolve", "--nodes", "20", "--radius", "1", "--T", "0.0025",
                "--snapshots", "0", "--out", out, "--seed", "3"]
        return [run.Invocation(args, lambda r: checks.check_evolve(
            out, 0.0025, 0.00125, (0.0,), 20, energy_decay=False))]

    runner = _runner()
    sample = runner.sample(run.Workload("probe", True, plan, 1, 60.0), 3, False,
                           traced=True)
    assert sample.ok and runner.failed == 0 and sample.missing == []
    values = tracing.layer_metrics(sample.spans, sample.missing)
    # two steps plus the recovery of w^0, four forcings each
    assert values["problems.forcing_calls"] == 12
    assert values["saddle.solve_calls"] == 2
    assert values["saddle.factor_calls"] == 1 and values["saddle.lu_nnz"] > 0
    assert values["problems.u0_s"] > 0 and values["saddle.residual_max"] < 1e-10
    assert values["integrator.run_calls"] == 1
    assert all(v is not None for v in values.values())


def test_mesh_check_rejects_changed_bytes(tmp_path):
    path = tmp_path / "disk.mesh"
    path.write_text("MESH v1\n")
    with pytest.raises(checks.CheckFailed, match="sha256"):
        checks.check_mesh(str(path), {"sha256": "0" * 64}, set())
