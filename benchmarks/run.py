"""chdbc benchmark: runs the `chdbc` CLI the way a user does and reports metrics.

    python3 benchmarks/run.py --workload evolve-41k --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload

BENCHMARK.json gates two workloads, which together reach every layer:
`evolve-41k`, whose 10-s invocations average out swings in CPU speed, and
`convergence`, the only one that reaches the analysis layer. `evolve-640` and
`mesh-roundtrip` stay defined for runs by hand. Like `convergence`, they are
bound by the Python interpreter. On the shared 2-CPU virtual machine the
baseline was measured on, other tenants' load slowed it by 40-90% for
minutes at a time, and across ten-run batches of 25-s runs their medians
spread by up to 0.33, above the largest bound (0.25) BENCHMARK.json may set.
Gating fewer workloads lets each run measure for longer.

Every invocation is one fresh Python process (`python -m chdbc.cli ...`) with
the checkout's `src` on PYTHONPATH, started only after the previous one has
ended. Each child runs under an address-space limit and a timeout, and its
outputs are checked; a non-zero exit, a timeout, a memory-guard breach or a
failed check counts as a failed invocation.

With `--trace 0` the run alternates shortened set-up invocations and full
ones for `--seconds` seconds and reports the end-to-end metrics of the
workload, each the median over the run's samples: `wall_s` (wall time of
one workload invocation, interpreter start included), `setup_s` (the same
invocation cut to its shortest horizon) and `peak_rss_mb` (the child's
maximum resident set). With `--trace 1` it alternates untraced and
traced invocations (see tracing.py) and reports the per-layer metrics, the
tracing overhead and the share of the traced wall time the layers account
for. Children run with one BLAS thread (see CHILD_THREADS).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give each
metric with its unit, sample count, tail percentile and minimum, the error
rate and the environment. A fuller record goes to `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(HERE, "tracing.py")

# Address-space limit of every child: the 41k-node evolve peaks at 0.47 GB
# resident and 1.4 GB of address space, on a 7 GB machine. A memory
# regression then fails as a counted MemoryError instead of exhausting it.
MEMORY_LIMIT = 4 << 30
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 160.0
IMPORT_REPEATS = 3
# One BLAS thread per child. On a shared 2-CPU virtual machine the second
# OpenBLAS thread made the 640-node run slower (fast mode 1.3 s against
# 1.1 s) and noisier: it spins on the CPU that other tenants also want.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
EVOLVE_TAU = 0.00125

with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Invocation:
    args: List[str]
    check: Callable[["Runner"], Dict[str, float]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `plan(out_dir, seed, setup)` returns the invocations of one sample; with
    setup=True they are cut to the shortest horizon the CLI accepts.
    """

    name: str
    seeded: bool
    plan: Callable[[str, int, bool], List[Invocation]]
    min_samples: int
    timeout_s: float


def _evolve_plan(extra: Sequence[str], T: float, snapshots: Sequence[float],
                 nodes: int):
    def plan(out_dir: str, seed: int, setup: bool) -> List[Invocation]:
        out = os.path.join(out_dir, "evolve")
        args = ["evolve", *extra, "--out", out, "--seed", str(seed)]
        t, snaps = T, snapshots
        if setup:
            t, snaps = EVOLVE_TAU, (0.0,)
            args += ["--T", repr(t), "--snapshots", "0"]
        return [Invocation(args, lambda r: checks.check_evolve(
            out, t, EVOLVE_TAU, snaps, nodes, energy_decay=not setup))]
    return plan


def _convergence_plan(out_dir: str, seed: int, setup: bool) -> List[Invocation]:
    # Deterministic: the seed is ignored. T = 0.05 is the shortest horizon
    # every default tau divides with at least k-1 = 2 steps.
    invocations = []
    for problem in ("linear", "nonlinear"):
        out = os.path.join(out_dir, f"{problem}.csv")
        args = ["convergence", "--problem", problem, "--out", out]
        ref = None if setup else REFERENCE["convergence"][problem]
        if setup:
            args += ["--T", "0.05"]
        invocations.append(Invocation(
            args, lambda r, out=out, ref=ref: checks.check_convergence(out, ref)))
    return invocations


def _mesh_plan(out_dir: str, seed: int, setup: bool) -> List[Invocation]:
    # Deterministic: the seed is ignored. The set-up variant is the smallest
    # mesh the CLI accepts, so it measures start-up, parsing and writing.
    out = os.path.join(out_dir, "disk.mesh")
    nodes = "4" if setup else "40960"
    expect = ({"nodes": 4, "triangles": 3, "boundary_edges": 3} if setup
              else REFERENCE["mesh"])
    args = ["mesh", "--nodes", nodes, "--radius", "10", "--validate", "--out", out]
    return [Invocation(args, lambda r: checks.check_mesh(out, expect, r.mesh_digests))]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The paper's experiment: 2400 steps on 640 nodes, per-step path bound.
    Workload("evolve-640", True,
             _evolve_plan((), 3.0, (0.0, 0.5, 1.0, 2.0, 3.0),
                          REFERENCE["evolve_nodes"]["640"]),
             min_samples=3, timeout_s=40.0),
    # 100 steps on 40 955 nodes: set-up, LU fill and large solves dominate.
    Workload("evolve-41k", True,
             _evolve_plan(("--nodes", "40960", "--T", "0.125",
                           "--snapshots", "0,0.125"), 0.125, (0.0, 0.125),
                          REFERENCE["evolve_nodes"]["40960"]),
             min_samples=2, timeout_s=70.0),
    # 40 short runs with non-zero forcings, checked against the seed's table.
    Workload("convergence", False, _convergence_plan,
             min_samples=3, timeout_s=40.0),
    # Mesh generation, validation, export and re-import with no solver, at
    # 40 960 nodes: at 163 840 nodes one invocation took 6-8 s, too few per
    # run for a steady figure.
    Workload("mesh-roundtrip", False, _mesh_plan,
             min_samples=3, timeout_s=40.0),
)}


# -- statistics ---------------------------------------------------------------

# Candidate percentiles, in per mille so the sample-count rule stays exact.
PERCENTILES_PM = (999, 990, 950, 900, 750, 500)


def percentile(samples: Sequence[float], per_mille: int) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * per_mille / 1000
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(p, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    for pm in PERCENTILES_PM:
        if n * (1000 - pm) >= 10 * 1000:
            return pm / 10, percentile(samples, pm)
    return None


def describe(name: str, unit: str, samples: Sequence[float]) -> str:
    """One human-readable line: median, sample count, tail percentile, minimum."""
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f}" if tail
                 else "no percentile has >= 10 samples beyond it")
    return (f"  {name:<14} median {statistics.median(samples):.4f} {unit}, "
            f"n={len(samples)}; {tail_text}; min {min(samples):.4f}")


# -- child processes ----------------------------------------------------------

@dataclass
class ChildResult:
    wall_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stderr_tail: str


def _limit_memory() -> None:  # runs in the child between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_child(argv: List[str], env: Dict[str, str], timeout_s: float,
              log_path: str) -> ChildResult:
    """Run argv to completion (or kill it at the timeout); time it and
    take its peak RSS from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, preexec_fn=_limit_memory)
        pidfd = os.pidfd_open(proc.pid)
        timed_out, reaped = False, False
        try:
            if not select.select([pidfd], [], [], max(timeout_s, 0.0))[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                timed_out = True
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            wall = time.perf_counter() - start
        finally:
            if not reaped:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "rb") as fh:
        tail = fh.read()[-2000:].decode(errors="replace")
    return ChildResult(wall, usage.ru_maxrss / 1024, proc.returncode, timed_out, tail)


# -- the run --------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    ok: bool
    invocations: int = 0
    bytes_written: int = 0
    spans: list = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    diagnostics: Dict[str, float] = field(default_factory=dict)


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Runner:
    """Runs one workload's invocations and tallies attempts and failures."""

    def __init__(self, seconds: float, deadline: float):
        self.seconds = seconds
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.samples: Dict[str, List[float]] = {}  # raw values, for the record
        self.mesh_digests: set = set()  # meshes already re-imported
        self.env = dict(os.environ, **CHILD_THREADS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def sample(self, workload: Workload, seed: int, setup: bool,
               traced: bool = False) -> Optional[Sample]:
        """One workload invocation set; None once the run deadline is near."""
        if self.time_left() < 2.0:
            return None
        tmp = tempfile.mkdtemp(dir=WORK)
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        result = Sample(0.0, 0.0, True)
        try:
            for n, inv in enumerate(workload.plan(out_dir, seed, setup)):
                spans_path = os.path.join(tmp, f"spans{n}.marshal")
                head = ([sys.executable, TRACER, spans_path, "--"] if traced
                        else [sys.executable, "-m", "chdbc.cli"])
                timeout = min(workload.timeout_s, self.time_left())
                child = run_child(head + inv.args, self.env, timeout,
                                  os.path.join(tmp, f"log{n}.txt"))
                self.attempted += 1
                result.invocations += 1
                result.wall_s += child.wall_s
                result.rss_mb = max(result.rss_mb, child.rss_mb)
                problem = None
                if child.timed_out:
                    problem = f"timed out after {timeout:.0f} s"
                elif child.exit_code != 0:
                    guard = " (memory guard)" if "MemoryError" in child.stderr_tail else ""
                    last = (child.stderr_tail.strip().splitlines() or [""])[-1]
                    problem = f"exit code {child.exit_code}{guard}: {last}"
                else:
                    try:
                        result.diagnostics.update(inv.check(self))
                    except (checks.CheckFailed, ValueError, OSError) as exc:
                        problem = f"output check failed: {exc}"
                if problem is not None:
                    self.failed += 1
                    result.ok = False
                    self.failures.append(f"{' '.join(inv.args[:3])}: {problem}")
                if traced and os.path.exists(spans_path):
                    record = tracing.read_spans(spans_path)
                    offset = len(result.spans)
                    result.spans += [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4]]
                                     for s in record["spans"]]
                    result.missing = sorted(set(result.missing) | set(record["missing"]))
            result.bytes_written = _tree_bytes(out_dir)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return result

    def import_time(self) -> float:
        """Median wall time of `import chdbc.cli` in fresh processes."""
        times = []
        for n in range(IMPORT_REPEATS):
            child = run_child([sys.executable, "-c", "import chdbc.cli"], self.env,
                              min(30.0, self.time_left()),
                              os.path.join(WORK, "import.log"))
            self.attempted += 1
            if child.exit_code != 0 or child.timed_out:
                self.failed += 1
                self.failures.append(f"import chdbc.cli: {child.stderr_tail.strip()[-200:]}")
            times.append(child.wall_s)
        return statistics.median(times)


def end_to_end(runner: Runner, workload: Workload, seed: int) -> Tuple[dict, List[str]]:
    # Set-up and full samples alternate, so both come from the same stretch
    # of time.
    setup, walls, rss, diagnostics = [], [], [], {}
    start = time.perf_counter()
    while len(walls) < workload.min_samples or time.perf_counter() - start < runner.seconds:
        short = runner.sample(workload, seed, True)
        full = short and runner.sample(workload, seed, False)
        if not full:
            break
        setup.append(short.wall_s)
        walls.append(full.wall_s)
        rss.append(full.rss_mb)
        diagnostics = full.diagnostics or diagnostics
    runner.samples.update(wall_s=walls, setup_s=setup, peak_rss_mb=rss)
    # Medians, not minima: on a shared virtual machine other tenants' load
    # slowed runs by 40-90% for seconds to minutes at a time, and over
    # ten-run batches the spread of run minima reached 0.37, that of run
    # medians 0.33.
    metrics = {
        "wall_s": (walls, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [describe(name, unit, xs) for name, (xs, unit) in metrics.items() if xs]
    if diagnostics:
        lines.append("  diagnostics (not checked): " + ", ".join(
            f"{k}={v:g}" for k, v in sorted(diagnostics.items())))
    return ({name: {"value": statistics.median(xs), "unit": unit}
             for name, (xs, unit) in metrics.items() if xs}, lines)


EXTRA_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}


def per_layer(runner: Runner, workload: Workload, seed: int) -> Tuple[dict, List[str]]:
    plain, traced, layer_values, missing = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < runner.seconds:
        # The import probe runs next to the traced invocation it is
        # compared with, so both see the same CPU speed.
        a = runner.sample(workload, seed, False)
        import_s = a and runner.import_time()
        b = import_s and runner.sample(workload, seed, False, traced=True)
        if not b:
            break
        plain.append(a.wall_s)
        traced.append(b.wall_s)
        values = tracing.layer_metrics(b.spans, b.missing)
        layer_self = sum(t for s, t in zip(b.spans, tracing.self_times(b.spans))
                         if s[0].split(".")[0] in tracing.LAYERS)
        values.update({
            "cli.import_s": import_s,
            "cli.bytes_written": b.bytes_written,
            "trace.wall_s": b.wall_s,
            "trace.accounted_share": (layer_self + b.invocations * import_s) / b.wall_s,
        })
        layer_values.append(values)
        missing = b.missing
    runner.samples.update(untraced_wall_s=plain, traced_wall_s=traced)
    if not traced:
        return {}, ["  no traced invocation finished before the deadline"]
    units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    units.update(EXTRA_LAYER_UNITS)
    metrics, lines = {}, []
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        else:
            xs = [v[name] for v in layer_values]
            value = None if None in xs else statistics.median(xs)
        if value is None:
            metrics[name] = {"value": None, "unit": unit, "missing": True}
            lines.append(f"  {name:<28} missing")
        else:
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<28} {value:14.6g} {unit}")
    lines.append(f"  traced invocations: {len(traced)}; entry points gone: "
                 f"{', '.join(missing) if missing else 'none'}")
    return metrics, lines


# -- environment ----------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def environment(seed: int, workload: Workload) -> Dict[str, object]:
    """What a result depends on besides the code: machine, versions, seed."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "child_thread_env": CHILD_THREADS,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "seed_passed_to_cli": workload.seeded,
    }


# -- entry ----------------------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 deadline: float) -> Tuple[dict, Runner, List[str]]:
    runner = Runner(seconds, deadline)
    measure = per_layer if trace else end_to_end
    metrics, lines = measure(runner, workload, seed)
    env = environment(seed, workload)
    seed_note = ("passed to the CLI as --seed" if workload.seeded
                 else "ignored: the workload is deterministic")
    rate = runner.failed / max(runner.attempted, 1)
    head = [f"workload {workload.name} (seed {seed}, {seed_note}; "
            f"{'traced' if trace else 'untraced'})"]
    tail = [f"  {'error_rate':<14} {rate:12.4f} ratio  "
            f"{runner.failed} failed of {runner.attempted} invocations"]
    tail += [f"  FAILED {msg}" for msg in runner.failures[:10]]
    tail.append("  env " + json.dumps(env, sort_keys=True))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{workload.name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"workload": workload.name, "environment": env, "metrics": metrics,
                   "attempted": runner.attempted, "failed": runner.failed,
                   "failures": runner.failures, "samples": runner.samples}, fh, indent=1)
    return metrics, runner, head + lines + tail


def prepare() -> None:
    """Fail fast without the package sources; compile them once so that
    no measured invocation pays for writing bytecode."""
    if not os.path.isfile(os.path.join(SRC, "chdbc", "cli.py")):
        sys.exit(f"benchmark: no chdbc sources under {SRC}")
    os.makedirs(WORK, exist_ok=True)
    sys.path.insert(0, SRC)  # checks.check_mesh re-imports meshes with the package
    if not compileall.compile_dir(SRC, quiet=1):
        sys.exit("benchmark: the chdbc sources do not compile")


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="minimum measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    prepare()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for name in names:
        deadline = (time.perf_counter() + RUN_DEADLINE_S if args.workload == "all"
                    else started + RUN_DEADLINE_S)
        w_metrics, runner, lines = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline)
        print("\n".join(lines), flush=True)
        attempted += runner.attempted
        failed += runner.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in w_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
