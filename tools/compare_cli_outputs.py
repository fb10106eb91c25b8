"""Compare the CLI outputs of this checkout's src/ with those of a git revision.

Usage: python tools/compare_cli_outputs.py REV

REV's src/ is extracted with `git archive` into a temporary directory. Each
command of COMMANDS then runs once on each tree, with one BLAS thread and in
a fresh working directory. The exit codes, stdout, stderr and every file a
command writes are compared byte for byte. Prints one line per command and
exits 1 if any of them differs, 0 if none does.

An output whose bytes differ but whose numbers line up one for one (the
same text between them) is a round-off candidate: it gets a second line
with the largest relative difference of its numbers, |a - b| / max(|a|, |b|),
and the row where it occurs. It still counts as a difference.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parents[1]

# (name, chdbc arguments); an output directory is relative to the run's own
# working directory
COMMANDS: Tuple[Tuple[str, List[str]], ...] = (
    ("convergence-linear", ["convergence", "--problem", "linear"]),
    ("convergence-nonlinear", ["convergence", "--problem", "nonlinear"]),
    ("convergence-nonlinear-bootstrap",
     ["convergence", "--problem", "nonlinear", "--start-mode", "bootstrap"]),
    ("convergence-linear-k1-bootstrap",
     ["convergence", "--problem", "linear", "--k", "1", "--start-mode", "bootstrap"]),
    # non-default sweeps: a gap in the refinements with a 640-node mesh at
    # k = 2, and a sweep of one mesh
    ("convergence-nonlinear-k2-gapped",
     ["convergence", "--problem", "nonlinear", "--k", "2", "--refinements", "1,3,6",
      "--tau", "0.01", "--tau", "0.02", "--T", "0.2"]),
    ("convergence-linear-one-mesh",
     ["convergence", "--problem", "linear", "--refinements", "4", "--T", "0.1"]),
    # parts of 640 to 2560 nodes, the largest any command measures errors on
    ("convergence-nonlinear-fine",
     ["convergence", "--problem", "nonlinear", "--refinements", "6,7,8",
      "--tau", "0.0125", "--T", "0.05"]),
    # at T = 0.05 the tau = 0.025 run is two steps, all starting values of
    # BDF3, so no main step matrix is factorized
    ("convergence-nonlinear-starts-only",
     ["convergence", "--problem", "nonlinear", "--T", "0.05"]),
    ("evolve-vtk", ["evolve", "--seed", "0", "--vtk", "--out", "out"]),
    ("evolve-k2-small-tau",
     ["evolve", "--nodes", "160", "--radius", "1", "--k", "2", "--tau", "1e-5",
      "--T", "1e-3", "--snapshots", "0,0.001", "--out", "out"]),
    # the dissection and the row renderer at size, in the CSVs and in VTK
    ("evolve-10k-two-snapshots",
     ["evolve", "--nodes", "10240", "--T", "0.0125", "--snapshots", "0,0.0125",
      "--out", "out"]),
    ("evolve-10k-vtk",
     ["evolve", "--nodes", "10240", "--T", "0.0125", "--snapshots", "0.0125",
      "--vtk", "--out", "out"]),
    ("mesh-41k", ["mesh", "--nodes", "40960", "--radius", "10", "--validate"]),
    # the reader at size: --validate re-imports the 12.4 MB text it wrote
    ("mesh-164k", ["mesh", "--nodes", "163840", "--radius", "10", "--validate"]),
    ("mesh-20", ["mesh", "--nodes", "20", "--radius", "1"]),
    # error paths: their messages and exit codes are outputs too
    ("evolve-strength-inf", ["evolve", "--strength", "inf", "--out", "out"]),
    ("convergence-tau-not-dividing",
     ["convergence", "--problem", "linear", "--tau", "0.3"]),
    # the usage line as well as the message of a non-positive step size
    ("evolve-tau-0", ["evolve", "--tau", "0", "--out", "out"]),
    # argparse's usage line and invalid-choice message list the problem names
    ("convergence-unknown-problem", ["convergence", "--problem", "stokes"]),
    ("evolve-k3-diverges",
     ["evolve", "--nodes", "160", "--radius", "1", "--k", "3", "--tau", "0.01",
      "--T", "1", "--snapshots", "0", "--out", "out"]),
    # an empty output directory is refused before the run
    ("evolve-empty-out",
     ["evolve", "--nodes", "20", "--radius", "1", "--tau", "0.005", "--T", "0.01",
      "--snapshots", "0", "--out", ""]),
    # step counts (1e300 and 1e18) too large for the per-level diagnostics
    ("convergence-tau-1e-300", ["convergence", "--problem", "linear", "--tau", "1e-300"]),
    ("evolve-1e18-steps", ["evolve", "--T", "1e9", "--tau", "1e-9", "--out", "out"]),
    # disks too large for doubles: their triangle areas overflow
    ("evolve-radius-1e200",
     ["evolve", "--nodes", "20", "--radius", "1e200", "--T", "0.0025", "--snapshots", "0",
      "--out", "out"]),
    ("mesh-radius-1e308", ["mesh", "--nodes", "4", "--radius", "1e308"]),
    # its areas fit in a double, but M u / tau of its first step does not
    ("evolve-radius-1e154",
     ["evolve", "--nodes", "20", "--radius", "1e154", "--T", "0.0025", "--snapshots", "0",
      "--out", "out"]),
    # diverges but reaches T with a finite u: its energy at T is not finite
    ("evolve-k3-diverges-finite",
     ["evolve", "--k", "3", "--nodes", "160", "--radius", "10", "--tau", "0.005",
      "--T", "0.05", "--snapshots", "0.05", "--out", "out"]),
    # one step on a connected disk where 32-bit edge keys collide
    ("evolve-164k-one-step",
     ["evolve", "--nodes", "163840", "--T", "0.00125", "--snapshots", "0", "--out", "out"]),
)

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def extract_src(rev: str, dest: Path) -> Path:
    """Write REV's src/ under dest and return the path of that src/."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run_command(src: Path, args: List[str], cwd: Path) -> Dict[str, bytes]:
    """Run `chdbc args` from src in cwd; return its exit code, streams and files."""
    cwd.mkdir(parents=True)
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "chdbc.cli", *args], cwd=cwd,
                          env=env, capture_output=True)
    result = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
              "stderr": proc.stderr}
    for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
        result[f"file {path.relative_to(cwd)}"] = path.read_bytes()
    return result


def numeric_diff(old: bytes, new: bytes) -> Optional[str]:
    """Describe the largest relative difference of the numbers of two texts.

    None unless the texts hold the same text between their numbers; the row
    is a line number and the line of `new`.
    """
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    worst, at = 0.0, 0
    for a, b in zip(NUMBER.finditer(old), NUMBER.finditer(new)):
        x, y = float(a[0]), float(b[0])
        rel = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
        if rel > worst:
            worst, at = rel, b.start()
    if worst == 0.0:
        return "numbers equal, spelled differently"
    row = new.count(b"\n", 0, at)
    line = new.split(b"\n")[row].decode(errors="replace")
    return f"numbers differ by at most {worst:.2e} relative, row {row + 1}: {line}"


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/compare_cli_outputs.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="chdbc-compare-") as tmp:
        tmp = Path(tmp)
        try:
            rev_src = extract_src(rev, tmp / "rev")
        except subprocess.CalledProcessError as exc:
            print(f"git archive {rev} failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        differ = 0
        for name, args in COMMANDS:
            old = run_command(rev_src, args, tmp / "runs" / "rev" / name)
            new = run_command(REPO / "src", args, tmp / "runs" / "checkout" / name)
            diffs = sorted(key for key in old.keys() | new.keys()
                           if old.get(key) != new.get(key))
            differ += bool(diffs)
            print(f"{name}: " + (f"DIFFERS in {', '.join(diffs)}" if diffs else
                                 f"same (exit {new['exit code'].decode()}, "
                                 f"{len(new) - 3} file(s))"))
            for key in diffs:
                if key in old and key in new:
                    detail = numeric_diff(old[key], new[key])
                    if detail:
                        print(f"  {key}: {detail}")
        print(f"{differ} of {len(COMMANDS)} command(s) differ from {rev}")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
