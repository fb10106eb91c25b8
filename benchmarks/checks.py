"""Output checks for the benchmark's chdbc invocations.

Each check raises CheckFailed with a message naming the first defect. The
tolerances are those of the acceptance suite: relative mass drift <= 1e-10
(criterion 5), finest-pair L2 EOC in [1.7, 2.3] (criteria 1-2), and the
convergence errors within relative 1e-6 of the seed's table.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

MASS_DRIFT_MAX = 1e-10
EOC_BAND = (1.7, 2.3)
ERROR_RTOL = 1e-6


class CheckFailed(Exception):
    """An invocation produced output that does not pass its check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _numeric_csv(path: str, header: Sequence[str]) -> np.ndarray:
    _require(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        first = fh.readline().strip()
        _require(first == ",".join(header),
                 f"{os.path.basename(path)}: header {first!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header),
             f"{os.path.basename(path)}: {data.shape[1]} columns")
    _require(bool(np.isfinite(data).all()),
             f"{os.path.basename(path)}: non-finite value")
    return data


def check_evolve(out_dir: str, T: float, tau: float, snapshots: Sequence[float],
                 nodes: int, energy_decay: bool = True) -> Dict[str, float]:
    """Snapshots and diagnostics of one `chdbc evolve` run.

    `energy_decay` requires the final energy below the initial one; the
    one-step set-up runs skip it, since the first step from +/-1 data
    raises the potential energy. The energy is not required to decrease
    monotonically: the count and largest size of its increases are returned
    as diagnostics instead.
    """
    for t in snapshots:
        snap = _numeric_csv(os.path.join(out_dir, f"snapshot_t{t:g}.csv"),
                            ("x", "y", "u"))
        _require(snap.shape[0] == nodes,
                 f"snapshot t={t:g}: {snap.shape[0]} rows, expected {nodes}")
    diag = _numeric_csv(os.path.join(out_dir, "diagnostics.csv"),
                        ("t", "mass", "energy"))
    steps = round(T / tau)
    _require(diag.shape[0] == steps + 1,
             f"diagnostics: {diag.shape[0]} rows, expected {steps + 1}")
    _require(abs(diag[-1, 0] - T) <= 1e-9 * max(1.0, T),
             f"diagnostics: final t={float(diag[-1, 0])!r}, expected {T}")
    mass = diag[:, 1]
    drift = float(np.abs(mass - mass[0]).max() / abs(mass[0]))
    _require(drift <= MASS_DRIFT_MAX,
             f"relative mass drift {drift:.3e} > {MASS_DRIFT_MAX}")
    energy = diag[:, 2]
    _require(not energy_decay or energy[-1] < energy[0],
             f"final energy {float(energy[-1])!r} not below initial {float(energy[0])!r}")
    rises = np.diff(energy)
    return {"energy_increases": int((rises > 0).sum()),
            "energy_increase_max": float(max(rises.max(), 0.0)) if len(rises) else 0.0}


def check_convergence(path: str, reference: Optional[List[list]]) -> Dict[str, float]:
    """Error table of one `chdbc convergence` run.

    With a reference (rows of i, nodes, tau, err_L2, err_H1) every error must
    match it within ERROR_RTOL and the finest-pair L2 EOC of each step size
    must lie in EOC_BAND. Without one, for the shortened set-up runs, the
    errors need only be finite and non-negative: with T = 0.05 the largest
    tau takes no step beyond the exact starting values, so its error is 0.
    """
    _require(os.path.isfile(path), "missing convergence table")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) > 0, "empty convergence table")
    for row in rows:
        for key in ("err_L2", "err_H1"):
            v = float(row[key])
            _require(math.isfinite(v) and v >= 0, f"{key}={row[key]} at i={row['i']}")
    if reference is None:
        return {}
    _require(len(rows) == len(reference),
             f"{len(rows)} rows, expected {len(reference)}")
    for row, (i, nodes, tau, e2, e1) in zip(rows, reference):
        _require((int(row["i"]), int(row["nodes"]), float(row["tau"])) == (i, nodes, tau),
                 f"row i={row['i']} tau={row['tau']}, expected i={i} tau={tau}")
        for key, want in (("err_L2", e2), ("err_H1", e1)):
            got = float(row[key])
            _require(abs(got - want) <= ERROR_RTOL * abs(want),
                     f"{key} at i={i} tau={tau}: {got!r}, seed {want!r}")
    finest = max(int(r["i"]) for r in rows)
    eocs = [float(r["eoc_L2"]) for r in rows if int(r["i"]) == finest]
    lo, hi = EOC_BAND
    for eoc in eocs:
        _require(lo <= eoc <= hi, f"finest-pair eoc_L2 {eoc!r} outside [{lo}, {hi}]")
    return {"eoc_L2_min": min(eocs)}


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_mesh(path: str, expect: Dict[str, object], imported: Set[str]) -> Dict[str, float]:
    """Mesh file of one `chdbc mesh` run.

    The file is re-imported with the package's own parser, which takes
    seconds at 41k nodes, unless a file with the same digest is already in
    `imported`: identical bytes re-import identically.
    """
    _require(os.path.isfile(path), "missing mesh file")
    digest = sha256_of(path)
    if "sha256" in expect:
        _require(digest == expect["sha256"],
                 f"mesh sha256 {digest[:16]}... differs from the seed's")
    if digest not in imported:
        from chdbc.mesh import import_mesh
        with open(path) as fh:
            mesh = import_mesh(fh.read())
        got = (mesh.node_count, len(mesh.triangles), len(mesh.boundary_edges))
        want = (expect["nodes"], expect["triangles"], expect["boundary_edges"])
        _require(got == want, f"re-imported counts {got}, expected {want}")
        imported.add(digest)
    return {}
