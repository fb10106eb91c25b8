"""Command-line entry points.

Three subcommands: `convergence` sweeps mesh refinements and step sizes on a
manufactured problem and emits an error/EOC table, `evolve` runs the
phase-separation problem and emits node-value snapshots plus a diagnostics
series, `mesh` generates and exports a disk triangulation. All outputs are
deterministic CSV/text; an optional legacy-ASCII VTK export serves external
visualization.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from . import analysis, integrator, mesh as meshmod, problems

DEFAULT_TAUS = (0.025, 0.0125, 0.005, 0.0025)
DEFAULT_SNAPSHOT_TIMES = (0.0, 0.5, 1.0, 2.0, 3.0)


def _csv(header: str, *columns: np.ndarray) -> str:
    # the header line, then row i holds entry i of every column
    return header + "\n" + meshmod.render_rows(np.column_stack(columns), ",")


def _write_files(files: Iterable[Tuple[str, Callable[[], str]]]) -> None:
    """Write every (path, render) pair, all or nothing.

    Each text is rendered and written in turn to a new temporary file next
    to its path, so memory holds one text at a time. The files are renamed
    into place only after all of them are written, so a failed render or
    write leaves every target as it was. On any failure the temporary files
    are removed.
    """
    written = []
    try:
        for path, render in files:
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "x", newline="\n") as fh:
                written.append((tmp, path))
                fh.write(render())
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _emit(path: Optional[str], text: str) -> None:
    # an --out path gets the text as one file; no path sends it to stdout
    if path:
        _write_files([(path, lambda: text)])
    else:
        sys.stdout.write(text)


def _check_out_file(path: Optional[str]) -> None:
    # refuse up front what _emit would fail on once the work is done
    if not path:
        return
    where = os.path.dirname(path) or "."
    if os.path.exists(where) and not os.path.isdir(where):
        raise OSError(f"cannot write {path!r}: {where!r} is not a directory")
    if not os.path.isdir(where):
        raise OSError(f"cannot write {path!r}: directory {where!r} does not exist")
    if os.path.isdir(path):
        raise OSError(f"cannot write {path!r}: it is a directory")


def _check_out_dir(path: str) -> None:
    # os.makedirs fails on "", and if the nearest existing path at or above
    # `path` is not a directory; a walk that ends at "" reached the cwd
    if not path:
        raise OSError(f"cannot create output directory {path!r}: the path is empty")
    there = path
    while there and not os.path.lexists(there):
        there = os.path.dirname(there)
    if there and not os.path.isdir(there):
        raise OSError(f"cannot create output directory {path!r}: "
                      f"{there!r} is not a directory")


def _list_of(convert: Callable, kind: str) -> Callable[[str], list]:
    # an argparse type for a comma-separated list of `kind`
    def parse(text: str) -> list:
        try:
            return [convert(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chdbc",
        description="Finite element solver for the Cahn-Hilliard equation "
                    "with dynamic Cahn-Hilliard boundary conditions on a disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser(
        "convergence",
        help="manufactured-solution refinement sweep, emits a CSV error table",
    )
    conv.add_argument("--problem", required=True, choices=problems.MANUFACTURED)
    conv.add_argument("--k", type=int, default=3, choices=[1, 2, 3],
                      help="BDF order (default 3)")
    conv.add_argument("--refinements", type=_list_of(int, "integers"),
                      default=[1, 2, 3, 4, 5],
                      help="comma list of refinement indices i (nodes = 2^i*10)")
    conv.add_argument("--tau", type=float, action="append", default=None,
                      help="time step size, repeatable "
                           f"(default {','.join(map(str, DEFAULT_TAUS))})")
    conv.add_argument("--T", type=float, default=1.0, help="final time (default 1)")
    conv.add_argument("--start-mode", choices=["exact", "bootstrap"], default="exact")
    conv.add_argument("--out", default=None, help="CSV path (default stdout)")

    evo = sub.add_parser(
        "evolve",
        help="phase separation run, emits snapshot and diagnostics CSVs",
    )
    # k=1 default: the extrapolated k>=2 variants sit outside their linear
    # stability region at the default 640-node/radius-10/tau=0.00125 setup.
    evo.add_argument("--k", type=int, default=1, choices=[1, 2, 3],
                     help="BDF order (default 1; see README on stability)")
    evo.add_argument("--nodes", type=int, default=640, help="mesh node target")
    evo.add_argument("--radius", type=float, default=10.0)
    evo.add_argument("--tau", type=float, default=0.00125)
    evo.add_argument("--T", type=float, default=3.0)
    evo.add_argument("--seed", type=int, default=0)
    evo.add_argument("--strength", type=float, default=10.0,
                     help="double-well strength s in W(u) = s (u^2-1)^2")
    evo.add_argument("--snapshots", type=_list_of(float, "numbers"),
                     default=list(DEFAULT_SNAPSHOT_TIMES),
                     help="comma list of snapshot times")
    evo.add_argument("--out", required=True, help="output directory")
    evo.add_argument("--vtk", action="store_true",
                     help="additionally write legacy-ASCII VTK snapshots")

    msh = sub.add_parser("mesh", help="generate and export a disk mesh")
    msh.add_argument("--nodes", type=int, required=True, help="node target (>= 4)")
    msh.add_argument("--radius", type=float, default=1.0)
    msh.add_argument("--out", default=None, help="mesh file path (default stdout)")
    msh.add_argument("--validate", action="store_true",
                     help="re-import the exported text and check invariants")
    return parser


def _on_grid(parser, what: str, rule: Callable[..., int], *args) -> int:
    # rule is integrator's step_count or step_index; a rejection is a usage error
    try:
        return rule(*args)
    except ValueError as exc:
        parser.error(f"{what}: {exc}")


def _check_disk(args, parser) -> None:
    if args.nodes < 4:
        parser.error(f"--nodes must be >= 4, got {args.nodes}")
    if not (args.radius > 0 and np.isfinite(args.radius)):
        parser.error(f"--radius must be positive and finite, got {args.radius}")


def cmd_convergence(args, parser) -> int:
    taus = args.tau if args.tau else list(DEFAULT_TAUS)
    if not args.refinements:
        parser.error("no refinements given")
    if any(i < 1 or i > 8 for i in args.refinements):
        parser.error("refinement indices must lie in [1, 8]")
    for tau in taus:
        _on_grid(parser, "convergence", integrator.step_count, tau, args.T, args.k)
    _check_out_file(args.out)
    problem = problems.MANUFACTURED[args.problem]()
    scheme = integrator.bdf_scheme(args.k)
    # refinement i has 2^i * 10 nodes on the unit disk, where the
    # manufactured forcings are derived
    meshes = [(i, meshmod.generate_disk_mesh(2 ** i * 10, 1.0))
              for i in sorted(set(args.refinements))]
    hs = [meshmod.mesh_size(m) for _, m in meshes]
    # All refinements step together on their disjoint union: no triangle
    # joins two parts, so every matrix is block-diagonal and each part's
    # numbers are bitwise those of a run on that mesh alone (README).
    union = meshmod.disjoint_union([m for _, m in meshes])
    ends = np.cumsum([m.node_count for _, m in meshes])
    parts = [slice(b - m.node_count, b) for (_, m), b in zip(meshes, ends)]

    rows = [["i", "nodes", "h", "tau", "err_L2", "err_H1", "eoc_L2", "eoc_H1"]]
    for tau in taus:
        traj = integrator.run(problem, union, tau, args.T, scheme,
                              start_mode=args.start_mode)
        reports = [analysis.final_error(problem, m, traj.times[-1],
                                        traj.u_final[p], traj.w_final[p])
                   for p, (_, m) in zip(parts, meshes)]
        orders_l2 = [None] + analysis.eoc([r.err_L2 for r in reports], hs)
        orders_h1 = [None] + analysis.eoc([r.err_H1 for r in reports], hs)
        for (i, m), h, rep, o2, o1 in zip(meshes, hs, reports, orders_l2, orders_h1):
            rows.append([i, m.node_count, h, tau, rep.err_L2, rep.err_H1,
                         "NA" if o2 is None else o2, "NA" if o1 is None else o1])
    # as objects, the ints, floats and NA keep their own types
    _emit(args.out, meshmod.render_rows(np.array(rows, dtype=object), ","))
    return 0


def _vtk_snapshot(m: meshmod.Mesh2D, u: np.ndarray, title: str) -> str:
    n, t = m.node_count, len(m.triangles)
    return "".join([
        f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        f"POINTS {n} double\n",
        meshmod.render_rows(np.column_stack([m.nodes, np.zeros(n)]), " "),
        f"CELLS {t} {4 * t}\n",
        meshmod.render_rows(np.column_stack([np.full(t, 3), m.triangles]), " "),
        f"CELL_TYPES {t}\n", "5\n" * t,
        f"POINT_DATA {n}\nSCALARS u double 1\nLOOKUP_TABLE default\n",
        meshmod.render_rows(u[:, None], " ")])


def cmd_evolve(args, parser) -> int:
    _check_disk(args, parser)
    if not (args.strength > 0 and np.isfinite(args.strength)):
        parser.error(f"--strength must be positive and finite, got {args.strength}")
    if not 0 <= args.seed < 2 ** 64:
        parser.error(f"--seed must lie in [0, 2^64), got {args.seed}")
    n_steps = _on_grid(parser, "evolve", integrator.step_count,
                       args.tau, args.T, args.k)
    snap_steps, snap_names = {}, {}
    for t in args.snapshots:
        t += 0.0  # -0.0 becomes 0.0: one time, one step and one name
        idx = _on_grid(parser, "--snapshots", integrator.step_index, t, args.tau)
        if not 0 <= idx <= n_steps:
            parser.error(f"--snapshots: time {t} lies outside [0, {args.T}]")
        # one file per step and one step per file name
        name = f"{t:g}"
        if idx in snap_steps and f"{snap_steps[idx]:g}" != name:
            parser.error(f"--snapshots: times {snap_steps[idx]} and {t} both "
                         f"fall on step {idx}")
        n = snap_names.setdefault(name, idx)
        if n != idx:
            parser.error(f"--snapshots: times {snap_steps[n]} and {t} (steps {n} "
                         f"and {idx}) both name snapshot_t{name}")
        snap_steps[idx] = t
    _check_out_dir(args.out)

    problem = problems.evolution_problem(strength=args.strength, seed=args.seed)
    m = meshmod.generate_disk_mesh(args.nodes, args.radius)
    scheme = integrator.bdf_scheme(args.k)

    # Only the requested snapshots and the per-step diagnostics are kept;
    # the files are written once the run has succeeded.
    traj = integrator.run(problem, m, args.tau, args.T, scheme,
                          start_mode="bootstrap", keep=snap_steps)

    os.makedirs(args.out, exist_ok=True)
    files = []
    for (_, t), u in zip(sorted(snap_steps.items()), traj.snapshots):
        stem = os.path.join(args.out, f"snapshot_t{t:g}")
        files.append((stem + ".csv", partial(_csv, "x,y,u", m.nodes, u)))
        if args.vtk:
            files.append((stem + ".vtk",
                          partial(_vtk_snapshot, m, u, f"u at t={t:g}")))
    files.append((os.path.join(args.out, "diagnostics.csv"), partial(
        _csv, "t,mass,energy", traj.times, traj.mass, traj.energy)))
    _write_files(files)
    return 0


def cmd_mesh(args, parser) -> int:
    _check_disk(args, parser)
    _check_out_file(args.out)
    m = meshmod.generate_disk_mesh(args.nodes, args.radius)
    text = meshmod.export_mesh(m)
    if args.validate:
        again = meshmod.import_mesh(text)
        same = (
            np.array_equal(again.nodes, m.nodes)
            and np.array_equal(again.triangles, m.triangles)
            and np.array_equal(again.boundary_edges, m.boundary_edges)
            and again.radius == m.radius
        )
        if not same:
            raise RuntimeError("exported mesh did not survive a round trip")
        print(f"mesh valid: {m.node_count} nodes, {len(m.triangles)} triangles",
              file=sys.stderr)
    _emit(args.out, text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "convergence":
            return cmd_convergence(args, parser)
        if args.command == "evolve":
            return cmd_evolve(args, parser)
        return cmd_mesh(args, parser)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"chdbc {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
