"""Traced chdbc CLI invocation: per-layer spans recorded from outside the package.

Usage (the benchmark runs this in a fresh child process):

    python benchmarks/tracing.py SPANS_FILE -- <chdbc CLI arguments>

The script imports `chdbc.cli`, wraps each layer's public entry points at
every module that binds them, runs `chdbc.cli.main` on the given arguments
and writes the recorded spans to SPANS_FILE (see `write_spans`) when main
returns. Spans stay in memory until then. The package itself is not
modified.

A span is `[name, start, end, parent, attrs]`: `parent` is the index of the
enclosing span or -1, `attrs` is a dict of counts taken at the boundary
(bytes, L+U nonzeros, sampled residuals) or None. `layer_metrics` turns a
span list into the per-layer metrics the benchmark reports.

The wrappers never touch a `ProblemSpec`'s callables: the spec checks
identity (`nonlinearity is zero_map`), so field kinds are classified by the
identity of the callable against the specs the problem factories returned.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

LAYERS = ("mesh", "problems", "assembly", "saddle", "integrator", "analysis", "cli")

# (span name, module, attribute). An attribute may name a method as
# "Class.method". nodal_interpolate's span name is replaced by the kind of
# field it evaluates (problems.u0, problems.forcing, ...).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("mesh.generate", "chdbc.mesh", "generate_disk_mesh"),
    ("mesh.validate", "chdbc.mesh", "validate_mesh"),
    ("mesh.export", "chdbc.mesh", "export_mesh"),
    ("mesh.import", "chdbc.mesh", "import_mesh"),
    ("problems.interpolate", "chdbc.assembly", "nodal_interpolate"),
    ("assembly.matrix", "chdbc.assembly", "assemble_bulk_mass"),
    ("assembly.matrix", "chdbc.assembly", "assemble_surface_mass"),
    ("assembly.matrix", "chdbc.assembly", "assemble_mass"),
    ("assembly.matrix", "chdbc.assembly", "assemble_bulk_stiffness"),
    ("assembly.matrix", "chdbc.assembly", "assemble_surface_stiffness"),
    ("assembly.matrix", "chdbc.assembly", "assemble_stiffness"),
    ("assembly.load", "chdbc.assembly", "load_vector"),
    ("assembly.nonlinearity", "chdbc.assembly", "nonlinearity_vector"),
    ("saddle.factor", "chdbc.saddle", "build_step_matrix"),
    ("saddle.solve", "chdbc.saddle", "StepMatrix.solve"),
    ("integrator.run", "chdbc.integrator", "run"),
    ("analysis.final_error", "chdbc.analysis", "final_error"),
    ("cli.main", "chdbc.cli", "main"),
)

# Problem factories whose returned specs define the field kinds. They get no
# span; the spec they return is recorded and handed back unchanged.
FACTORIES = (
    ("chdbc.problems", "manufactured_linear"),
    ("chdbc.problems", "manufactured_nonlinear"),
    ("chdbc.problems", "evolution_problem"),
)
FIELD_KINDS = (
    ("u0", "u0"),
    ("f1_bulk", "forcing"), ("f2_bulk", "forcing"),
    ("f1_surf", "forcing"), ("f2_surf", "forcing"),
    ("exact_u", "exact"), ("exact_w", "exact"),
)

# Every RESIDUAL_EVERY-th solve (the first included) is checked against the
# step matrix; the check runs in its own span so its cost counts as overhead.
RESIDUAL_EVERY = 50

Span = list  # [name, start, end, parent, attrs]


class Recorder:
    """In-memory span stack for one single-threaded traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str) -> Span:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             name_of: Optional[Callable] = None,
             attrs_of: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of fn.

        `name_of(args)` may rename the span per call; `attrs_of(args,
        result)` runs after the span has closed and returns its attrs.
        A call that raises gets attrs {"error": 1}.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = {"error": 1}
                raise
            finally:
                self.close(span)
            if attrs_of is not None:
                span[4] = attrs_of(args, result)
            return result

        return traced


def _resolve(module: str, attr: str):
    """(owner, name, original) for module.attr, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    return None if original is None else (owner, name, original)


def _rebind(original, wrapper, owner, name, modules: Iterable) -> None:
    """Replace original by wrapper on owner and on every module binding it."""
    setattr(owner, name, wrapper)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class FieldKinds:
    """Classifies scalar fields by identity against captured problem specs."""

    def __init__(self) -> None:
        self._kinds: Dict[int, str] = {}
        self._keep: list = []  # keeps ids valid for the life of the process

    def capture(self, spec) -> None:
        self._keep.append(spec)
        for attr, kind in FIELD_KINDS:
            field = getattr(spec, attr, None)
            if field is not None:
                self._kinds.setdefault(id(field), kind)

    def span_name(self, args) -> str:
        return "problems." + self._kinds.get(id(args[0]), "other")


def _trajectory_bytes(traj) -> int:
    total = 0
    for value in vars(traj).values():
        if isinstance(value, list):
            total += sum(getattr(v, "nbytes", 0) for v in value)
        else:
            total += getattr(value, "nbytes", 0)
    return total


def _lu_nnz(step_matrix) -> Optional[int]:
    lu = getattr(step_matrix, "_lu", None)
    try:
        return int(lu.L.nnz + lu.U.nnz)
    except AttributeError:
        return None


def install(recorder: Recorder, package: str = "chdbc",
            entry_points=ENTRY_POINTS, factories=FACTORIES) -> List[str]:
    """Wrap every entry point; return the names of those that are gone."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == package or k.startswith(package + "."))]
    kinds = FieldKinds()
    missing: List[str] = []

    for module, attr in factories:
        found = _resolve(module, attr)
        if found is None:
            missing.append(f"{module}.{attr}")
            continue
        owner, name, original = found

        def factory(*args, _original=original, **kwargs):
            spec = _original(*args, **kwargs)
            kinds.capture(spec)
            return spec

        _rebind(original, functools.wraps(original)(factory), owner, name, modules)

    def solve_attrs(args, result):
        step_matrix, rhs = args[0], args[1]
        solve_attrs.calls += 1
        if (solve_attrs.calls - 1) % RESIDUAL_EVERY:
            return None
        span = recorder.open("bench.residual")
        try:
            K = getattr(step_matrix, "matrix", None)
            if K is None or K.shape[1] != len(result):
                return None
            b = np.asarray(rhs, dtype=float)
            res = float(np.abs(K @ result - b).max() / max(np.abs(b).max(), 1e-300))
            return {"residual": res}
        finally:
            recorder.close(span)

    solve_attrs.calls = 0
    attrs = {
        "mesh.export": lambda args, text: {"bytes": len(text.encode())},
        "mesh.import": lambda args, mesh: {"bytes": len(args[0].encode())},
        "saddle.factor": lambda args, K: {"nnz": _lu_nnz(K)},
        "saddle.solve": solve_attrs,
        "integrator.run": lambda args, traj: {"bytes": _trajectory_bytes(traj)},
    }
    for span_name, module, attr in entry_points:
        found = _resolve(module, attr)
        if found is None:
            missing.append(f"{module}.{attr}")
            continue
        owner, name, original = found
        name_of = kinds.span_name if span_name == "problems.interpolate" else None
        wrapper = recorder.wrap(span_name, original, name_of=name_of,
                                attrs_of=attrs.get(span_name))
        _rebind(original, wrapper, owner, name, modules)
    return missing


# -- turning spans into metrics (runs in the benchmark process) --------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _ep(*span_names: str) -> Tuple[str, ...]:
    """The `module.attr` names (as `install` reports them) behind span names."""
    found = tuple(f"{m}.{a}" for s, m, a in ENTRY_POINTS if s in span_names)
    if "problems.interpolate" in span_names:
        found += tuple(f"{m}.{a}" for m, a in FACTORIES)
    return found


# Per-layer metric -> (unit, entry points it needs). A metric whose entry
# point is gone is reported as missing rather than as zero.
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "mesh.generate_s": ("s", _ep("mesh.generate")),
    "mesh.generate_calls": ("count", _ep("mesh.generate")),
    "mesh.validate_s": ("s", _ep("mesh.validate")),
    "mesh.validate_calls": ("count", _ep("mesh.validate")),
    "mesh.export_s": ("s", _ep("mesh.export")),
    "mesh.export_bytes": ("bytes", _ep("mesh.export")),
    "mesh.import_s": ("s", _ep("mesh.import")),
    "mesh.import_bytes": ("bytes", _ep("mesh.import")),
    "problems.u0_s": ("s", _ep("problems.interpolate")),
    "problems.forcing_s": ("s", _ep("problems.interpolate")),
    "problems.forcing_calls": ("count", _ep("problems.interpolate")),
    "problems.exact_s": ("s", _ep("problems.interpolate")),
    "assembly.matrix_s": ("s", _ep("assembly.matrix")),
    "assembly.matrix_calls": ("count", _ep("assembly.matrix")),
    "assembly.load_s": ("s", _ep("assembly.load")),
    "assembly.load_calls": ("count", _ep("assembly.load")),
    "assembly.nonlinearity_s": ("s", _ep("assembly.nonlinearity")),
    "assembly.nonlinearity_calls": ("count", _ep("assembly.nonlinearity")),
    "saddle.factor_s": ("s", _ep("saddle.factor")),
    "saddle.factor_calls": ("count", _ep("saddle.factor")),
    "saddle.lu_nnz": ("count", _ep("saddle.factor")),
    "saddle.solve_s": ("s", _ep("saddle.solve")),
    "saddle.solve_calls": ("count", _ep("saddle.solve")),
    "saddle.solve_ms_p50": ("ms", _ep("saddle.solve")),
    "saddle.residual_max": ("ratio", _ep("saddle.solve")),
    "integrator.self_s": ("s", _ep("integrator.run")),
    "integrator.run_calls": ("count", _ep("integrator.run")),
    "integrator.trajectory_mb": ("MB", _ep("integrator.run")),
    "analysis.final_error_s": ("s", _ep("analysis.final_error")),
    "analysis.final_error_calls": ("count", _ep("analysis.final_error")),
    "cli.self_s": ("s", _ep("cli.main")),
    **{f"{layer}.errors": ("count", ()) for layer in LAYERS},
}


def layer_metrics(spans: Sequence[Span], missing: Iterable[str] = ()
                  ) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced invocation; None marks `missing`.

    Every `_s` metric is summed self time, so the layers partition the time
    spent inside cli.main.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def self_s(*names):
        return sum(selfs[i] for i in idx(*names))

    def calls(*names):
        return len(idx(*names))

    def attr(name, key):
        return [spans[i][4][key] for i in idx(name)
                if spans[i][4] and spans[i][4].get(key) is not None]

    import statistics  # here, not at the top: the traced child never needs it

    solve_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in idx("saddle.solve")]
    nnz = attr("saddle.factor", "nnz")
    residuals = attr("saddle.solve", "residual")
    traj = attr("integrator.run", "bytes")
    values: Dict[str, Optional[float]] = {
        "mesh.generate_s": self_s("mesh.generate"),
        "mesh.generate_calls": calls("mesh.generate"),
        "mesh.validate_s": self_s("mesh.validate"),
        "mesh.validate_calls": calls("mesh.validate"),
        "mesh.export_s": self_s("mesh.export"),
        "mesh.export_bytes": sum(attr("mesh.export", "bytes")),
        "mesh.import_s": self_s("mesh.import"),
        "mesh.import_bytes": sum(attr("mesh.import", "bytes")),
        "problems.u0_s": self_s("problems.u0"),
        "problems.forcing_s": self_s("problems.forcing"),
        "problems.forcing_calls": calls("problems.forcing"),
        "problems.exact_s": self_s("problems.exact"),
        "assembly.matrix_s": self_s("assembly.matrix"),
        "assembly.matrix_calls": calls("assembly.matrix"),
        "assembly.load_s": self_s("assembly.load"),
        "assembly.load_calls": calls("assembly.load"),
        "assembly.nonlinearity_s": self_s("assembly.nonlinearity"),
        "assembly.nonlinearity_calls": calls("assembly.nonlinearity"),
        "saddle.factor_s": self_s("saddle.factor"),
        "saddle.factor_calls": calls("saddle.factor"),
        # A factorization whose fill cannot be read, or solves without a
        # readable step matrix, give missing values rather than zeros.
        "saddle.lu_nnz": max(nnz) if nnz else (None if calls("saddle.factor") else 0),
        "saddle.solve_s": self_s("saddle.solve"),
        "saddle.solve_calls": len(solve_ms),
        "saddle.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "saddle.residual_max": max(residuals) if residuals else (None if solve_ms else 0.0),
        "integrator.self_s": self_s("integrator.run"),
        "integrator.run_calls": calls("integrator.run"),
        "integrator.trajectory_mb": max(traj) / 2 ** 20 if traj else 0.0,
        "analysis.final_error_s": self_s("analysis.final_error"),
        "analysis.final_error_calls": calls("analysis.final_error"),
        "cli.self_s": self_s("cli.main"),
    }
    for layer in LAYERS:
        values[f"{layer}.errors"] = sum(
            1 for s in spans
            if s[0].split(".")[0] == layer and s[4] and s[4].get("error"))
    gone = set(missing)
    for name, (_, needs) in LAYER_METRICS.items():
        if gone.intersection(needs):
            values[name] = None
    return values


def write_spans(path: str, spans: List[Span], missing: List[str]) -> None:
    # marshal, not JSON: encoding tens of thousands of spans as JSON took
    # 50 ms per invocation, time that no layer's span accounts for.
    with open(path, "wb") as fh:
        marshal.dump({"spans": spans, "missing": missing}, fh)


def read_spans(path: str) -> dict:
    """The record `write_spans` wrote, from a file this benchmark made."""
    with open(path, "rb") as fh:
        return marshal.load(fh)


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS_FILE -- <chdbc arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import chdbc.cli
    recorder = Recorder()
    missing = install(recorder)
    try:
        return chdbc.cli.main(cli_args)
    finally:
        write_spans(spans_path, recorder.spans, missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
