"""Stdlib `ast` scans: every imported name is used in the package, the tests
and the tools (`from __future__` imports are exempt), the package holds only
code and module-level names that it reads itself, and it passes every
parameter it gives a default. And the import floor: `import chdbc.cli`
loads nothing but chdbc beyond NumPy and `scipy.sparse`."""

import ast
import os
import subprocess
import sys
from math import inf
from pathlib import Path

import scipy.sparse

from chdbc import saddle

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/chdbc", "tests", "tools")


def unused_imports(source):
    """The names `source` imports and never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # the scan itself: `pi` is the one name here that is never referenced
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nimport numpy as np\n"
                          "from math import pi, tau\n"
                          "print(os.path.sep, np.pi, tau)\n") == ["pi"]
    found = [f"{path.relative_to(ROOT)}: {name}"
             for directory in SCANNED
             for path in sorted((ROOT / directory).rglob("*.py"))
             for name in unused_imports(path.read_text())]
    assert found == []


def unreferenced_definitions(sources):
    """`file: name` of each top-level function, class or assigned name, and
    each method that is not a dunder, that no source reads. A name is read
    only where it is loaded, never where it is assigned. `sources` maps file
    to text."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    loaded = {n.id if isinstance(n, ast.Name) else n.attr
              for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            defs = [(node.name, node.name)] if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(n.id, n.id) for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            found += [f"{file}: {label}" for label, name in defs if name not in loaded]
    return found


def test_package_defines_only_what_it_names():
    # the scan itself: C.g and h are never named, L is never read, and N is
    # only assigned, in both files
    assert unreferenced_definitions({
        "a.py": "class C:\n    def __init__(self): pass\n    def f(self): pass\n"
                "    def g(self): pass\ndef h(): pass\nK, L = 1, 2\nM: int = 3\nN = 4\n",
        "b.py": "from a import C, K, M\nC().f()\nprint(K, M)\nN = 5\n"}) == [
        "a.py: C.g", "a.py: h", "a.py: L", "a.py: N", "b.py: N"]
    sources = {path.name: path.read_text()
               for path in sorted((ROOT / "src/chdbc").glob("*.py"))}
    # the one exception: the benchmark tracer reads it, and
    # tests/test_tracer_entry_points.py pins it there
    assert [d for d in unreferenced_definitions(sources)
            if d != "saddle.py: StepMatrix.matrix"] == []


def unpassed_parameters(sources):
    """`file: name(parameter)` of each defaulted parameter of a top-level
    function or a method that no call in `sources` passes, by position or by
    keyword. A call is matched by the name it calls, so a class's `__init__`
    is called through the class name. `sources` maps file to text."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    calls = {}  # called name -> [(positional count, keyword names)]
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                # *args passes every position, and **kwargs (arg None) every keyword
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                calls.setdefault(name, []).append(
                    (inf if starred else len(call.args), {k.arg for k in call.keywords}))
    found = []
    for file, tree in trees.items():
        defs = []  # (label, called name, arguments, parameters before the first passed)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node.name, node.args, 0))
            elif isinstance(node, ast.ClassDef):
                defs += [(node.name, node.name, m.args, 1) if m.name == "__init__" else
                         (f"{node.name}.{m.name}", m.name, m.args, 1)
                         for m in node.body if isinstance(m, ast.FunctionDef)]
        for label, name, args, skip in defs:
            positional = (args.posonlyargs + args.args)[skip:]
            defaulted = list(enumerate(a.arg for a in positional))[
                len(positional) - len(args.defaults):]
            defaulted += [(inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found += [f"{file}: {label}({arg})" for i, arg in defaulted
                      if not any(i < count or arg in keys or None in keys
                                 for count, keys in calls.get(name, []))]
    return found


def test_package_sets_every_parameter_it_defaults():
    # the scan itself: C(y=3) leaves x, f(1, c=2) leaves b, *[] passes every
    # position and h(1, 2) leaves r
    assert unpassed_parameters({
        "a.py": "class C:\n    def __init__(self, x=1, y=2): pass\n"
                "    def f(self, a, b=0, *, c=None): pass\n"
                "def g(p=0, q=1): pass\ndef h(p, q=1, r=2): pass\n",
        "b.py": "from a import C, g, h\nC(y=3).f(1, c=2)\ng(*[])\nh(1, 2)\n"}) == [
        "a.py: C(x)", "a.py: C.f(b)", "a.py: h(r)"]
    sources = {path.name: path.read_text()
               for path in sorted((ROOT / "src/chdbc").glob("*.py"))}
    # the one exception: the [project.scripts] entry point calls main()
    assert [p for p in unpassed_parameters(sources) if p != "cli.py: main(argv)"] == []


def test_the_cli_imports_nothing_beyond_numpy_and_scipy_sparse_but_chdbc():
    # every invocation pays for what `import chdbc.cli` loads: `fractions`
    # once brought `decimal` and `_decimal` (0.36 MB resident) for one sum,
    # and `scipy.sparse.linalg` all of `scipy.linalg` (8.4 MB) for SuperLU
    script = ("import sys, numpy, scipy.sparse\n"
              "before = set(sys.modules)\n"
              "import chdbc.cli\n"
              "print(*sorted(set(sys.modules) - before))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    added = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": path}).stdout.split()
    assert "chdbc.cli" in added
    extra = [m for m in added if m.split(".")[0] != "chdbc"]
    assert extra == [], f"import chdbc.cli also loads {extra}"
    # the one of them not from chdbc's sources: SciPy's SuperLU extension,
    # which saddle loads by itself as `chdbc._superlu`
    assert "chdbc._superlu" in added
    assert (Path(saddle._superlu.__file__).parent
            == Path(scipy.sparse.__file__).parent / "linalg" / "_dsolve")
