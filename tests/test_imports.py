"""Stdlib `ast` scans: every imported name is used in the package, the tests
and the tools (`from __future__` imports are exempt), and the package holds
only code that it names itself."""

import ast
from pathlib import Path

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
    """`file: name` of each top-level function or class, and each method that
    is not a dunder, that no source names. `sources` maps file to text."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))}
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            defs = [(node.name, node.name)] if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            found += [f"{file}: {label}" for label, name in defs if name not in named]
    return found


def test_package_defines_only_what_it_names():
    assert unreferenced_definitions({
        "a.py": "class C:\n    def __init__(self): pass\n    def f(self): pass\n"
                "    def g(self): pass\ndef h(): pass\n",
        "b.py": "from a import C\nC().f()\n"}) == ["a.py: C.g", "a.py: h"]
    sources = {path.name: path.read_text()
               for path in sorted((ROOT / "src/chdbc").glob("*.py"))}
    # the one exception: the benchmark tracer reads it, and
    # tests/test_tracer_entry_points.py pins it there
    assert [d for d in unreferenced_definitions(sources)
            if d != "saddle.py: StepMatrix.matrix"] == []
