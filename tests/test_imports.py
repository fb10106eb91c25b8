"""Every imported name is used: a stdlib `ast` scan of the package, the tests
and the tools. `from __future__` imports are exempt."""

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
