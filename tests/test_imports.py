"""Every module-level import of the library is used in its module."""
import ast
from pathlib import Path

import delpezzo

MODULES = sorted(p for p in Path(delpezzo.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_is_caught():
    assert _unused_imports("import os\nfrom math import gcd, lcm\nx = gcd(2, 4)\n") == \
        ["os", "lcm"]


def test_no_unused_module_imports():
    unused = {p.name: names for p in MODULES
              if (names := _unused_imports(p.read_text()))}
    assert MODULES and not unused
