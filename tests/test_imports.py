"""Every module-level import of the library and of the tests is used in
its module."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import delpezzo

MODULES = sorted(p for p in Path(delpezzo.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
    unused = {f"{p.parent.name}/{p.name}": names for p in MODULES + TESTS
              if (names := _unused_imports(p.read_text()))}
    assert MODULES and TESTS and not unused, unused


def test_every_export_has_a_library_caller_or_is_in_the_readme():
    init = ast.parse((Path(delpezzo.__file__).parent / "__init__.py").read_text())
    exports = [a.asname or a.name for node in init.body
               if isinstance(node, ast.ImportFrom) for a in node.names]
    # a caller: a name or attribute reference in some library module other
    # than __init__ (a def is neither, so a function does not call itself)
    referenced = set()
    for p in MODULES:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    orphans = [name for name in exports
               if name not in referenced and f"`{name}" not in readme]
    assert len(exports) > 40 and not orphans, orphans


def test_runtime_paths_never_import_permgroup(tmp_path):
    # the root permutations are test oracles and benchmark set-up only;
    # classify, check and decompose (a K-fixing and a K-moving involution)
    # run without them
    from delpezzo import geiser, negation_twist

    files = []
    for i, g in enumerate((geiser().isometry, negation_twist(geiser().isometry))):
        f = tmp_path / f"g{i}.json"
        f.write_text(json.dumps({"matrix": [list(r) for r in g.matrix]}))
        files.append(str(f))
    code = ("import contextlib, io, sys\n"
            "import delpezzo, delpezzo.cli\n"
            "runs = [['classify', str(n)] for n in range(2, 9)]\n"
            f"runs += [[cmd, f] for cmd in ('check', 'decompose') for f in {files!r}]\n"
            "for argv in runs:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert delpezzo.cli.main(argv) == 0, argv\n"
            "assert 'delpezzo.permgroup' not in sys.modules\n")
    src = str(Path(delpezzo.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
