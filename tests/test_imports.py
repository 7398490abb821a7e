"""Every module of the package uses every name it imports.

An AST scan of src/conormal (``__init__.py`` excepted, whose imports are
the package's public names): each name an import statement binds must
be read somewhere in the module.  ``from __future__ import annotations``
binds nothing and is exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conormal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """name -> line of each name an import statement binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _read(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    read = _read(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in read)
    assert not unused, "%s imports names it never reads: %s" % (path.name, unused)


def test_scan_sees_the_modules():
    assert {"cli.py", "qlinalg.py", "randgen.py"} <= {p.name for p in MODULES}
