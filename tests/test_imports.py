"""Every module of the package uses every name it imports, and takes
no private name from another module that is not on an allow-list.

An AST scan of src/conormal (``__init__.py`` excepted, whose imports are
the package's public names): each name an import statement binds must
be read somewhere in the module.  ``from __future__ import annotations``
binds nothing and is exempt.  A private name (one leading underscore)
of another conormal module, imported by name or read as an attribute of
an imported module, must be on ALLOWED_PRIVATE.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conormal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the private names one module still reads from another
ALLOWED_PRIVATE = {"_product_complex", "_tensor", "_trace_endo", "_cohomology_trace",
                   "_ONE", "_add_multiple"}


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


def _private_reads(tree):
    """(line, name) of each private name taken from a conormal module:
    `from .m import _x`, or `m._x` on a module bound by `from . import m`."""
    out, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "conormal"):
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    out.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                node.value.id in modules and node.attr.startswith("_") and \
                not node.attr.startswith("__"):
            out.append((node.lineno, node.attr))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_allowed_private_names(path):
    reads = _private_reads(ast.parse(path.read_text()))
    new = [(line, name) for line, name in reads if name not in ALLOWED_PRIVATE]
    assert not new, "%s reads private names of other modules: %s" % (path.name, new)


def test_private_scan_sees_both_forms_and_the_allow_list_is_used():
    tree = ast.parse("from .qlinalg import _factors, Matrix\n"
                     "from . import qlinalg as ql\n"
                     "ql._factor(ql.rank, ql.__name__)\n")
    assert _private_reads(tree) == [(1, "_factors"), (3, "_factor")]
    used = {name for path in MODULES for _, name in _private_reads(ast.parse(path.read_text()))}
    assert used == ALLOWED_PRIVATE
