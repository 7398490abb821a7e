"""Every module of the package uses every name it imports, and takes
no private name from another module that is not on an allow-list; every
public function, class and method is reached, or waits on a list with a
reason.

An AST scan of src/conormal (``__init__.py`` excepted, whose imports are
the package's public names): each name an import statement binds must
be read somewhere in the module.  ``from __future__ import annotations``
binds nothing and is exempt.  A private name (one leading underscore)
of another conormal module, imported by name or read as an attribute of
an imported module, must be on ALLOWED_PRIVATE.  Each public module-level
def or class, and each public method of a public class (``Class.method``),
must be read by package code outside its own definition or by
bench/run.py or bench/workloads.py, or be on AWAITING.  Its own module
reads it as a name or as an attribute; any other module as an attribute,
or as a name that module imports, so a local variable that shares the
name reads nothing.  A method counts as read wherever its name is.
Every absolute import of the package (``__init__.py`` included) names a
standard-library module.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conormal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the private names one module still reads from another
ALLOWED_PRIVATE = {"_product_complex", "_cohomology_trace",
                   "_ONE", "_add_multiple", "_int_rows", "_add_block"}
# the benchmark's code that runs the package (bench/tracer.py only wraps names)
BENCH_CALLERS = [ROOT / "bench" / "run.py", ROOT / "bench" / "workloads.py"]
# public names ('Class.method' for a method) that no package code and no
# benchmark caller reads, and why each stays
_TRACED = "bench/tracer.py TARGETS wraps it; it goes after TARGETS drops it"
_GATE = "the rank-level RHom suites of ROADMAP item 8 will read it"
AWAITING = {"rank": _TRACED, "kernel_basis": _TRACED, "solve_unique": _TRACED,
            "cohomology_trace": _TRACED, "total_complex": _TRACED,
            "Matrix.kron": _TRACED,
            "direct_sum_sheaf": _GATE, "euler_rhom": _GATE}


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


def _absolute_imports(tree):
    """(line, top-level module) of each absolute import statement."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append((node.lineno, node.module.split(".")[0]))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    """The package runs on the standard library alone."""
    found = _absolute_imports(ast.parse(path.read_text()))
    other = [(line, name) for line, name in found if name not in sys.stdlib_module_names]
    assert not other, "%s imports modules outside the standard library: %s" % (path.name, other)


def test_stdlib_scan_sees_absolute_imports_only():
    tree = ast.parse("import os.path, numpy as np\n"
                     "from fractions import Fraction\n"
                     "from .qlinalg import Matrix\n"
                     "from . import io\n")
    found = _absolute_imports(tree)
    assert found == [(1, "numpy"), (1, "os"), (2, "fractions")]
    assert [name for _, name in found if name not in sys.stdlib_module_names] == ["numpy"]


def _public_defs(tree):
    """name -> node of each public module-level def and class, and
    'Class.method' -> node of each public method of a public class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out[node.name] = node
            if isinstance(node, ast.ClassDef):
                out.update(("%s.%s" % (node.name, m.name), m) for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    return out


def _reads(tree, skip=None):
    """Names the tree reads, as a name or as an attribute, outside skip."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if id(node) not in inside and (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute))}


def _foreign_reads(tree):
    """Names the tree reads of another module: every attribute, and a bare
    name only when the tree imports it."""
    return ({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | (_read(tree) & set(_imported(tree))))


def _unreached(sources, callers):
    """'module:line name' of each public def, class or method of the
    sources (a dict of module name -> tree) that neither package code
    outside its definition nor a caller (a list of trees) reads; a method
    is read as its own name."""
    called = set().union(*(_foreign_reads(tree) for tree in callers))
    out = {}
    for name, tree in sources.items():
        others = set().union(*(_foreign_reads(t) for m, t in sources.items() if m != name))
        for public, node in _public_defs(tree).items():
            if public.rpartition(".")[2] not in called | others | _reads(tree, skip=node):
                out[public] = "%s:%d" % (name, node.lineno)
    return out


def _package_unreached():
    return _unreached({p.name: ast.parse(p.read_text()) for p in MODULES},
                      [ast.parse(p.read_text()) for p in BENCH_CALLERS])


def test_every_public_name_is_reached_or_awaiting():
    """A public function, class or method that nothing runs is deleted,
    moved into the tests that use it, or put on AWAITING with a reason."""
    new = sorted("%s %s" % (where, name) for name, where in _package_unreached().items()
                 if name not in AWAITING)
    assert not new, "public names that no package code or benchmark caller reads: %s" % new


def test_awaiting_names_are_still_unreached():
    """A name on AWAITING that is now read, or gone, leaves the list."""
    stale = sorted(set(AWAITING) - set(_package_unreached()))
    assert not stale, "AWAITING names that are now read or no longer defined: %s" % stale


def test_reach_scan_sees_names_attributes_and_callers():
    sources = {"a.py": ast.parse("def used(): pass\n"
                                 "def by_attr(): pass\n"
                                 "def by_caller(): pass\n"
                                 "def own_recursion(): return own_recursion()\n"
                                 "def unread(): pass\n"
                                 "class Read: pass\n"
                                 "def _private(): pass\n"),
               "b.py": ast.parse("from .a import used, Read\n"
                                 "from . import a\n"
                                 "used(a.by_attr, Read)\n"
                                 "def _local():\n"
                                 "    unread = 1\n"
                                 "    return unread\n")}
    callers = [ast.parse("cn.a.by_caller()\n"
                         "own_recursion = 2\n"
                         "print(own_recursion)\n")]
    # a local that shares a public name is no read of it
    assert _unreached(sources, callers) == {"own_recursion": "a.py:4", "unread": "a.py:5"}


def test_reach_scan_sees_public_methods():
    sources = {"a.py": ast.parse("class Box:\n"
                                 "    def used(self): return self.by_method()\n"
                                 "    def by_method(self): pass\n"
                                 "    def by_caller(self): pass\n"
                                 "    def own_recursion(self): return self.own_recursion()\n"
                                 "    def unread(self): pass\n"
                                 "    def _private(self): pass\n"
                                 "class _Hidden:\n"
                                 "    def unread_too(self): pass\n"),
               "b.py": ast.parse("from .a import Box\n"
                                 "Box().used()\n")}
    callers = [ast.parse("cn.a.Box().by_caller()\n")]
    assert _unreached(sources, callers) == {"Box.own_recursion": "a.py:5",
                                            "Box.unread": "a.py:6"}
