"""The names the benchmark wraps and calls must keep resolving.

bench/tracer.py wraps the functions and methods named in its TARGETS
table, and bench/run.py and bench/workloads.py call further names; a
refactor that renames or drops one of them breaks benchmark runs.
TARGETS and the sources are read as text, so nothing under bench/ is
imported or written.
"""

import ast
import importlib
import pathlib

from conormal import randgen

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"

# (module, attribute) that bench/run.py and bench/workloads.py use
# besides the traced names
CALLED = [("mueu", "set_negative_control"), ("checks", "_case_rng"),
          ("checks", "SUITES"), ("randgen", "PieceSheaf"),
          ("randgen", "random_invertible"), ("cellcx", "POINT"),
          ("sheaf", "CellularSheaf")]


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS table in %s" % TRACER)


def test_traced_names_resolve():
    targets = _targets()
    assert targets
    for layer, names in targets.items():
        mod = importlib.import_module("conormal." + layer)
        for name in names:
            if "." in name:
                # methods are wrapped in the class dict they are defined in
                cls_name, meth = name.split(".")
                assert meth in vars(getattr(mod, cls_name)), "%s.%s" % (layer, name)
            else:
                assert callable(getattr(mod, name, None)), "%s.%s" % (layer, name)


def test_inverse_cache_resolves():
    # the tracer reports len(randgen._INV_CACHE)
    assert len(randgen._INV_CACHE) >= 0


def test_called_names_resolve():
    source = (BENCH / "run.py").read_text() + (BENCH / "workloads.py").read_text()
    for layer, name in CALLED:
        assert "." + name in source, "%s is no longer used by the benchmark" % name
        assert hasattr(importlib.import_module("conormal." + layer), name), \
            "%s.%s" % (layer, name)
