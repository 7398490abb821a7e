"""The names the benchmark's tracer wraps must keep resolving.

bench/tracer.py wraps the functions and methods named in its TARGETS
table; a refactor that renames or drops one of them breaks traced
benchmark runs.  TARGETS is read from the source, so nothing under
bench/ is imported or written.
"""

import ast
import importlib
import pathlib

from conormal import randgen

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
