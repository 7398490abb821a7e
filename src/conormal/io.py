"""JSON instance files.

An instance file describes one cell complex plus named objects on it:
sheaves, cellular maps, integer cycles, trace-kernel build trees and
Lefschetz instances.  Rationals are written as strings like "3/4" (or
bare integers), matrices as row-major lists of rows.  A complex is
either a list of simplices (vertex lists) or an explicit graded poset
with signed codim-1 incidence.  Cell ids are strings; simplices get the
dot-joined id of their sorted vertex list ("0.1.2").  The characters
"|" and "," are reserved for ids of product cells in reports.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cellcx import (CellComplex, CellularMap, CellComplexError,
                     CellularMapError, from_simplicial, simplicial_map,
                     identity_map, collapse_to_point, POINT)
from .qlinalg import Matrix, VectComplex, LinAlgError, ZERO_COMPLEX
from .sheaf import (CellularSheaf, SheafError, constant, verdier_dual,
                    shift_sheaf, extend_by_zero)
from .mueu import LagCycle
from .tracekernel import tk, external_tk, compose_tk, shift_twist
from .lefschetz import LefschetzInstance, constant_phi


class ParseError(Exception):
    pass


FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# scalars and matrices

def _object(node, what):
    if not isinstance(node, dict):
        raise ParseError("%s must be an object" % what)
    return node


def _list(node, what):
    if not isinstance(node, list):
        raise ParseError("%s must be a list" % what)
    return node


def _int(value, what):
    """An int (not a bool) or a string of one; a float is not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError("%s must be an integer, got %r" % (what, value))


def _name(value):
    if not isinstance(value, str):
        raise ParseError("a sheaf is referenced by its name, got %r" % (value,))
    return value


def parse_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction would expand "1e10000000" into a 33-million-bit integer
        if "e" in value.lower():
            raise ParseError("bad rational %r: exponent notation is not accepted" % (value,))
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError("bad rational %r: %s" % (value, e))
    raise ParseError("bad rational %r" % (value,))


def parse_matrix(rows) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError("a matrix must be a list of rows")
    if rows and len({len(r) for r in rows}) != 1:
        raise ParseError("ragged matrix")
    return Matrix.from_rows([[parse_fraction(x) for x in row] for row in rows])


def fmt_matrix(m: Matrix):
    """Row-major strings of m, written only at its stored (nonzero) entries."""
    out = [["0"] * m.cols for _ in range(m.rows)]
    for row, entries in zip(out, m.data):
        for j, x in entries.items():
            row[j] = str(x)
    return out


# ---------------------------------------------------------------------------
# complexes

def _vertex(value):
    """A simplex vertex: an int (not a bool) or a string with no ".", the
    separator of simplex ids, so that no two simplices share an id."""
    if isinstance(value, int) and not isinstance(value, bool) or \
            isinstance(value, str) and "." not in value:
        return value
    raise ParseError("a simplex vertex is an integer or a string without '.', got %r"
                     % (value,))


def parse_complex(node):
    """Returns (CellComplex, simplices-or-None)."""
    node = _object(node, "'complex'")
    if "simplices" in node:
        simplices = [tuple(map(_vertex, _list(s, "a simplex")))
                     for s in _list(node["simplices"], "'simplices'")]
        try:
            cx = from_simplicial(simplices)
        except (CellComplexError, TypeError) as e:
            raise ParseError("bad simplicial complex: %s" % e)
        return cx, simplices
    if "poset" in node:
        poset = _object(node["poset"], "'poset'")
        cells = {str(c): _int(d, "a cell dimension")
                 for c, d in _object(poset.get("cells"), "'cells'").items()}
        if any(d < 0 for d in cells.values()):
            raise ParseError("cell dimensions must be nonnegative")
        incidence = {}
        for entry in _list(poset.get("incidence", []), "'incidence'"):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError("an incidence entry is [coface, face, sign], got %r"
                                 % (entry,))
            coface, face, sign = entry
            incidence[(str(coface), str(face))] = _int(sign, "an incidence sign")
        try:
            cx = CellComplex(cells, incidence)
        except CellComplexError as e:
            raise ParseError("bad poset complex: %s" % e)
        # deeper invariants (grading, boundary-squares-to-zero) are left
        # to `validate`, which reports them as validation failures
        return cx, None
    raise ParseError("'complex' needs either 'simplices' or 'poset'")


def describe_complex(cx: CellComplex):
    """Poset form of a complex, usable as a counterexample payload."""
    return {"poset": {
        "cells": {str(c): cx.dim(c) for c in cx.cell_ids()},
        "incidence": [[str(t), str(s), sign]
                      for (t, s), sign in sorted(cx.incidence_pairs().items(),
                                                 key=lambda kv: (str(kv[0][0]),
                                                                 str(kv[0][1])))],
    }}


# ---------------------------------------------------------------------------
# sheaves

def parse_vect_complex(node) -> VectComplex:
    node = _object(node, "a stalk")
    dims = {_int(n, "a stalk degree"): _int(d, "a stalk dimension")
            for n, d in _object(node.get("dims", {}), "'dims'").items()}
    if any(d < 0 for d in dims.values()):
        raise ParseError("stalk dimensions must be nonnegative")
    diffs = {_int(n, "a differential degree"): parse_matrix(rows)
             for n, rows in _object(node.get("d", {}), "'d'").items()}
    try:
        return VectComplex(dims, diffs)
    except LinAlgError as e:
        raise ParseError("bad stalk complex: %s" % e)


def describe_vect_complex(v: VectComplex):
    node = {"dims": {str(n): d for n, d in sorted(v.dims.items())}}
    if v.diffs:
        node["d"] = {str(n): fmt_matrix(m) for n, m in sorted(v.diffs.items())}
    return node


def _parse_chain_map(node, what):
    return {_int(n, "a chain map degree"): parse_matrix(rows)
            for n, rows in _object(node, what).items()}


def _check_shapes(phi, src: VectComplex, tgt: VectComplex, what):
    """Reject a component of phi that does not map src^n to tgt^n."""
    for n, m in phi.items():
        shape = (tgt.dim(n), src.dim(n))
        if (m.rows, m.cols) != shape:
            raise ParseError("%s in degree %d is %dx%d, expected %dx%d"
                             % (what, n, m.rows, m.cols, *shape))


def parse_sheaf(spec, cx, resolved):
    """One named sheaf; `resolved` maps already-built names to sheaves."""
    if spec == "constant":
        return constant(cx)
    if not isinstance(spec, dict):
        raise ParseError("bad sheaf spec %r" % (spec,))
    if "dual_of" in spec:
        other = resolved.get(_name(spec["dual_of"]))
        if other is None:
            return None  # not ready yet; caller retries
        return verdier_dual(other)
    if "shift_of" in spec:
        other = resolved.get(_name(spec["shift_of"]))
        if other is None:
            return None
        return shift_sheaf(other, _int(spec.get("d", 0), "a shift"))
    if "extend_by_zero" in spec:
        inner = _object(spec["extend_by_zero"], "'extend_by_zero'")
        of = inner.get("of")
        other = None if of is None else resolved.get(_name(of))
        if other is None and of is not None:
            return None
        if other is None:
            other = constant(cx)
        upset = {str(c) for c in _list(inner.get("upset", []), "'upset'")}
        missing = upset - set(map(str, cx.cell_ids()))
        if missing:
            raise ParseError("extend_by_zero mentions unknown cells %s"
                             % sorted(missing))
        try:
            return extend_by_zero(other, upset)
        except SheafError as e:
            raise ParseError(str(e))
    if "stalks" in spec:
        known = set(map(str, cx.cell_ids()))
        stalks = {}
        for c, node in _object(spec["stalks"], "'stalks'").items():
            if c not in known:
                raise ParseError("stalk on unknown cell %r" % (c,))
            stalks[c] = parse_vect_complex(node)
        restrictions = {}
        for entry in _list(spec.get("restrictions", []), "'restrictions'"):
            try:
                s, t = str(entry["from"]), str(entry["to"])
            except (KeyError, TypeError) as e:
                raise ParseError("bad restriction entry: %s" % e)
            if s not in known or t not in known:
                raise ParseError("restriction between unknown cells %r -> %r"
                                 % (s, t))
            if (s, t) in restrictions:
                raise ParseError("restriction %r -> %r is given twice" % (s, t))
            phi = _parse_chain_map(entry.get("maps", {}), "'maps'")
            _check_shapes(phi, stalks.get(s, ZERO_COMPLEX), stalks.get(t, ZERO_COMPLEX),
                          "restriction %r -> %r" % (s, t))
            restrictions[(s, t)] = phi
        return CellularSheaf(cx, stalks, restrictions)
    raise ParseError("sheaf spec needs 'stalks', 'dual_of', 'shift_of', "
                     "'extend_by_zero' or the string \"constant\"")


def describe_sheaf(sheaf: CellularSheaf):
    stalks = {str(c): describe_vect_complex(v)
              for c, v in sorted(sheaf.stalks.items(), key=lambda kv: str(kv[0]))}
    restrictions = [{"from": str(s), "to": str(t),
                     "maps": {str(n): fmt_matrix(m) for n, m in sorted(phi.items())}}
                    for (s, t), phi in sorted(sheaf.restrictions.items(),
                                              key=lambda kv: (str(kv[0][0]),
                                                              str(kv[0][1])))]
    return {"stalks": stalks, "restrictions": restrictions}


# ---------------------------------------------------------------------------
# maps, cycles, kernels, lefschetz

def parse_map(spec, cx, simplices):
    if not isinstance(spec, dict):
        raise ParseError("bad map spec %r" % (spec,))
    target = spec.get("target", "self")
    if target not in ("self", "point"):
        raise ParseError("map target must be 'self' or 'point', got %r" % (target,))
    if "vertex_map" in spec:
        if simplices is None:
            raise ParseError("'vertex_map' needs a simplicial complex")
        vm = {str(k): str(v) for k, v in _object(spec["vertex_map"], "'vertex_map'").items()}
        if target == "point":
            return collapse_to_point(cx)
        try:
            return simplicial_map(cx, cx, vm)
        except (CellularMapError, CellComplexError, KeyError) as e:
            raise ParseError("bad vertex map: %s" % e)
    if "cells" in spec:
        assignment = {str(k): str(v) for k, v in _object(spec["cells"], "'cells'").items()}
        signs = {str(k): _int(v, "a sign")
                 for k, v in _object(spec.get("signs", {}), "'signs'").items()}
        tgt = POINT if target == "point" else cx
        if target == "point":
            assignment = {str(c): "pt" for c in cx.cell_ids()}
        try:
            return CellularMap(cx, tgt, assignment, signs)
        except CellularMapError as e:
            raise ParseError("bad cellular map: %s" % e)
    if target == "point":
        return collapse_to_point(cx)
    if spec.get("identity"):
        return identity_map(cx)
    raise ParseError("map spec needs 'vertex_map', 'cells' or 'identity'")


def parse_cycle(spec, cx) -> LagCycle:
    if not isinstance(spec, dict):
        raise ParseError("a cycle is an object of cell -> integer weight")
    known = set(map(str, cx.cell_ids()))
    weights = {}
    for c, w in spec.items():
        if c not in known:
            raise ParseError("cycle weight on unknown cell %r" % (c,))
        if not isinstance(w, int) or isinstance(w, bool):
            raise ParseError("cycle weight at %r must be an integer" % (c,))
        weights[c] = w
    return LagCycle(cx, weights)


def parse_kernel(tree, sheaves):
    """A trace-kernel build tree over the file's named sheaves, one key a node."""
    if not isinstance(tree, dict) or len(tree) != 1:
        raise ParseError("bad kernel tree %r" % (tree,))
    if "tk" in tree:
        name = _name(tree["tk"])
        if name not in sheaves:
            raise ParseError("kernel references unknown sheaf %r" % (name,))
        return tk(sheaves[name])
    if "external" in tree:
        parts = tree["external"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ParseError("'external' takes exactly two subtrees")
        return external_tk(parse_kernel(parts[0], sheaves),
                           parse_kernel(parts[1], sheaves))
    if "compose" in tree:
        parts = tree["compose"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ParseError("'compose' takes exactly two subtrees")
        return compose_tk(parse_kernel(parts[0], sheaves),
                          parse_kernel(parts[1], sheaves))
    if "twist" in tree:
        inner = _object(tree["twist"], "'twist'")
        return shift_twist(parse_kernel(inner.get("of", {}), sheaves),
                           _int(inner.get("d", 0), "a twist"))
    raise ParseError("kernel tree needs 'tk', 'external', 'compose' or 'twist'")


def _reference(spec, key, known):
    """The object of `known` that spec[key] names."""
    name = spec.get(key)
    if not isinstance(name, str):
        raise ParseError("'%s' must name a %s, got %r" % (key, key, name))
    if name not in known:
        raise ParseError("lefschetz instance references unknown %s %r" % (key, name))
    return known[name]


def parse_lefschetz(spec, maps, sheaves):
    spec = _object(spec, "a lefschetz instance")
    f = _reference(spec, "map", maps)
    sheaf = _reference(spec, "sheaf", sheaves)
    if "phi" in spec:
        known = set(map(str, sheaf.base.cell_ids()))
        phi = {}
        for c, node in _object(spec["phi"], "'phi'").items():
            if c not in known:
                raise ParseError("phi on unknown cell %r" % (c,))
            phi[c] = _parse_chain_map(node, "a phi component")
        # after the self-map check, so that a map to a point stays a
        # validation failure
        inst = LefschetzInstance(f, sheaf, phi)
        for c, comp in phi.items():
            _check_shapes(comp, sheaf.stalk(f(c)), sheaf.stalk(c), "phi at %r" % (c,))
        return inst
    scalar = parse_fraction(spec.get("scalar", 1))
    return constant_phi(f, sheaf, scalar)


# ---------------------------------------------------------------------------
# whole files

class Instance:
    """Everything named in one instance file."""

    def __init__(self, cx, simplices, sheaves, maps, cycles, kernels, lefschetz):
        self.complex = cx
        self.simplices = simplices
        self.sheaves = sheaves
        self.maps = maps
        self.cycles = cycles
        self.kernels = kernels
        self.lefschetz = lefschetz


def parse_instance(doc) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("the top level must be an object")
    version = _int(doc.get("version", FORMAT_VERSION), "the format version")
    if version != FORMAT_VERSION:
        raise ParseError("unsupported format version %r" % (version,))
    if "complex" not in doc:
        raise ParseError("missing 'complex'")
    cx, simplices = parse_complex(doc["complex"])
    # the named objects below are evaluated on the complex, so a complex
    # that fails its validation is rejected first (a validation failure)
    problems = cx.validate()
    if problems:
        raise CellComplexError("\n".join(problems))

    sheaf_specs = doc.get("sheaves", {})
    if not isinstance(sheaf_specs, dict):
        raise ParseError("'sheaves' must map names to specs")
    sheaves = {}
    problems = []
    pending = dict(sheaf_specs)
    while pending:
        progressed = False
        for name in list(pending):
            spec = pending[name]
            try:
                built = parse_sheaf(spec, cx, sheaves)
            except SheafError as e:
                raise ParseError("sheaf %r: %s" % (name, e))
            if built is not None:
                if isinstance(spec, dict) and "stalks" in spec:
                    problems += ["sheaf %s: %s" % (name, p) for p in built.validate()]
                sheaves[name] = built
                del pending[name]
                progressed = True
        if not progressed:
            raise ParseError("unresolvable sheaf references: %s"
                             % sorted(pending))
    # explicit sheaves are evaluated by everything below, so their stalk
    # differentials, chain maps and functoriality are checked here too
    if problems:
        raise SheafError("\n".join(problems))

    def named(key):
        return _object(doc.get(key, {}), "'%s'" % key).items()

    maps = {name: parse_map(spec, cx, simplices) for name, spec in named("maps")}
    cycles = {name: parse_cycle(spec, cx) for name, spec in named("cycles")}
    kernels = {name: parse_kernel(tree, sheaves) for name, tree in named("kernels")}
    lefschetz = {name: parse_lefschetz(spec, maps, sheaves)
                 for name, spec in named("lefschetz")}
    return Instance(cx, simplices, sheaves, maps, cycles, kernels, lefschetz)


def load_instance(path) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e))
    except ValueError as e:  # not UTF-8 or not JSON
        raise ParseError("invalid JSON in %s: %s" % (path, e))
    except RecursionError:
        raise ParseError("JSON in %s is nested too deeply" % (path,))
    return parse_instance(doc)
