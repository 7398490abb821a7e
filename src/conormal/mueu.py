"""Lagrangian cycles and the microlocal Euler class.

A cycle is an integer weight per cell of a complex; the weight on a
cell s is the multiplicity of the conormal cell attached to s.  The
class of a sheaf puts (-1)^{dim s} chi(stalk) on s, the convention under
which the degree of the class is the index of the sheaf.
"""

from __future__ import annotations

from .cellcx import CellComplex, CellularMap, _product_complex, factors_of
from .qlinalg import euler
from .sheaf import CellularSheaf, SheafError

# test hook: flipping the class-building sign must break the index,
# composition and tensor suites (negative control for test sensitivity).
# It perturbs only how mueu reads off weights; the cycle operations stay
# honest, so the two sides of each identity genuinely diverge.
_NEGATIVE_CONTROL = False


def set_negative_control(on: bool):
    global _NEGATIVE_CONTROL
    _NEGATIVE_CONTROL = bool(on)


def _parity(d: int) -> int:
    return -1 if d % 2 else 1


def _class_parity(d: int) -> int:
    s = _parity(d)
    return -s if _NEGATIVE_CONTROL else s


class LagCycle:
    """Integer weights on the cells of a complex (sparse, immutable)."""

    def __init__(self, base: CellComplex, weights):
        self.base = base
        self.weights = {}
        for c, w in weights.items():
            if c not in base:
                raise SheafError("cycle weight on unknown cell %r" % (c,))
            if not isinstance(w, int):
                raise SheafError("cycle weights must be integers, got %r on %r" % (w, c))
            if w:
                self.weights[c] = w

    def weight(self, cid) -> int:
        return self.weights.get(cid, 0)

    @property
    def support(self):
        return set(self.weights)

    def __eq__(self, other):
        if not isinstance(other, LagCycle):
            return NotImplemented
        return self.base.same_as(other.base) and self.weights == other.weights

    def __add__(self, other):
        w = dict(self.weights)
        for c, v in other.weights.items():
            w[c] = w.get(c, 0) + v
        return LagCycle(self.base, w)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k: int):
        return LagCycle(self.base, {c: k * w for c, w in self.weights.items()})

    def __repr__(self):
        return "LagCycle(%r, %d supported cells, degree %d)" % (
            self.base, len(self.weights), degree(self))


def mueu(f: CellularSheaf) -> LagCycle:
    """Microlocal Euler class of a sheaf: (-1)^{dim} stalk indices."""
    return LagCycle(f.base, {c: _class_parity(f.base.dim(c)) * euler(v)
                             for c, v in f.stalks.items()})


def degree(cycle: LagCycle) -> int:
    """Restriction to the zero section: total weight."""
    return sum(cycle.weights.values())


def external_cycle(lam: LagCycle, mu: LagCycle, prod: CellComplex = None) -> LagCycle:
    if prod is None:
        prod = _product_complex(lam.base, mu.base)
    w = {}
    for a, wa in lam.weights.items():
        for b, wb in mu.weights.items():
            w[(a, b)] = wa * wb
    return LagCycle(prod, w)


def star(lam: LagCycle, mu: LagCycle) -> LagCycle:
    """Cycle-level tensor pairing: (-1)^{dim} times the pointwise product."""
    if not lam.base.same_as(mu.base):
        raise SheafError("star of cycles on different bases")
    w = {}
    for c in lam.support & mu.support:
        w[c] = _parity(lam.base.dim(c)) * lam.weight(c) * mu.weight(c)
    return LagCycle(lam.base, w)


def compose_cycle(lam: LagCycle, mu: LagCycle, prod13: CellComplex = None) -> LagCycle:
    """Convolution over the middle factor with the (-1)^{dim} twist."""
    m1, m2 = factors_of(lam.base)
    m2b, m3 = factors_of(mu.base)
    if not m2.same_as(m2b):
        raise SheafError("middle factors of the cycles disagree")
    if prod13 is None:
        prod13 = _product_complex(m1, m3)
    w = {}
    for (s1, s2), wl in lam.weights.items():
        p = _parity(m2.dim(s2))
        for (s2b, s3), wm in mu.weights.items():
            if s2b == s2:
                key = (s1, s3)
                w[key] = w.get(key, 0) + p * wl * wm
    return LagCycle(prod13, w)


def pushforward_cycle(f: CellularMap, lam: LagCycle) -> LagCycle:
    """Sum weights over fibers; the degree is preserved."""
    if not f.source.same_as(lam.base):
        raise SheafError("pushforward_cycle source mismatch")
    w = {}
    for c, wc in lam.weights.items():
        t = f(c)
        w[t] = w.get(t, 0) + wc
    return LagCycle(f.target, w)
