"""Trace kernels generated by F (x) DF and closed under the supported
operations (external product, composition, shift twist).

A kernel is its Euler class on M and a builder: build(d) returns the
sheaf on product(M, M) of the kernel twisted by d, assembled from its
factors' d-twisted sheaves.  The sheaf itself (build(0)) is made only
when `underlying` is first read.  The defining morphisms from the
constant sheaf on the diagonal and into the dualizing object of the
diagonal are carried abstractly: each constructor corresponds to a
closure statement guaranteeing their existence, and the microlocal Euler
class is the shadow those morphisms determine.
"""

from __future__ import annotations

from functools import cached_property

from .cellcx import CellComplex, _product_complex, factors_of
from .sheaf import (CellularSheaf, SheafError, euler_char, external, verdier_dual,
                    shift_sheaf, kernel_compose, _pulled_tensor)
from .mueu import LagCycle, mueu, degree, external_cycle, compose_cycle


class TraceKernelError(SheafError):
    pass


class TraceKernel:
    """A sheaf on product(M, M), built on first read, and its Euler class
    on M."""

    def __init__(self, base: CellComplex, build, euler_class: LagCycle):
        if not euler_class.base.same_as(base):
            raise TraceKernelError("class must live on the diagonal factor")
        self.base = base
        self._build = build
        self.euler_class = euler_class

    @cached_property
    def underlying(self) -> CellularSheaf:
        return self._build(0)

    def sheaf(self, d: int) -> CellularSheaf:
        """The sheaf of this kernel twisted by d."""
        return self.underlying if d == 0 else self._build(d)

    def __repr__(self):
        return "TraceKernel(on %r)" % (self.base,)


def tk(f: CellularSheaf) -> TraceKernel:
    """The trace kernel of a constructible sheaf: F (x) DF."""
    cls = mueu(f)
    if degree(cls) != euler_char(f):
        raise TraceKernelError("class degree disagrees with the index of F")
    return TraceKernel(f.base, lambda d: external(shift_sheaf(f, d),
                                                  shift_sheaf(verdier_dual(f), -d)),
                       cls)


def eu_point(k: TraceKernel) -> int:
    """Euler class over a one-point base: the Euler-Poincare index."""
    ids = k.base.cell_ids()
    if len(ids) != 1 or k.base.dim(ids[0]) != 0:
        raise TraceKernelError("eu_point requires a one-point base")
    return degree(k.euler_class)


def _interleave(pair_of_pairs):
    ((a, b), (c, d)) = pair_of_pairs
    return ((a, c), (b, d))


def _relabel_sheaf(f: CellularSheaf, new_base: CellComplex, fn) -> CellularSheaf:
    stalks = {fn(c): v for c, v in f.stalks.items()}
    restrictions = {(fn(s), fn(t)): phi for (s, t), phi in f.restrictions.items()}
    return CellularSheaf(new_base, stalks, restrictions)


def external_tk(k1: TraceKernel, k2: TraceKernel) -> TraceKernel:
    """External product of trace kernels, built on product(M12, M12): the
    stalk at ((a, c), (b, d)) is K1(a, b) (x) K2(c, d)."""
    m12 = _product_complex(k1.base, k2.base)

    def build(d):
        return _pulled_tensor(_product_complex(m12, m12), k1.sheaf(d), k2.sheaf(d),
                              lambda x: (x[0][0], x[1][0]), lambda x: (x[0][1], x[1][1]))
    return TraceKernel(m12, build, external_cycle(k1.euler_class, k2.euler_class, m12))


def compose_tk(k12: TraceKernel, k23: TraceKernel) -> TraceKernel:
    """Composition of trace kernels over the doubled middle factor."""
    m1, m2 = factors_of(k12.base)
    m2b, m3 = factors_of(k23.base)
    if not m2.same_as(m2b):
        raise TraceKernelError("middle factors of the trace kernels disagree")
    m13 = _product_complex(m1, m3)

    def build(d):
        m11 = _product_complex(m1, m1)
        m22 = _product_complex(m2, m2)
        m33 = _product_complex(m3, m3)
        left = _relabel_sheaf(k12.sheaf(d), _product_complex(m11, m22), _interleave)
        right = _relabel_sheaf(k23.sheaf(d), _product_complex(m22, m33), _interleave)
        composed = kernel_compose(left, right)  # on product(m11, m33)
        return _relabel_sheaf(composed, _product_complex(m13, m13), _interleave)
    return TraceKernel(m13, build, compose_cycle(k12.euler_class, k23.euler_class, m13))


def shift_twist(k: TraceKernel, d: int) -> TraceKernel:
    """Twist by an invertible shift: first factor moves by d, second by
    -d; the Euler class is unchanged."""
    if d == 0:
        return k
    return TraceKernel(k.base, lambda e: k.sheaf(d + e), k.euler_class)
