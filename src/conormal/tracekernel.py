"""Trace kernels generated by F (x) DF and closed under the supported
operations (external product, composition, shift twist).

Every kernel is A (x) B on product(M, M): it is kept as its Euler class on
M and its factor pair, factors(d) = (A[d], B[-d]) on M, composed factor
by factor over M2 (Kunneth for convolution).  Its stalk at (x, y) is
A_x (x) B_y.  No constructor builds a sheaf; sheaf(d) builds the one on
product(M, M) as external(*factors(d)) on each call.  The defining
morphisms from the constant sheaf on the diagonal and into the dualizing
object of the diagonal are carried abstractly: each constructor
corresponds to a closure statement guaranteeing their existence, and the
microlocal Euler class is the shadow those morphisms determine.
"""

from __future__ import annotations

from .cellcx import CellComplex, _product_complex, factors_of
from .sheaf import (CellularSheaf, SheafError, euler_char, external, verdier_dual,
                    shift_sheaf, kernel_compose)
from .mueu import LagCycle, mueu, degree, external_cycle, compose_cycle


class TraceKernelError(SheafError):
    pass


class TraceKernel:
    """A kernel A (x) B as its factor pair on M and its Euler class on M."""

    def __init__(self, base: CellComplex, factors, euler_class: LagCycle):
        if not euler_class.base.same_as(base):
            raise TraceKernelError("class must live on the diagonal factor")
        self.base = base
        self.factors = factors
        self.euler_class = euler_class

    def sheaf(self, d: int = 0) -> CellularSheaf:
        """The sheaf of this kernel twisted by d, on product(M, M), built anew."""
        return external(*self.factors(d))

    def stalk_pairs(self):
        """(x, y) -> (A_x, B_y) where both are nonzero, for (A, B) = factors(0),
        in the cell order of product(M, M)."""
        a, b = self.factors(0)
        ids = self.base.cell_ids()
        return {(x, y): (a.stalks[x], b.stalks[y])
                for x in ids if x in a.stalks for y in ids if y in b.stalks}

    def __repr__(self):
        return "TraceKernel(on %r)" % (self.base,)


def tk(f: CellularSheaf) -> TraceKernel:
    """The trace kernel of a constructible sheaf: F (x) DF."""
    cls = mueu(f)
    if degree(cls) != euler_char(f):
        raise TraceKernelError("class degree disagrees with the index of F")
    return TraceKernel(f.base, lambda d: (shift_sheaf(f, d),
                                          shift_sheaf(verdier_dual(f), -d)), cls)


def eu_point(k: TraceKernel) -> int:
    """Euler class over a one-point base: the Euler-Poincare index."""
    ids = k.base.cell_ids()
    if len(ids) != 1 or k.base.dim(ids[0]) != 0:
        raise TraceKernelError("eu_point requires a one-point base")
    return degree(k.euler_class)


def external_tk(k1: TraceKernel, k2: TraceKernel) -> TraceKernel:
    """External product of trace kernels, (A1 (x) A2, B1 (x) B2) on M12."""
    m12 = _product_complex(k1.base, k2.base)

    def factors(d):
        (a1, b1), (a2, b2) = k1.factors(d), k2.factors(d)
        return external(a1, a2, m12), external(b1, b2, m12)
    return TraceKernel(m12, factors, external_cycle(k1.euler_class, k2.euler_class, m12))


def compose_tk(k12: TraceKernel, k23: TraceKernel) -> TraceKernel:
    """Composition of trace kernels, factor by factor over the middle
    factor: (A12 o A23, B12 o B23) on M13."""
    m1, m2 = factors_of(k12.base)
    m2b, m3 = factors_of(k23.base)
    if not m2.same_as(m2b):
        raise TraceKernelError("middle factors of the trace kernels disagree")
    m13 = _product_complex(m1, m3)

    def factors(d):
        (a12, b12), (a23, b23) = k12.factors(d), k23.factors(d)
        return kernel_compose(a12, a23), kernel_compose(b12, b23)
    return TraceKernel(m13, factors, compose_cycle(k12.euler_class, k23.euler_class, m13))


def shift_twist(k: TraceKernel, d: int) -> TraceKernel:
    """Twist by an invertible shift: first factor moves by d, second by
    -d; the Euler class is unchanged."""
    if d == 0:
        return k
    return TraceKernel(k.base, lambda e: k.factors(d + e), k.euler_class)
