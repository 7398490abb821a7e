"""Trace kernels generated by F (x) DF and closed under the supported
operations (external product, composition, shift twist).

Every kernel is A (x) B on product(M, M): it is kept as its Euler class on
M and two zero-argument builders, first() -> A and second() -> B, sheaves
on M that are not kept once built, composed factor by factor over M2
(Kunneth for convolution).  Its stalk at (x, y) is A_x (x) B_y.  No
constructor builds a sheaf; sheaf() builds the one on product(M, M) as
external(first(), second()).  The defining morphisms from the constant
sheaf on the diagonal and into the dualizing object of the diagonal are
carried abstractly: each constructor corresponds to a closure statement
guaranteeing their existence, and the microlocal Euler class is the shadow
those morphisms determine.
"""

from __future__ import annotations

from .cellcx import CellComplex, _product_complex, factors_of
from .sheaf import (CellularSheaf, SheafError, external, verdier_dual, shift_sheaf,
                    kernel_compose)
from .mueu import LagCycle, mueu, degree, external_cycle, compose_cycle


class TraceKernelError(SheafError):
    pass


class TraceKernel:
    """A kernel A (x) B as builders of its factors on M and its Euler class on M."""

    def __init__(self, base: CellComplex, first, second, euler_class: LagCycle):
        if not euler_class.base.same_as(base):
            raise TraceKernelError("class must live on the diagonal factor")
        self.base = base
        self.first = first
        self.second = second
        self.euler_class = euler_class

    def sheaf(self) -> CellularSheaf:
        """The sheaf of this kernel on product(M, M), built anew."""
        return external(self.first(), self.second())

    def stalk_pairs(self):
        """(x, y) -> (A_x, B_y) where both are nonzero, in the cell order of
        product(M, M)."""
        a, b = self.first(), self.second()
        ids = self.base.cell_ids()
        return {(x, y): (a.stalks[x], b.stalks[y])
                for x in ids if x in a.stalks for y in ids if y in b.stalks}

    def __repr__(self):
        return "TraceKernel(on %r)" % (self.base,)


def tk(f: CellularSheaf) -> TraceKernel:
    """The trace kernel of a constructible sheaf: F (x) DF.  Computes only
    mueu(F); that its degree is the index of F is the index suite's check."""
    return TraceKernel(f.base, lambda: f, lambda: verdier_dual(f), mueu(f))


def eu_point(k: TraceKernel) -> int:
    """Euler class over a one-point base: the Euler-Poincare index."""
    ids = k.base.cell_ids()
    if len(ids) != 1 or k.base.dim(ids[0]) != 0:
        raise TraceKernelError("eu_point requires a one-point base")
    return degree(k.euler_class)


def external_tk(k1: TraceKernel, k2: TraceKernel) -> TraceKernel:
    """External product of trace kernels, (A1 (x) A2, B1 (x) B2) on M12."""
    m12 = _product_complex(k1.base, k2.base)
    return TraceKernel(m12, lambda: external(k1.first(), k2.first(), m12),
                       lambda: external(k1.second(), k2.second(), m12),
                       external_cycle(k1.euler_class, k2.euler_class, m12))


def compose_tk(k12: TraceKernel, k23: TraceKernel) -> TraceKernel:
    """Composition of trace kernels, factor by factor over the middle
    factor: (A12 o A23, B12 o B23) on M13."""
    m1, m2 = factors_of(k12.base)
    m2b, m3 = factors_of(k23.base)
    if not m2.same_as(m2b):
        raise TraceKernelError("middle factors of the trace kernels disagree")
    m13 = _product_complex(m1, m3)
    return TraceKernel(m13, lambda: kernel_compose(k12.first(), k23.first()),
                       lambda: kernel_compose(k12.second(), k23.second()),
                       compose_cycle(k12.euler_class, k23.euler_class, m13))


def shift_twist(k: TraceKernel, d: int) -> TraceKernel:
    """Twist by an invertible shift: first factor moves by d, second by
    -d; the Euler class is unchanged."""
    if d == 0:
        return k
    return TraceKernel(k.base, lambda: shift_sheaf(k.first(), d),
                       lambda: shift_sheaf(k.second(), -d), k.euler_class)
