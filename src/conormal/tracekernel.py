"""Trace kernels generated by F (x) DF and closed under the supported
operations (external product, composition, shift twist).

The defining morphisms from the constant sheaf on the diagonal and into
the dualizing object of the diagonal are carried abstractly by the
provenance tag: each constructor corresponds to a closure statement
guaranteeing their existence, and the microlocal Euler class field is
the shadow those morphisms determine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cellcx import CellComplex, _product_complex, factors_of
from .sheaf import (CellularSheaf, SheafError, external, verdier_dual,
                    shift_sheaf, kernel_compose, _pulled_tensor)
from .mueu import LagCycle, mueu, degree, external_cycle, compose_cycle


class TraceKernelError(SheafError):
    pass


@dataclass(frozen=True)
class TkOf:
    sheaf: CellularSheaf


@dataclass(frozen=True)
class ExternalTK:
    left: "TraceKernel"
    right: "TraceKernel"


@dataclass(frozen=True)
class ComposeTK:
    left: "TraceKernel"
    right: "TraceKernel"


@dataclass(frozen=True)
class TwistTK:
    kernel: "TraceKernel"
    shift: int


class TraceKernel:
    """A sheaf on product(M, M) with provenance and its Euler class on M."""

    def __init__(self, base: CellComplex, underlying: CellularSheaf,
                 provenance, euler_class: LagCycle):
        if not euler_class.base.same_as(base):
            raise TraceKernelError("class must live on the diagonal factor")
        self.base = base
        self.underlying = underlying
        self.provenance = provenance
        self.euler_class = euler_class

    def __repr__(self):
        return "TraceKernel(%s on %r)" % (type(self.provenance).__name__, self.base)


def tk(f: CellularSheaf) -> TraceKernel:
    """The trace kernel of a constructible sheaf: F (x) DF."""
    underlying = external(f, verdier_dual(f))
    cls = mueu(f)
    from .sheaf import euler_char
    if degree(cls) != euler_char(f):
        raise TraceKernelError("class degree disagrees with the index of F")
    return TraceKernel(f.base, underlying, TkOf(f), cls)


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
    underlying = _pulled_tensor(_product_complex(m12, m12), k1.underlying, k2.underlying,
                                lambda x: (x[0][0], x[1][0]), lambda x: (x[0][1], x[1][1]))
    cls = external_cycle(k1.euler_class, k2.euler_class, m12)
    return TraceKernel(m12, underlying, ExternalTK(k1, k2), cls)


def compose_tk(k12: TraceKernel, k23: TraceKernel) -> TraceKernel:
    """Composition of trace kernels over the doubled middle factor."""
    m1, m2 = factors_of(k12.base)
    m2b, m3 = factors_of(k23.base)
    if not m2.same_as(m2b):
        raise TraceKernelError("middle factors of the trace kernels disagree")
    m11 = _product_complex(m1, m1)
    m22 = _product_complex(m2, m2)
    m33 = _product_complex(m3, m3)
    left_base = _product_complex(m11, m22)
    right_base = _product_complex(m22, m33)
    left = _relabel_sheaf(k12.underlying, left_base, _interleave)
    right = _relabel_sheaf(k23.underlying, right_base, _interleave)
    composed = kernel_compose(left, right)  # on product(m11, m33)
    m13 = _product_complex(m1, m3)
    doubled = _product_complex(m13, m13)
    underlying = _relabel_sheaf(composed, doubled, _interleave)
    cls = compose_cycle(k12.euler_class, k23.euler_class, m13)
    return TraceKernel(m13, underlying, ComposeTK(k12, k23), cls)


def shift_twist(k: TraceKernel, d: int) -> TraceKernel:
    """Twist by an invertible shift: first factor moves by d, second by
    -d; the Euler class is unchanged (checked weightwise where the
    provenance allows recomputation)."""
    if d == 0:
        return k
    underlying = _twisted_underlying(k, d)
    rebuilt = _twisted_class(k, d)
    if rebuilt is not None and rebuilt != k.euler_class:
        raise TraceKernelError("twist changed the Euler class")
    return TraceKernel(k.base, underlying, TwistTK(k, d), k.euler_class)


def _twisted_underlying(k: TraceKernel, d: int) -> CellularSheaf:
    prov = k.provenance
    if isinstance(prov, TkOf):
        f = prov.sheaf
        return external(shift_sheaf(f, d), shift_sheaf(verdier_dual(f), -d))
    if isinstance(prov, ExternalTK):
        return external_tk(shift_twist(prov.left, d),
                           shift_twist(prov.right, d)).underlying
    if isinstance(prov, ComposeTK):
        return compose_tk(shift_twist(prov.left, d),
                          shift_twist(prov.right, d)).underlying
    if isinstance(prov, TwistTK):
        return _twisted_underlying(prov.kernel, prov.shift + d)
    raise TraceKernelError("unknown provenance %r" % (prov,))


def _twisted_class(k: TraceKernel, d: int):
    """Recompute the class after a twist where provenance permits."""
    prov = k.provenance
    if isinstance(prov, TkOf):
        return mueu(prov.sheaf)
    if isinstance(prov, TwistTK):
        return _twisted_class(prov.kernel, prov.shift + d)
    return None
