"""Lefschetz fixed point formalism for cellular self-maps.

An instance is a cellular endomorphism f of a complex, a sheaf F on it,
and a morphism phi : f^-1 F -> F, that is a family of chain maps
phi_s : F(f(s)) -> F(s) compatible with the restrictions.  The global
side is the alternating trace of the induced endomorphism on the
cohomology of the sections complex; the local side sums signed traces
over setwise-fixed cells.  The two sides are compared once, by the
lefschetz suite and by `conormal lefschetz` (see global_trace).
"""

from __future__ import annotations

from fractions import Fraction

from .cellcx import CellularMap
from .qlinalg import Matrix, is_chain_map, _add_block, _cohomology_trace
from .sheaf import CellularSheaf, SheafError, SheafMorphism, pullback, sections


class LefschetzError(SheafError):
    pass


class LefschetzInstance:
    def __init__(self, f: CellularMap, sheaf: CellularSheaf, phi):
        if not f.is_endomorphism():
            raise LefschetzError("the map must be a self-map")
        if not f.source.same_as(sheaf.base):
            raise LefschetzError("sheaf and map live on different complexes")
        self.f = f
        self.sheaf = sheaf
        self.phi = {c: {n: m for n, m in comp.items() if not m.is_zero()}
                    for c, comp in phi.items()}

    def phi_at(self, cid):
        return self.phi.get(cid, {})

    def validate(self):
        """The problems of phi as a morphism f^-1 F -> F: the stalk of
        f^-1 F at s is F(f(s)) and its restriction s < t is
        F.res_long(f(s), f(t))."""
        return SheafMorphism(pullback(self.f, self.sheaf), self.sheaf, self.phi).validate()


def _induced_endo(inst: LefschetzInstance):
    """The chain endomorphism of the sections complex and that complex.

    phi_c : F(f(c)) -> F(c), on the cells whose dimension f preserves,
    sends each piece (f(c), p) into (c, p) by f.sign(c) phi_c^p.  The
    blocks are written straight from the sections placement through
    qlinalg._add_block, and a matrix whose entries all cancel is
    dropped."""
    sh, f = inst.sheaf, inst.f
    vc, place = sections(sh, sh.base.cell_ids())
    dim, dims = sh.base.dim, vc.dims
    phi = {}
    for c, comp in inst.phi.items():
        # a cell with an empty component may have no stalk, so no placement
        if comp and dim(f(c)) == dim(c):
            at, frm, sign = place[c], place[f(c)], f.sign(c)
            for p, m in comp.items():
                n, c0 = frm[p]
                out = phi.get(n)
                if out is None:
                    out = phi[n] = Matrix(dims[n], dims[n])
                _add_block(out, at[p][1], c0, m, 1, sign)
    phi = {n: m for n, m in phi.items() if any(m.data)}
    if not is_chain_map(vc, vc, phi):
        raise LefschetzError("phi family does not induce a chain endomorphism")
    return vc, phi


def global_trace(inst: LefschetzInstance) -> Fraction:
    """Alternating trace of the induced map on hypercohomology, computed
    on cohomology.  The induced map is checked to be a chain map once, in
    _induced_endo.  Its trace on cochains has the diagonal blocks
    f.sign(c) phi_c^p of the fixed cells, in degree p + dim c, so it is
    local_trace_sum(inst) term by term and is not computed here."""
    vc, phi = _induced_endo(inst)
    return _cohomology_trace(phi, vc)


def local_trace_sum(inst: LefschetzInstance) -> Fraction:
    """Signed sum of local traces over setwise-fixed cells."""
    sh, f = inst.sheaf, inst.f
    total = Fraction(0)
    for c in f.fixed_cells():
        comp = inst.phi_at(c)
        if not comp:
            continue
        stalk = sh.stalk(c)
        local = Fraction(0)
        for p, m in comp.items():
            if stalk.dim(p):
                local += (-1 if p % 2 else 1) * m.trace()
        total += (-1) ** sh.base.dim(c) * f.sign(c) * local
    return total


def constant_phi(f: CellularMap, sheaf: CellularSheaf, scalar=1):
    """phi acting by a scalar on every stalk (stalks at c and f(c) must
    have equal dimensions, e.g. constant or f-invariant sheaves)."""
    phi = {}
    for c in sheaf.base.cell_ids():
        src, tgt = sheaf.stalk(f(c)), sheaf.stalk(c)
        if src.dims != tgt.dims:
            raise LefschetzError("stalks at %r and %r have different shapes" % (c, f(c)))
        phi[c] = {n: Matrix.identity(d).scale(scalar) for n, d in tgt.dims.items()}
    return LefschetzInstance(f, sheaf, phi)
