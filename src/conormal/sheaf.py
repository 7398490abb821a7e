"""Cellular sheaves and their derived-style operations.

A sheaf assigns a cochain complex to every cell (the stalk on the open
cell) and a degree-0 chain map to every codimension-1 face pair, running
from faces to cofaces.  Under this convention the alternating cell-sum
of stalk Euler characteristics computes the index of the sections
complex, which all higher layers rely on.

Sections over an up-set U are modeled by the total complex
oplus_{s in U} stalk(s)[-dim s], with the poset differential weighted by
incidence signs; over the whole (finite) complex this is global
hypercohomology, over a proper up-set it is the compactly supported
flavor.
"""

from __future__ import annotations

from .cellcx import (CellComplex, CellularMap, CellComplexError, product,
                     product_map, factors_of)
from . import qlinalg as ql
from .qlinalg import (Matrix, VectComplex, ZERO_COMPLEX, euler, tensor,
                      chain_component, is_chain_map, compose_chain_maps,
                      tensor_chain_maps, identity_chain_map, dual_chain_map,
                      shift_chain_map)


class SheafError(ValueError):
    pass


class CellularSheaf:
    """Cellular sheaf of rational cochain complexes (immutable)."""

    def __init__(self, base: CellComplex, stalks, restrictions):
        self.base = base
        self.stalks = {}
        for c, v in stalks.items():
            if c not in base:
                raise SheafError("stalk on unknown cell %r" % (c,))
            if not v.is_zero():
                self.stalks[c] = v
        self.restrictions = {}
        for (s, t), phi in restrictions.items():
            if base.incidence(t, s) == 0:
                raise SheafError("restriction on non-incident pair (%r, %r)" % (s, t))
            phi = {n: m for n, m in phi.items() if not m.is_zero()}
            if phi and s in self.stalks and t in self.stalks:
                self.restrictions[(s, t)] = phi

    def stalk(self, cid) -> VectComplex:
        return self.stalks.get(cid, ZERO_COMPLEX)

    def res(self, s, t):
        """Chain map stalk(s) -> stalk(t) for the codim-1 pair s < t."""
        return self.restrictions.get((s, t), {})

    def res_long(self, a, b):
        """Canonical restriction along any chain of codim-1 steps a <= b."""
        if a == b:
            return identity_chain_map(self.stalk(a))
        # BFS for one chain of covers from a up to b
        prev = {a: None}
        frontier = [a]
        while frontier and b not in prev:
            nxt = []
            for c in frontier:
                for cf in self.base.cofaces(c):
                    if cf not in prev and self.base.leq(cf, b):
                        prev[cf] = c
                        nxt.append(cf)
            frontier = nxt
        if b not in prev:
            raise SheafError("cells %r and %r are not comparable" % (a, b))
        chain = []
        c = b
        while c != a:
            chain.append(c)
            c = prev[c]
        chain.append(a)
        chain.reverse()
        phi = identity_chain_map(self.stalk(a))
        for lo, hi in zip(chain, chain[1:]):
            phi = compose_chain_maps(self.res(lo, hi), phi)
        return phi

    def support(self):
        return set(self.stalks)

    def is_zero(self):
        return not self.stalks

    def validate(self):
        """List of violations (stalk d^2, chain maps, poset functoriality)."""
        problems = []
        for c, v in self.stalks.items():
            try:
                v.check()
            except ql.LinAlgError as e:
                problems.append("stalk at %r: %s" % (c, e))
        for (s, t), phi in self.restrictions.items():
            if not is_chain_map(self.stalk(s), self.stalk(t), phi):
                problems.append("restriction (%r, %r) is not a chain map" % (s, t))
        for tau in self.base.cell_ids():
            for rho in {r for s in self.base.faces(tau) for r in self.base.faces(s)}:
                mids = [s for s in self.base.faces(tau) if self.base.incidence(s, rho)]
                comps = [compose_chain_maps(self.res(s, tau), self.res(rho, s))
                         for s in mids]
                for i in range(1, len(comps)):
                    if not _chain_maps_equal(comps[0], comps[i],
                                             self.stalk(rho), self.stalk(tau)):
                        problems.append(
                            "composite restrictions %r -> %r disagree" % (rho, tau))
                        break
        return problems

    def __repr__(self):
        return "CellularSheaf(%r, %d nonzero stalks)" % (self.base, len(self.stalks))


def _chain_maps_equal(a, b, src: VectComplex, tgt: VectComplex):
    for n in set(a) | set(b):
        if chain_component(a, n, src, tgt) != chain_component(b, n, src, tgt):
            return False
    return True


class SheafMorphism:
    """Cellwise chain maps commuting with restrictions."""

    def __init__(self, source: CellularSheaf, target: CellularSheaf, components):
        if source.base is not target.base and not source.base.same_as(target.base):
            raise SheafError("morphism endpoints live on different complexes")
        self.source = source
        self.target = target
        self.components = {c: {n: m for n, m in phi.items() if not m.is_zero()}
                           for c, phi in components.items()}

    def at(self, cid):
        return self.components.get(cid, {})

    def validate(self):
        problems = []
        for c, phi in self.components.items():
            if not is_chain_map(self.source.stalk(c), self.target.stalk(c), phi):
                problems.append("component at %r is not a chain map" % (c,))
        for (s, t) in set(self.source.restrictions) | set(self.target.restrictions):
            lhs = compose_chain_maps(self.target.res(s, t), self.at(s))
            rhs = compose_chain_maps(self.at(t), self.source.res(s, t))
            if not _chain_maps_equal(lhs, rhs, self.source.stalk(s), self.target.stalk(t)):
                problems.append("morphism does not commute with restriction (%r, %r)" % (s, t))
        return problems


# ---------------------------------------------------------------------------
# sections complexes

def sections(f: CellularSheaf, cells, weight, delta_sign=1):
    """Total complex of oplus stalk(s)[-weight(s)] over the given cells.

    Differential: delta_sign * (incidence-weighted restrictions) plus
    (-1)^{weight(s)} * internal differentials.  Returns (VectComplex,
    index) with index[(cell, p)] = (total degree, offset).
    """
    cells = [c for c in cells if c in f.stalks]
    dims = {}
    index = {}
    for c in sorted(cells, key=lambda c: (f.base.dim(c), str(c))):
        for p in f.stalk(c).degrees():
            n = p + weight(c)
            index[(c, p)] = (n, dims.get(n, 0))
            dims[n] = dims.get(n, 0) + f.stalk(c).dim(p)
    cellset = set(cells)
    blocks = {}  # degree -> [(target offset, source offset, Matrix)]
    for (c, p), (n, off) in index.items():
        stalk = f.stalk(c)
        d = stalk.d(p)
        if not d.is_zero():
            sgn = -1 if weight(c) % 2 else 1
            blocks.setdefault(n, []).append((index[(c, p + 1)][1], off, d.scale(sgn)))
        for cf in f.base.cofaces(c):
            if cf not in cellset or (c, cf) not in f.restrictions:
                continue
            m = chain_component(f.res(c, cf), p, stalk, f.stalk(cf))
            if m.is_zero() or (cf, p) not in index:
                continue
            sgn = f.base.incidence(cf, c) * delta_sign
            blocks.setdefault(n, []).append((index[(cf, p)][1], off, m.scale(sgn)))
    return VectComplex(dims, {n: Matrix.assemble(dims.get(n + 1, 0), dims[n], bl)
                              for n, bl in blocks.items()}), index


def global_sections(f: CellularSheaf) -> VectComplex:
    """Hypercohomology complex over the whole base (d^2 = 0 is checked by
    its consumers: homology_ranks, euler_char)."""
    vc, _ = sections(f, f.base.cell_ids(), f.base.dim)
    return vc


def euler_char(f: CellularSheaf) -> int:
    """Index of f, computed two ways and cross-checked."""
    by_stalks = sum((-1) ** f.base.dim(c) * euler(v) for c, v in f.stalks.items())
    by_sections = euler(global_sections(f).check())
    if by_stalks != by_sections:
        raise SheafError("internal inconsistency: stalk sum %d vs sections %d"
                         % (by_stalks, by_sections))
    return by_stalks


# ---------------------------------------------------------------------------
# constructors and operations

def zero_sheaf(x: CellComplex) -> CellularSheaf:
    return CellularSheaf(x, {}, {})


def constant(x: CellComplex) -> CellularSheaf:
    stalks = {c: ql.single(0, 1) for c in x.cell_ids()}
    restrictions = {(s, t): {0: Matrix.identity(1)} for (t, s) in x.incidence_pairs()}
    return CellularSheaf(x, stalks, restrictions)


def shift_sheaf(f: CellularSheaf, k: int) -> CellularSheaf:
    return CellularSheaf(
        f.base,
        {c: ql.shift(v, k) for c, v in f.stalks.items()},
        {pair: shift_chain_map(phi, k) for pair, phi in f.restrictions.items()})


def direct_sum_sheaf(f: CellularSheaf, g: CellularSheaf) -> CellularSheaf:
    if not f.base.same_as(g.base):
        raise SheafError("direct sum over different bases")
    stalks = {}
    for c in set(f.stalks) | set(g.stalks):
        stalks[c] = ql.direct_sum(f.stalk(c), g.stalk(c))
    restrictions = {}
    for pair in set(f.restrictions) | set(g.restrictions):
        s, t = pair
        phi = {}
        for n in set(f.res(s, t)) | set(g.res(s, t)):
            blocks = []
            if n in f.res(s, t):
                blocks.append((0, 0, f.res(s, t)[n]))
            if n in g.res(s, t):
                blocks.append((f.stalk(t).dim(n), f.stalk(s).dim(n), g.res(s, t)[n]))
            phi[n] = Matrix.assemble(stalks[t].dim(n), stalks[s].dim(n), blocks)
        restrictions[pair] = phi
    return CellularSheaf(f.base, stalks, restrictions)


def tensor_sheaf(f: CellularSheaf, g: CellularSheaf) -> CellularSheaf:
    """Stalkwise tensor product over the common base."""
    if not f.base.same_as(g.base):
        raise SheafError("tensor over different bases")
    stalks = {c: tensor(f.stalk(c), g.stalk(c))
              for c in set(f.stalks) & set(g.stalks)}
    restrictions = {}
    for (s, t) in set(f.restrictions) | set(g.restrictions):
        if s in stalks and t in stalks:
            restrictions[(s, t)] = tensor_chain_maps(
                f.res(s, t), g.res(s, t), f.stalk(s), g.stalk(s),
                f.stalk(t), g.stalk(t))
    return CellularSheaf(f.base, stalks, restrictions)


def external(f: CellularSheaf, g: CellularSheaf, prod: CellComplex = None) -> CellularSheaf:
    """External tensor product on the product complex."""
    if prod is None:
        prod, _, _ = product(f.base, g.base)
    stalks = {}
    for a in f.stalks:
        for b in g.stalks:
            stalks[(a, b)] = tensor(f.stalk(a), g.stalk(b))
    restrictions = {}
    for (s, t), phi in f.restrictions.items():
        for b in g.stalks:
            restrictions[((s, b), (t, b))] = tensor_chain_maps(
                phi, identity_chain_map(g.stalk(b)),
                f.stalk(s), g.stalk(b), f.stalk(t), g.stalk(b))
    for (s, t), psi in g.restrictions.items():
        for a in f.stalks:
            restrictions[((a, s), (a, t))] = tensor_chain_maps(
                identity_chain_map(f.stalk(a)), psi,
                f.stalk(a), g.stalk(s), f.stalk(a), g.stalk(t))
    return CellularSheaf(prod, stalks, restrictions)


def pullback(f: CellularMap, g: CellularSheaf) -> CellularSheaf:
    """Inverse image: stalk at s is the stalk of g at f(s)."""
    if not f.target.same_as(g.base):
        raise SheafError("pullback target mismatch")
    stalks = {c: g.stalk(f(c)) for c in f.source.cell_ids()
              if not g.stalk(f(c)).is_zero()}
    restrictions = {}
    for (t, s) in f.source.incidence_pairs():
        if s not in stalks or t not in stalks:
            continue
        phi = g.res_long(f(s), f(t))
        if phi:
            restrictions[(s, t)] = phi
    return CellularSheaf(f.source, stalks, restrictions)


class PushforwardError(SheafError):
    pass


def pushforward(f: CellularMap, sheaf: CellularSheaf) -> CellularSheaf:
    """Direct image: stalk at t is the sections complex of the fiber.

    The fiber over t is {s : f(s) = t}, an up-set difference; its
    sections carry the shift by dim t.  Requires that no source
    codim-1 pair with a nonzero restriction maps to a dimension jump
    >= 2 in the target (raises PushforwardError otherwise).
    """
    if not f.source.same_as(sheaf.base):
        raise SheafError("pushforward source mismatch")
    src, tgt = f.source, f.target
    fibers = {}
    for c in src.cell_ids():
        fibers.setdefault(f(c), []).append(c)
    stalks = {}
    indices = {}
    for t, cells in fibers.items():
        dt = tgt.dim(t)
        vc, idx = sections(sheaf, cells, lambda c, dt=dt: src.dim(c) - dt,
                           delta_sign=-1 if dt % 2 else 1)
        if not vc.is_zero():
            stalks[t] = vc
            indices[t] = idx
    blocks = {}  # (t_lo, t_hi) -> degree -> [(target offset, source offset, Matrix)]
    for (s_hi, s_lo) in src.incidence_pairs():
        t_lo, t_hi = f(s_lo), f(s_hi)
        if t_lo == t_hi:
            continue
        gap = tgt.dim(t_hi) - tgt.dim(t_lo)
        phi = sheaf.res(s_lo, s_hi)
        if gap >= 2:
            if phi:
                raise PushforwardError(
                    "restriction %r < %r maps onto a dimension jump of %d"
                    % (s_lo, s_hi, gap))
            continue
        if not phi or t_lo not in stalks or t_hi not in stalks:
            continue
        sgn = tgt.incidence(t_hi, t_lo) * src.incidence(s_hi, s_lo)
        cur = blocks.setdefault((t_lo, t_hi), {})
        lo_idx, hi_idx = indices[t_lo], indices[t_hi]
        for p, m in phi.items():
            if (s_lo, p) not in lo_idx or (s_hi, p) not in hi_idx:
                continue
            # the gap is 1, so both cells sit in the same degree n
            n, off_lo = lo_idx[(s_lo, p)]
            _, off_hi = hi_idx[(s_hi, p)]
            cur.setdefault(n, []).append((off_hi, off_lo, m.scale(sgn)))
    restrictions = {
        (t_lo, t_hi): {n: Matrix.assemble(stalks[t_hi].dim(n), stalks[t_lo].dim(n), bl)
                       for n, bl in degrees.items()}
        for (t_lo, t_hi), degrees in blocks.items()}
    return CellularSheaf(tgt, stalks, restrictions)


def extend_by_zero(sheaf: CellularSheaf, upset) -> CellularSheaf:
    """Zero out every stalk off the given up-set (open subcomplex)."""
    upset = set(upset)
    for c in upset:
        if c not in sheaf.base:
            raise SheafError("up-set mentions unknown cell %r" % (c,))
    if not sheaf.base.is_upset(upset):
        raise SheafError("extend_by_zero requires an up-set of cells")
    stalks = {c: v for c, v in sheaf.stalks.items() if c in upset}
    restrictions = {(s, t): phi for (s, t), phi in sheaf.restrictions.items()
                    if s in upset and t in upset}
    return CellularSheaf(sheaf.base, stalks, restrictions)


def verdier_dual(f: CellularSheaf) -> CellularSheaf:
    """Verdier dual: cellwise dual of compactly supported star sections."""
    base = f.base
    star_sections = {}
    for c in base.cell_ids():
        star_sections[c] = sections(f, base.star(c), base.dim)
    stalks = {}
    for c, (vc, _) in star_sections.items():
        dv = ql.dual(vc)
        if not dv.is_zero():
            stalks[c] = dv
    restrictions = {}
    for (t, s) in base.incidence_pairs():
        # star(t) is contained in star(s); dualize the inclusion
        if s not in stalks or t not in stalks:
            continue
        vc_s, idx_s = star_sections[s]
        vc_t, idx_t = star_sections[t]
        blocks = {}
        for (c, p), (n, off) in idx_t.items():
            blocks.setdefault(n, []).append(
                (idx_s[(c, p)][1], off, Matrix.identity(f.stalk(c).dim(p))))
        incl = {n: Matrix.assemble(vc_s.dim(n), vc_t.dim(n), bl) for n, bl in blocks.items()}
        restrictions[(s, t)] = dual_chain_map(incl, vc_t, vc_s)
    return CellularSheaf(base, stalks, restrictions)


def mapping_cone(alpha: SheafMorphism) -> CellularSheaf:
    """Stalkwise cone F[1] (+) G of a sheaf morphism F -> G."""
    f, g = alpha.source, alpha.target
    base = f.base
    stalks = {}
    for c in set(f.stalks) | set(g.stalks):
        fs, gs = f.stalk(c), g.stalk(c)
        dims = {}
        for n in set(d - 1 for d in fs.dims) | set(gs.dims):
            d = fs.dim(n + 1) + gs.dim(n)
            if d:
                dims[n] = d
        diffs = {}
        for n in dims:
            if not dims.get(n + 1, 0):
                continue
            blocks = []
            if fs.dim(n + 1) and fs.dim(n + 2):
                blocks.append((0, 0, fs.d(n + 1).scale(-1)))
            a = chain_component(alpha.at(c), n + 1, fs, gs)
            if fs.dim(n + 1) and gs.dim(n + 1) and not a.is_zero():
                blocks.append((fs.dim(n + 2), 0, a))
            if gs.dim(n) and gs.dim(n + 1):
                blocks.append((fs.dim(n + 2), fs.dim(n + 1), gs.d(n)))
            diffs[n] = Matrix.assemble(dims.get(n + 1, 0), dims[n], blocks)
        stalks[c] = VectComplex(dims, diffs)
    restrictions = {}
    for (s, t) in set(f.restrictions) | set(g.restrictions):
        if stalks.get(s) is None or stalks.get(t) is None:
            continue
        phi = {}
        for n in stalks[s].dims:
            if not stalks[t].dim(n):
                continue
            blocks = []
            fm = chain_component(f.res(s, t), n + 1, f.stalk(s), f.stalk(t))
            if fm.rows and fm.cols and not fm.is_zero():
                blocks.append((0, 0, fm))
            gm = chain_component(g.res(s, t), n, g.stalk(s), g.stalk(t))
            if gm.rows and gm.cols and not gm.is_zero():
                blocks.append((f.stalk(t).dim(n + 1), f.stalk(s).dim(n + 1), gm))
            if blocks:
                phi[n] = Matrix.assemble(stalks[t].dim(n), stalks[s].dim(n), blocks)
        restrictions[(s, t)] = phi
    return CellularSheaf(base, {c: v for c, v in stalks.items() if not v.is_zero()},
                         restrictions)


def _projections(p: CellComplex):
    a, b = factors_of(p)
    ids = p.cell_ids()
    proj_a = CellularMap(p, a, {c: c[0] for c in ids},
                         {c: 1 for c in ids if a.dim(c[0]) == p.dim(c)},
                         projection_of=(p, "first"))
    proj_b = CellularMap(p, b, {c: c[1] for c in ids},
                         {c: 1 for c in ids if b.dim(c[1]) == p.dim(c)},
                         projection_of=(p, "second"))
    return proj_a, proj_b


def kernel_compose(k12: CellularSheaf, k23: CellularSheaf) -> CellularSheaf:
    """Convolution of kernels: pull back to the triple product, tensor,
    push forward to the outer product."""
    m1, m2 = factors_of(k12.base)
    m2b, m3 = factors_of(k23.base)
    if not m2.same_as(m2b):
        raise SheafError("middle factors of the kernels disagree")
    t, q12, _ = product(k12.base, m3)
    p1, p2 = _projections(k12.base)
    q23 = product_map(p2, _identity(m3), source=t, target=k23.base)
    m13, _, _ = product(m1, m3)
    q13 = product_map(p1, _identity(m3), source=t, target=m13)
    return pushforward(q13, tensor_sheaf(pullback(q12, k12), pullback(q23, k23)))


def _identity(x: CellComplex) -> CellularMap:
    from .cellcx import identity_map
    return identity_map(x)


def euler_rhom(f: CellularSheaf, g: CellularSheaf) -> int:
    """Index of RHom via the poset bar complex, at the chain-count level."""
    if not f.base.same_as(g.base):
        raise SheafError("euler_rhom over different bases")
    base = f.base
    ids = base.cell_ids()
    chi_f = {c: euler(f.stalk(c)) for c in ids}
    chi_g = {c: euler(g.stalk(c)) for c in ids}
    above = {c: [d for d in ids if base.lt(c, d)] for c in ids}
    total = 0
    u = dict(chi_g)
    sign = 1
    while any(u.values()):
        total += sign * sum(chi_f[c] * u[c] for c in ids)
        u = {c: sum(u[d] for d in above[c]) for c in ids}
        sign = -sign
    return total
