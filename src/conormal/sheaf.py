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

from operator import itemgetter

from .cellcx import CellComplex, CellularMap, _product_complex, factors_of
from . import qlinalg as ql
from .qlinalg import (Matrix, VectComplex, ZERO_COMPLEX, euler,
                      tensor_layout, is_chain_map,
                      compose_chain_maps, tensor_chain_maps, identity_chain_map,
                      shift_chain_map, layout, graded_map)


class SheafError(ValueError):
    pass


def _cell_key(base: CellComplex):
    """Sort key of the cells of base: (dim, str)."""
    return lambda c: (base.dim(c), str(c))


def _pair_key(key):
    """Sort key of (face, coface) pairs, both cells by key."""
    return lambda pair: (key(pair[0]), key(pair[1]))


class CellularSheaf:
    """Cellular sheaf of rational cochain complexes (immutable).

    One Matrix may serve as several of its blocks or be shared with other
    sheaves (the constant sheaf has one [[1]] for every restriction, a
    random piece sheaf one 1x1 Matrix per distinct value), so no operation
    writes to the matrices of the sheaves it is given."""

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
        """Chain map stalk(a) -> stalk(b) for a <= b: the composite of the
        codim-1 restrictions along a chain that steps from a to any coface
        below b (on a valid sheaf every such chain gives the same map)."""
        if a == b:
            return identity_chain_map(self.stalk(a))
        phi = None
        while a != b:
            c = next((c for c in self.base.cofaces(a) if self.base.leq(c, b)), None)
            if c is None:
                raise SheafError("cells %r and %r are not comparable" % (a, b))
            step = self.res(a, c)
            phi = step if phi is None else compose_chain_maps(step, phi)
            a = c
        return phi

    def support(self):
        return set(self.stalks)

    def is_zero(self):
        return not self.stalks

    def validate(self):
        """List of violations (stalk d^2, chain maps, poset functoriality)."""
        # cells and pairs in (dim, str) order: problems come in the same
        # order under every hash seed, whatever order the cells were made in
        key = _cell_key(self.base)
        problems = []
        for c in sorted(self.stalks, key=key):
            try:
                self.stalks[c].check()
            except ql.LinAlgError as e:
                problems.append("stalk at %r: %s" % (c, e))
        for s, t in sorted(self.restrictions, key=_pair_key(key)):
            if not is_chain_map(self.stalk(s), self.stalk(t), self.restrictions[(s, t)]):
                problems.append("restriction (%r, %r) is not a chain map" % (s, t))
        for tau in sorted(self.base.cell_ids(), key=key):
            for rho in sorted({r for s in self.base.faces(tau) for r in self.base.faces(s)},
                              key=key):
                mids = [s for s in self.base.faces(tau) if self.base.incidence(s, rho)]
                comps = [compose_chain_maps(self.res(s, tau), self.res(rho, s))
                         for s in mids]
                # compose_chain_maps stores no zero component, so == compares
                for i in range(1, len(comps)):
                    if comps[0] != comps[i]:
                        problems.append(
                            "composite restrictions %r -> %r disagree" % (rho, tau))
                        break
        return problems

    def __repr__(self):
        return "CellularSheaf(%r, %d nonzero stalks)" % (self.base, len(self.stalks))


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
        # cells and pairs in (dim, str) order, as CellularSheaf.validate
        key = _cell_key(self.source.base)
        problems = []
        for c in sorted(self.components, key=key):
            if not is_chain_map(self.source.stalk(c), self.target.stalk(c),
                                self.components[c]):
                problems.append("component at %r is not a chain map" % (c,))
        pairs = {*self.source.restrictions, *self.target.restrictions}
        for s, t in sorted(pairs, key=_pair_key(key)):
            lhs = compose_chain_maps(self.target.res(s, t), self.at(s))
            rhs = compose_chain_maps(self.at(t), self.source.res(s, t))
            if lhs != rhs:
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
    cells = sorted((c for c in cells if c in f.stalks), key=_cell_key(f.base))
    weights = {c: weight(c) for c in cells}
    lay = layout([((c, p), p + weights[c], d)
                  for c in cells for p, d in sorted(f.stalks[c].dims.items())])
    arrows = []
    for c, w in weights.items():
        sgn = -1 if w % 2 else 1
        arrows += [((c, p), (c, p + 1), d, 1, sgn) for p, d in f.stalks[c].diffs.items()]
        for cf in f.base.cofaces(c):
            phi = f.restrictions.get((c, cf))
            if phi is not None and cf in weights:
                sgn = f.base.incidence(cf, c) * delta_sign
                arrows += [((c, p), (cf, p), m, 1, sgn) for p, m in phi.items()]
    return VectComplex(lay[0], graded_map(lay, lay, arrows)), lay[1]


def global_sections(f: CellularSheaf) -> VectComplex:
    """Hypercohomology complex over the whole base (d^2 = 0 is checked by
    its consumers: homology_ranks, euler_char)."""
    vc, _ = sections(f, f.base.cell_ids(), f.base.dim)
    return vc


def euler_char(f: CellularSheaf) -> int:
    """Index of f: the alternating sum over cells of the stalk Euler
    characteristics, which is the Euler characteristic of the sections
    complex (its degree n holds stalk degree n - dim c).  Raises
    LinAlgError when that complex has d^2 != 0."""
    global_sections(f).check()
    return sum((-1) ** f.base.dim(c) * euler(v) for c, v in f.stalks.items())


# ---------------------------------------------------------------------------
# constructors and operations

def zero_sheaf(x: CellComplex) -> CellularSheaf:
    return CellularSheaf(x, {}, {})


def constant(x: CellComplex) -> CellularSheaf:
    """The constant sheaf k on x: every restriction is one shared [[1]]."""
    stalks = {c: ql.single(0, 1) for c in x.cell_ids()}
    one = Matrix.identity(1)
    restrictions = {(s, t): {0: one} for (t, s) in x.incidence_pairs()}
    return CellularSheaf(x, stalks, restrictions)


def shift_sheaf(f: CellularSheaf, k: int) -> CellularSheaf:
    return CellularSheaf(
        f.base,
        {c: ql.shift(v, k) for c, v in f.stalks.items()},
        {pair: shift_chain_map(phi, k) for pair, phi in f.restrictions.items()})


def direct_sum_sheaf(f: CellularSheaf, g: CellularSheaf) -> CellularSheaf:
    if not f.base.same_as(g.base):
        raise SheafError("direct sum over different bases")
    # dicts, not sets, of cells and pairs: the result comes in the same
    # order under every hash seed
    cells = {**f.stalks, **g.stalks}
    lays = {c: ql.direct_sum_layout(f.stalk(c), g.stalk(c)) for c in cells}
    stalks = {c: ql.direct_sum(f.stalk(c), g.stalk(c)) for c in cells}
    return CellularSheaf(f.base, stalks, _summed_restrictions(f, g, lays))


def _summed_restrictions(f, g, lays):
    """The restrictions of a stalkwise sum of f and g whose stalk at c has
    the layout lays[c], with piece (0, n) for degree n of f and (1, n) for
    degree n of g; each acts on its own pieces."""
    return {(s, t): graded_map(lays[s], lays[t],
                               [((k, n), (k, n), m, 1, 1) for k, h in enumerate((f, g))
                                for n, m in h.res(s, t).items()])
            for (s, t) in {**f.restrictions, **g.restrictions}}


def tensor_sheaf(f: CellularSheaf, g: CellularSheaf) -> CellularSheaf:
    """Stalkwise tensor product over the common base."""
    if not f.base.same_as(g.base):
        raise SheafError("tensor over different bases")
    return _pulled_tensor(f.base, f, g, lambda x: x, lambda x: x)


def external(f: CellularSheaf, g: CellularSheaf, prod: CellComplex = None) -> CellularSheaf:
    """External tensor product on the product complex."""
    if prod is None:
        prod = _product_complex(f.base, g.base)
    return _pulled_tensor(prod, f, g, itemgetter(0), itemgetter(1))


def _pulled_tensor(base, f, g, left, right):
    """left^-1 f (x) right^-1 g on base, where left and right send each cell
    of base to a cell of f.base and of g.base, and each codim-1 pair of base
    to one cell or to a codim-1 pair.

    The stalk at x is f(left x) (x) g(right x), and a restriction is
    f.res (x) g.res.  A factor whose cell stays put contributes the
    identity, passed as its stalk's dims; the map depends on that stalk
    only through them, so it is built once per (restriction, dims) and
    shared."""
    cells = {}  # x -> (left x, right x, tensor layout of the stalk at x)
    for x in base.cell_ids():
        a, b = left(x), right(x)
        if a in f.stalks and b in g.stalks:
            cells[x] = (a, b, tensor_layout(f.stalks[a], g.stalks[b]))
    stalks = {x: ql._tensor(f.stalks[a], g.stalks[b], lay) for x, (a, b, lay) in cells.items()}
    # the identity of each stalk, as its dims, with the key it is shared
    # under (a 1-tuple, so it never equals the key (a, a2) of a restriction)
    fid, gid = ({a: (v.dims, (tuple(sorted(v.dims.items())),)) for a, v in h.stalks.items()}
                for h in (f, g))
    restrictions, built = {}, {}
    for s, (a, b, lay) in cells.items():
        for t in base.cofaces(s):
            if t in cells:
                a2, b2, lay2 = cells[t]
                phi, kf = fid[a] if a == a2 else (f.res(a, a2), (a, a2))
                psi, kg = gid[b] if b == b2 else (g.res(b, b2), (b, b2))
                if phi and psi:
                    if (kf, kg) not in built:
                        built[(kf, kg)] = tensor_chain_maps(phi, psi, lay, lay2)
                    restrictions[(s, t)] = built[(kf, kg)]
    return CellularSheaf(base, stalks, restrictions)


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
    lays = {}
    for t, cells in fibers.items():
        dt = tgt.dim(t)
        vc, idx = sections(sheaf, cells, lambda c, dt=dt: src.dim(c) - dt,
                           delta_sign=-1 if dt % 2 else 1)
        if not vc.is_zero():
            stalks[t] = vc
            lays[t] = (vc.dims, idx)
    arrows = {}  # (t_lo, t_hi) -> arrows between the fiber sections
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
        # the gap is 1, so both cells sit in the same degree
        sgn = tgt.incidence(t_hi, t_lo) * src.incidence(s_hi, s_lo)
        arrows.setdefault((t_lo, t_hi), []).extend(
            ((s_lo, p), (s_hi, p), m, 1, sgn) for p, m in phi.items())
    restrictions = {(t_lo, t_hi): graded_map(lays[t_lo], lays[t_hi], arr)
                    for (t_lo, t_hi), arr in arrows.items()}
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
    """Verdier dual: cellwise dual of compactly supported star sections.

    star(t) is contained in star(s), and the restriction is the transpose
    of the inclusion of star(t)'s pieces: on the dual layouts (degrees
    negated) it sends each piece of star(t) identically onto itself."""
    base = f.base
    stalks, lays = {}, {}
    for c in base.cell_ids():
        vc, idx = sections(f, base.star(c), base.dim)
        if not vc.is_zero():
            stalks[c] = dv = ql.dual(vc)
            lays[c] = (dv.dims, {piece: (-n, off) for piece, (n, off) in idx.items()})
    restrictions = {}
    for (t, s) in base.incidence_pairs():
        if s in lays and t in lays:
            restrictions[(s, t)] = graded_map(lays[s], lays[t], [
                ((c, p), (c, p), f.stalks[c].dims[p], 1, 1) for c, p in lays[t][1]])
    return CellularSheaf(base, stalks, restrictions)


def mapping_cone(alpha: SheafMorphism) -> CellularSheaf:
    """Stalkwise cone F[1] (+) G of a sheaf morphism F -> G."""
    f, g = alpha.source, alpha.target
    # degree n of the cone holds f^{n+1} (the piece (0, n + 1)), then g^n
    lays = {c: layout([((0, p), p - 1, d) for p, d in f.stalk(c).dims.items()]
                      + [((1, n), n, d) for n, d in g.stalk(c).dims.items()])
            for c in {**f.stalks, **g.stalks}}
    stalks = {}
    for c, lay in lays.items():
        arrows = [((0, p), (0, p + 1), m, 1, -1) for p, m in f.stalk(c).diffs.items()]
        arrows += [((0, p), (1, p), m, 1, 1) for p, m in alpha.at(c).items()]
        arrows += [((1, n), (1, n + 1), m, 1, 1) for n, m in g.stalk(c).diffs.items()]
        stalks[c] = VectComplex(lay[0], graded_map(lay, lay, arrows))
    return CellularSheaf(f.base, stalks, _summed_restrictions(f, g, lays))


def kernel_compose(k12: CellularSheaf, k23: CellularSheaf) -> CellularSheaf:
    """Convolution of kernels: q13_*(q12^*K12 (x) q23^*K23), built on
    M1 x M3 with no sheaf on T = (M1 x M2) x M3.

    The stalk at (a, c) is the sections complex of the fiber of q13, with
    the piece (b, p, q) = K12(a, b)^p (x) K23(b, c)^q in degree
    p + q + dim b.  Its differential is (-1)^dim b d (x) 1 plus
    (-1)^(dim b + p) 1 (x) d plus, for each coface b' of b,
    (-1)^dim c [b':b] K12.res (x) K23.res.  A step in a restricts by
    K12.res (x) 1 and a step in c by (-1)^dim b 1 (x) K23.res, on every b.
    """
    m1, m2 = factors_of(k12.base)
    m2b, m3 = factors_of(k23.base)
    if not m2.same_as(m2b):
        raise SheafError("middle factors of the kernels disagree")
    base = _product_complex(m1, m3)
    # sections() stacks a fiber by (dim, str(((a, b), c))), which within one
    # fiber is (dim b, repr(b))
    mids = sorted(m2.cell_ids(), key=lambda b: (m2.dim(b), repr(b)))
    sign = {b: -1 if m2.dim(b) % 2 else 1 for b in mids}
    fibers, stalks = {}, {}  # fibers: (a, c) -> ([(b, K12(a, b), K23(b, c))], layout)
    for a, c in base.cell_ids():
        fib = [(b, k12.stalks[(a, b)], k23.stalks[(b, c)]) for b in mids
               if (a, b) in k12.stalks and (b, c) in k23.stalks]
        if not fib:
            continue
        lay = layout([((b, p, q), p + q + m2.dim(b), u.dims[p] * v.dims[q])
                      for b, u, v in fib for p in sorted(u.dims) for q in sorted(v.dims)])
        sc = -1 if m3.dim(c) % 2 else 1
        arrows = []
        for b, u, v in fib:
            sb = sign[b]
            arrows += [((b, p, q), (b, p + 1, q), d, v.dims[q], sb)
                       for p, d in u.diffs.items() for q in v.dims]
            arrows += [((b, p, q), (b, p, q + 1), u.dims[p], d, -sb if p % 2 else sb)
                       for q, d in v.diffs.items() for p in u.dims]
            for b2 in m2.cofaces(b):
                phi, psi = k12.res((a, b), (a, b2)), k23.res((b, c), (b2, c))
                if phi and psi:
                    sgn = sc * m2.incidence(b2, b)
                    arrows += [((b, p, q), (b2, p, q), fp, gq, sgn)
                               for p, fp in phi.items() for q, gq in psi.items()]
        fibers[(a, c)] = fib, lay
        stalks[(a, c)] = VectComplex(lay[0], graded_map(lay, lay, arrows))
    restrictions = {}
    for (a, c), (fib, lay) in fibers.items():
        # a restriction of K12 or K23 joins nonzero stalks, so an arrow
        # lands in a piece of the fiber over (a2, c2)
        for a2, c2 in base.cofaces((a, c)):
            if c2 == c:
                arrows = [((b, p, q), (b, p, q), fp, v.dims[q], 1) for b, u, v in fib
                          for p, fp in k12.res((a, b), (a2, b)).items() for q in v.dims]
            else:
                arrows = [((b, p, q), (b, p, q), u.dims[p], gq, sign[b]) for b, u, v in fib
                          for q, gq in k23.res((b, c), (b, c2)).items() for p in u.dims]
            if arrows:
                restrictions[((a, c), (a2, c2))] = graded_map(lay, fibers[(a2, c2)][1], arrows)
    return CellularSheaf(base, stalks, restrictions)


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
