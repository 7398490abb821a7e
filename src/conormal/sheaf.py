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

from fractions import Fraction
from operator import itemgetter

from .cellcx import (CellComplex, CellularMap, _product_complex, cell_sort_key,
                     factors_of)
from . import qlinalg as ql
from .qlinalg import (Matrix, VectComplex, ZERO_COMPLEX, euler,
                      tensor_layout, is_chain_map,
                      compose_chain_maps, tensor_chain_maps, identity_chain_map,
                      shift_chain_map, _add_block, _ONE)


class SheafError(ValueError):
    pass


def _pair_key(key):
    """Sort key of (face, coface) pairs, both cells by key."""
    return lambda pair: (key(pair[0]), key(pair[1]))


class CellularSheaf:
    """Cellular sheaf of rational cochain complexes (immutable).

    One Matrix may serve as several of its blocks, one restriction dict
    (degree -> Matrix) as the restriction of several pairs, and one
    VectComplex as the stalk of several cells, or be shared with other
    sheaves (the constant sheaf has one k for every stalk and one
    {0: [[1]]} for every restriction; a random piece sheaf has one 1x1
    Matrix per value, one restriction dict per tuple of (degree, value)
    1x1 entries, and one stalk per pattern of sky pieces; pullback hands
    over the dicts of g.res and one identity per image cell;
    kernel_compose has one dict per step of a kernel and stalk objects of
    the other kernel along the middle factor), so no
    operation writes to the matrices, restriction dicts or stalks of the
    sheaves it is given.
    A restriction dict is kept as its builder gave it unless one of its
    blocks is zero, when a copy without the zero blocks is kept.  The
    (face, coface) keys are kept as the builder gave them too: constant,
    the random piece sheaves, pullback and verdier_dual key by
    base.face_pairs(), the one tuple per pair that is also the base's key
    of its incidence sign and holds the base's own cell ids, so those
    sheaves on one base share its key tuples and add no copy of a pair
    or an id."""

    def __init__(self, base: CellComplex, stalks, restrictions):
        self.base = base
        self.stalks = {}
        for c, v in stalks.items():
            if c not in base:
                raise SheafError("stalk on unknown cell %r" % (c,))
            if not v.is_zero():
                self.stalks[c] = v
        self.restrictions = {}
        incidence, kept = base.incidence, self.stalks
        for pair, phi in restrictions.items():
            s, t = pair
            if not incidence(t, s):
                raise SheafError("restriction on non-incident pair (%r, %r)" % (s, t))
            for m in phi.values():
                if m.is_zero():
                    phi = {n: m for n, m in phi.items() if not m.is_zero()}
                    break
            if phi and s in kept and t in kept:
                self.restrictions[pair] = phi

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

    def is_zero(self):
        return not self.stalks

    def validate(self):
        """List of violations (stalk d^2, chain maps, poset functoriality)."""
        # cells and pairs in (dim, str) order: problems come in the same
        # order under every hash seed, whatever order the cells were made in
        key = cell_sort_key(self.base)
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
        key = cell_sort_key(self.source.base)
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

def sections(f: CellularSheaf, cells, shift=0):
    """Total complex of oplus stalk(s)[-w(s)] over the given cells, with
    w(s) = dim s - shift.

    Differential: (-1)^shift * (incidence-weighted restrictions) plus
    (-1)^{w(s)} * internal differentials.  Returns (VectComplex, place)
    with place[cell][p] = (total degree, offset) for each piece, the cells
    in stacking order and each one's degrees ascending.  The cells are
    stacked by their positions in base.cell_order(), and each one's
    cofaces, pair keys and signs are read from base.coboundary(), both
    built once per base.  The builders that place blocks on a sections
    complex (pushforward, verdier_dual, the Lefschetz endomorphisms)
    write them straight from two placements in the same way.

    The blocks are written straight from the placement, the package's one
    placement rule, cell by cell in two plain loops: one over the cell's
    stalk differential, one over its cofaces.  Each block joins one
    source piece to one target piece, so no two blocks share an entry.
    A 1x1 restriction block is its one entry, written inline (a call
    negates each distinct entry once); every other block, the stalk
    differentials included, goes through qlinalg._add_block, the one
    block writer.  The sheaf's matrices store no zero and its zero blocks
    are dropped, so every 1x1 block has its entry and no zero is written.
    """
    stalks, restrictions, base = f.stalks, f.restrictions, f.base
    dims = {}
    place = {}  # cell -> {stalk degree p: (total degree, offset)}
    for c in sorted((c for c in cells if c in stalks), key=cell_sort_key(base)):
        w = base.dim(c) - shift
        at = place[c] = {}
        for p, d in sorted(stalks[c].dims.items()):
            n = p + w
            off = dims.get(n, 0)
            at[p] = (n, off)
            dims[n] = off + d
    mats = {n: Matrix(dims[n + 1], d) for n, d in dims.items() if n + 1 in dims}
    coboundary = base.coboundary()
    flip = -1 if shift % 2 else 1
    negated = {}  # id of an entry -> (the entry, its negative); holds the entry
    for c, at in place.items():
        sgn = -1 if (base.dim(c) - shift) % 2 else 1
        for p, a in stalks[c].diffs.items():
            n, c0 = at[p]
            _add_block(mats[n], at[p + 1][1], c0, a, 1, sgn)
        # pair is the base's own face_pairs tuple, the key that most
        # builders store, so the lookup finds it without comparing cells
        for cf, pair, sign in coboundary[c]:
            phi = restrictions.get(pair)
            if phi is None:
                continue
            to = place.get(cf)
            if to is None:
                continue
            sgn = sign * flip
            for p, a in phi.items():
                n, c0 = at[p]
                if a.rows == a.cols == 1:
                    x = a.data[0][0]
                    if sgn < 0:
                        hit = negated.get(id(x))
                        if hit is None:
                            hit = negated[id(x)] = x, -x
                        x = hit[1]
                    mats[n].data[to[p][1]][c0] = x
                else:
                    _add_block(mats[n], to[p][1], c0, a, 1, sgn)
    return VectComplex(dims, mats), place


def global_sections(f: CellularSheaf) -> VectComplex:
    """Hypercohomology complex over the whole base (d^2 = 0 is checked by
    homology_ranks, which euler_char reads)."""
    vc, _ = sections(f, f.base.cell_ids())
    return vc


def euler_char(f: CellularSheaf) -> int:
    """Index of f: the Euler characteristic of its hypercohomology, the
    alternating sum of the homology ranks of global_sections(f).  Raises
    LinAlgError when that complex has d^2 != 0."""
    return sum((-1 if n % 2 else 1) * h
               for n, h in ql.homology_ranks(global_sections(f)).items())


# ---------------------------------------------------------------------------
# constructors and operations

def constant(x: CellComplex) -> CellularSheaf:
    """The constant sheaf k on x: every stalk is one shared k in degree 0
    and every restriction one shared {0: [[1]]}, keyed by x.face_pairs()."""
    stalks = dict.fromkeys(x.cell_ids(), ql.single(0, 1))
    return CellularSheaf(x, stalks, dict.fromkeys(x.face_pairs(), {0: Matrix.identity(1)}))


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
    stalks = {c: ql.direct_sum(f.stalk(c), g.stalk(c)) for c in cells}
    # in every degree of a stalk g's pieces follow f's, and each
    # restriction acts on its own pieces
    restrictions = {}
    for s, t in {**f.restrictions, **g.restrictions}:
        mats = restrictions[(s, t)] = {}
        for h, up, left in ((f, ZERO_COMPLEX, ZERO_COMPLEX), (g, f.stalk(t), f.stalk(s))):
            for n, m in h.res(s, t).items():
                if n not in mats:
                    mats[n] = Matrix(stalks[t].dim(n), stalks[s].dim(n))
                _add_block(mats[n], up.dim(n), left.dim(n), m, 1, 1)
    return CellularSheaf(f.base, stalks, restrictions)


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
    f.res (x) g.res, placed on the stalks' tensor_layout.  A factor whose
    cell stays put contributes the identity, passed as its stalk's dims;
    the map depends on that stalk only through them, so it is built once
    per (restriction, dims) and shared."""
    cells = {}  # x -> (left x, right x, placement of the stalk at x)
    for x in base.cell_ids():
        a, b = left(x), right(x)
        if a in f.stalks and b in g.stalks:
            cells[x] = (a, b, tensor_layout(f.stalks[a], g.stalks[b]))
    stalks = {x: ql.tensor(f.stalks[a], g.stalks[b]) for x, (a, b, _) in cells.items()}
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
    """Inverse image: stalk at s is the stalk of g at f(s).  A pair that f
    collapses onto one cell restricts by the identity of its stalk, built
    once per image cell."""
    if not f.target.same_as(g.base):
        raise SheafError("pullback target mismatch")
    stalks = {c: g.stalk(f(c)) for c in f.source.cell_ids()
              if not g.stalk(f(c)).is_zero()}
    restrictions, identities = {}, {}
    for pair in f.source.face_pairs():
        s, t = pair
        if s not in stalks or t not in stalks:
            continue
        a, b = f(s), f(t)
        if a == b:
            phi = identities.get(a)
            if phi is None:
                phi = identities[a] = identity_chain_map(stalks[s])
        else:
            phi = g.res_long(a, b)
        if phi:
            restrictions[pair] = phi
    return CellularSheaf(f.source, stalks, restrictions)


class PushforwardError(SheafError):
    pass


def pushforward(f: CellularMap, sheaf: CellularSheaf) -> CellularSheaf:
    """Direct image: stalk at t is the sections complex of the fiber.

    The fiber over t is {s : f(s) = t}, an up-set difference; its
    sections carry the shift by dim t.  Requires that no source
    codim-1 pair with a nonzero restriction maps to a dimension jump
    >= 2 in the target (raises PushforwardError otherwise).

    A restriction t_lo < t_hi sends each piece (s_lo, p) of the lower
    fiber into (s_hi, p) of the upper one by the sheaf's restriction
    s_lo < s_hi.  Its blocks are written straight from the two fibers'
    placements through qlinalg._add_block, and a matrix whose entries all
    cancel is dropped.
    """
    if not f.source.same_as(sheaf.base):
        raise SheafError("pushforward source mismatch")
    src, tgt = f.source, f.target
    fibers = {}
    for c in src.cell_ids():
        fibers.setdefault(f(c), []).append(c)
    stalks, places = {}, {}
    for t, cells in fibers.items():
        vc, place = sections(sheaf, cells, tgt.dim(t))
        if not vc.is_zero():
            stalks[t] = vc
            places[t] = place
    blocks = {}  # (t_lo, t_hi) -> {degree: Matrix}
    for s_lo, s_hi in src.face_pairs():
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
        # the gap is 1, so both pieces of a block sit in the same degree
        sgn = tgt.incidence(t_hi, t_lo) * src.incidence(s_hi, s_lo)
        at, to = places[t_lo][s_lo], places[t_hi][s_hi]
        mats = blocks.get((t_lo, t_hi))
        if mats is None:
            mats = blocks[(t_lo, t_hi)] = {}
        for p, a in phi.items():
            n, c0 = at[p]
            m = mats.get(n)
            if m is None:
                m = mats[n] = Matrix(stalks[t_hi].dims[n], stalks[t_lo].dims[n])
            _add_block(m, to[p][1], c0, a, 1, sgn)
    restrictions = {pair: {n: m for n, m in mats.items() if any(m.data)}
                    for pair, mats in blocks.items()}
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
    of the inclusion of star(t)'s pieces: on the dual complexes (degrees
    negated) it sends each piece (c, p) of star(t) identically onto
    itself.  Its matrices are written straight from the two stars'
    placements: in degree -n, a piece in degree n of dim F(c)^p is an
    identity block whose rows start at the piece's offset in star(t) and
    whose columns start at its offset in star(s), written inline."""
    base = f.base
    stalks, places = {}, {}
    for c in base.cell_ids():
        vc, place = sections(f, base.star(c))
        if not vc.is_zero():
            stalks[c] = ql.dual(vc)
            places[c] = vc.dims, place
    restrictions = {}
    for pair in base.face_pairs():
        s, t = pair
        if s in places and t in places:
            (sdims, sat), (tdims, tat) = places[s], places[t]
            phi = {}
            for c, at in tat.items():
                frm, dims = sat[c], f.stalks[c].dims
                for p, (n, r0) in at.items():
                    m = phi.get(-n)
                    if m is None:
                        m = phi[-n] = Matrix(tdims[n], sdims[n])
                    c0 = frm[p][1]
                    rows = m.data
                    for i in range(dims[p]):
                        rows[r0 + i][c0 + i] = _ONE
            restrictions[pair] = phi
    return CellularSheaf(base, stalks, restrictions)


def _entries(phi, read):
    """(degree, block, (x, -x, x.numerator, x.denominator)) for each block
    of phi, the tuple None unless the block is 1x1 with entry x (a sheaf
    stores no zero block, so every 1x1 block has its entry).  read is the
    calling kernel_compose's one table, keyed by id: each dict read, with
    its list, and each 1x1 entry, with its tuple, so a shared dict is read
    once and each distinct entry negated and split once.  It holds every
    object it keys, so no id is reused while it lives."""
    hit = read.get(id(phi))
    if hit is None:
        blocks = []
        for n, m in phi.items():
            t = None
            if m.rows == m.cols == 1:
                x = m.data[0][0]
                t = read.get(id(x))
                if t is None:
                    t = read[id(x)] = x, -x, x.numerator, x.denominator
            blocks.append((n, m, t))
        hit = read[id(phi)] = phi, blocks
    return hit[1]


def _by_outer(k, order, read, swap=False):
    """The stalks and restrictions of a kernel on X x M2 (on M2 x X when
    swap), grouped by the cell x of the outer factor X that they start
    from: x -> (stalks, along, across), with stalks[b] = (K(x, b), its
    (degree, dim) in order, _entries of its d) in fiber order (the order
    of b), along[b][b2] = _entries of the step (x, b) < (x, b2) and
    across[x2][b] = _entries of the step (x, b) < (x2, b), all read
    through the one table read."""
    table = {}
    i = 0 if swap else 1  # the position of b in the kernel's pairs
    for key, u in sorted(k.stalks.items(), key=lambda item: order[item[0][i]]):
        x, b = key[::-1] if swap else key
        entry = table.get(x)
        if entry is None:
            entry = table[x] = {}, {}, {}
        entry[0][b] = u, sorted(u.dims.items()), _entries(u.diffs, read)
    # a restriction joins nonzero stalks, so x has its entry already
    for (s, t), phi in k.restrictions.items():
        (x, b), (x2, b2) = (s[::-1], t[::-1]) if swap else (s, t)
        _, along, across = table[x]
        if x == x2:
            along.setdefault(b, {})[b2] = _entries(phi, read)
        else:
            across.setdefault(x2, {})[b] = _entries(phi, read)
    return table


def kernel_compose(k12: CellularSheaf, k23: CellularSheaf) -> CellularSheaf:
    """Convolution of kernels: q13_*(q12^*K12 (x) q23^*K23), built on
    M1 x M3 with no sheaf on T = (M1 x M2) x M3.

    The stalk at (a, c) is the sections complex of the fiber of q13, with
    the piece (b, p, q) = K12(a, b)^p (x) K23(b, c)^q in degree
    p + q + dim b.  Its differential is (-1)^dim b d (x) 1 plus
    (-1)^(dim b + p) 1 (x) d plus, for each coface b' of b,
    (-1)^dim c [b':b] K12.res (x) K23.res.  A step in a restricts by
    K12.res (x) 1 and a step in c by (-1)^dim b 1 (x) K23.res, on every b.

    The blocks are written straight from each fiber's placement, made
    once, into one Matrix per degree, the package's one placement rule.
    Each block joins one source piece to one target piece, so no two
    blocks share an entry.  A scalar block (1x1 (x) 1x1, 1x1 (x) I_1 or
    I_1 (x) 1x1) is assigned as its one entry, as sections writes its
    own.  Every entry is read through one table local to the call
    (_entries): it holds each distinct dict of either kernel with its list
    of blocks, so a dict shared by many pairs is read once, and each
    distinct 1x1 entry x as (x, -x, xn, xd), so each is negated and split
    once.  A write of +-x (x) 1 or +-1 (x) x stores x or -x from there, and
    a step +-x (x) y of the middle factor is the one Fraction(+-xn yn,
    xd yd), built from integers.  Every other block goes through
    qlinalg._add_block, the one block writer.  Each kernel is read once
    into one table (_by_outer), K12 by a and K23, swapped, by c: per outer
    cell its stalks along M2 in fiber order, its steps along M2 and its
    steps across the outer factor.  The three fiber-differential families
    (d (x) 1, 1 (x) d and the middle-factor steps) keep their own loops.
    The restrictions are built in one loop over both outer steps: a step
    in a writes K12.res (x) 1 over the dims of K23(b, c) with sign +1, a
    step in c writes (-1)^dim b 1 (x) K23.res over those of K12(a, b).

    Work is shared per stalk shape.  The signature of a is its stalk
    objects K12(a, b) along M2, that of c its K23(b, c), each interned to
    a small int once per call.  A fiber's placement (its pieces, offsets
    and dims) depends only on (sig a, sig c): it is built once per such
    pair and shared read-only, while each fiber gets its own matrices.  A
    step a < a2 restricts by K12.res (x) 1, so it depends on c only
    through sig c, and a step c < c2 on a only through sig a: one
    restriction dict is built per (kind of step, step, the other side's
    signature), the kind keeping the two steps apart when M1 = M3, and
    every pair with that key holds that one dict (a dict whose entries
    all cancel is built once too and stored for none).  The memos live
    for one call, while the kernels hold the stalks whose ids they
    compare.
    """
    m1, m2 = factors_of(k12.base)
    m2b, m3 = factors_of(k23.base)
    if not m2.same_as(m2b):
        raise SheafError("middle factors of the kernels disagree")
    base = _product_complex(m1, m3)
    # sections() stacks a fiber by (dim, str(((a, b), c))), which within one
    # fiber is (dim b, repr(b))
    order = {b: i for i, b in enumerate(sorted(m2.cell_ids(),
                                               key=lambda b: (m2.dim(b), repr(b))))}
    sign = {b: -1 if m2.dim(b) % 2 else 1 for b in order}
    read = {}  # the one table of _entries, for this call only
    t12, t23 = _by_outer(k12, order, read), _by_outer(k23, order, read, swap=True)
    # signatures, interned so that no memo key holds a tuple as long as M2;
    # the kernels hold the stalks, so no id is reused during the call
    interned = {}
    sig12, sig23 = ({x: interned.setdefault(tuple((b, id(v[0])) for b, v in stalks.items()),
                                            len(interned))
                     for x, (stalks, _, _) in table.items()} for table in (t12, t23))
    del interned  # frees the tuples: only their ints are used below
    coboundary = m2.coboundary()
    # (a, c) -> ({b: (K12(a, b), K23(b, c), {(p, q): (degree, offset)},
    # the _entries of both differentials)}, dims), one placement per
    # (sig a, sig c), shared read-only
    fibers, stalks, placed = {}, {}, {}
    for ac in base.cell_ids():
        a, c = ac
        s12, s23 = sig12.get(a), sig23.get(c)
        if s12 is None or s23 is None:
            continue
        place = placed.get((s12, s23))
        if place is None:
            fib, dims = {}, {}
            vs = t23[c][0]
            for b, (u, udims, udiffs) in t12[a][0].items():
                hit = vs.get(b)
                if hit is None:
                    continue
                v, vdims, vdiffs = hit
                at, w = {}, m2.dim(b)
                for p, du in udims:
                    for q, dv in vdims:
                        n = p + q + w
                        off = dims.get(n, 0)
                        at[(p, q)] = (n, off)
                        dims[n] = off + du * dv
                fib[b] = u, v, at, udiffs, vdiffs
            place = placed[(s12, s23)] = fib, dims
        fib, dims = place
        if not fib:
            continue
        mats = {n: Matrix(dims[n + 1], d) for n, d in dims.items() if n + 1 in dims}
        sc = -1 if m3.dim(c) % 2 else 1
        res12, res23 = t12[a][1], t23[c][1]
        for b, (u, v, at, udiffs, vdiffs) in fib.items():
            sb = sign[b]
            for p, d, x in udiffs:
                if x is not None:
                    x = x[0] if sb > 0 else x[1]
                for q, e in v.dims.items():
                    n, c0 = at[(p, q)]
                    if x is not None and e == 1:
                        mats[n].data[at[(p + 1, q)][1]][c0] = x
                    else:
                        _add_block(mats[n], at[(p + 1, q)][1], c0, d, e, sb)
            for q, d, y in vdiffs:
                for p, e in u.dims.items():
                    n, c0 = at[(p, q)]
                    sg = -sb if p % 2 else sb
                    if y is not None and e == 1:
                        mats[n].data[at[(p, q + 1)][1]][c0] = y[0] if sg > 0 else y[1]
                    else:
                        _add_block(mats[n], at[(p, q + 1)][1], c0, e, d, sg)
            phis, psis = res12.get(b), res23.get(b)
            if phis is None or psis is None:
                continue
            for b2, _, inc in coboundary[b]:
                phi, psi = phis.get(b2), psis.get(b2)
                if phi is not None and psi is not None:
                    sgn = sc * inc
                    to = fib[b2][2]
                    for p, fp, x in phi:
                        if x is not None:
                            xn, xd = sgn * x[2], x[3]
                        for q, gq, y in psi:
                            n, c0 = at[(p, q)]
                            if x is None or y is None:
                                _add_block(mats[n], to[(p, q)][1], c0, fp, gq, sgn)
                            else:
                                mats[n].data[to[(p, q)][1]][c0] = Fraction(xn * y[2], xd * y[3])
        fibers[ac] = place
        stalks[ac] = VectComplex(dims, mats)
    restrictions, built = {}, {}  # built: (kind, step, other side's sig) -> dict
    for ac, (fib, dims) in fibers.items():
        a, c = ac
        for t in base.cofaces(ac):
            # a restriction of K12 or K23 joins nonzero stalks, so when t has
            # no fiber no block lands there
            target = fibers.get(t)
            if target is None:
                continue
            fib2, dims2 = target
            a2, c2 = t
            # a step in a writes K12.res (x) 1 over the dims of K23(b, c), a
            # fiber entry's stalk j = 1; a step in c writes
            # (-1)^dim b 1 (x) K23.res over those of K12(a, b), stalk j = 0;
            # j is the kind of step in the key
            if c2 == c:
                j, steps, key = 1, t12[a][2].get(a2), (1, a, a2, sig23[c])
            else:
                j, steps, key = 0, t23[c][2].get(c2), (0, c, c2, sig12[a])
            if steps is None:
                continue
            phi = built.get(key)
            if phi is None:
                mats = {}
                for b, blocks in steps.items():
                    hit = fib.get(b)
                    if hit is None:
                        continue
                    at, to, sb = hit[2], fib2[b][2], 1 if j else sign[b]
                    for r, g, x in blocks:
                        if x is not None:
                            x = x[0] if sb > 0 else x[1]
                        for s, e in hit[j].dims.items():
                            pq = (r, s) if j else (s, r)
                            n, c0 = at[pq]
                            m = mats.get(n)
                            if m is None:
                                m = mats[n] = Matrix(dims2[n], dims[n])
                            if x is not None and e == 1:
                                m.data[to[pq][1]][c0] = x
                            elif j:
                                _add_block(m, to[pq][1], c0, g, e, 1)
                            else:
                                _add_block(m, to[pq][1], c0, e, g, sb)
                phi = built[key] = {n: m for n, m in mats.items() if any(m.data)}
            if phi:
                restrictions[(ac, t)] = phi
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
