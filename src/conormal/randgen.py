"""Deterministic random instance generators for the property suites.

Sheaves are generated valid by construction: direct sums of elementary
pieces (rank-one skyscrapers on up-sets with multiplicative weights, and
two-term acyclic pieces), then conjugated by random invertible matrices
on every (cell, degree) slot.  Conjugation preserves validity and
produces dense rational stalk data, so the suites exercise generic
matrices without a repair pass.

A sheaf is built in one pass.  The basis labels of every cell's slots,
and their positions, are computed once per piece pattern (the pieces a
cell lies in), and random_piece_sheaf draws its conjugations over those
slots rather than over a probe sheaf.  random_invertible undoes its own
elementary row operations in reverse order to get the exact inverse from
the same draws, and returns A as an Invertible that carries that inverse;
PieceSheaf takes only such conjugations (it rejects any other), so it
solves no linear system.  A 1x1 draw makes the same draws and returns one
of the 1x1 Invertibles of a fixed table built at import, one object per
product of its two scaling factors, so it allocates nothing.

Every block, differential or restriction, is built by one rule
(PieceSheaf._build): A_t M A_s^-1, where M sends each label of the source
slot to the label of its piece in the target's degree, scaled by the
ratio of the piece's weights on the two cells.  That is G_t P H_s, for P
the 0/1 label match and per-slot int factors G = A W, H = W^-1 A^-1 (W
the slot's piece weights): a scalar between slots of one label, shared as
one 1x1 Matrix per value, else an int product of rows.  The int rows of
A and A^-1 are qlinalg._int_rows, the one integer form of a matrix,
which the d^2 = 0 check and the elimination also use.  A build also
shares one restriction dict per tuple of (degree, value) 1x1 entries and
one stalk per pattern of sky pieces, and keys every restriction by the
tuples of base.face_pairs().  No operation writes to its inputs'
matrices, stalks or restriction dicts, and none outlives the build but
the fixed table of 1x1 draws.  The random rationals are picked from
tables of precomputed Fractions, with the same draws as building them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from .cellcx import (CellComplex, CellularMap, from_simplicial, product,
                     simplicial_map, identity_map, collapse_to_point)
from .qlinalg import (Matrix, VectComplex, single, direct_sum, _ONE, _add_multiple,
                      _int_rows)
from .sheaf import CellularSheaf
from .lefschetz import LefschetzInstance

SKY = "sky"
ACYC = "acyc"


# ---------------------------------------------------------------------------
# fixtures

def interval() -> CellComplex:
    return from_simplicial([[0], [1], [0, 1]])


def hollow_triangle() -> CellComplex:
    return from_simplicial([[0], [1], [2], [0, 1], [0, 2], [1, 2]])


def full_simplex(n) -> CellComplex:
    verts = list(range(n))
    simplices = []
    for k in range(1, n + 1):
        simplices.extend(list(c) for c in itertools.combinations(verts, k))
    return from_simplicial(simplices)


def tetra_boundary() -> CellComplex:
    simplices = []
    for k in (1, 2, 3):
        simplices.extend(list(c) for c in itertools.combinations(range(4), k))
    return from_simplicial(simplices)


def torus7() -> CellComplex:
    """Minimal 7-vertex triangulation of the torus (7 / 21 / 14 cells)."""
    tris = []
    for i in range(7):
        tris.append(sorted([i, (i + 1) % 7, (i + 3) % 7]))
        tris.append(sorted([i, (i + 2) % 7, (i + 3) % 7]))
    edges = sorted({tuple(sorted(e)) for t in tris for e in itertools.combinations(t, 2)})
    simplices = [[v] for v in range(7)] + [list(e) for e in edges] + tris
    return from_simplicial(simplices)


def circle(n=3) -> CellComplex:
    """Cyclic polygon with n vertices (n >= 3)."""
    simplices = [[v] for v in range(n)]
    simplices += [sorted([i, (i + 1) % n]) for i in range(n)]
    return from_simplicial(simplices)


# ---------------------------------------------------------------------------
# random complexes and maps

def random_complex(rng: random.Random, max_dim=3, max_vertices=8,
                   max_cells=40) -> CellComplex:
    """Random pure-ish simplicial complex with random subcomplex deletions."""
    for _ in range(50):
        nv = rng.randint(2, max_vertices)
        dim = rng.randint(0, min(max_dim, nv - 1))
        n_top = rng.randint(1, 6)
        tops = set()
        for _ in range(n_top):
            tops.add(tuple(sorted(rng.sample(range(nv), dim + 1))))
        # random deletions of generating simplices
        tops = list(tops)
        while len(tops) > 1 and rng.random() < 0.25:
            tops.pop(rng.randrange(len(tops)))
        # make sure every vertex that survives is used; isolated ones are fine too
        if rng.random() < 0.3:
            tops.append(tuple([rng.randrange(nv)]))
        cx = from_simplicial([list(t) for t in dict.fromkeys(tops)])
        if len(cx) <= max_cells:
            return cx
    return interval()


def random_vertex_collapse(rng: random.Random, cx: CellComplex) -> CellularMap:
    """Map onto a full simplex via a random vertex assignment."""
    verts = cx.cells_of_dim(0)
    m = rng.randint(1, 4)
    tgt = full_simplex(m)
    vm = {v: rng.randrange(m) for v in verts}
    return simplicial_map(cx, tgt, vm)


def random_inclusion(rng: random.Random, cx: CellComplex):
    """Inclusion of the subcomplex generated by a random set of cells."""
    ids = cx.cell_ids()
    picked = rng.sample(ids, rng.randint(1, len(ids)))
    down = cx.down_closure(picked)
    # cells in the order of cx, so the result does not depend on set order
    kept = [c for c in ids if c in down]
    cells = {c: cx.dim(c) for c in kept}
    incidence = {(t, s): sg for (t, s), sg in cx.incidence_pairs().items()
                 if t in down and s in down}
    sub = CellComplex(cells, incidence)
    return CellularMap(sub, cx, {c: c for c in kept}, {c: 1 for c in kept})


def random_cellular_map(rng: random.Random, cx: CellComplex) -> CellularMap:
    """A random collapse, inclusion, projection or identity.  A product
    complex, whose cells are not simplices, collapses to a point."""
    kind = rng.randrange(4)
    if kind == 0:
        if cx.product_of is not None:
            return collapse_to_point(cx)
        return random_vertex_collapse(rng, cx)
    if kind == 1:
        return random_inclusion(rng, cx)
    if kind == 2:
        prod, proj, _ = product(cx, interval())
        return proj
    return identity_map(cx)


def random_symmetry(rng: random.Random, max_vertices=7):
    """A complex together with a simplicial automorphism, built as the
    closure of a permutation orbit of random simplices."""
    nv = rng.randint(3, max_vertices)
    perm = list(range(nv))
    rng.shuffle(perm)
    gens = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, min(3, nv))
        gens.append(tuple(sorted(rng.sample(range(nv), k))))
    orbit = set()
    for g in gens:
        cur = g
        for _ in range(nv + 1):
            orbit.add(cur)
            cur = tuple(sorted(perm[v] for v in cur))
    cx = from_simplicial([list(t) for t in sorted(orbit)])
    vm = {v: perm[int(v)] for v in cx.cells_of_dim(0)}
    f = simplicial_map(cx, cx, vm)
    return cx, f


# ---------------------------------------------------------------------------
# random sheaves

# the rationals _rand_rational and _rand_nonzero return, built once: row
# k holds numerator k over every denominator, and rng.choice picks a row
# and then an entry, the two draws that Fraction(rng.choice(numerators),
# rng.choice(denominators)) makes
_RATIONALS = tuple(tuple(Fraction(num, den) for den in (1, 1, 1, 2, 3))
                   for num in (-2, -1, -1, 1, 1, 2, 3))
_NONZEROS = tuple(tuple(Fraction(num, den) for den in (1, 2))
                  for num in (-2, -1, 1, 2, 3))
# the positions of _NONZEROS in the flat list _NONZERO_LIST, in its shape,
# so that rng.choice(rng.choice(_NONZERO_INDEX)) makes the draws of
# _rand_nonzero and returns where its factor lies
_NONZERO_LIST = tuple(x for row in _NONZEROS for x in row)
_NONZERO_INDEX = tuple(tuple(range(k * len(row), (k + 1) * len(row)))
                       for k, row in enumerate(_NONZEROS))


def _rand_rational(rng: random.Random) -> Fraction:
    return rng.choice(rng.choice(_RATIONALS))


def _rand_nonzero(rng: random.Random) -> Fraction:
    return rng.choice(rng.choice(_NONZEROS))


def _scalar(x) -> Matrix:
    """The 1x1 matrix [[x]] for a nonzero x."""
    m = Matrix(1, 1)
    m.data[0][0] = x
    return m


class Invertible(Matrix):
    """A matrix that random_invertible drew, together with its inverse."""

    __slots__ = ("inverse",)

    def __init__(self, data, inverse: Matrix):
        super().__init__(len(data), len(data))
        self.data = data
        self.inverse = inverse


def _unit_table():
    """_UNITS[i][j] is the 1x1 Invertible [[f1 f2]], with inverse
    [[1 / (f1 f2)]], for the factors f1, f2 at positions i, j of
    _NONZERO_LIST; equal products are one object."""
    by_value = {}
    for a in _NONZERO_LIST:
        for b in _NONZERO_LIST:
            x = a * b
            if x not in by_value:
                by_value[x] = Invertible([{0: x}], _scalar(_ONE / x))
    return tuple(tuple(by_value[a * b] for b in _NONZERO_LIST) for a in _NONZERO_LIST)


# every 1x1 random_invertible, built once: read-only, like every conjugation
_UNITS = _unit_table()


def random_invertible(rng: random.Random, n: int) -> Invertible:
    """Product of 2n elementary row operations on the identity.

    The operations are undone in reverse order on a second identity, which
    gives the exact inverse from the same draws; the returned A holds it as
    A.inverse.

    For n = 1 both operations scale the one row, so A = [[f1 f2]], with
    A^-1 = [[1 / (f1 f2)]], is the Invertible of _UNITS at the positions of
    f1 and f2, after the same draws (two row indices, then a factor, per
    operation) as the general loop: equal 1x1 draws return one object."""
    if n == 1:
        rng.randrange(1), rng.randrange(1)  # i = j = 0: scale the row
        i = rng.choice(rng.choice(_NONZERO_INDEX))
        rng.randrange(1), rng.randrange(1)
        return _UNITS[i][rng.choice(rng.choice(_NONZERO_INDEX))]
    a = [{i: _ONE} for i in range(n)]
    ops = []
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            f = _rand_nonzero(rng)
            a[i] = {k: x * f for k, x in a[i].items()}
        else:
            f = _rand_rational(rng)
            _add_multiple(a[i], f, a[j])
        ops.append((i, j, f))
    inv = Matrix.identity(n)
    rows = inv.data
    for i, j, f in reversed(ops):
        if i == j:
            rows[i] = {k: x / f for k, x in rows[i].items()}
        else:
            _add_multiple(rows[i], -f, rows[j])
    # columns in increasing order in every row, as a dense matrix stores them
    return Invertible([dict(sorted(row.items())) for row in a], inv)


# unused by the package; kept as a name that benchmark traces report the
# length of
_INV_CACHE = {}


def _piece_patterns(base: CellComplex, pieces):
    """The pieces each cell lies in, and their slots.

    Returns (keys, patterns).  keys[c] is the tuple of indices of the
    pieces that contain c, for every cell that some piece contains, in the
    order of base.  patterns[key] is (per degree, the list of (piece index,
    leg) basis labels; the map label -> position within its degree): a
    label (i, leg) lies in degree deg_i + leg on every cell of piece i, so
    cells with one key have the same slots."""
    keys, patterns = {}, {}
    for c in base.cell_ids():
        key = tuple(i for i, piece in enumerate(pieces) if c in piece[1])
        if not key:
            continue
        keys[c] = key
        if key not in patterns:
            per_degree = {}
            for i in key:
                kind, _, deg, _ = pieces[i]
                per_degree.setdefault(deg, []).append((i, 0))
                if kind == ACYC:
                    per_degree.setdefault(deg + 1, []).append((i, 1))
            patterns[key] = (per_degree, {lab: k for labels in per_degree.values()
                                          for k, lab in enumerate(labels)})
    return keys, patterns


class PieceSheaf:
    """A sheaf presented as conjugated elementary pieces.

    pieces: list of (kind, up-set frozenset, degree, weights dict).
    SKY pieces contribute k in one degree; ACYC pieces contribute an
    acyclic k -> k in two consecutive degrees.  conj maps (cell, degree)
    to the Invertible A conjugating that slot, as random_invertible draws
    it, and A^-1 is the inverse it carries; a missing slot is not
    conjugated; a conjugation that is not an Invertible of its slot's
    size is a ValueError naming the slot.  Every block is A_t M A_s^-1,
    M the unconjugated block, built as G_t P H_s from the slots' int
    factors by the one rule of _build.
    """

    def __init__(self, base: CellComplex, pieces, conj):
        self.base = base
        self.pieces = pieces
        self.conj = conj  # (cell, degree) -> Invertible
        keys, patterns = _piece_patterns(base, pieces)
        self.slots = {c: patterns[key][0] for c, key in keys.items()}
        self.pos = {c: patterns[key][1] for c, key in keys.items()}
        for (c, n), a in conj.items():
            size = len(self.slots.get(c, {}).get(n, ()))
            if not isinstance(a, Invertible) or not a.rows == a.cols == size:
                got = "%dx%d " % (a.rows, a.cols) if isinstance(a, Matrix) else ""
                raise ValueError("conjugation at slot %r must be an Invertible of the "
                                 "slot's size %d, got a %s%s" % ((c, n), size, got,
                                                                 type(a).__name__))
        self.sheaf = self._build(keys)

    def inverse(self, key):
        """A^-1 for the conjugation A at (cell, degree) key, or None."""
        a = self.conj.get(key)
        return None if a is None else a.inverse

    def _factors(self, keys):
        """Per cell, per degree, (g, gd, h, hd): G = A W = g / gd and
        H = W^-1 A^-1 = h / hd for the slot's conjugation A (1 if none) and
        diagonal W of its labels' weights w_i(c).  g and h are sparse int
        rows over one positive denominator, or one int for one label."""
        pieces, conj, slots = self.pieces, self.conj, self.slots
        factors = {}
        for c in keys:
            factors[c] = fc = {}
            for n, labels in slots[c].items():
                a = conj.get((c, n))
                if len(labels) == 1:
                    x, y = (_ONE, _ONE) if a is None else (a.data[0][0], a.inverse.data[0][0])
                    w = pieces[labels[0][0]][3][c]
                    wn, wd = w.numerator, w.denominator
                    if wn > 0:
                        fc[n] = (x.numerator * wn, x.denominator * wd,
                                 y.numerator * wd, y.denominator * wn)
                    else:
                        fc[n] = (x.numerator * wn, x.denominator * wd,
                                 -y.numerator * wd, -y.denominator * wn)
                    continue
                # W = diag(w_int) / dw and W^-1 = diag(v_int) / dv
                ws = [pieces[i][3][c] for i, _ in labels]
                dw = lcm(*[w.denominator for w in ws])
                dv = lcm(*[w.numerator for w in ws])
                w_int = [w.numerator * (dw // w.denominator) for w in ws]
                v_int = [w.denominator * (dv // w.numerator) for w in ws]
                if a is None:  # the int rows of the identity, read only
                    ones = [{p: 1} for p in range(len(ws))]
                    (g, ga), (h, hi) = (ones, 1), (ones, 1)
                else:
                    (g, ga), (h, hi) = _int_rows(a), _int_rows(a.inverse)
                fc[n] = ([{p: x * w_int[p] for p, x in row.items()} for row in g], ga * dw,
                         [{j: v * y for j, y in row.items()} for v, row in zip(v_int, h)],
                         hi * dv)
        return factors

    def _build(self, keys) -> CellularSheaf:
        """The sheaf, every differential and restriction block by block.

        The block from slot (s, n) to slot (t, m) sends each label (i, leg)
        to the label of piece i in degree m, if (t, m) has one, scaled by
        w_i(t) / w_i(s): a restriction (m = n) sends each label to itself,
        a differential (t = s, m = n + 1) leg 0 of an acyclic piece to its
        leg 1.  With P that 0/1 label match it is A_t W_t P W_s^-1 A_s^-1 =
        G_t P H_s.  Between slots of one label it is the scalar G_t H_s in
        reduced ints, which picks the one 1x1 Matrix of its value; else the
        rows of G_t times the rows of H_s that P selects, one Fraction per
        entry.  A restriction of 1x1 blocks only is the one dict of its
        (degree, value) entries; the cells of a pattern with no acyclic
        piece share one stalk."""
        pieces, slots, pos = self.pieces, self.slots, self.pos
        factors = self._factors(keys)
        scalars = {}  # reduced (numerator, denominator) -> shared 1x1 Matrix
        shared_phi = {}  # ((degree, value), ...) of 1x1 blocks -> shared dict
        shared_stalk = {}  # pattern with no acyclic piece -> its one stalk

        def block(t, m, s, n):
            """The block G_t P H_s from slot (s, n) to slot (t, m), or None
            if it is zero: a reduced int pair between slots of one label,
            else a Matrix."""
            labels, shift = slots[s][n], m - n
            g, gd, _, _ = factors[t][m]
            _, _, h, hd = factors[s][n]
            if type(g) is int and type(h) is int:
                (i, leg), = labels
                if slots[t][m][0] != (i, leg + shift):  # P = 0
                    return None
                num, den = g * h, gd * hd
                k = gcd(num, den)
                return num // k, den // k
            tpos = pos[t]
            pick = {tpos[i, leg + shift]: k for k, (i, leg) in enumerate(labels)
                    if (i, leg + shift) in tpos}  # P: target label -> source label
            if not pick:
                return None
            if type(g) is int:
                g = ({0: g},)
            if type(h) is int:
                h = ({0: h},)
            den = gd * hd
            out = Matrix(len(g), len(labels))
            for row, grow in zip(out.data, g):
                acc = {}
                for p, x in grow.items():
                    k = pick.get(p)
                    if k is not None:
                        for j, y in h[k].items():
                            acc[j] = acc.get(j, 0) + x * y
                for j, v in acc.items():
                    if v:
                        row[j] = Fraction(v, den)
            return out

        def matrix(b):
            """The Matrix of a block: the shared one of an int pair."""
            if type(b) is not tuple:
                return b
            m = scalars.get(b)
            if m is None:
                m = scalars[b] = _scalar(Fraction(*b))
            return m

        stalks = {}
        for c, key in keys.items():
            stalk = shared_stalk.get(key)
            if stalk is None:
                cslots = slots[c]
                diffs = {n: matrix(b) for n in cslots
                         if n + 1 in cslots and (b := block(c, n + 1, c, n)) is not None}
                stalk = VectComplex({n: len(labels) for n, labels in cslots.items()}, diffs)
                if all(pieces[i][0] == SKY for i in key):
                    shared_stalk[key] = stalk
            stalks[c] = stalk
        restrictions = {}
        for pair in self.base.face_pairs():
            s, t = pair
            fs, ft = factors.get(s), factors.get(t)
            if fs is None or ft is None:
                continue
            same = slots[s] is slots[t]  # one pattern: the same labels
            entries = []
            for n, (_, _, h, hd) in fs.items():
                if same and type(h) is int:  # block's one-label scalar, with no call
                    g, gd, _, _ = ft[n]
                    num, den = g * h, gd * hd
                    k = gcd(num, den)
                    entries.append((n, (num // k, den // k)))
                elif n in ft and (b := block(t, n, s, n)) is not None:
                    entries.append((n, b))
            if not entries:
                continue
            entries = tuple(entries)
            try:  # only int pairs hash: a dict with a Matrix block is not shared
                phi = shared_phi.get(entries)
            except TypeError:
                phi = {n: matrix(b) for n, b in entries}
            else:
                if phi is None:
                    phi = shared_phi[entries] = {n: matrix(b) for n, b in entries}
            restrictions[pair] = phi
        return CellularSheaf(self.base, stalks, restrictions)


def random_upset(rng: random.Random, cx: CellComplex):
    ids = cx.cell_ids()
    k = rng.randint(1, max(1, len(ids) // 2))
    return frozenset(cx.up_closure(rng.sample(ids, min(k, len(ids)))))


def random_piece_sheaf(rng: random.Random, cx: CellComplex, max_pieces=3,
                       degree_range=(-2, 1),
                       invariant_under: CellularMap = None) -> PieceSheaf:
    """Random pieces on random up-sets, their slots conjugated at random.
    A sheaf invariant under a map has unit weights and f-closed up-sets
    and is not conjugated, so that a diagonal phi is a morphism
    f^-1 F -> F."""
    if len(cx) == 0:
        return PieceSheaf(cx, [], {})
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        kind = SKY if rng.random() < 0.7 else ACYC
        upset = random_upset(rng, cx)
        if invariant_under is not None:
            upset = _orbit_close(cx, invariant_under, upset)
        deg = rng.randint(*degree_range)
        if invariant_under is not None:
            weights = {c: Fraction(1) for c in cx.cell_ids()}
        else:
            weights = {c: _rand_nonzero(rng) for c in cx.cell_ids()}
        pieces.append((kind, upset, deg, weights))
    conj = {}
    if invariant_under is None:
        keys, patterns = _piece_patterns(cx, pieces)
        for c, key in keys.items():
            for n, labels in patterns[key][0].items():
                if rng.random() < 0.7:
                    conj[(c, n)] = random_invertible(rng, len(labels))
    return PieceSheaf(cx, pieces, conj)


def _orbit_close(cx: CellComplex, f: CellularMap, cells):
    cells = set(cells)
    changed = True
    while changed:
        changed = False
        for c in list(cells):
            img = f(c)
            if img not in cells:
                cells.add(img)
                changed = True
        closed = cx.up_closure(cells)
        if closed != cells:
            cells = closed
            changed = True
    return frozenset(cells)


def random_sheaf(rng: random.Random, cx: CellComplex, max_pieces=3,
                 degree_range=(-2, 1)) -> CellularSheaf:
    return random_piece_sheaf(rng, cx, max_pieces, degree_range).sheaf


# ---------------------------------------------------------------------------
# random complexes of vector spaces and endomorphisms

def random_vect_complex(rng: random.Random, max_degree=2, max_dim=3) -> VectComplex:
    v = VectComplex({})
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(-max_degree, max_degree)
        if rng.random() < 0.6:
            v = direct_sum(v, single(deg, rng.randint(1, max_dim)))
        else:
            acyc = VectComplex({deg: 1, deg + 1: 1}, {deg: Matrix.identity(1)})
            v = direct_sum(v, acyc)
    return v


# ---------------------------------------------------------------------------
# Lefschetz instances

def random_lefschetz_instance(rng: random.Random, max_vertices=6):
    cx, f = random_symmetry(rng, max_vertices)
    ps = random_piece_sheaf(rng, cx, max_pieces=2, degree_range=(-1, 1),
                            invariant_under=f)
    phi = {}
    piece_scalars = [_rand_rational(rng) for _ in ps.pieces]
    for c, slots in ps.slots.items():
        comp = {}
        for n, labels in slots.items():
            m = Matrix.zeros(len(labels), len(labels))
            for k, (i, leg) in enumerate(labels):
                m[k, k] = piece_scalars[i]
            comp[n] = m
        if comp:
            phi[c] = comp
    return LefschetzInstance(f, ps.sheaf, phi)
