"""Deterministic random instance generators for the property suites.

Sheaves are generated valid by construction: direct sums of elementary
pieces (rank-one skyscrapers on up-sets with multiplicative weights, and
two-term acyclic pieces), then conjugated by random invertible matrices
on every (cell, degree) slot.  Conjugation preserves validity and
produces dense rational stalk data, so the suites exercise generic
matrices without a repair pass.

A sheaf is built in one pass.  The basis labels of every cell's slots,
and their positions, are computed once per cell rather than once per
incidence pair, and random_piece_sheaf draws its conjugations over those
slots rather than over a probe sheaf.  random_invertible undoes its own
elementary row operations in reverse order to get the exact inverse from
the same draws, so no linear system is solved; a 1x1 draw is written as
the product of its two scaling factors.  Most slots hold one label, and a
block between two of them is the scalar A_t (w_t / w_s) A_s^-1, written
as g(t) h(s) from two scalars per slot.  A larger unconjugated block has
at most one entry in each row, so A_t M A_s^-1 is written as scaled rows
of A_s^-1 and multiplied by A_t once.  The random rationals are picked
from tables of precomputed Fractions, with the same draws as building them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .cellcx import (CellComplex, CellularMap, from_simplicial, product,
                     simplicial_map, identity_map)
from .qlinalg import (Matrix, VectComplex, single, direct_sum,
                      identity_chain_map, add_chain_maps, scale_chain_map,
                      solve_unique, _ONE, _add_multiple)
from .sheaf import CellularSheaf, SheafMorphism
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
    down = set()
    for c in picked:
        down.add(c)
        down |= {d for d in ids if cx.lt(d, c)}
    # cells in the order of cx, so the result does not depend on set order
    kept = [c for c in ids if c in down]
    cells = {c: cx.dim(c) for c in kept}
    incidence = {(t, s): sg for (t, s), sg in cx.incidence_pairs().items()
                 if t in down and s in down}
    sub = CellComplex(cells, incidence)
    return CellularMap(sub, cx, {c: c for c in kept}, {c: 1 for c in kept})


def random_cellular_map(rng: random.Random, cx: CellComplex) -> CellularMap:
    """A random collapse, inclusion, projection or identity."""
    kind = rng.randrange(4)
    if kind == 0:
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


def _rand_rational(rng: random.Random) -> Fraction:
    return rng.choice(rng.choice(_RATIONALS))


def _rand_nonzero(rng: random.Random) -> Fraction:
    return rng.choice(rng.choice(_NONZEROS))


def _scalar(x) -> Matrix:
    """The 1x1 matrix [[x]] for a nonzero x."""
    m = Matrix(1, 1)
    m.data[0][0] = x
    return m


def random_invertible(rng: random.Random, n: int) -> Matrix:
    """Product of 2n elementary row operations on the identity.

    The operations are undone in reverse order on a second identity, which
    gives the exact inverse from the same draws; (A, A^-1) is left in
    _INV_CACHE for the PieceSheaf that takes A as a conjugation.  The cache
    holds both matrices until the next PieceSheaf or random_morphism
    returns, so a caller that draws matrices and never builds either keeps
    every pair it drew alive in the cache.

    For n = 1 both operations scale the one row, so A = [[f1 f2]] and
    A^-1 = [[1 / (f1 f2)]] are written directly, after the same draws (two
    row indices, then a factor, per operation) as the general loop."""
    if n == 1:
        rng.randrange(1), rng.randrange(1)  # i = j = 0: scale the row
        f = _rand_nonzero(rng)
        rng.randrange(1), rng.randrange(1)
        f *= _rand_nonzero(rng)
        m = _scalar(f)
        _INV_CACHE[id(m)] = (m, _scalar(_ONE / f))
        return m
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
    m = Matrix(n, n)
    # columns in increasing order in every row, as a dense matrix stores them
    m.data = [dict(sorted(row.items())) for row in a]
    _INV_CACHE[id(m)] = (m, inv)
    return m


# id(A) -> (A, A^-1) for the matrices random_invertible returned since the
# last PieceSheaf or random_morphism: both empty it when they return
_INV_CACHE = {}


def _piece_slots(base: CellComplex, pieces):
    """Per cell, per degree, the list of (piece index, leg) basis labels,
    and per cell the map label -> position within its degree (a label
    (i, leg) lies in degree deg_i + leg on every cell).  Cells that no
    piece reaches are left out; cells that lie in the same pieces share
    one (read-only) pair of dicts."""
    shared = {}
    slots, pos = {}, {}
    for c in base.cell_ids():
        key = tuple(i for i, piece in enumerate(pieces) if c in piece[1])
        if not key:
            continue
        got = shared.get(key)
        if got is None:
            per_degree = {}
            for i in key:
                kind, _, deg, _ = pieces[i]
                per_degree.setdefault(deg, []).append((i, 0))
                if kind == ACYC:
                    per_degree.setdefault(deg + 1, []).append((i, 1))
            got = shared[key] = (per_degree, {lab: k for labels in per_degree.values()
                                              for k, lab in enumerate(labels)})
        slots[c], pos[c] = got
    return slots, pos


class PieceSheaf:
    """A sheaf presented as conjugated elementary pieces.

    pieces: list of (kind, up-set frozenset, degree, weights dict).
    SKY pieces contribute k in one degree; ACYC pieces contribute an
    acyclic k -> k in two consecutive degrees.  conj maps (cell, degree)
    to the invertible matrix A conjugating that slot; a missing slot is
    not conjugated.  A block between two slots of one label each is the
    scalar g(t) h(s) (see _build); every larger block is built as
    A_t M A_s^-1 in one product, where M is the unconjugated block.
    """

    def __init__(self, base: CellComplex, pieces, conj):
        self.base = base
        self.pieces = pieces
        self.conj = conj  # (cell, degree) -> invertible Matrix (or None)
        self.slots, self.pos = _piece_slots(base, pieces)
        # (cell, degree) -> A^-1, kept for random_morphism
        self.inverses = {}
        try:
            for key, a in conj.items():
                got = _INV_CACHE.get(id(a))
                if got is not None and got[0] is a:
                    self.inverses[key] = got[1]
            self.sheaf = self._build()
        finally:
            _INV_CACHE.clear()

    def inverse(self, key):
        """A^-1 for the conjugation at (cell, degree) key, or None."""
        inv = self.inverses.get(key)
        if inv is None:
            a = self.conj.get(key)
            if a is None:
                return None
            # a conjugation that did not come from random_invertible
            inv = self.inverses[key] = solve_unique(a, Matrix.identity(a.rows))
        return inv

    def _conjugated(self, t_key, s_key, rows, cols, entries):
        """A_t M A_s^-1 for the rows x cols matrix M whose entries are the
        (row, column, value) triples, at most one in each row."""
        m = Matrix(rows, cols)
        inv = self.inverse(s_key)
        if inv is None:
            for p, k, w in entries:
                m.data[p] = {k: w}
        else:
            for p, k, w in entries:
                m.data[p] = {j: w * x for j, x in inv.data[k].items()}
        a = self.conj.get(t_key)
        return m if a is None else a * m

    def _build(self) -> CellularSheaf:
        pieces, pos = self.pieces, self.pos
        # (g, h) = (A w_i(c), A^-1 / w_i(c)) per slot (c, n) of one label
        # (i, leg), A = 1 where unconjugated: a 1x1 restriction is
        # A_t (w_i(t) / w_i(s)) A_s^-1 = g(t) h(s), and a 1x1 differential,
        # whose two legs of piece i have the same weight w_i(c), is
        # A_t 1 A_s^-1 = g(t) h(s) as well
        gh = {}
        for c, slots in self.slots.items():
            for n, labels in slots.items():
                if len(labels) == 1:
                    w = pieces[labels[0][0]][3][c]
                    a, inv = self.conj.get((c, n)), self.inverse((c, n))
                    gh[(c, n)] = (w if a is None else a.data[0][0] * w,
                                  _ONE / w if inv is None else inv.data[0][0] / w)
        stalks = {}
        for c, slots in self.slots.items():
            dims = {n: len(labels) for n, labels in slots.items()}
            diffs = {}
            cpos = pos[c]
            for n, labels in slots.items():
                if n + 1 not in slots:
                    continue
                if dims[n] == 1 == dims[n + 1]:
                    i, leg = labels[0]
                    if leg == 0 and pieces[i][0] == ACYC:
                        diffs[n] = _scalar(gh[(c, n + 1)][0] * gh[(c, n)][1])
                    continue
                # d^n sends leg 0 of each acyclic piece to its leg 1
                entries = [(cpos[(i, 1)], k, _ONE) for k, (i, leg) in enumerate(labels)
                           if leg == 0 and pieces[i][0] == ACYC]
                if entries:
                    diffs[n] = self._conjugated((c, n + 1), (c, n), dims[n + 1],
                                                dims[n], entries)
            stalks[c] = VectComplex(dims, diffs)
        restrictions = {}
        for (t, s) in self.base.incidence_pairs():
            if s not in stalks or t not in stalks:
                continue
            phi = {}
            slots_t, tpos = self.slots[t], pos[t]
            for n, labels in self.slots[s].items():
                labels_t = slots_t.get(n)
                if labels_t is None:
                    continue
                if len(labels) == 1 == len(labels_t):
                    if labels == labels_t:
                        phi[n] = _scalar(gh[(t, n)][0] * gh[(s, n)][1])
                    continue
                # each piece on both cells maps by its weight ratio
                entries = [(tpos[lab], k, pieces[lab[0]][3][t] / pieces[lab[0]][3][s])
                           for k, lab in enumerate(labels) if lab in tpos]
                if entries:
                    phi[n] = self._conjugated((t, n), (s, n), len(labels_t),
                                              len(labels), entries)
            if phi:
                restrictions[(s, t)] = phi
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
        slots, _ = _piece_slots(cx, pieces)
        for c, per_degree in slots.items():
            for n, labels in per_degree.items():
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


def random_morphism(rng: random.Random, src: PieceSheaf, tgt: PieceSheaf) -> SheafMorphism:
    """Random morphism between piece sheaves on the same base."""
    try:
        return _random_morphism(rng, src, tgt)
    finally:
        _INV_CACHE.clear()


def _random_morphism(rng: random.Random, src: PieceSheaf, tgt: PieceSheaf) -> SheafMorphism:
    scalars = {}
    for i, (ki, ui, di, wi) in enumerate(src.pieces):
        for j, (kj, uj, dj, wj) in enumerate(tgt.pieces):
            if ki == kj and di == dj and ui <= uj and rng.random() < 0.6:
                scalars[(i, j)] = _rand_rational(rng)
    components = {}
    for c, slots_s in src.slots.items():
        slots_t, tpos = tgt.slots.get(c, {}), tgt.pos.get(c)
        phi = {}
        for n, labels in slots_s.items():
            if n not in slots_t:
                continue
            m = Matrix.zeros(len(slots_t[n]), len(labels))
            hit = False
            for k, (i, leg) in enumerate(labels):
                for j in range(len(tgt.pieces)):
                    if (i, j) in scalars and (j, leg) in tpos:
                        wi = src.pieces[i][3]
                        wj = tgt.pieces[j][3]
                        m[tpos[(j, leg)], k] = scalars[(i, j)] * wj[c] / wi[c]
                        hit = True
            if hit:
                a_t = tgt.conj.get((c, n))
                inv_s = src.inverse((c, n))
                if a_t is not None:
                    m = a_t * m
                if inv_s is not None:
                    m = m * inv_s
                phi[n] = m
        if phi:
            components[c] = phi
    return SheafMorphism(src.sheaf, tgt.sheaf, components)


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


def random_chain_endo(rng: random.Random, v: VectComplex):
    """c * id + d h + h d for a random degree-(-1) map h."""
    c = _rand_rational(rng)
    phi = scale_chain_map(identity_chain_map(v), c)
    h = {}
    for n in v.dims:
        if v.dim(n - 1):
            m = Matrix(v.dim(n - 1), v.dim(n),
                       [[_rand_rational(rng) if rng.random() < 0.5 else 0
                         for _ in range(v.dim(n))] for _ in range(v.dim(n - 1))])
            h[n] = m
    extra = {}
    for n in v.dims:
        part = Matrix.zeros(v.dim(n), v.dim(n))
        if n in h and v.dim(n - 1):
            part = part + v.d(n - 1) * h[n]
        if (n + 1) in h and v.dim(n + 1):
            part = part + h[n + 1] * v.d(n)
        if not part.is_zero():
            extra[n] = part
    return add_chain_maps(phi, extra), c


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
