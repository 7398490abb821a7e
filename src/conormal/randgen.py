"""Deterministic random instance generators for the property suites.

Sheaves are generated valid by construction: direct sums of elementary
pieces (rank-one skyscrapers on up-sets with multiplicative weights, and
two-term acyclic pieces), then conjugated by random invertible matrices
on every (cell, degree) slot.  Conjugation preserves validity and
produces dense rational stalk data, so the suites exercise generic
matrices without a repair pass.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .cellcx import (CellComplex, CellularMap, from_simplicial, product,
                     simplicial_map, identity_map, POINT)
from .qlinalg import (Matrix, VectComplex, single, direct_sum, shift,
                      identity_chain_map, add_chain_maps, scale_chain_map,
                      compose_chain_maps, chain_component)
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

def _rand_rational(rng: random.Random) -> Fraction:
    num = rng.choice([-2, -1, -1, 1, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def _rand_nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))


def random_invertible(rng: random.Random, n: int) -> Matrix:
    """Product of a few elementary operations on the identity."""
    a = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            f = _rand_nonzero(rng)
            a[i] = [x * f for x in a[i]]
        else:
            f = _rand_rational(rng)
            a[i] = [x + f * y for x, y in zip(a[i], a[j])]
    return Matrix(n, n, a)


class PieceSheaf:
    """A sheaf presented as conjugated elementary pieces.

    pieces: list of (kind, up-set frozenset, degree, weights dict).
    SKY pieces contribute k in one degree; ACYC pieces contribute an
    acyclic k -> k in two consecutive degrees.
    """

    def __init__(self, base: CellComplex, pieces, conj):
        self.base = base
        self.pieces = pieces
        self.conj = conj  # (cell, degree) -> invertible Matrix (or None)
        try:
            self.sheaf = self._build()
        finally:
            _INV_CACHE.clear()

    def _slots(self, cid):
        """Per degree, the list of (piece index, leg) basis labels."""
        slots = {}
        for i, (kind, upset, deg, _) in enumerate(self.pieces):
            if cid not in upset:
                continue
            slots.setdefault(deg, []).append((i, 0))
            if kind == ACYC:
                slots.setdefault(deg + 1, []).append((i, 1))
        return slots

    def _build(self) -> CellularSheaf:
        base = self.base
        stalks = {}
        for c in base.cell_ids():
            slots = self._slots(c)
            if not slots:
                continue
            dims = {n: len(v) for n, v in slots.items()}
            diffs = {}
            for n, labels in slots.items():
                if n + 1 not in slots:
                    continue
                m = Matrix.zeros(dims[n + 1], dims[n])
                nxt = {lab: k for k, lab in enumerate(slots[n + 1])}
                for k, (i, leg) in enumerate(labels):
                    if leg == 0 and self.pieces[i][0] == ACYC and (i, 1) in nxt:
                        m[nxt[(i, 1)], k] = 1
                if not m.is_zero():
                    diffs[n] = m
            stalks[c] = self._conjugate_complex(c, VectComplex(dims, diffs))
        restrictions = {}
        for (t, s) in base.incidence_pairs():
            if s not in stalks or t not in stalks:
                continue
            phi = self._raw_res(s, t)
            phi = self._conjugate_map(s, t, phi)
            if phi:
                restrictions[(s, t)] = phi
        return CellularSheaf(base, stalks, restrictions)

    def _raw_res(self, s, t):
        slots_s, slots_t = self._slots(s), self._slots(t)
        phi = {}
        for n, labels in slots_s.items():
            if n not in slots_t:
                continue
            m = Matrix.zeros(len(slots_t[n]), len(labels))
            tpos = {lab: k for k, lab in enumerate(slots_t[n])}
            for k, (i, leg) in enumerate(labels):
                if (i, leg) in tpos:
                    w = self.pieces[i][3]
                    m[tpos[(i, leg)], k] = w[t] / w[s]
            if not m.is_zero():
                phi[n] = m
        return phi

    def _conjugate_complex(self, c, vc: VectComplex) -> VectComplex:
        diffs = {}
        for n in vc.dims:
            if not vc.dim(n + 1):
                continue
            a_next = self.conj.get((c, n + 1))
            a_prev = self.conj.get((c, n))
            m = vc.d(n)
            if a_next is not None:
                m = a_next * m
            if a_prev is not None:
                m = m * _inverse(a_prev)
            if not m.is_zero():
                diffs[n] = m
        return VectComplex(vc.dims, diffs)

    def _conjugate_map(self, s, t, phi):
        out = {}
        for n, m in phi.items():
            a_t = self.conj.get((t, n))
            a_s = self.conj.get((s, n))
            if a_t is not None:
                m = a_t * m
            if a_s is not None:
                m = m * _inverse(a_s)
            if not m.is_zero():
                out[n] = m
        return out


# id(matrix) -> (matrix, inverse), for the conjugations of one sheaf or one
# morphism: PieceSheaf.__init__ and random_morphism empty it when they return
_INV_CACHE = {}


def _inverse(m: Matrix) -> Matrix:
    key = id(m)
    got = _INV_CACHE.get(key)
    if got is None or got[0] is not m:
        from .qlinalg import solve_unique
        inv = solve_unique(m, Matrix.identity(m.rows))
        _INV_CACHE[key] = (m, inv)
        got = (m, inv)
    return got[1]


def random_upset(rng: random.Random, cx: CellComplex):
    ids = cx.cell_ids()
    k = rng.randint(1, max(1, len(ids) // 2))
    return frozenset(cx.up_closure(rng.sample(ids, min(k, len(ids)))))


def random_piece_sheaf(rng: random.Random, cx: CellComplex, max_pieces=3,
                       degree_range=(-2, 1), conjugate=True,
                       invariant_under: CellularMap = None) -> PieceSheaf:
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
    if conjugate:
        probe = PieceSheaf(cx, pieces, {})
        for c, v in probe.sheaf.stalks.items():
            for n, d in v.dims.items():
                if rng.random() < 0.7:
                    conj[(c, n)] = random_invertible(rng, d)
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
    base = src.base
    scalars = {}
    for i, (ki, ui, di, wi) in enumerate(src.pieces):
        for j, (kj, uj, dj, wj) in enumerate(tgt.pieces):
            if ki == kj and di == dj and ui <= uj and rng.random() < 0.6:
                scalars[(i, j)] = _rand_rational(rng)
    components = {}
    for c in base.cell_ids():
        slots_s = src._slots(c)
        slots_t = tgt._slots(c)
        phi = {}
        for n, labels in slots_s.items():
            if n not in slots_t:
                continue
            m = Matrix.zeros(len(slots_t[n]), len(labels))
            tpos = {lab: k for k, lab in enumerate(slots_t[n])}
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
                a_s = src.conj.get((c, n))
                if a_t is not None:
                    m = a_t * m
                if a_s is not None:
                    m = m * _inverse(a_s)
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
                            invariant_under=f, conjugate=False)
    phi = {}
    piece_scalars = [_rand_rational(rng) for _ in ps.pieces]
    for c in cx.cell_ids():
        slots = ps._slots(c)
        comp = {}
        for n, labels in slots.items():
            m = Matrix.zeros(len(labels), len(labels))
            for k, (i, leg) in enumerate(labels):
                m[k, k] = piece_scalars[i]
            comp[n] = m
        if comp:
            phi[c] = comp
    return LefschetzInstance(f, ps.sheaf, phi)
