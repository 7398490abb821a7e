"""Random generators that only the tests use: morphisms between piece
sheaves and chain endomorphisms homotopic to a multiple of the identity;
and the arrow-list placement (layout, graded_map) that the tests compare
the package's straight writers against.

Their random rationals come from conormal.randgen._rand_rational, so the
digests that pin seeded streams through them hold.
"""

import random

from conormal.qlinalg import (Matrix, VectComplex, identity_chain_map,
                              compose_chain_maps, shift_chain_map)
from conormal.randgen import PieceSheaf, _rand_rational
from conormal.sheaf import SheafMorphism


def add_chain_maps(phi, psi):
    out = dict(phi)
    for n, m in psi.items():
        out[n] = out[n] + m if n in out else m
    return {n: m for n, m in out.items() if not m.is_zero()}


def scale_chain_map(phi, c):
    out = {n: m.scale(c) for n, m in phi.items()}
    return {n: m for n, m in out.items() if not m.is_zero()}


def random_morphism(rng: random.Random, src: PieceSheaf, tgt: PieceSheaf) -> SheafMorphism:
    """Random morphism between piece sheaves on the same base."""
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
    dh = compose_chain_maps(shift_chain_map(v.diffs, -1), h)  # d^{n-1} h^n
    hd = compose_chain_maps(shift_chain_map(h, 1), v.diffs)  # h^{n+1} d^n
    return add_chain_maps(phi, add_chain_maps(dh, hd)), c


def layout(pieces):
    """Place ordered pieces (label, degree, dim) in a graded direct sum.

    Returns (dims, index): dims[degree] is the total dimension and
    index[label] = (degree, offset); the pieces of one degree are stacked
    in the order given.
    """
    dims = {}
    index = {}
    for label, n, d in pieces:
        off = dims.get(n, 0)
        index[label] = (n, off)
        dims[n] = off + d
    return dims, index


def graded_map(src, tgt, arrows):
    """Per-degree matrices, keyed by source degree, of the map between two
    layouts (dims, index) that sends piece s into piece t by
    sign * (a (x) b), for arrows (s, t, a, b, sign) with sign +-1; a factor
    given as an int n is the identity I_n.  Arrows into one place add, and
    degrees whose matrix is zero are left out.

    The blocks are Matrix.kron products placed by Matrix.assemble, so this
    reference shares no code with qlinalg._add_block, the package's block
    writer.
    """
    blocks = {}  # source degree -> (target degree, [(r0, c0, block, sign)])
    for s, t, a, b, sign in arrows:
        n, c0 = src[1][s]
        nt, r0 = tgt[1][t]
        a, b = (Matrix.identity(x) if isinstance(x, int) else x for x in (a, b))
        blocks.setdefault(n, (nt, []))[1].append((r0, c0, a.kron(b), sign))
    out = {n: Matrix.assemble(tgt[0][nt], src[0][n], bl) for n, (nt, bl) in blocks.items()}
    return {n: m for n, m in out.items() if not m.is_zero()}
