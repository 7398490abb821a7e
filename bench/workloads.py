"""The benchmark's three workloads.

Each builder takes the imported conormal modules, the seed and a round
index, and yields the Ops of that round.  An Op is one public call on one
input, made from inputs generated before timing starts, and a check of its
result against the mathematics, not against stored output.  Every round of
a workload runs the same operations on freshly seeded inputs, so the share
of failed operations does not depend on the seed or on the number of
rounds.  The code that runs between two yields is the generation of the
next Op's inputs; bench/run.py times it as set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Time of the operations of one round of each workload in reference seconds
# (bench/run.py), measured once.  A run of --seconds S makes 3 * round(S / (3 *
# ROUND_SECONDS)) rounds (at least 3), so the work of a run depends only on S
# and never on the speed of the code.
ROUND_SECONDS = {"suites": 0.36, "cohomology": 7.3, "operations": 1.13}

# Betti numbers of the closed manifolds in the cohomology ladder
TORUS = (1, 2, 1)
TORUS_X_CIRCLE = (1, 3, 3, 1)
SPHERE_X_CIRCLE = (1, 1, 1, 1)


class Op:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def _rng(workload, seed, r):
    return random.Random("%s/%d/%d" % (workload, seed, r))


def _nonzero(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


# ---------------------------------------------------------------------------
# suites

# The twist suite is left out: its cost is heavy-tailed (about one case in a
# thousand takes 2-11 s and up to 180 MiB, when shift_twist rebuilds an
# external product of trace kernels), so one such case decided wall_s and
# peak_rss_mib of a whole run.  The operations workload times shift_twist on
# kernels of fixed small shape instead.
SUITES = ("index", "compose", "external", "pushforward", "tensor", "point",
          "lefschetz", "duality")
SUITE_CASES_PER_ROUND = 8


def suites(cn, seed, r, negative=False):
    """Round r runs cases 8r..8r+7 of each property suite but twist, exactly
    as ``conormal check --seed <seed>`` runs them (default size limits)."""
    checks = cn.checks
    for name in SUITES:
        case = checks.SUITES[name]
        for i in range(SUITE_CASES_PER_ROUND * r, SUITE_CASES_PER_ROUND * (r + 1)):
            call = (lambda case=case, name=name, i=i:
                    case(checks._case_rng(seed, name, i), max_dim=3, max_cells=40))
            yield Op("checks." + name, call, lambda res: res is None)


# ---------------------------------------------------------------------------
# cohomology

# (family, n, one-piece variants, two-piece variants); every size also runs
# the constant sheaf.  Small sizes get many variants, the top sizes few.  The
# counts put the median operation inside the tetra x circle(3) block and the
# 90th percentile inside the circle(8)^2 block, where costs lie close
# together; between two blocks a quantile jumped from run to run.
LADDER = (
    ("circle2", 3, 52, 8), ("circle2", 4, 10, 4), ("circle2", 5, 4, 1),
    ("circle2", 6, 2, 1), ("circle2", 8, 11, 0), ("circle2", 10, 1, 0),
    ("torus7", 3, 2, 0), ("torus7", 4, 1, 0), ("torus7", 6, 1, 0),
    ("tetra", 3, 14, 2), ("tetra", 4, 8, 1), ("tetra", 6, 3, 1),
    ("tetra", 8, 1, 0), ("tetra", 12, 1, 0),
)
ONE_PIECE = (("sky", "whole"),)
TWO_PIECES = (("sky", "whole"), ("acyc", "whole"))
LEFSCHETZ_TORI = (3, 4)


def _family(cn, family, n):
    rg, cc = cn.randgen, cn.cellcx
    if family == "circle2":
        return cc.product(rg.circle(n), rg.circle(n))[0], TORUS
    if family == "torus7":
        return cc.product(rg.torus7(), rg.circle(n))[0], TORUS_X_CIRCLE
    return cc.product(rg.tetra_boundary(), rg.circle(n))[0], SPHERE_X_CIRCLE


def piece_sheaf(cn, rng, cx, kinds):
    """A sheaf of randgen pieces, every slot conjugated by a random
    invertible matrix.  kinds: (kind, support) pairs; support "whole" is
    every cell, "star" the open star of a random vertex, so the shape of the
    sheaf, and with it the cost of an operation, does not depend on the
    seed.  Degrees lie in -1..1 and the weights are random.  A whole sky
    piece in degree d is a twisted constant sheaf and adds H^{k+d} = b_k; an
    acyclic piece adds nothing."""
    rg = cn.randgen
    ids = cx.cell_ids()

    def support(kind):
        if kind == "whole":
            return frozenset(ids)
        return frozenset(cx.star(rng.choice(cx.cells_of_dim(0))))
    pieces = [(kind, support(where), rng.randint(-1, 1),
               {c: _nonzero(rng) for c in ids}) for kind, where in kinds]
    probe = rg.PieceSheaf(cx, pieces, {})
    conj = {(c, n): rg.random_invertible(rng, d)
            for c, v in probe.sheaf.stalks.items() for n, d in v.dims.items()}
    return rg.PieceSheaf(cx, pieces, conj).sheaf, pieces


def _expected_ranks(betti, pieces):
    out = {}
    for kind, _, deg, _ in pieces:
        if kind == "sky":
            for k, b in enumerate(betti):
                out[k + deg] = out.get(k + deg, 0) + b
    return {n: h for n, h in out.items() if h}


def cohomology(cn, seed, r, negative=False):
    """A size ladder of closed manifolds: homology ranks of the sections
    complex of the constant sheaf and of conjugated piece sheaves, plus
    Lefschetz traces of reflection x reflection on small tori."""
    ql, sh, cc, rg, lf = cn.qlinalg, cn.sheaf, cn.cellcx, cn.randgen, cn.lefschetz
    rng = _rng("cohomology", seed, r)
    for family, n, n_one, n_two in LADDER:
        cx, betti = _family(cn, family, n)
        if negative:
            betti = (betti[0] + 1,) + betti[1:]
        kinds_list = [None] + [ONE_PIECE] * n_one + [TWO_PIECES] * n_two
        for kinds in kinds_list:
            if kinds is None:
                f, pieces = sh.constant(cx), [("sky", None, 0, None)]
            else:
                f, pieces = piece_sheaf(cn, rng, cx, kinds)
            want = _expected_ranks(betti, pieces)
            yield Op("homology_ranks",
                     lambda f=f: ql.homology_ranks(sh.global_sections(f)),
                     lambda got, want=want: got == want)
    for n in LEFSCHETZ_TORI:
        c = rg.circle(n)
        refl = cc.simplicial_map(c, c, {v: (-v) % n for v in range(n)})
        torus = cc.product(c, c)[0]
        f = cc.product_map(refl, refl, source=torus, target=torus)
        scalar = _nonzero(rng)
        inst = lf.constant_phi(f, sh.constant(torus), scalar)
        # L(reflection) = 2 on the circle, so L = 4 on the torus
        for name in ("global_trace", "local_trace_sum"):
            yield Op(name, lambda name=name, inst=inst: getattr(lf, name)(inst),
                     lambda got, want=4 * scalar: got == want)


# ---------------------------------------------------------------------------
# operations

# kernel_compose (left, middle, right); the middle factor grows
COMPOSE = (("triangle", "circle6", "triangle"), ("triangle", "circle8", "triangle"),
           ("triangle", "circle12", "triangle"), ("triangle", "circle8", "interval"),
           ("interval", "circle16", "interval"), ("interval", "circle24", "interval"))
POINT_FLANKED = ("circle12", "tetra")
DUAL = ("tetra", "circle3^2", "torus7")
PUSH_BASES = ("tetra", "simplex4", "circle6", "triangle")
TK_TRIPLES = (("point", "interval", "point"), ("point", "triangle", "point"),
              ("interval", "point", "interval"))
# a twisted constant piece on every cell and one on the open star of a
# random vertex; over a circle the whole piece alone composes to Euler
# class 0, which would leave the cycle check nothing to compare
MIXED = (("sky", "whole"), ("sky", "star"))


def _complex(cn, name):
    rg, cc = cn.randgen, cn.cellcx
    if name == "point":
        return cc.POINT
    if name == "interval":
        return rg.interval()
    if name == "triangle":
        return rg.hollow_triangle()
    if name == "tetra":
        return rg.tetra_boundary()
    if name == "torus7":
        return rg.torus7()
    if name.startswith("simplex"):
        return rg.full_simplex(int(name[len("simplex"):]))
    if name.endswith("^2"):
        c = _complex(cn, name[:-2])
        return cc.product(c, c)[0]
    return rg.circle(int(name[len("circle"):]))


def _lift(cn, f, prod, point_first):
    """F on M as a sheaf on point x M (or M x point)."""
    pt = cn.cellcx.POINT.cell_ids()[0]
    key = (lambda c: (pt, c)) if point_first else (lambda c: (c, pt))
    return cn.sheaf.CellularSheaf(
        prod, {key(c): v for c, v in f.stalks.items()},
        {(key(s), key(t)): phi for (s, t), phi in f.restrictions.items()})


def operations(cn, seed, r, negative=False):
    """Mid-size random piece sheaves through kernel_compose (growing middle
    factor), verdier_dual and biduality, pushforward along collapses,
    inclusions and projections, and tk / compose_tk on the smallest kernels."""
    ql, sh, cc, rg, mu, tkm = (cn.qlinalg, cn.sheaf, cn.cellcx, cn.randgen,
                              cn.mueu, cn.tracekernel)

    def mixed(rng, cx):
        return piece_sheaf(cn, rng, cx, MIXED)[0]

    def ranks(f):
        return ql.homology_ranks(sh.global_sections(f))

    def cycle_ok(k, l):
        return lambda got: mu.mueu(got) == mu.compose_cycle(mu.mueu(k), mu.mueu(l))

    def pair(rng, a, b, c, make):
        mid = _complex(cn, b)
        return (make(rng, cc.product(_complex(cn, a), mid)[0]),
                make(rng, cc.product(mid, _complex(cn, c))[0]))

    pt = cc.POINT.cell_ids()[0]
    rng = _rng("operations", seed, r)
    for a, b, c in COMPOSE:
        k, l = pair(rng, a, b, c, mixed)
        yield Op("kernel_compose", lambda k=k, l=l: sh.kernel_compose(k, l),
                 cycle_ok(k, l))
    for name in POINT_FLANKED:
        mid = _complex(cn, name)
        f, g = mixed(rng, mid), mixed(rng, mid)
        k = _lift(cn, f, cc.product(cc.POINT, mid)[0], True)
        l = _lift(cn, g, cc.product(mid, cc.POINT)[0], False)

        def flanked_ok(got, f=f, g=g, k=k, l=l):
            return (cycle_ok(k, l)(got) and ql.homology_ranks(got.stalk((pt, pt)))
                    == ranks(sh.tensor_sheaf(f, g)))
        yield Op("kernel_compose", lambda k=k, l=l: sh.kernel_compose(k, l),
                 flanked_ok)
    for name in DUAL:
        f = mixed(rng, _complex(cn, name))
        yield Op("verdier_dual", lambda f=f: sh.verdier_dual(f),
                 lambda got, f=f:
                 ranks(got) == {-k: h for k, h in ranks(f).items()})
        df = sh.verdier_dual(f)
        yield Op("verdier_dual", lambda df=df: sh.verdier_dual(df),
                 lambda got, f=f: all(
                     ql.euler(got.stalk(c)) == ql.euler(f.stalk(c))
                     for c in f.base.cell_ids()))
    for name in PUSH_BASES:
        cx = _complex(cn, name)
        f = mixed(rng, cx)
        pushes = [(rg.random_vertex_collapse(rng, cx), f),
                  (cc.collapse_to_point(cx), f)]
        for m in (rg.random_inclusion(rng, cx), rg.random_inclusion(rng, cx),
                  cc.product(cx, rg.interval())[1]):
            pushes.append((m, mixed(rng, m.source)))
        for m, g in pushes:
            yield Op("pushforward", lambda m=m, g=g: sh.pushforward(m, g),
                     lambda got, g=g: ranks(got) == ranks(g))
    for a, b, c in TK_TRIPLES:
        # one whole piece each: with two random pieces, compose_tk runs
        # from 5 ms to seconds
        f, g = pair(rng, a, b, c,
                    lambda rng, cx: piece_sheaf(cn, rng, cx, ONE_PIECE)[0])
        for x in (f, g):
            yield Op("tk", lambda x=x: tkm.tk(x),
                     lambda got, x=x: got.euler_class == mu.mueu(x))
        tf, tg = tkm.tk(f), tkm.tk(g)
        yield Op("compose_tk", lambda tf=tf, tg=tg: tkm.compose_tk(tf, tg),
                 lambda got, f=f, g=g:
                 got.euler_class == mu.mueu(sh.kernel_compose(f, g)))
        for k in (tf, tg):
            d = rng.choice((-2, -1, 1, 2))
            yield Op("shift_twist", lambda k=k, d=d: tkm.shift_twist(k, d),
                     lambda got, k=k: got.euler_class == k.euler_class)


WORKLOADS = {"suites": suites, "cohomology": cohomology, "operations": operations}
