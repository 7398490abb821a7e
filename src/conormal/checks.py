"""Seeded property suites: each case builds random instances and checks
one of the calculus identities through two independent code paths
(cycle arithmetic vs hypercohomology totalization).

Cases are independently seeded from (seed, case index), so reports are
deterministic and merging concurrent runs is trivial.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .cellcx import POINT, _product_complex
from .qlinalg import euler, homology_ranks
from .sheaf import (CellularSheaf, euler_char, external, global_sections,
                    tensor_sheaf, pushforward, verdier_dual, kernel_compose)
from .mueu import (mueu, degree, external_cycle, star, compose_cycle,
                   pushforward_cycle)
from .tracekernel import tk, eu_point, shift_twist, external_tk
from .lefschetz import global_trace, local_trace_sum
from . import randgen
from .io import describe_complex, describe_sheaf


@dataclass
class CheckReport:
    seed: int
    cases: int
    suites: list
    failures: list = field(default_factory=list)
    wall_time: float = 0.0
    suite_seconds: dict = field(default_factory=dict)  # suite name -> seconds

    @property
    def ok(self):
        return not self.failures

    def lines(self):
        """Deterministic textual report (no timing)."""
        out = ["seed %d" % self.seed, "cases %d" % self.cases]
        for name in self.suites:
            n_fail = sum(1 for f in self.failures if f[0] == name)
            out.append("suite %-12s %s" % (name, "ok" if n_fail == 0
                                           else "%d failures" % n_fail))
        for name, case, detail in self.failures:
            out.append("FAIL %s case %d: %s" % (name, case, detail))
        return out


def _case_rng(seed, suite, case):
    return random.Random("%d/%s/%d" % (seed, suite, case))


def _sheaf_blob(cx, sheaf):
    return {"complex": describe_complex(cx), "sheaf": describe_sheaf(sheaf)}


# ---------------------------------------------------------------------------
# individual cases; each returns None or a failure detail dict

def case_index(rng, max_dim=3, max_cells=40):
    cx = randgen.random_complex(rng, max_dim=max_dim, max_cells=max_cells)
    f = randgen.random_sheaf(rng, cx)
    lhs = degree(mueu(f))
    rhs = euler_char(f)
    if lhs != rhs:
        return {"identity": "degree(mueu(F)) == euler_char(F)",
                "lhs": lhs, "rhs": rhs, **_sheaf_blob(cx, f)}
    return None


_SMALL_FACTORS = "point interval triangle".split()
_MIDDLE_FACTORS = "interval triangle square hexagon".split()


def _factor(rng, pool):
    name = rng.choice(pool)
    if name == "point":
        return POINT
    if name == "interval":
        return randgen.interval()
    if name == "triangle":
        return randgen.hollow_triangle()
    if name == "square":
        return randgen.circle(4)
    return randgen.circle(6)


def case_compose(rng, **_):
    m1 = _factor(rng, _SMALL_FACTORS)
    m2 = _factor(rng, _MIDDLE_FACTORS)
    m3 = _factor(rng, _SMALL_FACTORS)
    p12 = _product_complex(m1, m2)
    p23 = _product_complex(m2, m3)
    k12 = randgen.random_sheaf(rng, p12, max_pieces=2, degree_range=(-1, 1))
    k23 = randgen.random_sheaf(rng, p23, max_pieces=2, degree_range=(-1, 1))
    lhs = mueu(kernel_compose(k12, k23))
    rhs = compose_cycle(mueu(k12), mueu(k23))
    if lhs != rhs:
        return {"identity": "mueu(K12 o K23) == mueu(K12) o mueu(K23)",
                "lhs": {str(c): w for c, w in lhs.weights.items()},
                "rhs": {str(c): w for c, w in rhs.weights.items()}}
    return None


def case_external(rng, **_):
    a = randgen.random_complex(rng, max_dim=2, max_vertices=5, max_cells=15)
    b = randgen.random_complex(rng, max_dim=2, max_vertices=5, max_cells=15)
    f = randgen.random_sheaf(rng, a, max_pieces=2)
    g = randgen.random_sheaf(rng, b, max_pieces=2)
    lhs = mueu(external(f, g))
    rhs = external_cycle(mueu(f), mueu(g))
    if lhs.weights != rhs.weights:
        return {"identity": "mueu(F x G) == mueu(F) x mueu(G)",
                "lhs": {str(c): w for c, w in lhs.weights.items()},
                "rhs": {str(c): w for c, w in rhs.weights.items()}}
    return None


def _pushforward_instance(rng):
    cx = randgen.random_complex(rng, max_dim=2, max_vertices=6, max_cells=25)
    f = randgen.random_cellular_map(rng, cx)
    return f, randgen.random_sheaf(rng, f.source, max_pieces=2)


def case_pushforward(rng, **_):
    f, sheaf = _pushforward_instance(rng)
    lhs = mueu(pushforward(f, sheaf))
    rhs = pushforward_cycle(f, mueu(sheaf))
    if lhs != rhs:
        return {"identity": "mueu(Rf_* F) == f_mu(mueu F)",
                "lhs": {str(c): w for c, w in lhs.weights.items()},
                "rhs": {str(c): w for c, w in rhs.weights.items()},
                **_sheaf_blob(f.source, sheaf)}
    return None


def case_tensor(rng, **_):
    cx = randgen.random_complex(rng, max_dim=2, max_vertices=6, max_cells=25)
    f = randgen.random_sheaf(rng, cx, max_pieces=2)
    g = randgen.random_sheaf(rng, cx, max_pieces=2)
    fg = tensor_sheaf(f, g)
    product = star(mueu(f), mueu(g))
    if mueu(fg) != product:
        return {"identity": "mueu(F (x) G) == mueu(F) * mueu(G)",
                **_sheaf_blob(cx, f)}
    if degree(product) != euler_char(fg):
        return {"identity": "degree(mueu F * mueu G) == euler_char(F (x) G)",
                **_sheaf_blob(cx, f)}
    return None


def case_point(rng, **_):
    v = randgen.random_vect_complex(rng)
    sheaf = CellularSheaf(POINT, {"pt": v}, {})
    if eu_point(tk(sheaf)) != euler(v):
        return {"identity": "eu_point(tk(V)) == chi(V)", "dims": dict(v.dims)}
    return None


def _random_trace_kernel(rng):
    """A random kernel and the twist t applied to it."""
    kind = rng.random()
    cx = randgen.random_complex(rng, max_dim=1, max_vertices=4, max_cells=9)
    k, t = tk(randgen.random_sheaf(rng, cx, max_pieces=2, degree_range=(-1, 1))), 0
    if kind < 0.3:
        cx2 = randgen.random_complex(rng, max_dim=1, max_vertices=3, max_cells=7)
        k = external_tk(k, tk(randgen.random_sheaf(rng, cx2, max_pieces=1)))
    elif kind < 0.4:
        t = rng.randint(-2, 2)
        k = shift_twist(k, t)
    return k, t


def _tensor_dims(u, v):
    """The dims of u (x) v: the convolution of the two dims dicts."""
    dims = {}
    for p, du in u.dims.items():
        for q, dv in v.dims.items():
            dims[p + q] = dims.get(p + q, 0) + du * dv
    return dims


def case_twist(rng, **_):
    k, t = _random_trace_kernel(rng)
    d = rng.randint(-3, 3)
    twisted = shift_twist(k, d)
    if twisted.euler_class != k.euler_class:
        return {"identity": "class(shift_twist(K, d)) == class(K)", "d": d}
    # the first factor is A[t + d], and mueu(A[s]) = (-1)^s mueu(A)
    if twisted.euler_class != mueu(twisted.first()).scale(-1 if (t + d) % 2 else 1):
        return {"identity": "class(K) == (-1)^(t+d) mueu(first factor of K)",
                "t": t, "d": d}
    # F[d] (x) DF[-d] has the stalk dims of F (x) DF: the shifts cancel
    got, want = twisted.stalk_pairs(), k.stalk_pairs()
    if got.keys() != want.keys():
        return {"identity": "cells of shift_twist(K, d) == cells of K", "d": d}
    for c, (u, v) in want.items():
        if _tensor_dims(*got[c]) != _tensor_dims(u, v):
            return {"identity": "stalk dims of shift_twist(K, d) == stalk dims of K",
                    "d": d, "cell": str(c)}
    return None


def case_lefschetz(rng, **_):
    inst = randgen.random_lefschetz_instance(rng)
    problems = inst.validate()
    if problems:
        return {"identity": "lefschetz instance validity", "problems": problems}
    g = global_trace(inst)
    l = local_trace_sum(inst)
    if g != l:
        return {"identity": "global_trace == local_trace_sum",
                "global": str(g), "local": str(l)}
    return None


def _duality_instance(rng):
    cx = randgen.random_complex(rng, max_dim=2, max_vertices=5, max_cells=12)
    return cx, randgen.random_sheaf(rng, cx, max_pieces=2, degree_range=(-1, 1))


def case_duality(rng, **_):
    cx, f = _duality_instance(rng)
    df = verdier_dual(f)
    if euler_char(df) != euler_char(f):
        return {"identity": "euler_char(DF) == euler_char(F)",
                **_sheaf_blob(cx, f)}
    ddf = verdier_dual(df)
    for c in cx.cell_ids():
        if euler(ddf.stalk(c)) != euler(f.stalk(c)):
            return {"identity": "stalkwise chi of DDF == stalkwise chi of F",
                    "cell": str(c), **_sheaf_blob(cx, f)}
    return None


def case_duality_rk(rng, **_):
    """Verdier duality in cohomology ranks: the base is compact, so
    RGamma(M; DF) is the dual of RGamma(M; F) and H^k(M; DF) has the
    dimension of H^-k(M; F).  Unlike the Euler characteristics, the ranks
    see the restriction maps."""
    cx, f = _duality_instance(rng)
    lhs = homology_ranks(global_sections(verdier_dual(f)))
    rhs = {-k: h for k, h in homology_ranks(global_sections(f)).items()}
    if lhs != rhs:
        return {"identity": "dim H^k(M; DF) == dim H^-k(M; F)",
                "lhs": lhs, "rhs": rhs, **_sheaf_blob(cx, f)}
    return None


def case_push_rk(rng, **_):
    """Direct image in cohomology ranks: RGamma(N; Rf_*F) is
    RGamma(M; F), so H^k(N; Rf_*F) has the dimension of H^k(M; F).
    Unlike the cycles, the ranks see the restriction maps of Rf_*F."""
    f, sheaf = _pushforward_instance(rng)
    lhs = homology_ranks(global_sections(pushforward(f, sheaf)))
    rhs = homology_ranks(global_sections(sheaf))
    if lhs != rhs:
        return {"identity": "dim H^k(N; Rf_*F) == dim H^k(M; F)",
                "lhs": lhs, "rhs": rhs, **_sheaf_blob(f.source, sheaf)}
    return None


SUITES = {
    "index": case_index,
    "compose": case_compose,
    "external": case_external,
    "pushforward": case_pushforward,
    "tensor": case_tensor,
    "point": case_point,
    "twist": case_twist,
    "lefschetz": case_lefschetz,
    "duality": case_duality,
    "duality-rk": case_duality_rk,
    "push-rk": case_push_rk,
}


def run_checks(seed=1, cases=100, suites=None, max_dim=3, max_cells=40) -> CheckReport:
    """Run each suite on cases seeded instances.  Raises ValueError for an
    unknown suite or a bound below the CLI's: cases >= 1, max_dim >= 0,
    max_cells >= 1."""
    names = list(dict.fromkeys(suites)) if suites else list(SUITES)  # first of repeats
    for n in names:
        if n not in SUITES:
            raise ValueError("unknown suite %r" % (n,))
    for what, value, low in (("cases", cases, 1), ("max_dim", max_dim, 0),
                             ("max_cells", max_cells, 1)):
        if value < low:
            raise ValueError("%s must be at least %d, got %d" % (what, low, value))
    t0 = time.monotonic()
    report = CheckReport(seed=seed, cases=cases, suites=names)
    for name in names:
        t_suite = time.monotonic()
        for i in range(cases):
            try:
                detail = SUITES[name](_case_rng(seed, name, i),
                                      max_dim=max_dim, max_cells=max_cells)
            except Exception as e:  # a crash is a failure with the exception
                detail = {"exception": "%s: %s" % (type(e).__name__, e)}
            if detail is not None:
                report.failures.append((name, i, json.dumps(detail, sort_keys=True)))
        report.suite_seconds[name] = time.monotonic() - t_suite
    report.failures.sort(key=lambda f: (f[0], f[1]))
    report.wall_time = time.monotonic() - t0
    return report
