import random
from fractions import Fraction

import pytest

from conormal import checks, sheaf, tracekernel
from conormal.checks import run_checks
from conormal.cellcx import POINT, product, _product_complex, factors_of
from conormal.qlinalg import (Matrix, VectComplex, euler, homology_ranks, single, dual,
                              tensor)
from conormal.sheaf import (CellularSheaf, constant, direct_sum_sheaf, euler_char,
                            external, global_sections, kernel_compose, shift_sheaf,
                            verdier_dual, _pulled_tensor)
from conormal.mueu import mueu, degree
from conormal.tracekernel import (TraceKernel, TraceKernelError, tk, eu_point,
                                  external_tk, compose_tk, shift_twist)
from conormal.randgen import (interval, circle, hollow_triangle, random_complex,
                              random_piece_sheaf, random_sheaf, random_vect_complex)


def point_sheaf(v):
    return CellularSheaf(POINT, {"pt": v}, {})


def test_tk_of_point_complex():
    v = VectComplex({0: 2, 1: 1})
    k = tk(point_sheaf(v))
    assert eu_point(k) == 1
    assert euler(k.sheaf().stalk(("pt", "pt"))) == euler(v) * euler(dual(v))


def test_eu_point_matches_endomorphism_index():
    """chi of End(V) = V (x) V* equals chi(V) when read through the
    kernel of the identity, here visible as the class degree."""
    rng = random.Random(61)
    for _ in range(20):
        v = random_vect_complex(rng)
        k = tk(point_sheaf(v))
        assert eu_point(k) == euler(v)
        endo = tensor(v, dual(v))
        assert euler(endo) == euler(v) ** 2


def test_eu_point_requires_point_base():
    with pytest.raises(TraceKernelError):
        eu_point(tk(constant(interval())))


def test_tk_class_is_mueu():
    f = constant(hollow_triangle())
    k = tk(f)
    assert k.euler_class == mueu(f)
    assert degree(k.euler_class) == euler_char(f)
    assert k.sheaf().base.same_as(product(f.base, f.base)[0])


def test_external_tk():
    k1 = tk(constant(interval()))
    k2 = tk(point_sheaf(single(0, 2)))
    k = external_tk(k1, k2)
    assert degree(k.euler_class) == degree(k1.euler_class) * degree(k2.euler_class)
    assert k.sheaf().validate() == []


def test_compose_tk_point_flanked_circle():
    # kernels over M1 = M3 = pt with middle factor S1, constant sheaves
    m2 = hollow_triangle()
    p12, _, _ = product(POINT, m2)
    p23, _, _ = product(m2, POINT)
    k = compose_tk(tk(constant(p12)), tk(constant(p23)))
    assert k.base.same_as(product(POINT, POINT)[0])
    assert degree(k.euler_class) == 0  # chi(S1)


def test_compose_tk_point_middle():
    # with a one-point middle factor composition reduces to the
    # external pairing of the outer factors
    p12, _, _ = product(interval(), POINT)
    p23, _, _ = product(POINT, interval())
    k = compose_tk(tk(constant(p12)), tk(constant(p23)))
    assert degree(k.euler_class) == 1


def test_compose_tk_middle_mismatch():
    p12, _, _ = product(POINT, interval())
    p23, _, _ = product(hollow_triangle(), POINT)
    with pytest.raises(TraceKernelError):
        compose_tk(tk(constant(p12)), tk(constant(p23)))


def test_shift_twist_invariance():
    rng = random.Random(67)
    for _ in range(10):
        cx = random_complex(rng, max_dim=1, max_vertices=4, max_cells=9)
        k = tk(random_sheaf(rng, cx, max_pieces=2, degree_range=(-1, 1)))
        for d in range(-3, 4):
            kd = shift_twist(k, d)
            assert kd.euler_class == k.euler_class


def test_shift_twist_zero_is_identity():
    k = tk(constant(interval()))
    assert shift_twist(k, 0) is k


def test_shift_twist_sheaf_moves_degrees():
    v = single(0, 1)
    k = tk(point_sheaf(v))
    kd = shift_twist(k, 1)
    st = kd.sheaf().stalk(("pt", "pt"))
    # F[1] (x) DF[-1]: degrees shift in opposite directions and cancel
    assert euler(st) == euler(k.sheaf().stalk(("pt", "pt")))
    assert kd.euler_class == k.euler_class


def test_twist_of_twist_accumulates():
    k = tk(constant(interval()))
    k2 = shift_twist(shift_twist(k, 1), -1)
    assert k2.euler_class == k.euler_class
    st = k2.sheaf()
    assert st.stalks.keys() == k.sheaf().stalks.keys()
    for c in st.stalks:
        assert st.stalk(c).dims == k.sheaf().stalk(c).dims


def _interleaved(k1, k2):
    """K1 (x) K2 on product(M12, M12) in the basis order K1(a, b) (x) K2(c, d)
    of the stalk at ((a, c), (b, d))."""
    m12 = _product_complex(k1.base, k2.base)
    return _pulled_tensor(_product_complex(m12, m12), k1.sheaf(), k2.sheaf(),
                          lambda x: (x[0][0], x[1][0]), lambda x: (x[0][1], x[1][1]))


def test_external_tk_equals_reordered_external():
    """The interleaved sheaf of two kernels is external(K1, K2) on
    (M1 x M2) x (M1 x M2) relabelled onto product(M12, M12) by
    ((a, b), (c, d)) -> ((a, c), (b, d)); external_tk's sheaf has its stalk
    dims."""
    rng = random.Random(71)
    nonzero_res = 0
    for _ in range(8):
        k1, k2 = (tk(random_sheaf(rng, random_complex(rng, max_dim=1, max_vertices=3,
                                                      max_cells=5),
                                  max_pieces=2, degree_range=(-1, 1)))
                  for _ in range(2))
        got = _interleaved(k1, k2)
        m12, _, _ = product(k1.base, k2.base)
        doubled, _, _ = product(m12, m12)
        want = _relabel_sheaf(external(k1.sheaf(), k2.sheaf()), doubled,
                              lambda c: ((c[0][0], c[1][0]), (c[0][1], c[1][1])))
        assert got.base.same_as(doubled)
        assert got.stalks == want.stalks
        assert got.restrictions == want.restrictions
        ext = external_tk(k1, k2).sheaf()
        assert ext.base.same_as(doubled)
        assert {c: v.dims for c, v in ext.stalks.items()} == \
            {c: v.dims for c, v in got.stalks.items()}
        nonzero_res += len(got.restrictions)
    assert nonzero_res > 100


# The route shift_twist took when each kernel carried a tree of how it was
# built: a twist of tk(F) is F[d] (x) DF[-d], and a twist of an external
# product or a composition twists both factors and redoes the operation,
# here with external and kernel_compose on interleaved bases.  Build trees
# are ("tk", F), ("external", t1, t2), ("compose", t12, t23), ("twist", t, s).

def _relabel_sheaf(f, new_base, fn):
    stalks = {fn(c): v for c, v in f.stalks.items()}
    restrictions = {(fn(s), fn(t)): phi for (s, t), phi in f.restrictions.items()}
    return CellularSheaf(new_base, stalks, restrictions)


def _swap_middle(cell):
    ((a, b), (c, d)) = cell
    return ((a, c), (b, d))


def _old_route(tree, d):
    kind, *args = tree
    if kind == "tk":
        (f,) = args
        return external(shift_sheaf(f, d), shift_sheaf(verdier_dual(f), -d))
    if kind == "twist":
        sub, s = args
        return _old_route(sub, s + d)
    a, b = (_old_route(t, d) for t in args)
    ma, mb = factors_of(a.base)[0], factors_of(b.base)[0]
    if kind == "external":
        m12 = _product_complex(ma, mb)
        return _relabel_sheaf(external(a, b), _product_complex(m12, m12), _swap_middle)
    (m1, m2), (_, m3) = factors_of(ma), factors_of(mb)
    m11, m22, m33, m13 = (_product_complex(x, y) for x, y in
                          ((m1, m1), (m2, m2), (m3, m3), (m1, m3)))
    left = _relabel_sheaf(a, _product_complex(m11, m22), _swap_middle)
    right = _relabel_sheaf(b, _product_complex(m22, m33), _swap_middle)
    return _relabel_sheaf(kernel_compose(left, right), _product_complex(m13, m13),
                          _swap_middle)


def _factor_route(tree):
    """The factor pair (A, B) of a build tree, from public functions:
    external products and compositions taken factor by factor, and a twist
    by s shifting the pair of its operand once, by s and by -s."""
    kind, *args = tree
    if kind == "tk":
        (f,) = args
        return f, verdier_dual(f)
    if kind == "twist":
        sub, s = args
        a, b = _factor_route(sub)
        return shift_sheaf(a, s), shift_sheaf(b, -s)
    (a1, b1), (a2, b2) = (_factor_route(t) for t in args)
    op = external if kind == "external" else kernel_compose
    return op(a1, a2), op(b1, b2)


def _ranks(f):
    return {c: homology_ranks(v) for c, v in f.stalks.items()}, \
        homology_ranks(global_sections(f))


def _kernel_of(tree):
    kind, *args = tree
    if kind == "tk":
        return tk(args[0])
    if kind == "twist":
        return shift_twist(_kernel_of(args[0]), args[1])
    return (external_tk if kind == "external" else compose_tk)(*map(_kernel_of, args))


def _reference_trees(rng):
    def small(cx, max_pieces=2):  # the constant sheaf in each, so that most pairs restrict
        return ("tk", direct_sum_sheaf(constant(cx), random_sheaf(
            rng, cx, max_pieces=max_pieces, degree_range=(-1, 1))))
    a, b = small(interval(), max_pieces=1), ("tk", constant(interval()))
    c12 = small(product(POINT, interval())[0], max_pieces=1)
    c23 = ("tk", constant(product(interval(), interval())[0]))
    yield a
    yield ("external", a, b)
    yield ("compose", c12, c23)
    yield ("twist", ("twist", a, 1), -2)
    yield ("twist", ("external", ("twist", a, 2), b), -1)


def test_shift_twist_matches_old_route():
    """shift_twist(K, d).sheaf() equals external(A[d], B[-d]) for the factor
    pair (A, B) of K's build tree taken factor by factor, stalk for stalk and
    restriction for restriction.
    The old route interleaves external products and composes over M2 x M2,
    not over M2, so its basis order differs: it agrees up to the base, the
    cells, the stalk dims and the per-stalk and global cohomology ranks."""
    rng = random.Random(73)
    nonzero_res = nonzero_ranks = 0
    for tree in _reference_trees(rng):
        k = _kernel_of(tree)
        for d in (-2, -1, 0, 1, 2):
            got = shift_twist(k, d).sheaf()
            exact = external(*_factor_route(("twist", tree, d)))
            assert got.base.same_as(exact.base)
            assert got.stalks == exact.stalks
            assert got.restrictions == exact.restrictions
            want = _old_route(tree, d)
            assert got.base.same_as(want.base)
            assert got.stalks.keys() == want.stalks.keys()
            assert all(v.dims == want.stalks[c].dims for c, v in got.stalks.items())
            stalk_ranks, global_ranks = _ranks(got)
            assert (stalk_ranks, global_ranks) == _ranks(want)
            nonzero_ranks += sum(map(len, stalk_ranks.values())) + len(global_ranks)
            nonzero_res += len(got.restrictions)
    assert nonzero_ranks > 0
    assert nonzero_res > 500


def test_constructors_build_no_sheaf(monkeypatch):
    """tk, external_tk, compose_tk and shift_twist build no sheaf; sheaf()
    builds it.  The composition is the one over interval x circle(5) x
    interval that ran out of memory when every constructor built its sheaf."""
    calls, reading = [], []
    for module, name in ((tracekernel, "external"), (sheaf, "_pulled_tensor"),
                         (tracekernel, "kernel_compose"), (tracekernel, "verdier_dual")):
        def counting(*args, _name=name, _real=getattr(module, name)):
            calls.append(_name)
            assert reading, "%s called before the sheaf was read" % _name
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    rng = random.Random(5)
    m1, m2, m3 = interval(), circle(5), interval()
    f = random_piece_sheaf(rng, product(m1, m2)[0], max_pieces=2, degree_range=(-1, 1)).sheaf
    g = random_piece_sheaf(rng, product(m2, m3)[0], max_pieces=2, degree_range=(-1, 1)).sheaf
    tf, tg = tk(f), tk(g)
    k = compose_tk(tf, tg)
    shift_twist(external_tk(shift_twist(k, 2), tf), -1)
    assert calls == []
    assert k.euler_class == mueu(kernel_compose(f, g))

    small = shift_twist(external_tk(tk(constant(interval())), tk(point_sheaf(single(0, 2)))), 1)
    assert calls == []
    reading.append(True)
    small.sheaf()
    assert "_pulled_tensor" in calls and "verdier_dual" in calls

    # one factor is built alone: A12 o A23, with no dual and no B12 o B23
    calls.clear()
    compose_tk(tk(f), tk(g)).first()
    assert calls.count("kernel_compose") == 1
    assert calls.count("verdier_dual") == 0


def _lowest_degree(f):
    return min(n for v in f.stalks.values() for n in v.dims)


def test_shift_twist_moves_each_factor_once():
    """A twist by 1 moves the first factor one degree down and the second
    one degree up, however many tk leaves the kernel has."""
    line = tk(constant(interval()))
    p12, p23 = product(interval(), POINT)[0], product(POINT, interval())[0]
    for k in (tk(constant(hollow_triangle())), external_tk(line, line),
              compose_tk(tk(constant(p12)), tk(constant(p23)))):
        twisted = shift_twist(k, 1)
        assert _lowest_degree(twisted.first()) == _lowest_degree(k.first()) - 1
        assert _lowest_degree(twisted.second()) == _lowest_degree(k.second()) + 1
        assert twisted.first().stalks == shift_sheaf(k.first(), 1).stalks
        assert twisted.second().stalks == shift_sheaf(k.second(), -1).stalks


def test_twist_suite_catches_a_one_sided_twist(monkeypatch):
    """Under A[d] (x) B in place of A[d] (x) B[-d], the twisted kernel's
    stalks move by d, and the twist suite reports it."""
    assert run_checks(seed=1, cases=25, suites=["twist"]).ok

    def one_sided_twist(k, d):
        return TraceKernel(k.base, lambda: shift_sheaf(k.first(), d), k.second,
                           k.euler_class)
    monkeypatch.setattr(checks, "shift_twist", one_sided_twist)
    for seed in (1, 2):
        report = run_checks(seed=seed, cases=25, suites=["twist"])
        assert len(report.failures) >= 15
        assert all("stalk dims" in detail for _, _, detail in report.failures)


def test_twist_suite_catches_a_double_twist(monkeypatch):
    """Twisting by d twice moves the first factor by 2d, so its mueu has
    the wrong sign for odd d, and the class identity of the twist suite
    reports it."""
    monkeypatch.setattr(checks, "shift_twist",
                        lambda k, d: shift_twist(shift_twist(k, d), d))
    for seed in (1, 2):
        report = run_checks(seed=seed, cases=25, suites=["twist"])
        assert len(report.failures) >= 8
        assert all("mueu(first factor" in detail for _, _, detail in report.failures)
