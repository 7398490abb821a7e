import random
from fractions import Fraction

import pytest

from conormal.cellcx import POINT, product
from conormal.qlinalg import (Matrix, VectComplex, euler, single, dual, tensor)
from conormal.sheaf import CellularSheaf, constant, euler_char, external
from conormal.mueu import mueu, degree
from conormal.tracekernel import (TraceKernel, TraceKernelError, tk, eu_point,
                                  external_tk, compose_tk, shift_twist,
                                  TkOf, ExternalTK, ComposeTK, TwistTK,
                                  _relabel_sheaf)
from conormal.randgen import (interval, hollow_triangle, random_complex,
                              random_sheaf, random_vect_complex)


def point_sheaf(v):
    return CellularSheaf(POINT, {"pt": v}, {})


def test_tk_of_point_complex():
    v = VectComplex({0: 2, 1: 1})
    k = tk(point_sheaf(v))
    assert isinstance(k.provenance, TkOf)
    assert eu_point(k) == 1
    assert euler(k.underlying.stalk(("pt", "pt"))) == euler(v) * euler(dual(v))


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
    assert k.underlying.base.same_as(product(f.base, f.base)[0])


def test_external_tk():
    k1 = tk(constant(interval()))
    k2 = tk(point_sheaf(single(0, 2)))
    k = external_tk(k1, k2)
    assert isinstance(k.provenance, ExternalTK)
    assert degree(k.euler_class) == degree(k1.euler_class) * degree(k2.euler_class)
    assert k.underlying.validate() == []


def test_compose_tk_point_flanked_circle():
    # kernels over M1 = M3 = pt with middle factor S1, constant sheaves
    m2 = hollow_triangle()
    p12, _, _ = product(POINT, m2)
    p23, _, _ = product(m2, POINT)
    k = compose_tk(tk(constant(p12)), tk(constant(p23)))
    assert isinstance(k.provenance, ComposeTK)
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
            if d != 0:
                assert isinstance(kd.provenance, TwistTK)


def test_shift_twist_zero_is_identity():
    k = tk(constant(interval()))
    assert shift_twist(k, 0) is k


def test_shift_twist_underlying_moves_degrees():
    v = single(0, 1)
    k = tk(point_sheaf(v))
    kd = shift_twist(k, 1)
    st = kd.underlying.stalk(("pt", "pt"))
    # F[1] (x) DF[-1]: degrees shift in opposite directions and cancel
    assert euler(st) == euler(k.underlying.stalk(("pt", "pt")))
    assert kd.euler_class == k.euler_class


def test_twist_of_twist_accumulates():
    k = tk(constant(interval()))
    k2 = shift_twist(shift_twist(k, 1), -1)
    assert k2.euler_class == k.euler_class
    st = k2.underlying
    assert st.stalks.keys() == k.underlying.stalks.keys()
    for c in st.stalks:
        assert st.stalk(c).dims == k.underlying.stalk(c).dims


def test_external_tk_equals_reordered_external():
    """external_tk's sheaf is external(K1, K2) on (M1 x M2) x (M1 x M2)
    relabelled onto product(M12, M12) by ((a, b), (c, d)) -> ((a, c), (b, d))."""
    rng = random.Random(71)
    nonzero_res = 0
    for _ in range(8):
        k1, k2 = (tk(random_sheaf(rng, random_complex(rng, max_dim=1, max_vertices=3,
                                                      max_cells=5),
                                  max_pieces=2, degree_range=(-1, 1)))
                  for _ in range(2))
        got = external_tk(k1, k2).underlying
        m12, _, _ = product(k1.base, k2.base)
        doubled, _, _ = product(m12, m12)
        want = _relabel_sheaf(external(k1.underlying, k2.underlying), doubled,
                              lambda c: ((c[0][0], c[1][0]), (c[0][1], c[1][1])))
        assert got.base.same_as(doubled)
        assert got.stalks == want.stalks
        assert got.restrictions == want.restrictions
        nonzero_res += len(got.restrictions)
    assert nonzero_res > 100
