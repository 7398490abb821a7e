import random

import pytest

from conormal.cellcx import POINT, product, identity_map
from conormal.sheaf import (CellularSheaf, SheafError, constant, external,
                            tensor_sheaf, pushforward,
                            kernel_compose, euler_char, verdier_dual)
from conormal.mueu import (LagCycle, mueu, degree, external_cycle,
                           star, compose_cycle, pushforward_cycle,
                           set_negative_control)
from conormal.randgen import (interval, hollow_triangle, tetra_boundary,
                              circle, random_complex, random_sheaf,
                              random_cellular_map)


def test_cycle_arithmetic():
    cx = interval()
    a = LagCycle(cx, {"0": 1, "0.1": -2})
    b = LagCycle(cx, {"0.1": 2})
    assert (a + b).weights == {"0": 1}
    assert (a - a).weights == {}
    assert a.scale(3).weight("0.1") == -6
    assert degree(a) == -1
    with pytest.raises(SheafError):
        LagCycle(cx, {"0": "x"})
    with pytest.raises(SheafError):
        LagCycle(cx, {"nope": 1})


def test_mueu_of_constant():
    lam = mueu(constant(hollow_triangle()))
    assert lam.weights == {"0": 1, "1": 1, "2": 1,
                           "0.1": -1, "0.2": -1, "1.2": -1}
    assert degree(lam) == 0
    assert mueu(CellularSheaf(hollow_triangle(), {}, {})) == LagCycle(hollow_triangle(), {})


def test_mueu_of_dual_flips_signs_on_circle():
    d = verdier_dual(constant(hollow_triangle()))
    lam = mueu(d)
    assert lam.weights == {"0": -1, "1": -1, "2": -1,
                           "0.1": 1, "0.2": 1, "1.2": 1}


def test_index_theorem_random():
    rng = random.Random(37)
    for _ in range(40):
        cx = random_complex(rng)
        f = random_sheaf(rng, cx)
        assert degree(mueu(f)) == euler_char(f)


def test_external_cycle_compatibility():
    rng = random.Random(41)
    for _ in range(15):
        a = random_complex(rng, max_dim=2, max_vertices=5, max_cells=12)
        b = random_complex(rng, max_dim=2, max_vertices=5, max_cells=12)
        f, g = random_sheaf(rng, a, max_pieces=2), random_sheaf(rng, b, max_pieces=2)
        assert mueu(external(f, g)).weights == \
            external_cycle(mueu(f), mueu(g)).weights


def test_star_compatibility_and_degree():
    rng = random.Random(43)
    for _ in range(15):
        cx = random_complex(rng, max_dim=2, max_cells=20)
        f, g = random_sheaf(rng, cx, max_pieces=2), random_sheaf(rng, cx, max_pieces=2)
        t = tensor_sheaf(f, g)
        assert mueu(t) == star(mueu(f), mueu(g))
        assert degree(star(mueu(f), mueu(g))) == euler_char(t)


def test_compose_cycle_middle_mismatch():
    """Cycles whose middle factors differ do not compose."""
    p12, _, _ = product(POINT, interval())
    p23, _, _ = product(hollow_triangle(), POINT)
    with pytest.raises(SheafError, match="middle factors"):
        compose_cycle(mueu(constant(p12)), mueu(constant(p23)))


def test_compose_cycle_matches_kernel_compose():
    rng = random.Random(47)
    for _ in range(10):
        m2 = circle(4)
        p12, _, _ = product(POINT, m2)
        p23, _, _ = product(m2, POINT)
        k12 = random_sheaf(rng, p12, max_pieces=2, degree_range=(-1, 1))
        k23 = random_sheaf(rng, p23, max_pieces=2, degree_range=(-1, 1))
        lhs = mueu(kernel_compose(k12, k23))
        rhs = compose_cycle(mueu(k12), mueu(k23))
        assert lhs == rhs


def test_pushforward_cycle_degree_and_compatibility():
    rng = random.Random(53)
    for _ in range(15):
        cx = random_complex(rng, max_dim=2, max_cells=20)
        f = random_cellular_map(rng, cx)
        sh = random_sheaf(rng, f.source, max_pieces=2)
        lam = mueu(sh)
        pushed = pushforward_cycle(f, lam)
        assert degree(pushed) == degree(lam)
        assert mueu(pushforward(f, sh)) == pushed


def test_negative_control_flips_index():
    f = constant(interval())
    try:
        set_negative_control(True)
        assert degree(mueu(f)) != euler_char(f)
    finally:
        set_negative_control(False)
    assert degree(mueu(f)) == euler_char(f)
