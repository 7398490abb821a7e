import random

import pytest

from conormal.cellcx import (CellComplex, CellComplexError, CellularMapError,
                             POINT, from_simplicial, simplicial_map,
                             identity_map, collapse_to_point, product,
                             product_map, factors_of, CellularMap)
from conormal.sheaf import constant, euler_char
from conormal.randgen import (interval, hollow_triangle, full_simplex,
                              tetra_boundary, torus7, circle, random_complex,
                              random_cellular_map, random_symmetry,
                              random_inclusion)


def test_from_simplicial_interval():
    cx = interval()
    assert sorted(cx.cell_ids()) == ["0", "0.1", "1"]
    assert cx.dim("0.1") == 1
    assert cx.incidence("0.1", "0") == -1
    assert cx.incidence("0.1", "1") == 1
    assert cx.validate() == []


def test_boundary_squares_to_zero_on_fixtures():
    for cx in (full_simplex(3), tetra_boundary(), torus7(), circle(5)):
        assert cx.validate() == []


def test_euler_characteristics():
    assert euler_char(constant(interval())) == 1
    assert euler_char(constant(hollow_triangle())) == 0
    assert euler_char(constant(full_simplex(3))) == 1
    assert euler_char(constant(tetra_boundary())) == 2
    assert euler_char(constant(torus7())) == 0
    assert len(torus7()) == 42  # 7 + 21 + 14


def test_validate_catches_broken_sign():
    cx = interval()
    bad = CellComplex({c: cx.dim(c) for c in cx.cell_ids()},
                      {("0.1", "0"): 1, ("0.1", "1"): 1})
    assert bad.validate() == []  # a single edge has no codim-2 intervals
    sq = full_simplex(3)
    inc = sq.incidence_pairs()
    inc[("0.1", "0")] = -inc[("0.1", "0")]
    broken = CellComplex({c: sq.dim(c) for c in sq.cell_ids()}, inc)
    assert broken.validate() != []


def test_star_and_upsets():
    cx = hollow_triangle()
    assert set(cx.star("0")) == {"0", "0.1", "0.2"}
    assert cx.is_upset({"0.1"})
    assert not cx.is_upset({"0"})
    assert set(cx.up_closure(["1"])) == {"1", "0.1", "1.2"}
    assert cx.down_closure(["0.1"]) == {"0.1", "0", "1"}
    assert cx.down_closure(["0", "1.2"]) == {"0", "1", "2", "1.2"}


def test_down_closure_is_every_cell_below():
    rng = random.Random(31)
    for cx in (full_simplex(3), product(circle(3), interval())[0],
               random_complex(rng), random_complex(rng, max_dim=2, max_cells=20)):
        ids = cx.cell_ids()
        for k in (1, 2, 4):
            picked = rng.sample(ids, min(k, len(ids)))
            assert cx.down_closure(picked) == \
                set(picked) | {d for c in picked for d in ids if cx.lt(d, c)}


def test_face_pairs_are_built_once_in_incidence_order():
    # and so are the cell order and the coboundary that sections reads
    rng = random.Random(29)
    for cx in (torus7(), product(circle(4), interval())[0], POINT,
               random_complex(rng), random_complex(rng, max_dim=2, max_cells=20)):
        pairs = cx.face_pairs()
        assert cx.face_pairs() is pairs
        assert list(pairs) == [(s, t) for (t, s) in cx.incidence_pairs()]
        order, cob = cx.cell_order(), cx.coboundary()
        assert cx.cell_order() is order and cx.coboundary() is cob
        ranked = sorted(cx.cell_ids(), key=lambda c: (cx.dim(c), str(c)))
        assert sorted(order, key=order.get) == ranked
        assert sorted(order.values()) == list(range(len(cx)))
        assert list(cob) == cx.cell_ids()
        walked = [(cf, c, pair, sign) for c, entries in cob.items()
                  for cf, pair, sign in entries]
        assert len(walked) == len(pairs)
        assert {(cf, c): sign for cf, c, _, sign in walked} == cx.incidence_pairs()
        for c, entries in cob.items():
            assert tuple(cf for cf, _, _ in entries) == cx.cofaces(c)
        # each entry holds the face_pairs tuple itself, the key of a restriction
        assert all(pair == (c, cf) for cf, c, pair, _ in walked)
        held = {pair: pair for _, _, pair, _ in walked}
        assert all(held[pair] is pair for pair in pairs)


def _assert_stored_once(cx):
    """Each codim-1 pair is one (face, coface) tuple, the key of its sign,
    made of the complex's own cell id objects."""
    own = {c: c for c in cx.cell_ids()}
    pairs = cx.face_pairs()
    assert all(own[s] is s and own[t] is t for s, t in pairs)
    assert len(set(pairs)) == len(pairs) == len(cx.incidence_pairs())
    assert all(key is pair for key, pair in zip(cx._incidence, pairs))
    assert all(t is own[t] for s in cx.cell_ids() for t in cx.cofaces(s))
    assert all(s is own[s] for t in cx.cell_ids() for s in cx.faces(t))


def test_cells_and_pairs_are_stored_once():
    # equal ids that are other objects than the keys of cells
    def fresh(cid):
        return "".join(list(cid))
    cells = {"0": 0, "1": 0, "2": 0, "0.1": 1, "0.2": 1, "1.2": 1, "0.1.2": 2}
    hand = {("0.1", "0"): -1, ("0.1", "1"): 1, ("0.2", "0"): -1, ("0.2", "2"): 1,
            ("1.2", "1"): -1, ("1.2", "2"): 1,
            ("0.1.2", "1.2"): 1, ("0.1.2", "0.2"): -1, ("0.1.2", "0.1"): 1}
    cx = CellComplex(cells, {(fresh(t), fresh(s)): sign for (t, s), sign in hand.items()})
    assert cx.validate() == []
    _assert_stored_once(cx)
    assert list(cx.incidence_pairs().items()) == list(hand.items())
    assert cx.face_pairs() == tuple((s, t) for t, s in hand)
    for (t, s), sign in hand.items():
        assert cx.incidence(t, s) == sign
        assert cx.incidence(s, t) == 0
    assert cx.incidence("0.1.2", "0") == 0 and cx.incidence("1", "0") == 0
    assert cx.faces("0.1.2") == ("1.2", "0.2", "0.1")
    assert cx.cofaces("2") == ("0.2", "1.2")
    # the same signs from the simplicial route, in its own pair order
    assert from_simplicial([[0, 1, 2]]).incidence_pairs() == hand

    rng = random.Random(37)
    inner = product(interval(), hollow_triangle())[0]
    nested = product(inner, circle(3))[0]
    sub = random_inclusion(rng, torus7()).source
    for x in (from_simplicial([[0, 1, 2], [1, 3], [4]]), inner, nested, sub, POINT,
              random_complex(rng)):
        _assert_stored_once(x)
        assert x.validate() == []
    # a product cell holds its factors' own id objects
    for p in (inner, nested):
        a, b = factors_of(p)
        own_a, own_b = ({c: c for c in f.cell_ids()} for f in (a, b))
        assert all(own_a[x] is x and own_b[y] is y for x, y in p.cell_ids())
    # Leibniz: the inner cell (edge, vertex) has dim 1, so the sign flips
    assert nested.incidence((("0.1", "0"), "0.1"), (("0.1", "0"), "0")) == \
        -circle(3).incidence("0.1", "0")


def test_closure_order():
    cx = full_simplex(3)
    assert cx.lt("0", "0.1.2")
    assert cx.leq("0.1", "0.1.2")
    assert not cx.lt("0.1", "0.2")


def test_product_complex():
    a, b = interval(), hollow_triangle()
    p, pa, pb = product(a, b)
    assert p.validate() == []
    assert len(p) == len(a) * len(b)
    assert euler_char(constant(p)) == 0
    fa, fb = factors_of(p)
    assert fa.same_as(a) and fb.same_as(b)
    assert pa(("0.1", "2")) == "0.1"
    assert pb(("0.1", "2")) == "2"


def test_product_leibniz_signs():
    # d(e x e') picks up (-1)^{dim e} on the second factor
    a = interval()
    p, _, _ = product(a, a)
    e = "0.1"
    assert p.incidence((e, e), ("0", e)) == a.incidence(e, "0")
    assert p.incidence((e, e), (e, "0")) == -a.incidence(e, "0")
    assert p.validate() == []


def test_simplicial_map_signs():
    cx = hollow_triangle()
    rot = simplicial_map(cx, cx, {"0": "1", "1": "2", "2": "0"})
    assert rot("0.1") == "1.2"
    assert rot.sign("0.1") == 1
    refl = simplicial_map(cx, cx, {"0": "0", "1": "2", "2": "1"})
    assert refl("1.2") == "1.2"
    assert refl.sign("1.2") == -1  # orientation reversed
    assert set(refl.fixed_cells()) == {"0", "1.2"}


def test_simplicial_map_collapse_is_order_preserving():
    cx = hollow_triangle()
    f = simplicial_map(cx, cx, {"0": "0", "1": "0", "2": "2"})
    assert f("0.1") == "0"
    assert f("0.2") == "0.2"


def test_cellular_map_rejects_non_monotone():
    cx = interval()
    with pytest.raises(CellularMapError):
        CellularMap(cx, cx, {"0": "0.1", "1": "1", "0.1": "0.1"},
                    {"0.1": 1})


def test_collapse_and_identity():
    cx = tetra_boundary()
    f = collapse_to_point(cx)
    assert f.target.same_as(POINT)
    i = identity_map(cx)
    assert all(i(c) == c and i.sign(c) == 1 for c in cx.cell_ids())


def test_product_map():
    a = interval()
    p, _, _ = product(a, a)
    f = collapse_to_point(a)
    q, _, _ = product(POINT, a)
    g = product_map(f, identity_map(a), source=p, target=q)
    assert g(("0.1", "1")) == ("pt", "1")


def test_random_complexes_are_valid():
    rng = random.Random(3)
    for _ in range(25):
        cx = random_complex(rng)
        assert cx.validate() == []
        assert len(cx) <= 40


def test_random_maps_are_valid():
    rng = random.Random(4)
    for _ in range(25):
        cx = random_complex(rng, max_dim=2, max_cells=25)
        f = random_cellular_map(rng, cx)
        # CellularMap validates monotonicity on construction
        for c in f.source.cell_ids():
            assert f(c) in f.target


def test_random_maps_on_product_complexes_are_valid():
    """A product's cells are pairs, not simplices: a draw of a vertex
    collapse collapses it to a point instead, and simplicial_map rejects
    it naming a cell."""
    for cx in (product(circle(3), interval())[0], product(torus7(), hollow_triangle())[0]):
        points = 0
        for seed in range(100):
            f = random_cellular_map(random.Random(seed), cx)
            # CellularMap validates on construction; build it once more
            CellularMap(f.source, f.target, f.assignment, f.orientation_sign)
            assert cx in (f.source, f.target)
            points += f.target.same_as(POINT)
        assert points >= 10
        with pytest.raises(CellularMapError,
                           match=r"^cell \(.+\) is not a simplex of vertex names$"):
            simplicial_map(cx, POINT, {})


def test_random_symmetry_is_automorphism():
    rng = random.Random(5)
    for _ in range(15):
        cx, f = random_symmetry(rng)
        assert f.source.same_as(cx) and f.target.same_as(cx)
        assert sorted(map(str, (f(c) for c in cx.cell_ids()))) == \
            sorted(map(str, cx.cell_ids()))
