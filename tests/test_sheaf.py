import hashlib
import json
import random
from fractions import Fraction

import pytest

from conormal.cellcx import (POINT, product, identity_map, collapse_to_point, CellularMap,
                             factors_of, projections, product_map, _product_complex,
                             simplicial_map)
from conormal.qlinalg import (Matrix, VectComplex, LinAlgError, euler,
                              homology_ranks, single, compose_chain_maps,
                              dual, direct_sum, total_complex)
from conormal.sheaf import (CellularSheaf, SheafError, PushforwardError,
                            constant, global_sections, euler_char, shift_sheaf,
                            direct_sum_sheaf, tensor_sheaf, external, pullback,
                            pushforward, extend_by_zero, verdier_dual,
                            kernel_compose, euler_rhom,
                            sections, _pulled_tensor)
from conormal.randgen import (interval, hollow_triangle, full_simplex,
                              tetra_boundary, torus7, circle, random_complex,
                              random_piece_sheaf, random_sheaf,
                              random_cellular_map,
                              random_vertex_collapse,
                              random_vect_complex,
                              random_lefschetz_instance, random_invertible, PieceSheaf,
                              random_upset,
                              SKY, ACYC)
from conormal.tracekernel import tk, shift_twist, compose_tk
from conormal.mueu import mueu
from conormal import sheaf as sheaf_mod
from conormal.io import describe_sheaf, describe_vect_complex, fmt_matrix
from conormal.lefschetz import _induced_endo
from generators import random_morphism, random_chain_endo, layout, graded_map


def test_constant_sheaf_cohomology():
    assert homology_ranks(global_sections(constant(interval()))) == {0: 1}
    assert homology_ranks(global_sections(constant(hollow_triangle()))) == {0: 1, 1: 1}
    assert homology_ranks(global_sections(constant(tetra_boundary()))) == {0: 1, 2: 1}
    assert homology_ranks(global_sections(constant(torus7()))) == {0: 1, 1: 2, 2: 1}
    torus24, _, _ = product(circle(24), circle(24))
    assert homology_ranks(global_sections(constant(torus24))) == {0: 1, 1: 2, 2: 1}


def test_euler_char_fixtures():
    assert euler_char(constant(interval())) == 1
    assert euler_char(constant(hollow_triangle())) == 0
    assert euler_char(constant(tetra_boundary())) == 2
    assert euler_char(CellularSheaf(torus7(), {}, {})) == 0


def _stalk_sum(f):
    """The reference for euler_char: sum over cells of (-1)^dim c times
    the Euler characteristic of the stalk at c, the sections complex
    counted degree by degree."""
    return sum((-1) ** f.base.dim(c) * euler(v) for c, v in f.stalks.items())


def _euler_char_inputs():
    """Seeded piece sheaves, and their verdier_dual, shift_sheaf,
    tensor_sheaf, pushforward and kernel_compose outputs."""
    rng = random.Random(45)
    for cx in [full_simplex(2), circle(5), torus7(), tetra_boundary(), hollow_triangle(),
               product(circle(3), interval())[0]] * 2:
        f = random_piece_sheaf(rng, cx, max_pieces=3).sheaf
        yield f
        yield verdier_dual(f)
        yield shift_sheaf(f, rng.randint(-2, 2))
        yield tensor_sheaf(f, random_piece_sheaf(rng, cx, max_pieces=2).sheaf)
        m = random_cellular_map(rng, cx)
        yield pushforward(m, random_piece_sheaf(rng, m.source, max_pieces=2).sheaf)
    for k12, k23 in _random_kernel_pairs():
        yield kernel_compose(k12, k23)


def test_euler_char_is_the_stalk_sum():
    """chi of hypercohomology, which euler_char reads off homology_ranks,
    equals the alternating stalk sum."""
    values = []
    for f in _euler_char_inputs():
        values.append(euler_char(f))
        assert values[-1] == _stalk_sum(f)
    assert len(values) == 72
    assert sum(map(bool, values)) >= 40


def test_validate_accepts_constant_and_catches_breakage():
    f = constant(full_simplex(3))
    assert f.validate() == []
    broken = CellularSheaf(
        f.base, dict(f.stalks),
        {**f.restrictions, ("0", "0.1"): {0: Matrix.identity(1).scale(2)}})
    assert broken.validate() != []
    with pytest.raises(LinAlgError, match="d\\^2 != 0 at degree 0"):
        homology_ranks(global_sections(broken))
    with pytest.raises(LinAlgError, match="d\\^2 != 0 at degree 0"):
        euler_char(broken)


def test_validate_catches_non_chain_map():
    cx = interval()
    stalks = {"0": VectComplex({0: 1, 1: 1}, {0: Matrix.identity(1)}),
              "0.1": VectComplex({0: 1, 1: 1}, {0: Matrix.zeros(1, 1)})}
    res = {("0", "0.1"): {0: Matrix.identity(1), 1: Matrix.identity(1)}}
    assert CellularSheaf(cx, stalks, res).validate() != []


def test_constructor_shares_restrictions_and_drops_zero_blocks():
    cx = interval()
    two = VectComplex({0: 1, 1: 1})
    stalks = {"0": two, "1": two, "0.1": two}
    whole = {0: Matrix.identity(1), 1: Matrix.identity(1)}
    part = {0: Matrix.identity(1), 1: Matrix.zeros(1, 1)}
    f = CellularSheaf(cx, stalks, {("0", "0.1"): whole, ("1", "0.1"): part})
    assert f.res("0", "0.1") is whole  # kept as the builder gave it
    assert f.res("1", "0.1") == {0: Matrix.identity(1)}  # zero block dropped
    assert len(part) == 2  # from a copy
    f = CellularSheaf(cx, {**stalks, "1": VectComplex({})},
                      {("1", "0.1"): whole, ("0", "0.1"): {1: Matrix.zeros(1, 1)}})
    assert "1" not in f.stalks and f.restrictions == {}
    with pytest.raises(SheafError, match="non-incident pair"):
        CellularSheaf(cx, stalks, {("0", "1"): whole})
    with pytest.raises(SheafError, match="unknown cell"):
        CellularSheaf(cx, {"0.2": two}, {})


def test_res_long_two_dimensions_apart():
    # vertex 0 below the triangle: two chains of codim-1 steps, via 0.1 and 0.2
    f = random_sheaf(random.Random(17), full_simplex(3), max_pieces=2)
    assert f.validate() == []
    long = f.res_long("0", "0.1.2")
    assert long
    for mid in ("0.1", "0.2"):
        step = compose_chain_maps(f.res(mid, "0.1.2"), f.res("0", mid))
        assert long == step
    with pytest.raises(SheafError, match="not comparable"):
        f.res_long("1", "0.2")


def test_extend_by_zero():
    cx = interval()
    j = extend_by_zero(constant(cx), {"0.1"})
    assert euler_char(j) == -1
    assert homology_ranks(global_sections(j)) == {1: 1}
    with pytest.raises(SheafError):
        extend_by_zero(constant(cx), {"0"})  # not an up-set


def test_shift_and_direct_sum():
    f = constant(hollow_triangle())
    assert euler_char(shift_sheaf(f, 1)) == 0
    assert euler_char(shift_sheaf(constant(interval()), 1)) == -1
    g = direct_sum_sheaf(f, shift_sheaf(f, 2))
    assert g.validate() == []
    assert euler_char(g) == 0


def _block_diagonal(phi, psi, src, tgt, step=0):
    """The reference phi (+) psi : a (+) b -> a' (+) b', for src = (a, b),
    tgt = (a', b') and graded maps phi : a -> a', psi : b -> b' that raise
    the degree by step: Matrix.assemble with phi's block at (0, 0) and
    psi's at the dims of a' and a."""
    (a, b), (a2, b2) = src, tgt
    out = {}
    for n in {**phi, **psi}:
        r0, c0 = a2.dim(n + step), a.dim(n)
        blocks = [(0, 0, phi[n])] if n in phi else []
        blocks += [(r0, c0, psi[n])] if n in psi else []
        out[n] = Matrix.assemble(r0 + b2.dim(n + step), c0 + b.dim(n), blocks)
    return out


def test_direct_sums_are_block_diagonal():
    """direct_sum and direct_sum_sheaf, entry for entry, against
    block-diagonal references built by Matrix.assemble: in every degree the
    second summand's pieces follow the first's, and each differential and
    each restriction is the first summand's block at (0, 0) plus the
    second's after the first's dims.  Homology ranks add, of the stalks,
    of the sections complexes and of the sheaves' global sections."""
    rng = random.Random(53)
    seen = {"shifted differential": 0, "shifted restriction": 0}

    def ranks_add(s, a, b):
        ha, hb = homology_ranks(a), homology_ranks(b)
        assert homology_ranks(s) == {n: ha.get(n, 0) + hb.get(n, 0) for n in {**ha, **hb}}

    def check_sum(s, a, b):
        assert s.dims == {n: a.dim(n) + b.dim(n) for n in {**a.dims, **b.dims}}
        assert s.diffs == _block_diagonal(a.diffs, b.diffs, (a, b), (a, b), 1)
        seen["shifted differential"] += sum(1 for n in b.diffs if a.dim(n) or a.dim(n + 1))
        ranks_add(s, a, b)

    for _ in range(40):
        cx = random_complex(rng, max_dim=2, max_cells=20)
        f, g = (_with_constant(rng, cx) if rng.random() < 0.5 else random_sheaf(
            rng, cx, max_pieces=3, degree_range=(-1, 1)) for _ in range(2))
        a, b = global_sections(f), global_sections(g)
        for u, v in [(a, b), (b, a), (a, random_vect_complex(rng))]:
            check_sum(direct_sum(u, v), u, v)
        h = direct_sum_sheaf(f, g)
        assert list(h.stalks) == list({**f.stalks, **g.stalks})
        for c, v in h.stalks.items():
            check_sum(v, f.stalk(c), g.stalk(c))
        want = {}
        for s, t in {**f.restrictions, **g.restrictions}:
            src, tgt = (f.stalk(s), g.stalk(s)), (f.stalk(t), g.stalk(t))
            want[(s, t)] = _block_diagonal(f.res(s, t), g.res(s, t), src, tgt)
            seen["shifted restriction"] += sum(1 for n in g.res(s, t)
                                               if f.stalk(s).dim(n) or f.stalk(t).dim(n))
        assert h.restrictions == want
        assert h.validate() == []
        ranks_add(global_sections(h), a, b)
    assert min(seen.values()) > 50, seen


def test_tensor_and_external_chi():
    rng = random.Random(17)
    for _ in range(10):
        cx = random_complex(rng, max_dim=2, max_cells=15)
        f = random_sheaf(rng, cx, max_pieces=2)
        g = random_sheaf(rng, cx, max_pieces=2)
        t = tensor_sheaf(f, g)
        for c in t.stalks:
            assert euler(t.stalk(c)) == euler(f.stalk(c)) * euler(g.stalk(c))
    a, b = interval(), hollow_triangle()
    e = external(constant(a), constant(b))
    assert e.validate() == []
    assert euler_char(e) == euler_char(constant(a)) * euler_char(constant(b))


def test_pullback_along_projection():
    a, b = interval(), hollow_triangle()
    p, pa, pb = product(a, b)
    g = constant(b)
    pb_sheaf = pullback(pb, g)
    assert pb_sheaf.validate() == []
    assert euler_char(pb_sheaf) == 0  # chi(I x S1)


def test_pullback_builds_one_identity_per_image_cell():
    """Pairs that the map collapses onto one cell share one identity chain
    map; the others restrict as g.res_long does."""
    fold = simplicial_map(circle(4), full_simplex(3), {0: 0, 1: 0, 2: 1, 3: 2})
    f = product_map(fold, identity_map(interval()))
    g = random_sheaf(random.Random(8), f.target, max_pieces=3)
    pulled = pullback(f, g)
    assert pulled.validate() == []
    shared = {}
    for (s, t), phi in pulled.restrictions.items():
        if f(s) == f(t):
            assert phi == {n: Matrix.identity(d) for n, d in g.stalk(f(s)).dims.items()}
            shared.setdefault(f(s), set()).add(id(phi))
        else:
            assert phi == g.res_long(f(s), f(t))
    assert shared and all(len(ids) == 1 for ids in shared.values())
    assert sum(f(s) == f(t) for s, t in pulled.restrictions) > len(shared)


def test_pushforward_preserves_sections():
    rng = random.Random(19)
    for _ in range(10):
        cx = random_complex(rng, max_dim=2, max_cells=20)
        f = random_cellular_map(rng, cx)
        sh = random_sheaf(rng, f.source, max_pieces=2)
        pushed = pushforward(f, sh)
        assert pushed.validate() == []
        assert euler_char(pushed) == euler_char(sh)
        assert homology_ranks(global_sections(pushed)) == \
            homology_ranks(global_sections(sh))


def test_pushforward_to_point_computes_cohomology():
    cx = tetra_boundary()
    p = pushforward(collapse_to_point(cx), constant(cx))
    assert homology_ranks(p.stalk("pt")) == {0: 1, 2: 1}


def test_pushforward_unrepresentable_jump():
    cx = full_simplex(3)
    assignment = {c: "0" for c in cx.cell_ids()}
    assignment["0.1.2"] = "0.1.2"
    signs = {"0": 1, "1": 1, "2": 1, "0.1.2": 1}
    f = CellularMap(cx, cx, assignment, signs)
    with pytest.raises(PushforwardError):
        pushforward(f, constant(cx))


def _reference_sections(f, cells, weight, delta_sign=1):
    """sections as it was before CellComplex.cell_order and coboundary:
    the cells sorted by (dim, str) on every call, each pair's key tuple
    built afresh and its sign read through base.incidence."""
    cells = sorted((c for c in cells if c in f.stalks), key=lambda c: (f.base.dim(c), str(c)))
    weights = {c: weight(c) for c in cells}
    lay = layout([((c, p), p + weights[c], d)
                  for c in cells for p, d in sorted(f.stalks[c].dims.items())])
    arrows = []
    for c, w in weights.items():
        sgn = -1 if w % 2 else 1
        arrows += [((c, p), (c, p + 1), d, 1, sgn) for p, d in f.stalks[c].diffs.items()]
        for cf in f.base.cofaces(c):
            phi = f.restrictions.get((c, cf))
            if phi is not None and cf in weights:
                sgn = f.base.incidence(cf, c) * delta_sign
                arrows += [((c, p), (cf, p), m, 1, sgn) for p, m in phi.items()]
    return VectComplex(lay[0], graded_map(lay, lay, arrows)), lay[1]


def _blocks_hit(f, cells, shift):
    """Kinds of block that sections(f, cells, shift) writes: a stalk
    differential, a restriction block that is not 1x1, and a 1x1 entry
    written negated."""
    cells = {c for c in cells if c in f.stalks}
    hit = set()
    for c in cells:
        w = f.base.dim(c) - shift
        for d in f.stalks[c].diffs.values():
            hit.add("stalk differential")
            if w % 2 and (d.rows, d.cols) == (1, 1):
                hit.add("negated 1x1")
        for cf in f.base.cofaces(c):
            if cf in cells:
                sign = f.base.incidence(cf, c) * (-1 if shift % 2 else 1)
                for m in f.res(c, cf).values():
                    if (m.rows, m.cols) != (1, 1):
                        hit.add("restriction block larger than 1x1")
                    elif sign < 0:
                        hit.add("negated 1x1")
    return hit


def test_sections_match_the_reference_route():
    # all cells and every star unshifted, and every pushforward fibre
    # shifted by the dim of its image and by one more, so both parities of
    # the shift (the sign of the restrictions) are seen; the cells come as
    # a list, a set and a generator
    rng = random.Random(29)
    bases = [torus7(), product(circle(3), interval())[0]]
    bases += [random_complex(rng, max_dim=2, max_cells=20) for _ in range(6)]
    cases = []
    for cx in bases:
        g = random_cellular_map(rng, cx)
        cases.append((g, random_piece_sheaf(rng, g.source, max_pieces=3).sheaf))
    # the constant sheaf, every block of which is a 1x1 restriction, with
    # the fibres of a projection
    cx, proj, _ = product(circle(3), circle(4))
    cases.append((proj, constant(cx)))
    seen = set()
    for g, f in cases:
        src, tgt = g.source, g.target
        routes = [(src.cell_ids(), 0)]
        routes += [(sorted(src.star(c), key=str), 0) for c in src.cell_ids()]
        for t in tgt.cell_ids():
            fibre = [c for c in src.cell_ids() if g(c) == t]
            routes += [(fibre, tgt.dim(t)), (fibre, tgt.dim(t) + 1)]
        for cells, shift in routes:
            sign = -1 if shift % 2 else 1
            want, want_index = _reference_sections(
                f, cells, lambda c: src.dim(c) - shift, sign)
            for given in (list(cells), set(cells), (c for c in cells)):
                got, place = sections(f, given, shift)
                assert got.dims == want.dims
                assert got.diffs == want.diffs
                # the placement, flattened in cell order, is the reference index
                index = {(c, p): at for c, pieces in place.items() for p, at in pieces.items()}
                assert index == want_index and list(index) == list(want_index)
            seen.add((sign, bool(want.diffs)))
            seen |= _blocks_hit(f, cells, shift)
    assert seen == {(1, True), (1, False), (-1, True), (-1, False), "stalk differential",
                    "restriction block larger than 1x1", "negated 1x1"}


def test_sections_guards_its_blocks():
    """A restriction block that does not fit raises LinAlgError; and no
    sections differential of the seeded sheaves here stores a zero
    entry (the Matrix invariant)."""
    cx = interval()
    k = VectComplex({0: 1})
    f = CellularSheaf(cx, {"0": k, "0.1": k}, {("0", "0.1"): {0: Matrix.from_rows([[1, 2]])}})
    with pytest.raises(LinAlgError, match="block out of range"):
        global_sections(f)
    rng = random.Random(37)
    sheaves = list(_dual_inputs())
    sheaves += [random_piece_sheaf(rng, product(circle(3), interval())[0]).sheaf
                for _ in range(5)]
    for f in sheaves:
        complexes = [global_sections(f)]
        complexes += [sections(f, f.base.star(c), 1)[0] for c in f.base.cells_of_dim(0)]
        for vc in complexes:
            for m in vc.diffs.values():
                assert all(x != 0 for row in m.data for x in row.values())


def test_verdier_dual_fixtures():
    f = constant(hollow_triangle())
    d = verdier_dual(f)
    assert d.validate() == []
    assert all(euler(d.stalk(c)) == -1 for c in f.base.cell_ids())
    g = constant(tetra_boundary())
    dg = verdier_dual(g)
    assert all(euler(dg.stalk(c)) == 1 for c in g.base.cell_ids())
    assert euler_char(dg) == 2


def test_biduality_chi_level():
    rng = random.Random(21)
    for _ in range(10):
        cx = random_complex(rng, max_dim=2, max_vertices=5, max_cells=10)
        f = random_sheaf(rng, cx, max_pieces=2, degree_range=(-1, 1))
        dd = verdier_dual(verdier_dual(f))
        for c in cx.cell_ids():
            assert euler(dd.stalk(c)) == euler(f.stalk(c))


def _dual_inputs():
    """Seeded sheaves for verdier_dual: random piece sheaves, a random sheaf
    plus the constant sheaf (stalks of dim 2 and more), and piece sheaves
    supported on open stars, with both kinds of piece."""
    rng = random.Random(43)
    for cx in [full_simplex(2), circle(5), torus7(), tetra_boundary(), hollow_triangle()] * 2:
        yield random_sheaf(rng, cx, max_pieces=2, degree_range=(-1, 1))
        yield _with_constant(rng, cx)
        cells = sorted(cx.cell_ids(), key=str)
        pieces = [(kind, frozenset(cx.star(rng.choice(cells))), rng.randint(-1, 1),
                   {c: Fraction(rng.choice([-2, -1, 1, 3])) for c in cells})
                  for kind in (SKY, ACYC, SKY)]
        yield PieceSheaf(cx, pieces, {}).sheaf
    for _ in range(10):
        cx = random_complex(rng, max_dim=2, max_vertices=5, max_cells=12)
        yield random_sheaf(rng, cx, max_pieces=2, degree_range=(-1, 1))


def test_verdier_dual_restrictions_are_transposed_inclusions():
    """verdier_dual, stalk for stalk and restriction for restriction, against
    dualizing the compactly supported star sections and transposing the
    inclusion of star(t)'s pieces into star(s)'s, placed as identity blocks
    by the tests' graded_map on the flattened placements."""
    nonzero_res = 0
    for f in _dual_inputs():
        base = f.base
        got = verdier_dual(f)
        star = {c: sections(f, base.star(c)) for c in base.cell_ids()}
        assert got.stalks == {c: dual(vc) for c, (vc, _) in star.items() if not vc.is_zero()}
        index = {c: {(cell, p): at for cell, pieces in place.items()
                     for p, at in pieces.items()}
                 for c, (_, place) in star.items()}
        want = {}
        for t, s in base.incidence_pairs():
            if s in got.stalks and t in got.stalks:
                (vc_s, _), (vc_t, _) = star[s], star[t]
                idx_s, idx_t = index[s], index[t]
                incl = graded_map((vc_t.dims, idx_t), (vc_s.dims, idx_s),
                                  [((c, p), (c, p), Matrix.identity(f.stalks[c].dim(p)), 1, 1)
                                   for c, p in idx_t])
                want[(s, t)] = {-n: m.transpose() for n, m in incl.items()}
        assert got.restrictions == want
        assert got.validate() == []
        nonzero_res += len(want)
    assert nonzero_res > 300


# sha256 of describe_sheaf over verdier_dual of _dual_inputs(); a change to
# any entry of a stalk differential or a restriction changes it
DUAL_DIGEST = "e7b0563d13473be3170f832c5b242b7280ced72650d296892b566c8bf7114400"


def test_verdier_dual_outputs_digest_is_pinned():
    h = hashlib.sha256()
    for f in _dual_inputs():
        h.update(json.dumps(describe_sheaf(verdier_dual(f)), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == DUAL_DIGEST


def test_random_sheaves_are_valid():
    rng = random.Random(29)
    for _ in range(20):
        cx = random_complex(rng, max_dim=2, max_cells=20)
        f = random_sheaf(rng, cx)
        assert f.validate() == []


def test_random_morphisms_and_cone():
    rng = random.Random(31)
    for _ in range(15):
        cx = random_complex(rng, max_dim=2, max_cells=12)
        src = random_piece_sheaf(rng, cx, max_pieces=2)
        tgt = random_piece_sheaf(rng, cx, max_pieces=2)
        alpha = random_morphism(rng, src, tgt)
        assert alpha.validate() == []


def test_operations_do_not_write_to_their_inputs():
    """A piece sheaf shares one 1x1 Matrix among its equal blocks and one
    stalk among the cells of a pattern of sky pieces, and the constant
    sheaf one [[1]] among its restrictions and one k among its stalks,
    which is safe because no operation writes to the matrices or stalks of
    its inputs: describe_sheaf of every input is the same after each
    operation as before."""
    rng = random.Random(36)
    factors = [interval(), hollow_triangle(), circle(4)]
    shared = shared_stalks = 0
    for _ in range(6):
        cx = random_complex(rng, max_dim=2, max_vertices=5, max_cells=14)
        ps = random_piece_sheaf(rng, cx, max_pieces=3)
        bare = PieceSheaf(cx, ps.pieces, {})
        tgt = random_piece_sheaf(rng, cx, max_pieces=2)
        alpha = random_morphism(rng, ps, tgt)
        m1, m2, m3 = (rng.choice(factors) for _ in range(3))
        k12 = random_piece_sheaf(rng, product(m1, m2)[0], max_pieces=2).sheaf
        p23 = product(m2, m3)[0]
        k23 = PieceSheaf(p23, random_piece_sheaf(rng, p23, max_pieces=2).pieces, {}).sheaf
        inputs = [ps.sheaf, bare.sheaf, tgt.sheaf, k12, k23, constant(cx)]
        before = [describe_sheaf(f) for f in inputs]
        components = {str(c): {n: fmt_matrix(m) for n, m in phi.items()}
                      for c, phi in alpha.components.items()}
        for run in [lambda: kernel_compose(k12, k23),
                    lambda: verdier_dual(ps.sheaf),
                    lambda: verdier_dual(bare.sheaf),
                    lambda: pushforward(random_vertex_collapse(rng, cx), ps.sheaf),
                    lambda: pushforward(collapse_to_point(cx), inputs[-1]),
                    lambda: external(bare.sheaf, k23),
                    lambda: tensor_sheaf(ps.sheaf, bare.sheaf),
                    lambda: tensor_sheaf(inputs[-1], tgt.sheaf),
                    lambda: homology_ranks(global_sections(bare.sheaf)),
                    lambda: homology_ranks(global_sections(ps.sheaf))]:
            run()
            assert [describe_sheaf(f) for f in inputs] == before
            assert {str(c): {n: fmt_matrix(m) for n, m in phi.items()}
                    for c, phi in alpha.components.items()} == components
        blocks = [m for phi in k23.restrictions.values() for m in phi.values()]
        shared += len(blocks) - len({id(m) for m in blocks})
        for f in inputs[:-1]:
            shared_stalks += len(f.stalks) - len({id(v) for v in f.stalks.values()})
        assert len({id(v) for v in inputs[-1].stalks.values()}) == 1
    assert shared > 0 and shared_stalks > 0
    const = constant(torus7())
    assert len({id(phi[0]) for phi in const.restrictions.values()}) == 1
    assert len({id(v) for v in const.stalks.values()}) == 1 < len(const.stalks)


def _contract_inputs():
    """The read-only contract's inputs, all on circle(3)^2: the constant
    sheaf, a conjugated one-piece sky sheaf, a two-piece conjugated sheaf
    (2x2 slots on a vertex star) and the factors of tk of the latter."""
    c = circle(3)
    x = product(c, c)[0]
    cells = x.cell_ids()
    rng = random.Random(44)
    star = frozenset(x.star(("0", "0")))
    sky = PieceSheaf(x, [(SKY, frozenset(cells), 0,
                          {c: Fraction(rng.choice((-2, -1, 1, 3))) for c in cells})],
                     {(c, 0): random_invertible(rng, 1) for c in cells}).sheaf
    pieces = [(SKY, frozenset(cells), 0, {c: Fraction(rng.choice((-1, 1, 2))) for c in cells}),
              (SKY, star, 0, {c: Fraction(rng.choice((1, 3))) for c in cells})]
    slots = PieceSheaf(x, pieces, {}).slots
    two = PieceSheaf(x, pieces, {(c, n): random_invertible(rng, len(labels))
                                 for c, per in slots.items()
                                 for n, labels in per.items()}).sheaf
    kernel = tk(two)
    return x, [constant(x), sky, two, kernel.first(), kernel.second()]


def _contract_writes(x, inputs):
    """Names of the sheaf-layer operations after which describe_sheaf of
    some input differs from before it.  The operations of conormal.sheaf
    are looked up at call time, so a test can replace one."""
    c = factors_of(x)[0]
    fold = product_map(simplicial_map(c, c, {0: 0, 1: 0, 2: 2}), identity_map(c),
                       source=x, target=x)
    proj = projections(x)[0]
    upset = x.star(("0", "0"))
    pairs = list(zip(inputs, inputs[1:] + inputs[:1]))
    ops = []
    for f, g in pairs:
        ops += [("global_sections", lambda f=f: homology_ranks(sheaf_mod.global_sections(f))),
                ("pushforward", lambda f=f: sheaf_mod.pushforward(proj, f)),
                ("pullback", lambda f=f: sheaf_mod.pullback(fold, f)),
                ("verdier_dual", lambda f=f: sheaf_mod.verdier_dual(f)),
                ("kernel_compose", lambda f=f, g=g: sheaf_mod.kernel_compose(f, g)),
                ("tensor_sheaf", lambda f=f, g=g: sheaf_mod.tensor_sheaf(f, g)),
                ("shift_sheaf", lambda f=f: sheaf_mod.shift_sheaf(f, 1)),
                ("extend_by_zero", lambda f=f: sheaf_mod.extend_by_zero(f, upset)),
                ("direct_sum_sheaf", lambda f=f, g=g: sheaf_mod.direct_sum_sheaf(f, g)),
                ("mueu", lambda f=f: mueu(f)),
                ("compose_tk", lambda f=f, g=g: compose_tk(tk(f), tk(g)).first())]
    # the external product lives on circle(3)^4: two of them
    ops += [("external", lambda f=f, g=g: sheaf_mod.external(f, g)) for f, g in pairs[1:3]]
    before, out = [describe_sheaf(f) for f in inputs], []
    for name, run in ops:
        run()
        now = [describe_sheaf(f) for f in inputs]
        if now != before:
            out.append(name)
            before = now
    return out


def test_sheaf_operations_keep_their_shared_inputs():
    """Sheaves share blocks, stalks, restriction dicts and their base's
    pair keys, so no sheaf-layer operation may write to its inputs."""
    x, inputs = _contract_inputs()
    sky, two = inputs[1], inputs[2]
    assert len({id(phi) for phi in sky.restrictions.values()}) < len(sky.restrictions)
    assert any(m.rows == 2 for phi in two.restrictions.values() for m in phi.values())
    assert _contract_writes(x, inputs) == []


def test_sheaf_contract_sees_an_operation_that_writes_a_restriction(monkeypatch):
    """The contract test can fail: a shift_sheaf that first negates the
    blocks of the restriction dicts it was given (a valid sheaf again, so
    the later operations run) is caught, and only it."""
    shift = sheaf_mod.shift_sheaf

    def writing_shift(f, k):
        for phi in {id(phi): phi for phi in f.restrictions.values()}.values():
            for n, m in phi.items():
                phi[n] = m.scale(-1)
        return shift(f, k)
    monkeypatch.setattr(sheaf_mod, "shift_sheaf", writing_shift)
    x, inputs = _contract_inputs()
    assert set(_contract_writes(x, inputs)) == {"shift_sheaf"}


# the validate() problems of four instances, first the constant sheaf on
# full_simplex(4) with every third restriction, in str order, scaled by 2
_VALIDATE_PROBLEMS = """
from itertools import combinations
from conormal.cellcx import from_simplicial, identity_map
from conormal.lefschetz import LefschetzInstance
from conormal.qlinalg import Matrix, VectComplex
from conormal.randgen import full_simplex
from conormal.sheaf import CellularSheaf, constant, direct_sum_sheaf
f = constant(full_simplex(4))
res = dict(f.restrictions)
for k, pair in enumerate(sorted(res, key=str)):
    if k % 3 == 0:
        res[pair] = {0: res[pair][0].scale(2)}
print("\\n".join(CellularSheaf(f.base, f.stalks, res).validate()))
# every stalk k -> k and every degree-1 restriction 2: no restriction is a
# chain map
one = Matrix.identity(1)
g = constant(full_simplex(3))
acyclic = CellularSheaf(g.base, {c: VectComplex({0: 1, 1: 1}, {0: one}) for c in g.stalks},
                        {pair: {0: one, 1: one.scale(2)} for pair in g.restrictions})
print("\\n".join(direct_sum_sheaf(acyclic, g).validate()))
# string vertices, whose cells from_simplicial makes in hash order: the
# full simplex on a-d with every third restriction, in str order, doubled
abcd = from_simplicial([list(s) for k in range(1, 5) for s in combinations("abcd", k)])
f = constant(abcd)
res = dict(f.restrictions)
for k, pair in enumerate(sorted(res, key=str)):
    if k % 3 == 0:
        res[pair] = {0: res[pair][0].scale(2)}
print("\\n".join(CellularSheaf(abcd, f.stalks, res).validate()))
# and a Lefschetz phi of 2 at a, b and a.b on the triangle a, b, c
tri = from_simplicial([["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"]])
phi = {c: {0: one.scale(2)} for c in ("a", "b", "a.b")}
print("\\n".join(LefschetzInstance(identity_map(tri), constant(tri), phi).validate()))
"""


def test_validate_problems_do_not_depend_on_the_hash_seed():
    import os
    import pathlib
    import subprocess
    import sys
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outs = set()
    for seed in ("1", "2", "3", "4", "5", "6"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _VALIDATE_PROBLEMS], env=env,
                              capture_output=True, text=True, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1
    (out,) = outs
    assert out.count("composite restrictions") == 20
    assert out.count("is not a chain map") == 9
    assert out.endswith("composite restrictions 'b.d' -> 'a.b.c.d' disagree\n"
                        "morphism does not commute with restriction ('a', 'a.c')\n"
                        "morphism does not commute with restriction ('b', 'b.c')\n")


def test_kernel_compose_point_flanked():
    # kernels pt -> S1 -> pt built from the constant sheaf
    s1 = hollow_triangle()
    left, _, _ = product(POINT, s1)
    right, _, _ = product(s1, POINT)
    k12 = external(constant(POINT), constant(s1), left)
    k23 = external(constant(s1), constant(POINT), right)
    k = kernel_compose(k12, k23)
    assert euler(k.stalk(("pt", "pt"))) == 0


def test_kernel_compose_with_zero():
    s1 = circle(4)
    left, _, _ = product(POINT, s1)
    right, _, _ = product(s1, POINT)
    k12 = external(constant(POINT), constant(s1), left)
    k = kernel_compose(k12, CellularSheaf(right, {}, {}))
    assert k.is_zero()


def test_kernel_compose_skyscraper_column():
    """Composing with a vertex skyscraper restricts to that column."""
    s1 = hollow_triangle()
    left, _, _ = product(POINT, s1)
    right, _, _ = product(s1, POINT)
    sky = CellularSheaf(s1, {"0": single(0, 1)}, {})
    k12 = external(constant(POINT), constant(s1), left)
    k23 = external(sky, constant(POINT), right)
    k = kernel_compose(k12, k23)
    assert euler(k.stalk(("pt", "pt"))) == 1


def test_kernel_compose_middle_mismatch():
    """Kernels whose middle factors differ do not compose."""
    p12, _, _ = product(POINT, interval())
    p23, _, _ = product(hollow_triangle(), POINT)
    with pytest.raises(SheafError, match="middle factors"):
        kernel_compose(constant(p12), constant(p23))


def _pulled_back_tensor(k12, k23):
    """The composition route through public operations: q13 and
    q12^*K12 (x) q23^*K23 on the triple product (M1 x M2) x M3."""
    m1, _ = factors_of(k12.base)
    _, m3 = factors_of(k23.base)
    t, q12, _ = product(k12.base, m3)
    p1, p2 = projections(k12.base)
    q23 = product_map(p2, identity_map(m3), source=t, target=k23.base)
    m13, _, _ = product(m1, m3)
    q13 = product_map(p1, identity_map(m3), source=t, target=m13)
    return q13, tensor_sheaf(pullback(q12, k12), pullback(q23, k23))


def _random_kernel_pairs():
    """Seeded kernels on products none of whose factors is a point."""
    rng = random.Random(20)
    factors = [interval(), hollow_triangle(), circle(4)]
    for i in range(12):
        m1, m2, m3 = (rng.choice(factors) for _ in range(3))
        p12, _, _ = product(m1, m2)
        p23, _, _ = product(m2, m3)
        if i % 2:
            k12 = random_sheaf(rng, p12, max_pieces=2, degree_range=(-1, 1))
            k23 = random_sheaf(rng, p23, max_pieces=2, degree_range=(-1, 1))
        else:
            k12 = random_piece_sheaf(rng, p12, max_pieces=3).sheaf
            k23 = random_piece_sheaf(rng, p23, max_pieces=2, degree_range=(0, 1)).sheaf
        yield k12, k23


def _flanked_kernel_pairs():
    """The point-flanked, zero and skyscraper-column kernels of the tests above."""
    s1 = hollow_triangle()
    left, _, _ = product(POINT, s1)
    right, _, _ = product(s1, POINT)
    k12 = external(constant(POINT), constant(s1), left)
    yield k12, external(constant(s1), constant(POINT), right)
    yield k12, CellularSheaf(right, {}, {})
    sky = CellularSheaf(s1, {"0": single(0, 1)}, {})
    yield k12, external(sky, constant(POINT), right)


def _fiber_order_kernel_pairs():
    """Seeded kernels whose fibers stack in an order the small factors do not
    show: factors that are products themselves, as compose_tk passes them,
    and the middle factor circle(12), whose cell ids sort as strings ("10"
    before "2")."""
    rng = random.Random(22)
    square, _, _ = product(interval(), interval())
    for m1, m2, m3 in [(square, interval(), interval()),
                       (interval(), square, hollow_triangle()),
                       (interval(), circle(12), interval()),
                       (square, circle(12), POINT)]:
        p12, _, _ = product(m1, m2)
        p23, _, _ = product(m2, m3)
        yield (_with_constant(rng, p12),
               random_sheaf(rng, p23, max_pieces=2, degree_range=(0, 1)))


def test_kernel_compose_equals_pullback_tensor_pushforward():
    """The one-pass composition is the same sheaf, restriction for
    restriction, as pushing forward the tensor of the pullbacks."""
    nonzero_res = 0
    for k12, k23 in [*_random_kernel_pairs(), *_flanked_kernel_pairs(),
                     *_fiber_order_kernel_pairs()]:
        got = kernel_compose(k12, k23)
        q13, on_t = _pulled_back_tensor(k12, k23)
        want = pushforward(q13, on_t)
        assert got.base.same_as(want.base)
        assert all(a.same_as(b) for a, b in zip(factors_of(got.base), factors_of(want.base)))
        assert got.stalks == want.stalks
        assert got.restrictions == want.restrictions
        nonzero_res += len(got.restrictions)
    assert nonzero_res > 100


def test_kernel_compose_keeps_cohomology_ranks():
    """dim H^k(M1 x M3; K12 o K23) = dim H^k(T; q12^*K12 (x) q23^*K23): a
    direct image keeps global cohomology.  Unlike the mueu identities this
    sees the restrictions of the composition."""
    nonzero = 0
    for k12, k23 in _random_kernel_pairs():
        got = homology_ranks(global_sections(kernel_compose(k12, k23)))
        assert got == homology_ranks(global_sections(_pulled_back_tensor(k12, k23)[1]))
        nonzero += bool(got)
    assert nonzero >= 6


def _whole_and_star_sky(rng, cx):
    """A sky piece on every cell plus one on the open star of a random
    vertex, each slot conjugated: one stalk object per pattern of pieces."""
    ids = cx.cell_ids()
    pieces = [(SKY, frozenset(up), rng.randint(-1, 1),
               {c: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                for c in ids})
              for up in (ids, cx.star(rng.choice(cx.cells_of_dim(0))))]
    probe = PieceSheaf(cx, pieces, {})
    conj = {(c, n): random_invertible(rng, d)
            for c, v in probe.sheaf.stalks.items() for n, d in v.dims.items()}
    return PieceSheaf(cx, pieces, conj).sheaf


def test_kernel_compose_shares_one_restriction_per_step_and_stalks():
    """A step in a depends on c only through the stalks K23(b, c) along M2,
    and a step in c on a only through the stalks K12(a, b): the pairs with
    one (kind, step, the other side's stalk objects) share one dict, and
    no two such keys share one."""
    rng = random.Random(42)
    mid = circle(8)
    k12 = _whole_and_star_sky(rng, product(hollow_triangle(), mid)[0])
    k23 = _whole_and_star_sky(rng, product(mid, hollow_triangle())[0])
    along12, along23 = {}, {}
    for (a, b), u in k12.stalks.items():
        along12.setdefault(a, set()).add((b, id(u)))
    for (b, c), v in k23.stalks.items():
        along23.setdefault(c, set()).add((b, id(v)))
    got = kernel_compose(k12, k23)
    by_key = {}
    for ((a, c), (a2, c2)), phi in got.restrictions.items():
        key = (("a", a, a2, frozenset(along23[c])) if c == c2
               else ("c", c, c2, frozenset(along12[a])))
        by_key.setdefault(key, set()).add(id(phi))
    assert all(len(ids) == 1 for ids in by_key.values())
    assert len({id(phi) for phi in got.restrictions.values()}) == len(by_key)
    assert {key[0] for key in by_key} == {"a", "c"}
    assert len(by_key) < 0.7 * len(got.restrictions)
    q13, on_t = _pulled_back_tensor(k12, k23)
    want = pushforward(q13, on_t)
    assert got.stalks == want.stalks
    assert got.restrictions == want.restrictions


def test_kernel_compose_of_a_kernel_with_itself():
    """K o K on M x M, where both kernels hold the same stalk objects, so a
    step in a and a step in c meet equal cells and equal stalks: the
    composition is still the pushforward of the tensor of the pullbacks,
    restriction for restriction."""
    rng = random.Random(43)
    kernels = 0
    for m in (interval(), hollow_triangle(), circle(4)):
        mm = product(m, m)[0]
        sky = PieceSheaf(mm, [(SKY, random_upset(rng, mm), rng.randint(-1, 1),
                               {c: Fraction(rng.choice([1, -2, 3])) for c in mm.cell_ids()})
                              for _ in range(2)], {}).sheaf
        for k in (constant(mm), sky):
            got = kernel_compose(k, k)
            q13, on_t = _pulled_back_tensor(k, k)
            want = pushforward(q13, on_t)
            assert got.stalks == want.stalks
            assert got.restrictions == want.restrictions
            kernels += bool(got.restrictions)
    assert kernels == 6


def test_euler_rhom():
    assert euler_rhom(constant(interval()), constant(interval())) == 1
    assert euler_rhom(constant(hollow_triangle()), constant(hollow_triangle())) == 0
    t = constant(tetra_boundary())
    assert euler_rhom(t, t) == 2


def _external_pairs():
    """Seeded sheaves on two different random complexes."""
    rng = random.Random(30)
    for _ in range(20):
        a = random_complex(rng, max_dim=2, max_vertices=5, max_cells=14)
        b = random_complex(rng, max_dim=1, max_vertices=4, max_cells=9)
        yield (random_piece_sheaf(rng, a, max_pieces=2).sheaf,
               random_sheaf(rng, b, max_pieces=2, degree_range=(-1, 1)))


def test_external_equals_tensor_of_pullbacks():
    """external(F, G) is p1^*F (x) p2^*G, restriction for restriction."""
    nonzero_res = 0
    for f, g in _external_pairs():
        got = external(f, g)
        prod, p1, p2 = product(f.base, g.base)
        want = tensor_sheaf(pullback(p1, f), pullback(p2, g))
        assert got.base.same_as(prod)
        assert got.stalks == want.stalks
        assert got.restrictions == want.restrictions
        nonzero_res += len(got.restrictions)
    assert nonzero_res > 100


def _with_constant(rng, cx):
    """A random sheaf plus the constant sheaf, so that most pairs restrict."""
    return direct_sum_sheaf(constant(cx), random_sheaf(rng, cx, max_pieces=2,
                                                       degree_range=(-1, 1)))


def _tensor_outputs():
    """Seeded outputs of tensor_sheaf, external, kernel_compose, and
    _pulled_tensor of two trace kernels' sheaves on product(M12, M12) in the
    basis order K1(a, b) (x) K2(c, d) of the stalk at ((a, c), (b, d)), at
    twists 0 and 1."""
    rng = random.Random(31)
    for cx in [full_simplex(2), circle(5), torus7(), tetra_boundary()] * 5:
        yield tensor_sheaf(_with_constant(rng, cx), _with_constant(rng, cx))
    for f, g in _external_pairs():
        yield external(f, g)
    for k12, k23 in [*_random_kernel_pairs(), *_flanked_kernel_pairs()]:
        yield kernel_compose(k12, k23)
    rng = random.Random(32)
    for cx in [POINT, interval(), hollow_triangle()] * 5:
        k1, k2 = (tk(random_sheaf(rng, m, max_pieces=2, degree_range=(-1, 1)))
                  for m in (cx, interval()))
        m12 = _product_complex(k1.base, k2.base)
        for d in (0, 1):
            yield _pulled_tensor(_product_complex(m12, m12), shift_twist(k1, d).sheaf(),
                                 shift_twist(k2, d).sheaf(),
                                 lambda x: (x[0][0], x[1][0]), lambda x: (x[0][1], x[1][1]))


TENSOR_DIGEST = "91466170edd2916426187e11eaa7a8738471724c6f7ba3fa1f43117f0f504611"


def test_tensor_outputs_digest_is_pinned():
    h = hashlib.sha256()
    for sheaf in _tensor_outputs():
        h.update(json.dumps(describe_sheaf(sheaf), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == TENSOR_DIGEST


def _placement_outputs():
    """Seeded outputs of the builders that place blocks between layouts:
    pushforward along random_cellular_map, direct_sum_sheaf, total_complex
    of a chain endomorphism's two-column grid, and the induced endomorphism
    of a Lefschetz instance.  A random_morphism is drawn after each pair of
    piece sheaves only to keep the later draws of the pinned stream."""
    rng = random.Random(33)
    for _ in range(40):
        cx = random_complex(rng, max_dim=2, max_vertices=6, max_cells=16)
        f = random_cellular_map(rng, cx)
        yield describe_sheaf(pushforward(f, random_sheaf(rng, f.source, max_pieces=2)))
        src = random_piece_sheaf(rng, cx, max_pieces=2)
        tgt = random_piece_sheaf(rng, cx, max_pieces=2)
        random_morphism(rng, src, tgt)
        yield describe_sheaf(direct_sum_sheaf(src.sheaf, tgt.sheaf))
    for _ in range(30):
        v = random_vect_complex(rng)
        phi, _ = random_chain_endo(rng, v)
        yield describe_vect_complex(total_complex({0: v, 1: v},
                                                  {(0, n): m for n, m in phi.items()}))
    for _ in range(20):
        vc, phi = _induced_endo(random_lefschetz_instance(rng))
        yield [describe_vect_complex(vc), {str(n): fmt_matrix(m) for n, m in sorted(phi.items())}]


# sha256 of _placement_outputs(); a change to any placed entry changes it
PLACEMENT_DIGEST = "7f897a13710ef0ad63f49855271619f58e12916ae6814908c5a9cf5b6715f53c"


def test_placement_outputs_digest_is_pinned():
    h = hashlib.sha256()
    for item in _placement_outputs():
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == PLACEMENT_DIGEST
