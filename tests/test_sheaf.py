import hashlib
import json
import random
from fractions import Fraction

import pytest

from conormal.cellcx import (POINT, product, identity_map, collapse_to_point, CellularMap,
                             factors_of, projections, product_map, _product_complex)
from conormal.qlinalg import (Matrix, VectComplex, LinAlgError, euler,
                              homology_ranks, single, compose_chain_maps,
                              dual, graded_map, total_complex)
from conormal.sheaf import (CellularSheaf, SheafError, PushforwardError,
                            SheafMorphism, constant, zero_sheaf,
                            global_sections, euler_char, shift_sheaf,
                            direct_sum_sheaf, tensor_sheaf, external, pullback,
                            pushforward, extend_by_zero, verdier_dual,
                            mapping_cone, kernel_compose, euler_rhom,
                            sections, _pulled_tensor)
from conormal.randgen import (interval, hollow_triangle, full_simplex,
                              tetra_boundary, torus7, circle, random_complex,
                              random_piece_sheaf, random_sheaf,
                              random_morphism, random_cellular_map,
                              random_vertex_collapse,
                              random_vect_complex, random_chain_endo,
                              random_lefschetz_instance, PieceSheaf, SKY, ACYC)
from conormal.tracekernel import tk, shift_twist
from conormal.io import describe_sheaf, describe_vect_complex, fmt_matrix
from conormal.lefschetz import _induced_endo


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
    assert euler_char(zero_sheaf(torus7())) == 0


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


def test_tensor_and_external_chi():
    rng = random.Random(17)
    for _ in range(10):
        cx = random_complex(rng, max_dim=2, max_cells=15)
        f = random_sheaf(rng, cx, max_pieces=2)
        g = random_sheaf(rng, cx, max_pieces=2)
        t = tensor_sheaf(f, g)
        for c in t.support():
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
    by graded_map."""
    nonzero_res = 0
    for f in _dual_inputs():
        base = f.base
        got = verdier_dual(f)
        star = {c: sections(f, base.star(c), base.dim) for c in base.cell_ids()}
        assert got.stalks == {c: dual(vc) for c, (vc, _) in star.items() if not vc.is_zero()}
        want = {}
        for t, s in base.incidence_pairs():
            if s in got.stalks and t in got.stalks:
                (vc_s, idx_s), (vc_t, idx_t) = star[s], star[t]
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
        cone = mapping_cone(alpha)
        assert cone.validate() == []
        assert euler_char(cone) == euler_char(tgt.sheaf) - euler_char(src.sheaf)


def test_operations_do_not_write_to_their_inputs():
    """A piece sheaf shares one 1x1 Matrix among its equal blocks and the
    constant sheaf one [[1]] among its restrictions, which is safe because
    no operation writes to the matrices of its inputs: describe_sheaf of
    every input is the same after each operation as before."""
    rng = random.Random(36)
    factors = [interval(), hollow_triangle(), circle(4)]
    shared = 0
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
                    lambda: mapping_cone(alpha),
                    lambda: homology_ranks(global_sections(bare.sheaf)),
                    lambda: homology_ranks(global_sections(ps.sheaf))]:
            run()
            assert [describe_sheaf(f) for f in inputs] == before
            assert {str(c): {n: fmt_matrix(m) for n, m in phi.items()}
                    for c, phi in alpha.components.items()} == components
        blocks = [m for phi in k23.restrictions.values() for m in phi.values()]
        shared += len(blocks) - len({id(m) for m in blocks})
    assert shared > 0
    assert len({id(phi[0]) for phi in constant(torus7()).restrictions.values()}) == 1


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


def test_cone_of_identity_is_acyclic():
    f = constant(hollow_triangle())
    ident = SheafMorphism(f, f, {c: {0: Matrix.identity(1)}
                                 for c in f.base.cell_ids()})
    cone = mapping_cone(ident)
    assert euler_char(cone) == 0
    assert homology_ranks(global_sections(cone)) == {}


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
    k = kernel_compose(k12, zero_sheaf(right))
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
    yield k12, zero_sheaf(right)
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
    pushforward along random_cellular_map, mapping_cone of random_morphism,
    direct_sum_sheaf, total_complex of a chain endomorphism's two-column
    grid, and the induced endomorphism of a Lefschetz instance."""
    rng = random.Random(33)
    for _ in range(40):
        cx = random_complex(rng, max_dim=2, max_vertices=6, max_cells=16)
        f = random_cellular_map(rng, cx)
        yield describe_sheaf(pushforward(f, random_sheaf(rng, f.source, max_pieces=2)))
        src = random_piece_sheaf(rng, cx, max_pieces=2)
        tgt = random_piece_sheaf(rng, cx, max_pieces=2)
        yield describe_sheaf(mapping_cone(random_morphism(rng, src, tgt)))
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
PLACEMENT_DIGEST = "1e98f59bf4ec0d75c14ed63b357b4257c86311df43e278c9785cefaf27ef029e"


def test_placement_outputs_digest_is_pinned():
    h = hashlib.sha256()
    for item in _placement_outputs():
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == PLACEMENT_DIGEST
