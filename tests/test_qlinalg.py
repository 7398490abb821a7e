import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conormal.qlinalg import (Matrix, VectComplex, LinAlgError, rank, rref,
                              kernel_basis, solve_unique, euler,
                              homology_ranks, shift, dual, direct_sum, tensor,
                              single, total_complex, is_chain_map,
                              compose_chain_maps, identity_chain_map,
                              trace_endo, cohomology_trace, layout,
                              graded_map)
from conormal.randgen import (random_vect_complex, random_chain_endo,
                              random_invertible, _rand_rational,
                              random_complex, random_sheaf)
from conormal.sheaf import global_sections


def M(rows):
    return Matrix.from_rows([[Fraction(x) for x in r] for r in rows])


def test_matrix_arithmetic():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a * b == M([[2, 1], [4, 3]])
    assert (a + b) - b == a
    assert a.scale(Fraction(1, 2)) == M([["1/2", 1], ["3/2", 2]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    assert a.trace() == 5


def test_kron_mixed_shapes():
    a = M([[1, 2]])
    b = M([[1], [3]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (2, 2)
    assert k == M([[1, 2], [3, 6]])


def test_rank_exact():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[1, 2], [2, 5]])) == 2
    assert rank(Matrix.zeros(3, 2)) == 0
    assert rank(Matrix.zeros(0, 4)) == rank(Matrix.zeros(4, 0)) == 0
    # no unit entry: the elimination needs non-unit pivots
    assert rank(M([[2, 4, 6], [3, 6, 9], [6, 10, 14]])) == 2
    # entries engineered to break floating point pivoting
    tiny = Fraction(1, 10 ** 40)
    assert rank(M([[tiny, 1], [1, 10 ** 40]])) == 1  # det is exactly zero
    assert rank(M([[tiny, 1], [1, 2 * 10 ** 40]])) == 2


def test_rank_agrees_with_rref():
    rng = random.Random(5)
    for _ in range(50):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = Matrix(rows, cols,
                   [[_rand_rational(rng) if rng.random() < 0.5 else 0
                     for _ in range(cols)] for _ in range(rows)])
        r, pivots = rref(m)
        assert rank(m) == len(pivots)


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.builds(lambda n, d: Fraction(n, d),
              st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)))


@st.composite
def _matrices(draw, rows=None, cols=None):
    """Rational matrices up to 7x7, 0xn and nx0 included; low rank and
    zero rows and columns are common.  The shape is drawn unless given."""
    if rows is None:
        rows = draw(st.integers(0, 7))
    if cols is None:
        cols = draw(st.integers(0, 7))
    low_rank = draw(st.booleans()) and rows and cols
    if low_rank:
        k = draw(st.integers(1, 3))
        a = [[draw(_ENTRIES) for _ in range(k)] for _ in range(rows)]
        b = [[draw(_ENTRIES) for _ in range(cols)] for _ in range(k)]
    else:
        a = [[draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]
        b = a
    # a zero row of a * b is a zero row of a, a zero column one of b
    for i in draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        a[i] = [Fraction(0)] * len(a[i])
    for j in draw(st.sets(st.integers(0, cols - 1))) if cols else ():
        for row in b:
            row[j] = Fraction(0)
    if low_rank:
        return Matrix(rows, len(b), a) * Matrix(len(b), cols, b)
    return Matrix(rows, cols, a)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rank_agrees_with_rref_property(m):
    assert rank(m) == len(rref(m)[1])


def _dense(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _agrees(m, ref, rows, cols):
    """m has the given shape and the entries of the dense reference, and
    stores no zero: equality with a matrix built from the dense rows
    compares the stored entries."""
    assert (m.rows, m.cols) == (rows, cols)
    assert _dense(m) == ref
    assert m == Matrix(rows, cols, ref)
    assert m.is_zero() == all(x == 0 for row in ref for x in row)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_operations_agree_with_dense_reference(data):
    a = data.draw(_matrices())
    b = data.draw(_matrices(a.rows, a.cols))
    c = data.draw(_matrices(a.cols))
    q = data.draw(_ENTRIES)
    A, B, C = _dense(a), _dense(b), _dense(c)
    r, n, k = a.rows, a.cols, c.cols
    _agrees(a + b, [[x + y for x, y in zip(u, v)] for u, v in zip(A, B)], r, n)
    _agrees(a - a, [[0] * n for _ in range(r)], r, n)
    _agrees(a.scale(q), [[q * x for x in u] for u in A], r, n)
    _agrees(a.transpose(), [[A[i][j] for i in range(r)] for j in range(n)], n, r)
    _agrees(a * c, [[sum((A[i][t] * C[t][j] for t in range(n)), Fraction(0))
                     for j in range(k)] for i in range(r)], r, k)
    _agrees(a.kron(c), [[A[i // n][j // k] * C[i % n][j % k]
                         for j in range(n * k)] for i in range(r * n)], r * n, n * k)
    # overlapping blocks add up; a block with a -1 sign is subtracted
    rows = data.draw(st.integers(max(r, n), 9))
    cols = data.draw(st.integers(max(n, k), 9))
    blocks = [(data.draw(st.integers(0, rows - blk.rows)),
               data.draw(st.integers(0, cols - blk.cols)), blk,
               *data.draw(st.sampled_from([(), (1,), (-1,)])))
              for blk in (a, b, c, a.scale(q))]
    ref = [[Fraction(0)] * cols for _ in range(rows)]
    for r0, c0, blk, *sign in blocks:
        for i, row in enumerate(_dense(blk)):
            for j, x in enumerate(row):
                ref[r0 + i][c0 + j] += -x if sign == [-1] else x
    _agrees(Matrix.assemble(rows, cols, blocks), ref, rows, cols)


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.integers(0, 3), st.integers(0, 3))
def test_assemble_cancelling_blocks_is_zero(m, r0, c0):
    rows, cols = m.rows + r0, m.cols + c0
    zero = Matrix.zeros(rows, cols)
    for blocks in ([(r0, c0, m), (0, 0, zero), (r0, c0, m.scale(-1))],
                   [(r0, c0, m, -1), (0, 0, zero, 1), (r0, c0, m)]):
        out = Matrix.assemble(rows, cols, blocks)
        assert out.is_zero()
        assert out == Matrix(rows, cols)


def test_assemble_rejects_blocks_out_of_range():
    with pytest.raises(LinAlgError, match="block out of range"):
        Matrix.assemble(2, 2, [(1, 0, Matrix.identity(2))])
    with pytest.raises(LinAlgError, match="sign"):
        Matrix.assemble(2, 2, [(0, 0, Matrix.identity(2), 2)])


def test_layout_and_graded_map_by_hand():
    # degree 0 holds a (dim 1) and then b (dim 2); degree 1 holds c (dim 1)
    lay = layout([("a", 0, 1), ("b", 0, 2), ("c", 1, 1)])
    assert lay == ({0: 3, 1: 1}, {"a": (0, 0), "b": (0, 1), "c": (1, 0)})
    d = graded_map(lay, lay, [("a", "c", M([[2]]), 1), ("b", "c", M([[1, 3]]), -1)])
    assert d == {0: M([[2, -1, -3]])}
    # arrows into one place add; a degree whose matrix cancels is left out
    assert graded_map(lay, lay, [("a", "c", M([[2]]), 1), ("a", "c", M([[2]]), -1)]) == {}
    with pytest.raises(LinAlgError, match="land in degrees"):
        graded_map(lay, lay, [("a", "c", M([[1]]), 1), ("b", "a", M([[1, 1]]), 1)])


def test_kernel_and_solve():
    m = M([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert (m * Matrix.column(v)).is_zero()
    a = M([[2, 1], [1, 1]])
    x = solve_unique(a, M([[3], [2]]))
    assert a * x == M([[3], [2]])


def test_inverse_roundtrip():
    rng = random.Random(9)
    for n in (1, 2, 3, 4):
        m = random_invertible(rng, n)
        inv = solve_unique(m, Matrix.identity(n))
        assert m * inv == Matrix.identity(n)


def test_vect_complex_check():
    good = VectComplex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    good.check()
    bad = VectComplex({0: 1, 1: 1, 2: 1},
                      {0: Matrix.identity(1), 1: Matrix.identity(1)})
    with pytest.raises(LinAlgError):
        bad.check()


def test_euler_and_homology_circle():
    # cochain complex of the circle with three vertices and edges
    d = M([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
    v = VectComplex({0: 3, 1: 3}, {0: d})
    assert euler(v) == 0
    assert homology_ranks(v) == {0: 1, 1: 1}


def test_euler_negative_degrees_are_integers():
    v = VectComplex({-1: 2, 0: 1})
    assert euler(v) == -1
    assert isinstance(euler(v), int)


def test_shift_dual_tensor_euler():
    rng = random.Random(11)
    for _ in range(25):
        a = random_vect_complex(rng)
        b = random_vect_complex(rng)
        k = rng.randint(-2, 2)
        shift(a, k).check()
        dual(a).check()
        tensor(a, b).check()
        assert euler(shift(a, k)) == (-1 if k % 2 else 1) * euler(a)
        assert euler(dual(a)) == euler(a)
        assert euler(tensor(a, b)) == euler(a) * euler(b)
        assert euler(direct_sum(a, b)) == euler(a) + euler(b)


def test_tensor_homology_kuenneth_sample():
    circle = VectComplex({0: 3, 1: 3},
                         {0: M([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])})
    torus_like = tensor(circle, circle)
    torus_like.check()
    assert homology_ranks(torus_like) == {0: 1, 1: 2, 2: 1}


def test_shift_is_involutive_on_squares():
    v = single(0, 2)
    assert shift(shift(v, 1), -1).dims == v.dims


def test_homotopy_invariance_of_traces():
    """c*id + dh + hd has cochain trace c*chi and the same trace on
    cohomology; both routes must agree."""
    rng = random.Random(23)
    for _ in range(30):
        v = random_vect_complex(rng)
        phi, c = random_chain_endo(rng, v)
        assert is_chain_map(v, v, phi)
        t1 = trace_endo(phi, v)
        t2 = cohomology_trace(phi, v)
        assert t1 == t2 == c * euler(v)


def test_cohomology_trace_is_hopf_trace_on_sections_complexes():
    """Hopf trace formula on sections complexes of random sheaves, whose
    differentials are dense rationals with kernels and images."""
    rng = random.Random(29)
    for _ in range(20):
        cx = random_complex(rng, max_dim=2, max_vertices=6, max_cells=25)
        v = global_sections(random_sheaf(rng, cx, max_pieces=2))
        phi, c = random_chain_endo(rng, v)
        assert cohomology_trace(phi, v) == trace_endo(phi, v) == c * euler(v)


def test_compose_identity_chain_maps():
    v = VectComplex({0: 2, 1: 1}, {0: M([[1, 0]])})
    i = identity_chain_map(v)
    assert compose_chain_maps(i, i)[0] == Matrix.identity(2)


def test_total_complex_square():
    # two-column double complex: identity horizontal map between two
    # copies of a two-term complex
    col = VectComplex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    horizontal = {(0, n): Matrix.identity(1) for n in (0, 1)}
    tot = total_complex({0: col, 1: col}, horizontal)
    tot.check()
    assert euler(tot) == 0
    assert homology_ranks(tot) == {}
