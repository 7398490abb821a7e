import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conormal.qlinalg import (Matrix, VectComplex, LinAlgError, rank, rref,
                              kernel_basis, solve_unique, euler,
                              homology_ranks, shift, dual, direct_sum, tensor,
                              single, total_complex, is_chain_map,
                              compose_chain_maps, identity_chain_map,
                              trace_endo, cohomology_trace)
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
def _matrices(draw):
    """Rational matrices up to 7x7, 0xn and nx0 included; low rank and
    zero rows and columns are common."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if draw(st.booleans()) and rows and cols:
        k = draw(st.integers(1, 3))
        a = Matrix(rows, k, [[draw(_ENTRIES) for _ in range(k)] for _ in range(rows)])
        b = Matrix(k, cols, [[draw(_ENTRIES) for _ in range(cols)] for _ in range(k)])
        m = a * b
    else:
        m = Matrix(rows, cols, [[draw(_ENTRIES) for _ in range(cols)]
                                for _ in range(rows)])
    for i in draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        m.data[i] = [Fraction(0)] * cols
    for j in draw(st.sets(st.integers(0, cols - 1))) if cols else ():
        for row in m.data:
            row[j] = Fraction(0)
    return m


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rank_agrees_with_rref_property(m):
    assert rank(m) == len(rref(m)[1])


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
