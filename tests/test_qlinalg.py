import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conormal.qlinalg import (Matrix, VectComplex, LinAlgError, rank, rref,
                              kernel_basis, solve_unique, euler,
                              homology_ranks, shift, dual, direct_sum, tensor,
                              single, total_complex, is_chain_map,
                              compose_chain_maps, identity_chain_map,
                              cohomology_trace, tensor_layout, tensor_chain_maps,
                              _pivot_columns, _pivot_rows, _int_rows, _add_block)
from conormal.cellcx import product
from conormal.randgen import (random_vect_complex,
                              random_invertible, _rand_rational,
                              random_complex, random_sheaf, interval,
                              hollow_triangle, circle, random_lefschetz_instance)
from conormal.sheaf import (global_sections, verdier_dual, tensor_sheaf, kernel_compose,
                            constant)
from conormal.lefschetz import _induced_endo
from generators import random_chain_endo, layout, graded_map


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


def test_matrix_indexing_rejects_rows_and_columns_out_of_range():
    m = M([[1, 2], [3, 4]])
    for ij in [(-1, 0), (2, 0), (0, -1), (0, 2)]:
        with pytest.raises(IndexError):
            m[ij]
        with pytest.raises(IndexError):
            m[ij] = 5
    assert m == M([[1, 2], [3, 4]])
    m[1, 0] = 0
    m[0, 1] = 7
    assert m == M([[1, 7], [0, 4]])


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


def _sparse_matrices(seed, count, density=0.05):
    """Seeded sparse matrices of 40-80 rows and columns, about the given
    share of the entries nonzero (5 % by default), each in
    {+-1, +-2, 3, 1/2}: big enough that a row is reduced against many
    pivot rows and fills in before it is kept.  Four rows, shuffled in,
    are a row plus a multiple of another, so the rank is not read off the
    zero pattern alone."""
    rng = random.Random(seed)
    values = [1, -1, 2, -2, 3, Fraction(1, 2)]
    for _ in range(count):
        rows, cols = rng.randint(40, 80), rng.randint(40, 80)
        data = [[rng.choice(values) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows - 4)]
        for _ in range(4):
            a, b = rng.sample(data, 2)
            c = rng.choice(values)
            data.append([x + c * y for x, y in zip(a, b)])
        rng.shuffle(data)
        yield Matrix(rows, cols, data)


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
    for m in _sparse_matrices(7, 6):
        assert rank(m) == len(rref(m)[1])
    # most rows of 12 or more entries before any fill-in: the complexes the
    # program ranks have shorter rows, so only these see how long rows go
    for m in _sparse_matrices(11, 2, density=0.2):
        assert 2 * sum(len(row) >= 12 for row in m.data) > m.rows
        assert rank(m) == len(rref(m)[1])


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


def _assert_reduced_basis(m):
    """_pivot_rows(m) is a reduced basis of the row space of m: each row
    is 1 at its own pivot and 0 at the others, and stacked with the rows
    of rref(m), the independent Gauss-Jordan reference, the rank stays
    the rank of m."""
    rows = _pivot_rows(m)
    for p, r in rows.items():
        assert r[p] == 1 and r.keys() & rows.keys() == {p}
    ref, pivots = rref(m)
    both = Matrix(len(rows) + len(pivots), m.cols)
    both.data = [dict(r) for r in rows.values()] + [dict(r) for r in ref.data[:len(pivots)]]
    assert len(rows) == len(pivots) == len(rref(both)[1])


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rank_agrees_with_rref_property(m):
    assert rank(m) == len(rref(m)[1])
    _assert_reduced_basis(m)


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
    # identities (I_0 included) and near-identities as either factor
    e = data.draw(_kron_factors())
    for x, y in ((a, e), (e, a), (e, e)):
        X, Y = _dense(x), _dense(y)
        _agrees(x.kron(y), _kron_ref(X, Y, y.rows, y.cols),
                x.rows * y.rows, x.cols * y.cols)
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


def _kron_ref(X, Y, yr, yc):
    """Dense Kronecker product of dense X and a dense yr x yc Y."""
    return [[X[i // yr][j // yc] * Y[i % yr][j % yc]
             for j in range(len(X[0]) * yc if X else 0)] for i in range(len(X) * yr)]


@st.composite
def _kron_factors(draw):
    """Matrices, identities (I_0 included) and near-identities: a scaled
    identity, or one with an entry added or removed."""
    kind = draw(st.sampled_from(["matrix", "identity", "near"]))
    if kind == "matrix":
        return draw(_matrices())
    n = draw(st.integers(0 if kind == "identity" else 1, 4))
    m = Matrix.identity(n)
    if kind == "near":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i, j] = draw(st.sampled_from([Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 3)]))
    return m


@st.composite
def _complexes(draw, differentials=True):
    """VectComplexes in degrees -1..2 with pieces of dimension 0 to 3; the
    differentials sit on degrees no two of which are consecutive, so
    d^2 = 0, and have non-unit and zero entries."""
    dims = {n: draw(st.integers(0, 3)) for n in range(-1, 3)}
    diffs = {}
    for n in range(-1, 2):
        if differentials and n - 1 not in diffs and draw(st.booleans()):
            diffs[n] = draw(_matrices(dims[n + 1], dims[n]))
    return VectComplex(dims, diffs)


@st.composite
def _chain_maps(draw):
    """(a, a', phi) with phi : a -> a' a degree-0 chain map whose
    components are identities (as Matrices or as ints), or not.  Either
    a' = a and phi is an identity or c * id + dh + hd, or a and a' have
    no differential and phi is any graded map, identities where the
    dimensions agree."""
    if draw(st.booleans()):
        a = draw(_complexes())
        kind = draw(st.sampled_from(["identity", "dims", "homotopy"]))
        if kind == "identity":
            return a, a, identity_chain_map(a)
        if kind == "dims":
            return a, a, dict(a.dims)
        c = draw(_ENTRIES)
        h = {n: draw(_matrices(a.dim(n - 1), a.dim(n))) for n in a.dims}
        phi = {}
        for n, d in a.dims.items():
            m = Matrix.identity(d).scale(c)
            if n - 1 in a.diffs:
                m = m + a.diffs[n - 1] * h[n]
            if n + 1 in h and n in a.diffs:
                m = m + h[n + 1] * a.diffs[n]
            phi[n] = m
        return a, a, phi
    a, a2 = draw(_complexes(False)), draw(_complexes(False))
    phi = {}
    for n in set(a.dims) & set(a2.dims):
        same = a.dim(n) == a2.dim(n)
        kind = draw(st.sampled_from(["identity", "dims", "matrix"] if same else ["matrix"]))
        phi[n] = (Matrix.identity(a.dim(n)) if kind == "identity" else
                  a.dim(n) if kind == "dims" else draw(_matrices(a2.dim(n), a.dim(n))))
    return a, a2, phi


def _tensor_offsets(a, b):
    """(dims, offsets) of a (x) b: piece (p, q) sits in degree p + q at
    offsets[(p, q)], the pieces of a degree ordered by p."""
    dims, offsets = {}, {}
    for p in sorted(a.dims):
        for q in sorted(b.dims):
            offsets[(p, q)] = dims.get(p + q, 0)
            dims[p + q] = offsets[(p, q)] + a.dims[p] * b.dims[q]
    return dims, offsets


def _dense_component(chi, n, rows, cols):
    m = chi.get(n, 0)
    if isinstance(m, int):
        return [[Fraction(int(i == j and m > 0)) for j in range(cols)] for i in range(rows)]
    return _dense(m)


def _place_dense(ref, r0, c0, X, Y, yr, yc, sign=1):
    for i, row in enumerate(_kron_ref(X, Y, yr, yc)):
        for j, x in enumerate(row):
            ref[r0 + i][c0 + j] += sign * x


def _agrees_graded(out, ref):
    """A per-degree map equals the dense reference, with its zero degrees
    left out and no zero stored."""
    nonzero = {n for n, m in ref.items() if any(x for row in m for x in row)}
    assert set(out) == nonzero
    for n in nonzero:
        _agrees(out[n], ref[n], len(ref[n]), len(ref[n][0]))


@settings(max_examples=150, deadline=None)
@given(_chain_maps(), _chain_maps())
def test_tensor_placement_agrees_with_dense_reference(first, second):
    (a, a2, phi), (b, b2, psi) = first, second
    sdims, soff = _tensor_offsets(a, b)
    tdims, toff = _tensor_offsets(a2, b2)
    ref = {n: [[Fraction(0)] * d for _ in range(tdims.get(n, 0))] for n, d in sdims.items()}
    for (p, q), c0 in soff.items():
        if (p, q) in toff:
            _place_dense(ref[p + q], toff[(p, q)], c0,
                   _dense_component(phi, p, a2.dim(p), a.dim(p)),
                   _dense_component(psi, q, b2.dim(q), b.dim(q)), b2.dim(q), b.dim(q))
    out = tensor_chain_maps(phi, psi, tensor_layout(a, b), tensor_layout(a2, b2))
    _agrees_graded(out, ref)
    if a is a2 and b is b2:
        assert is_chain_map(tensor(a, b), tensor(a, b), out)
    # the Koszul differential d (x) 1 + (-1)^p 1 (x) d of tensor(a, b)
    ref = {n: [[Fraction(0)] * d for _ in range(sdims.get(n + 1, 0))] for n, d in sdims.items()}
    for (p, q), c0 in soff.items():
        da, db, n = a.diffs.get(p), b.diffs.get(q), p + q
        if da is not None and not da.is_zero():
            _place_dense(ref[n], soff[(p + 1, q)], c0, _dense(da),
                   _dense(Matrix.identity(b.dim(q))), b.dim(q), b.dim(q))
        if db is not None and not db.is_zero():
            _place_dense(ref[n], soff[(p, q + 1)], c0, _dense(Matrix.identity(a.dim(p))),
                   _dense(db), db.rows, db.cols, -1 if p % 2 else 1)
    t = tensor(a, b)
    assert t.dims == sdims
    _agrees_graded(t.diffs, ref)
    t.check()


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


def test_add_block_rejects_blocks_out_of_range():
    """_add_block raises, and writes nothing, for a block that starts at a
    negative offset or runs past the last row or column, on the scalar
    path (1x1 (x) I_1, I_1 (x) I_1) and on the row path (1x2 (x) I_1,
    I_1 (x) 2x1); a block that fits is added."""
    scalar = [(M([[5]]), 1), (1, 1)]
    rows = [(M([[1, 2]]), 1), (1, M([[1], [2]]))]
    outside = [(-1, 0), (0, -1), (-1, -1), (3, 0), (0, 3)]
    for (a, b), offsets in [(ab, outside) for ab in scalar] + [
            (ab, outside + [(2, 2)]) for ab in rows]:
        for sign in (1, -1):
            for r0, c0 in offsets:
                m = Matrix(3, 3)
                with pytest.raises(LinAlgError, match="block out of range"):
                    _add_block(m, r0, c0, a, b, sign)
                assert m.is_zero()
    m = Matrix(3, 3)
    _add_block(m, 1, 1, M([[1, 2]]), 1, -1)
    _add_block(m, 2, 2, M([[5]]), 1, -1)
    assert m == M([[0, 0, 0], [0, -1, -2], [0, 0, -5]])


def test_add_block_by_hand():
    # degree 0 holds a (dim 1) and then b (dim 2); degree 1 holds c (dim 1)
    dims, index = lay = layout([("a", 0, 1), ("b", 0, 2), ("c", 1, 1)])
    assert lay == ({0: 3, 1: 1}, {"a": (0, 0), "b": (0, 1), "c": (1, 0)})

    def d0(blocks):
        m = Matrix(dims[1], dims[0])
        for s, t, a, sign in blocks:
            _add_block(m, index[t][1], index[s][1], a, 1, sign)
        return m

    assert d0([("a", "c", M([[2]]), 1), ("b", "c", M([[1, 3]]), -1)]) == M([[2, -1, -3]])
    # blocks into one place add, and entries that cancel are dropped
    assert d0([("a", "c", M([[2]]), 1), ("a", "c", M([[2]]), -1)]).is_zero()


def _kron_factor(rng, rows, cols):
    """A random Kronecker factor of the given shape: the int n for I_n
    when square (sometimes), else a Matrix whose entries may be zero."""
    if rows == cols and rng.random() < 0.3:
        return rows
    return Matrix(rows, cols, [[rng.choice([0, 0, 1, -1, 2, Fraction(-1, 3)])
                                for _ in range(cols)] for _ in range(rows)])


def test_kron_map_agrees_with_kron_blocks_placed_by_assemble():
    """_add_block, with its one-entry scalar blocks, against Matrix.kron
    blocks placed by Matrix.assemble (the tests' graded_map), entry for
    entry.  Some blocks join the same two pieces twice, on the scalar path
    and on the row path: with a second random block, whose entries add, or
    with the opposite sign, so that the two blocks cancel."""
    rng = random.Random(41)
    again = random.Random(42)  # the second blocks, drawn apart from the rest

    def dims():
        # most pieces have dim 1, so most blocks are 1x1
        return [rng.choice([1, 1, 1, 2, 3, 4]) for _ in range(rng.randint(1, 4))]

    scalar = zero = wide = 0
    added, cancelled = {"scalar": 0, "rows": 0}, {"scalar": 0, "rows": 0}
    for _ in range(300):
        # source pieces in degrees 0 and 1, target pieces one degree up
        spieces = [(("s", n, k), n, d) for n in (0, 1) for k, d in enumerate(dims())]
        tpieces = [(("t", n + 1, k), n + 1, d) for n in (0, 1) for k, d in enumerate(dims())]
        src, tgt = layout(spieces), layout(tpieces)
        arrows = []
        for s, n, ds in spieces:
            for t, nt, dt in tpieces:
                if nt != n + 1 or rng.random() < 0.3:
                    continue
                ar = rng.choice([r for r in range(1, dt + 1) if dt % r == 0])
                ac = rng.choice([c for c in range(1, ds + 1) if ds % c == 0])
                a = _kron_factor(rng, ar, ac)
                b = _kron_factor(rng, dt // ar, ds // ac)
                sign = rng.choice([1, -1])
                arrows.append((s, t, a, b, sign))
                if dt == ds == 1:
                    scalar += 1
                    zero += any(isinstance(x, Matrix) and x.is_zero() for x in (a, b))
                elif dt == 1:
                    wide += 1  # shares its target row with the scalar blocks
                path = "scalar" if dt == ds == 1 else "rows"
                u = again.random()
                if u < 0.2:
                    arrows.append((s, t, a, b, -sign))
                    cancelled[path] += 1
                elif u < 0.4:
                    ar = again.choice([r for r in range(1, dt + 1) if dt % r == 0])
                    ac = again.choice([c for c in range(1, ds + 1) if ds % c == 0])
                    arrows.append((s, t, _kron_factor(again, ar, ac),
                                   _kron_factor(again, dt // ar, ds // ac), again.choice([1, -1])))
                    added[path] += 1
        got = {n: Matrix(tgt[0][n + 1], d) for n, d in src[0].items()}
        for s, t, a, b, sign in arrows:
            n, c0 = src[1][s]
            _add_block(got[n], tgt[1][t][1], c0, a, b, sign)
        assert {n: m for n, m in got.items() if not m.is_zero()} == graded_map(src, tgt, arrows)
    assert scalar > 500 and zero > 100 and wide > 100
    assert min(added.values()) > 100 and min(cancelled.values()) > 100, (added, cancelled)


def test_kron_map_checks_scalar_blocks_and_degrees():
    """Scalar blocks in successive degrees: a 1x1 factor times I_1 with
    sign -1, I_1 (x) I_1, a zero factor that writes nothing, and a block
    into a degree of dimension 0 that does not fit."""
    one = M([[3]])
    d0, d1 = Matrix(1, 1), Matrix(1, 1)
    _add_block(d0, 0, 0, one, 1, -1)
    _add_block(d1, 0, 0, 1, 1, 1)
    assert (d0, d1) == (M([[-3]]), M([[1]]))
    m = Matrix(1, 1)
    _add_block(m, 0, 0, one, M([[0]]), 1)
    assert m.is_zero()
    with pytest.raises(LinAlgError, match="block out of range"):
        _add_block(Matrix(0, 1), 0, 0, 1, 1, 1)


def test_add_block_never_stores_a_factor_row():
    """A block whose b is the int 1 is added from a's own rows, so the
    output must hold copies: into empty rows and into rows another block
    already wrote, with either sign, no output row is a row of a factor,
    and clearing every output row leaves each factor as it was."""
    rng = random.Random(14)
    # columns: a (dim 3) then b (dim 2); rows: c (dim 2) then d (dim 4)
    for _ in range(100):
        def factor(rows, cols):
            return Matrix(rows, cols, [[rng.choice([0, 1, -1, 2, Fraction(1, 3)])
                                        for _ in range(cols)] for _ in range(rows)])
        # a -> c and a -> d land in empty rows; b -> c adds into a -> c's rows
        blocks = [(0, 0, factor(2, 3), 1, rng.choice([1, -1])),
                  (0, 3, factor(2, 2), 1, rng.choice([1, -1])),
                  (2, 0, factor(4, 3), 1, rng.choice([1, -1])),
                  (2, 3, factor(2, 1), 2, rng.choice([1, -1]))]
        factors = [x for block in blocks for x in block[2:4] if isinstance(x, Matrix)]
        before = [[dict(row) for row in f.data] for f in factors]
        out = Matrix(6, 5)
        for r0, c0, a, b, sign in blocks:
            _add_block(out, r0, c0, a, b, sign)
        factor_rows = [row for f in factors for row in f.data]
        for row in out.data:
            assert not any(row is r for r in factor_rows)
            row.clear()
        assert [f.data for f in factors] == before


def test_add_block_writes_shared_scalars_by_value():
    """Many blocks of sign -1 that read one shared 1x1 factor, as a or as
    b, write its negative; a positive block writes the factor's own entry,
    a product of two 1x1 factors is still computed, and the factors are
    left as they were."""
    f, g = Matrix(1, 1, [[Fraction(3, 2)]]), Matrix(1, 1, [[-2]])
    blocks = [(f, 1, -1), (1, f, -1), (f, 1, -1), (1, f, -1), (f, 1, 1), (f, g, -1)]
    before = [[dict(row) for row in m.data] for m in (f, g)]
    d = Matrix(6, 6)
    for k, (a, b, sign) in enumerate(blocks):
        _add_block(d, k, k, a, b, sign)
    negatives = [d.data[r][r] for r in range(4)]
    assert all(x == Fraction(-3, 2) for x in negatives)
    assert d.data[4][4] is f.data[0][0]
    assert d.data[5][5] == 3 and d.data[5][5] is not negatives[0]
    assert [[dict(row) for row in m.data] for m in (f, g)] == before


def test_kernel_and_solve():
    m = M([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert (m * Matrix(len(v), 1, [[x] for x in v])).is_zero()
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
    """homology_ranks, and check() through it, reject d^2 != 0 naming the
    highest failing degree, also where the failing rows of a differential
    are outside the ones its upper neighbour clears; check() returns a
    complex with d^2 = 0."""
    one = Matrix.identity(1)
    good = VectComplex({0: 1, 1: 1}, {0: one})
    good.check()
    bad = VectComplex({0: 1, 1: 1, 2: 1}, {0: one, 1: one})
    # failing at degrees 0 and 1
    worse = VectComplex({0: 1, 1: 1, 2: 1, 3: 1}, {0: one, 1: one, 2: one})
    # d^2 d^1 = 0 but d^1 d^0 != 0, in a row of d^1 that d^2 does not clear
    hidden = VectComplex({0: 1, 1: 1, 2: 2, 3: 1},
                         {0: one, 1: M([[1], [0]]), 2: M([[0, 1]])})
    for v, n in ((bad, 0), (worse, 1), (hidden, 0)):
        for f in (homology_ranks, VectComplex.check):
            with pytest.raises(LinAlgError, match=r"^d\^2 != 0 at degree %d$" % n):
                f(v)
    # d^2 = 0 with mixed denominators across the rows of d^0, the lower
    # factor of d^1 d^0 and the upper one of d^0 d^-1: made primitive row
    # by row, d^0 would be [[1, 1], [1, 1]] and d^1 d^0 would not vanish
    mixed = VectComplex({-1: 1, 0: 2, 1: 2, 2: 2},
                        {-1: M([[1], [-1]]), 0: M([[1, 1], ["1/2", "1/2"]]),
                         1: M([[1, -2], [2, -4]])})
    assert mixed.check() is mixed
    assert homology_ranks(mixed) == _ranks_by_full_rank(mixed) == {2: 1}


def test_zero_differential_of_the_wrong_shape_is_rejected():
    """The shape of a differential is checked before a zero one is dropped."""
    with pytest.raises(LinAlgError, match=r"^differential at degree 0 has shape 1x3, "
                                          r"expected 1x1$"):
        VectComplex({0: 1, 1: 1}, {0: Matrix.zeros(1, 3)})
    assert VectComplex({0: 1, 1: 1}, {0: Matrix.zeros(1, 1)}).diffs == {}


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


def _trace_endo(phi, v):
    """Alternating trace of phi, an endomorphism of v, on cochains: the
    reference for the Hopf trace formula."""
    total = Fraction(0)
    for n in v.dims:
        m = phi.get(n)
        if m is not None:
            total += (-1 if n % 2 else 1) * m.trace()
    return total


def test_homotopy_invariance_of_traces():
    """c*id + dh + hd has cochain trace c*chi and the same trace on
    cohomology; both routes must agree."""
    rng = random.Random(23)
    for _ in range(30):
        v = random_vect_complex(rng)
        phi, c = random_chain_endo(rng, v)
        assert is_chain_map(v, v, phi)
        t1 = _trace_endo(phi, v)
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
        assert cohomology_trace(phi, v) == _trace_endo(phi, v) == c * euler(v)


def _solve_based_cohomology_trace(phi, v):
    """Reference route to the trace on cohomology, through explicit bases
    and a linear solve: per degree, the pivot columns of rref([B | Z]),
    with B the columns of d^(n-1) and Z a kernel basis of d^n, are a basis
    of B^n followed by kernel vectors that complete it to a basis of Z^n;
    solve_unique gives phi on that basis, and the trace is taken over the
    completing vectors."""
    v.check()
    total = Fraction(0)
    for n, dim in v.dims.items():
        ker = kernel_basis(v.diffs.get(n, Matrix.zeros(v.dim(n + 1), dim)))
        if not ker:
            continue
        image = v.diffs.get(n - 1, Matrix.zeros(dim, v.dim(n - 1)))
        span = Matrix.assemble(dim, image.cols + len(ker),
                               [(0, 0, image),
                                (0, image.cols, Matrix(len(ker), dim, ker).transpose())])
        _, pivots = rref(span)
        chosen = [c for c in pivots if c >= image.cols]
        if not chosen:
            continue
        m = phi.get(n, Matrix.zeros(dim, dim))
        coeff = solve_unique(span.submatrix(range(dim), pivots),
                             m * span.submatrix(range(dim), chosen))
        first = len(pivots) - len(chosen)
        tr = sum((coeff[first + i, i] for i in range(len(chosen))), Fraction(0))
        total += (-1 if n % 2 else 1) * tr
    return total


def _random_block(rng, rows, cols):
    return Matrix(rows, cols, [[_rand_rational(rng) for _ in range(cols)]
                               for _ in range(rows)])


def _random_conjugation(rng, n):
    """(g, g^-1) for a random invertible n x n matrix g."""
    while True:
        g = _random_block(rng, n, n)
        if rank(g) == n:
            return g, solve_unique(g, Matrix.identity(n))


def _split_complex_with_endo(rng):
    """(v, phi, trace on H) for v^n = H^n + B^n + X^n conjugated by random
    invertibles g_n, where d^n sends X^n onto B^(n+1) by the identity and
    is zero on H^n + B^n, so H^n is the cohomology.  phi is
    block-triangular for B^n < H^n + B^n = Z^n: any A_n on H^n, any block
    H^n -> B^n, T_n on X^n with the same T_n on B^(n+1), and any blocks
    from X^n into H^n + B^n.  Its trace on cohomology is
    sum_n (-1)^n tr A_n."""
    degrees = range(-1, 3)
    h = {n: rng.randint(0, 2) for n in degrees}
    x = {n: rng.randint(0, 2) if n + 1 in degrees else 0 for n in degrees}
    b = {n: x.get(n - 1, 0) for n in degrees}
    dims = {n: h[n] + b[n] + x[n] for n in degrees}
    t = {n: _random_block(rng, x[n], x[n]) for n in degrees}
    diffs, phi, expected = {}, {}, Fraction(0)
    conj = {n: _random_conjugation(rng, dims[n]) for n in degrees}
    for n in degrees:
        g, g_inv = conj[n]
        a = _random_block(rng, h[n], h[n])
        blocks = [(0, 0, a), (h[n], 0, _random_block(rng, b[n], h[n])),
                  (h[n] + b[n], h[n] + b[n], t[n]),
                  (0, h[n] + b[n], _random_block(rng, h[n] + b[n], x[n]))]
        if n - 1 in t:
            blocks.append((h[n], h[n], t[n - 1]))
        phi[n] = g * Matrix.assemble(dims[n], dims[n], blocks) * g_inv
        expected += (-1 if n % 2 else 1) * a.trace()
        if x[n]:
            d = Matrix.assemble(dims[n + 1], dims[n],
                                [(h[n + 1], h[n] + b[n], Matrix.identity(x[n]))])
            diffs[n] = conj[n + 1][0] * d * g_inv
    return VectComplex(dims, diffs), phi, expected


def test_cohomology_trace_of_block_triangular_endos():
    """Exact agreement with the solve-based reference and with the trace
    on the cohomology H, for endomorphisms that are not homotopic to a
    scalar and act on the boundaries B^n by a map of their own."""
    rng = random.Random(31)
    for _ in range(150):
        v, phi, expected = _split_complex_with_endo(rng)
        assert is_chain_map(v, v, phi)
        got = cohomology_trace(phi, v)
        assert got == _solve_based_cohomology_trace(phi, v) == expected
        assert got == _trace_endo(phi, v)


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


def test_is_chain_map_rejections():
    one = Matrix.identity(1)
    acyc = VectComplex({0: 1, 1: 1}, {0: one})
    assert is_chain_map(acyc, acyc, {0: one, 1: one})
    # wrong shape
    assert not is_chain_map(acyc, acyc, {0: Matrix.identity(2), 1: one})
    assert not is_chain_map(acyc, acyc, {0: one, 1: Matrix.zeros(1, 2)})
    # a missing degree is the zero map there
    assert not is_chain_map(acyc, acyc, {0: one})
    assert not is_chain_map(acyc, acyc, {1: one})
    assert is_chain_map(acyc, acyc, {})
    # 0-dimensional degrees: only an empty component fits there
    assert is_chain_map(acyc, acyc, {0: one, 1: one, 3: Matrix.zeros(0, 0)})
    assert not is_chain_map(acyc, acyc, {0: one, 1: one, 3: Matrix.zeros(0, 1)})
    point = single(1, 1)
    assert not is_chain_map(acyc, point, {0: Matrix.zeros(0, 1), 1: one})
    assert is_chain_map(point, acyc, {1: one})
    assert not is_chain_map(single(0, 1), acyc, {0: one})


def test_total_complex_names_the_failing_bidegree():
    one = Matrix.identity(1)
    col = VectComplex({3: 1, 4: 1}, {3: one})
    with pytest.raises(LinAlgError, match=r"^horizontal map at bidegree \(1, 4\) has wrong shape$"):
        total_complex({1: col, 2: col}, {(1, 3): one, (1, 4): Matrix.identity(2)})
    with pytest.raises(LinAlgError, match=r"^grid does not commute at bidegree \(1, 3\)$"):
        total_complex({1: col, 2: col}, {(1, 3): one, (1, 4): one.scale(2)})
    with pytest.raises(LinAlgError, match=r"^grid does not commute at bidegree \(1, 3\)$"):
        total_complex({1: col, 2: col}, {(1, 3): one})
    pt = single(5, 1)
    with pytest.raises(LinAlgError, match=r"^horizontal d\^2 != 0 at bidegree \(2, 5\)$"):
        total_complex({2: pt, 3: pt, 4: pt}, {(2, 5): one, (3, 5): one})
    assert homology_ranks(total_complex({2: pt, 3: pt, 4: pt}, {(2, 5): one})) == {9: 1}


# ---------------------------------------------------------------------------
# homology_ranks: top-down elimination with clearing

def _square_message(v):
    """The reference d^2 = 0 check, by Matrix products: the message for
    the highest degree n at which d^(n+1) d^n is not zero, or None."""
    bad = [n for n in v.diffs
           if n + 1 in v.diffs and not (v.diffs[n + 1] * v.diffs[n]).is_zero()]
    return "d^2 != 0 at degree %d" % max(bad) if bad else None


def _ranks_by_full_rank(v):
    """homology_ranks without clearing: d^2 = 0 by Matrix products and the
    rank of every differential in full."""
    assert _square_message(v) is None
    rk = {n: rank(m) for n, m in v.diffs.items()}
    return {n: h for n in v.dims if (h := v.dim(n) - rk.get(n, 0) - rk.get(n - 1, 0))}


_NONZERO = _ENTRIES.filter(bool)


@st.composite
def _invertibles(draw, n):
    """(g, g^-1): a lower unitriangular times an upper triangular matrix
    with a nonzero diagonal, or the identity."""
    if not n or draw(st.booleans()):
        return Matrix.identity(n), Matrix.identity(n)
    lower = Matrix(n, n, [[draw(_ENTRIES) if j < i else int(i == j) for j in range(n)]
                          for i in range(n)])
    upper = Matrix(n, n, [[draw(_NONZERO) if j == i else draw(_ENTRIES) if j > i else 0
                           for j in range(n)] for i in range(n)])
    g = lower * upper
    return g, solve_unique(g, Matrix.identity(n))


@st.composite
def _exact_complexes(draw):
    """(v, ranks of H) with d^2 = 0 by construction.  Degrees in -3..3 with
    gaps; d^n = g_(n+1) D^n g_n^-1, where the normal form D^n sends basis
    vector r_(n-1) + k to basis vector k for k < r_n, so the ranks of H
    are known; r_n = 0 gives a zero differential."""
    degrees = sorted(draw(st.sets(st.integers(-3, 3), max_size=5)))
    dims = {n: draw(st.integers(0, 4)) for n in degrees}
    ranks = {}
    for n in degrees:
        room = min(dims[n] - ranks.get(n - 1, 0), dims.get(n + 1, 0))
        ranks[n] = draw(st.integers(0, max(room, 0)))
    conj = {n: draw(_invertibles(d)) for n, d in dims.items()}
    diffs = {}
    for n, r in ranks.items():
        if r:
            normal = Matrix(dims[n + 1], dims[n])
            for k in range(r):
                normal[k, ranks.get(n - 1, 0) + k] = 1
            diffs[n] = conj[n + 1][0] * normal * conj[n][1]
    homology = {n: h for n, d in dims.items()
                if (h := d - ranks[n] - ranks.get(n - 1, 0))}
    return VectComplex(dims, diffs), homology


@settings(max_examples=150, deadline=None)
@given(_exact_complexes())
def test_homology_ranks_agree_with_full_ranks(case):
    v, homology = case
    assert homology_ranks(v) == _ranks_by_full_rank(v) == homology


def _message(f, v):
    try:
        f(v)
    except LinAlgError as e:
        return str(e)
    return None


@settings(max_examples=150, deadline=None)
@given(_exact_complexes(), st.data())
def test_broken_complexes_are_rejected_with_the_same_message(case, data):
    """One entry of one differential changed: homology_ranks, and check()
    through it, reject the result with the message of the check by Matrix
    products, or accept it and the ranks agree with the full ranks."""
    v, _ = case
    if not v.diffs:
        return
    n = data.draw(st.sampled_from(sorted(v.diffs)))
    m = v.diffs[n]
    broken = Matrix(m.rows, m.cols)
    broken.data = [dict(row) for row in m.data]
    i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
    broken[i, j] = broken[i, j] + data.draw(_NONZERO)
    w = VectComplex(v.dims, {**v.diffs, n: broken})
    message = _message(homology_ranks, w)
    assert message == _square_message(w)
    assert _message(VectComplex.check, w) == message
    if message is None:
        assert homology_ranks(w) == _ranks_by_full_rank(w)
    else:
        assert re.fullmatch(r"d\^2 != 0 at degree -?\d+", message)


def _seeded_complexes(seed):
    """Sections of random piece sheaves and of their Verdier duals and
    tensor squares, tensor products of those complexes, and the stalks of
    composed kernels."""
    rng = random.Random(seed)
    for _ in range(12):
        cx = random_complex(rng, max_dim=2, max_vertices=6, max_cells=25)
        f = random_sheaf(rng, cx, max_pieces=2, degree_range=(-1, 1))
        v = global_sections(f)
        yield v
        yield global_sections(verdier_dual(f))
        yield global_sections(tensor_sheaf(f, f))
        yield tensor(v, random_vect_complex(rng))
    for _ in range(4):
        m1, m2, m3 = interval(), hollow_triangle(), interval()
        k12 = random_sheaf(rng, product(m1, m2)[0], max_pieces=2, degree_range=(-1, 1))
        k23 = random_sheaf(rng, product(m2, m3)[0], max_pieces=2, degree_range=(-1, 1))
        yield from kernel_compose(k12, k23).stalks.values()


def test_homology_ranks_agree_with_full_ranks_on_seeded_complexes():
    count = 0
    for v in _seeded_complexes(31):
        assert homology_ranks(v) == _ranks_by_full_rank(v)
        count += 1
    assert count > 48  # the kernel_compose stalks are among them


def test_pivot_columns_have_full_column_rank():
    """For the pivot columns J of a matrix, its columns J have rank |J|,
    which is its rank: the rows that clearing drops are exactly these."""
    def cases():
        yield from _sparse_matrices(3, 4)
        for v in _seeded_complexes(37):
            yield from v.diffs.values()
    for m in cases():
        pivots = _pivot_columns(_int_rows(m)[0])
        assert rank(m.submatrix(range(m.rows), sorted(pivots))) == len(pivots) == rank(m)


def test_homology_ranks_agree_with_rref_on_dual_sections():
    """homology_ranks against ranks read off rref, the independent
    Gauss-Jordan engine (every other test of homology_ranks compares it
    with rank, which runs the same elimination), on the sections
    complexes of Verdier duals of random sheaves on circle(n)^2: the
    densest complexes the program ranks."""
    rng = random.Random(53)
    for n in (4, 5):
        cx = product(circle(n), circle(n))[0]
        for _ in range(3):
            v = global_sections(verdier_dual(random_sheaf(rng, cx, max_pieces=3)))
            assert v.diffs
            rk = {k: len(rref(m)[1]) for k, m in v.diffs.items()}
            want = {k: h for k in v.dims if (h := v.dim(k) - rk.get(k, 0) - rk.get(k - 1, 0))}
            assert homology_ranks(v) == want


def test_fill_of_the_dual_of_the_constant_sheaf_is_bounded():
    """Fill-in made observable without timing: _pivot_columns returns its
    kept rows, so the entries in them are a deterministic count.  On d^-1
    of the sections of the Verdier dual of the constant sheaf on
    circle(16)^2 (1,024 cells, so verdier_dual writes its restrictions on
    a base far larger than the digests' inputs reach) the rule that
    pivots at each row's highest column, on the column order that
    sections gives, keeps 4,592 entries from 4,096 (the lowest-column
    rule kept 52,276).  ROADMAP item 2 (a fill-aware column order)
    tightens this bound."""
    cx = product(circle(16), circle(16))[0]
    v = global_sections(verdier_dual(constant(cx)))
    assert v.dims == {-2: 1024, -1: 2048, 0: 1024}
    assert homology_ranks(v) == {-2: 1, -1: 2, 0: 1}
    rows = _int_rows(v.diffs[-1])[0]
    assert sum(map(len, rows)) == 4096
    kept = _pivot_columns(rows)
    assert len(kept) == 1023
    assert sum(map(len, kept.values())) <= 6000


def test_kept_entries_of_the_largest_constant_torus_are_pinned(monkeypatch):
    """The entries of the rows homology_ranks keeps, summed over every
    elimination, on the sections of the constant sheaf on circle(10)^2,
    the largest circle2 rung of the cohomology workload: an exact count,
    so a change of pivot rule shows as a number, not as a timing.  The
    highest-column rule keeps 612 (the lowest-column rule kept 2,018)."""
    import conormal.qlinalg as ql
    kept = []

    def counted(rows):
        out = _pivot_columns(rows)
        kept.append(sum(map(len, out.values())))
        return out
    monkeypatch.setattr(ql, "_pivot_columns", counted)
    cx = product(circle(10), circle(10))[0]
    assert homology_ranks(global_sections(constant(cx))) == {0: 1, 1: 2, 2: 1}
    assert len(kept) == 2 and sum(kept) == 612


def test_pivot_rows_are_a_reduced_basis():
    """_assert_reduced_basis (also run on the rational matrices of
    test_rank_agrees_with_rref_property) on sparse rational matrices and
    on the differentials, and their transposes, of the sections
    complexes that 200 seeded Lefschetz instances induce: the matrices
    whose reduced bases global_trace reads."""
    for m in _sparse_matrices(13, 4):
        _assert_reduced_basis(m)
    rng = random.Random(41)
    for _ in range(200):
        vc, _ = _induced_endo(random_lefschetz_instance(rng))
        for d in vc.diffs.values():
            _assert_reduced_basis(d)
            _assert_reduced_basis(d.transpose())
