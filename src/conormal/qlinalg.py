"""Exact rational linear algebra and homological primitives.

Everything is over the rationals (python Fractions), so all equalities
tested elsewhere in the library are exact.  Matrices act on column
vectors: a differential d^n : V^n -> V^{n+1} of a cochain complex is a
matrix with dim V^{n+1} rows and dim V^n columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class LinAlgError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise LinAlgError("matrix entries must be exact rationals, got %r" % (x,))


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _add_row(row, other, offset=0, sign=1):
    """row += sign * other (sign is +-1) with other's columns shifted by
    offset; entries that cancel are removed, so no zero is stored."""
    neg = sign < 0
    for j, x in other.items():
        j += offset
        y = row.get(j)
        if y is None:
            row[j] = -x if neg else x
        else:
            y = y - x if neg else y + x
            if y:
                row[j] = y
            else:
                del row[j]


def _add_multiple(row, f, other):
    """row += f * other on sparse rows in one pass, for a nonzero f; no
    scaled copy of other is built, and entries that cancel are removed."""
    for j, x in other.items():
        y = row.get(j)
        if y is None:
            row[j] = f * x
        else:
            y += f * x
            if y:
                row[j] = y
            else:
                del row[j]


class Matrix:
    """Sparse matrix of Fractions.

    data[i] is row i as a dict from column to entry.  No zero is ever
    stored, so equal matrices have equal data and a zero row is empty.
    Matrix(rows, cols, data) takes data as dense rows of rationals.

    No operation writes to a Matrix it is given: results are new matrices
    or the given ones unchanged.  One Matrix may therefore be shared by
    several blocks, stalks or sheaves, and one that code did not build
    itself is read-only to it.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [{} for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise LinAlgError("matrix data does not match shape")
            self.data = [{j: x for j, x in enumerate(map(_frac, row)) if x}
                         for row in data]

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i, row in enumerate(m.data):
            row[i] = _ONE
        return m

    @classmethod
    def from_rows(cls, rows):
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        return cls(nr, nc, rows)

    def _row(self, i):
        if not 0 <= i < self.rows:
            raise IndexError("row %d out of range" % i)
        return self.data[i]

    def _col(self, j):
        if not 0 <= j < self.cols:
            raise IndexError("column %d out of range" % j)
        return j

    def __getitem__(self, ij):
        i, j = ij
        return self._row(i).get(self._col(j), _ZERO)

    def __setitem__(self, ij, v):
        i, j = ij
        row = self._row(i)
        v = _frac(v)
        if v:
            row[self._col(j)] = v
        else:
            row.pop(self._col(j), None)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols,
                                       [[str(self[i, j]) for j in range(self.cols)]
                                        for i in range(self.rows)])

    def is_zero(self):
        return not any(self.data)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        m = Matrix(self.rows, self.cols)
        for row, r1, r2 in zip(m.data, self.data, other.data):
            row.update(r1)
            _add_row(row, r2)
        return m

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _frac(c)
        m = Matrix(self.rows, self.cols)
        if c:
            m.data = [{j: c * x for j, x in row.items()} for row in self.data]
        return m

    def __mul__(self, other):
        """Matrix product over the stored entries."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in product: %dx%d * %dx%d"
                              % (self.rows, self.cols, other.rows, other.cols))
        out = Matrix(self.rows, other.cols)
        bdata = other.data
        for i, row in enumerate(self.data):
            acc = {}
            for k, a in row.items():
                for j, b in bdata[k].items():
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            out.data[i] = {j: x for j, x in acc.items() if x}
        return out

    def transpose(self):
        m = Matrix(self.cols, self.rows)
        for i, row in enumerate(self.data):
            for j, x in row.items():
                m.data[j][i] = x
        return m

    def kron(self, other):
        """Kronecker product: block (i, j) is self[i, j] * other, so rows
        follow self-major order.  An identity factor is multiplied out like
        any other."""
        m = Matrix(self.rows * other.rows, self.cols * other.cols)
        m.data = _kron_rows(self, other)
        return m

    @classmethod
    def assemble(cls, rows, cols, blocks):
        """The rows x cols matrix that is the sum of (row_offset,
        col_offset, Matrix[, sign]) blocks, each placed at its offsets and
        negated as it is added when sign is -1; blocks may overlap and
        cancel."""
        m = cls(rows, cols)
        for r0, c0, blk, *sign in blocks:
            sign = sign[0] if sign else 1
            if sign not in (1, -1):
                raise LinAlgError("block sign must be +-1, got %r" % (sign,))
            if r0 < 0 or c0 < 0 or r0 + blk.rows > rows or c0 + blk.cols > cols:
                raise LinAlgError("block out of range")
            for i, brow in enumerate(blk.data, r0):
                _add_row(m.data[i], brow, c0, sign)
        return m

    def submatrix(self, row_idx, col_idx):
        pos = {c: k for k, c in enumerate(col_idx)}
        m = Matrix(len(row_idx), len(col_idx))
        m.data = [{pos[j]: x for j, x in self.data[i].items() if j in pos}
                  for i in row_idx]
        return m

    def trace(self):
        if self.rows != self.cols:
            raise LinAlgError("trace of non-square matrix")
        return sum((row.get(i, _ZERO) for i, row in enumerate(self.data)), Fraction(0))


def _kron_rows(a, b):
    """The rows of a (x) b, new dicts.  A factor given as an int n is the
    identity I_n: the other factor's entries are copied, never
    multiplied."""
    if isinstance(a, int):
        if isinstance(b, int):
            return [{j: _ONE} for j in range(a * b)]
        return [{off + l: y for l, y in brow.items()}
                for off in [i * b.cols for i in range(a)] for brow in b.data]
    if isinstance(b, int):
        return [{k + j * b: x for j, x in arow.items()}
                for arow in a.data for k in range(b)]
    bc = b.cols
    return [{j * bc + l: x * y for j, x in arow.items() for l, y in brow.items()}
            for arow in a.data for brow in b.data]


def _int_rows(m: Matrix):
    """The rows of m as (int rows, d): sparse rows of ints, column ->
    entry times d, for d the least common denominator of the entries.
    The one integer form of a matrix: the d^2 = 0 check and the
    elimination need the rows scaled by a nonzero constant only."""
    den = lcm(*[x.denominator for row in m.data for x in row.values()])
    return [{j: x.numerator * (den // x.denominator) for j, x in row.items()}
            for row in m.data], den


def rank(m: Matrix) -> int:
    """Exact rank: the number of pivot columns of _pivot_columns on the
    int rows of m (scaling the rows keeps the rank)."""
    return len(_pivot_columns(_int_rows(m)[0]))


def _pivot_columns(rows) -> dict:
    """The kept rows of fraction-free elimination of rows, sparse int rows
    (column -> int), as {pivot column: row}; the rows are reduced in place.

    The rows are taken once each, shortest first, ties in the order
    given, and zero rows are skipped.  Each is made primitive (divided by
    the gcd of its entries) as it is taken.  While some kept row has its
    pivot at the highest column j of a row, _clear makes the row
    a*row - b*pivot_row, primitive again; that clears column j and leaves
    the row zero to the right of it.  A row that reaches zero is dropped,
    and any other is kept as the pivot row of its highest column.

    Each kept row is zero to the right of its pivot, so on the pivot
    columns the kept rows form a triangular matrix with a nonzero
    diagonal, and the matrix has full column rank there.  Every dropped
    row lies in the span of the kept rows, so the number of pivot columns
    is the rank.
    """
    kept = {}
    for row in sorted(rows, key=len):
        g = gcd(*row.values())  # 0 for a zero row, which is skipped
        if g != 1:
            for k in row:
                row[k] //= g
        while row:
            j = max(row)
            prow = kept.get(j)
            if prow is None:
                kept[j] = row
                break
            _clear(row, prow, j)
    return kept


def _clear(row, prow, j):
    """row = a*row - b*prow divided by the gcd of its entries, for
    a / b = prow[j] / row[j] in lowest terms and a > 0: the one integer
    step of the elimination, which makes row zero at column j."""
    p, b = prow[j], row[j]
    g = gcd(p, b)
    a, b = p // g, b // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for k in row:
            row[k] *= a
    for k, x in prow.items():
        y = row.get(k, 0) - b * x
        if y:
            row[k] = y
        elif k in row:
            del row[k]
    g = gcd(*row.values())  # 0 once row is zero
    if g != 1:
        for k in row:
            row[k] //= g


def rref(m: Matrix):
    """Reduced row echelon form by plain rational Gauss-Jordan.

    Returns (R, pivot_columns).  Kept independent of _pivot_columns, the
    elimination behind ranks and traces, as the tests' reference for it;
    kernel_basis and solve_unique call it, and nothing else in the
    package does.
    """
    a = [dict(row) for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if c in a[i]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        prow = a[r] = {j: x / p for j, x in a[r].items()}
        for i, row in enumerate(a):
            f = row.get(c)
            if f is not None and i != r:
                _add_multiple(row, -f, prow)
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    out = Matrix(m.rows, m.cols)
    out.data = a
    return out, pivots


def kernel_basis(m: Matrix):
    """Columns spanning ker(m), from the rref free variables."""
    r, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    for c in range(m.cols):
        if c in pivset:
            continue
        v = [_ZERO] * m.cols
        v[c] = _ONE
        for i, pc in enumerate(pivots):
            v[pc] = -r[i, c]
        basis.append(v)
    return basis


def solve_unique(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b where the columns of a are independent."""
    if a.rows != b.rows:
        raise LinAlgError("shape mismatch in solve_unique")
    r, pivots = rref(Matrix.assemble(a.rows, a.cols + b.cols,
                                     [(0, 0, a), (0, a.cols, b)]))
    if any(p >= a.cols for p in pivots):
        raise LinAlgError("inconsistent linear system")
    if len(pivots) != a.cols:
        raise LinAlgError("solve_unique requires independent columns")
    # the pivots are exactly the columns of a, so row i of r is row i of x
    return r.submatrix(range(a.cols), range(a.cols, a.cols + b.cols))


class VectComplex:
    """Bounded cochain complex of finite-dimensional rational spaces.

    dims: degree -> dimension (zero dims dropped).
    diffs: degree n -> matrix of d^n : V^n -> V^{n+1} (missing = zero).
    """

    __slots__ = ("dims", "diffs")

    def __init__(self, dims, diffs=None):
        self.dims = {n: d for n, d in dims.items() if d}
        self.diffs = {}
        for n, m in (diffs or {}).items():
            if m.cols != self.dims.get(n, 0) or m.rows != self.dims.get(n + 1, 0):
                raise LinAlgError(
                    "differential at degree %d has shape %dx%d, expected %dx%d"
                    % (n, m.rows, m.cols, self.dims.get(n + 1, 0), self.dims.get(n, 0)))
            if not m.is_zero():
                self.diffs[n] = m

    def dim(self, n) -> int:
        return self.dims.get(n, 0)

    def is_zero(self) -> bool:
        return not self.dims

    def check(self):
        """Verify d^2 = 0 and return self; raises LinAlgError naming the
        highest offending degree.  The check is the one homology_ranks
        makes, whose ranks are dropped."""
        homology_ranks(self)
        return self

    def __eq__(self, other):
        if not isinstance(other, VectComplex):
            return NotImplemented
        # the constructor drops zero differentials, so none is stored
        return self.dims == other.dims and self.diffs == other.diffs

    def __repr__(self):
        return "VectComplex(dims=%r)" % (self.dims,)


ZERO_COMPLEX = VectComplex({})


def single(degree=0, dim=1) -> VectComplex:
    """The complex with one space k^dim placed in the given degree."""
    return VectComplex({degree: dim})


def euler(v: VectComplex) -> int:
    """Alternating sum of dimensions (= alternating sum of homology ranks)."""
    return sum((-1 if n % 2 else 1) * d for n, d in v.dims.items())


def _check_square(n, upper, lower):
    """Raise unless d^(n+1) d^n = 0 on the rows given: upper yields int
    rows of d^(n+1) and lower is the int rows of d^n, as _int_rows gives
    them.  Each factor is scaled by one nonzero constant, which keeps
    every entry of the product zero or nonzero."""
    for row in upper:
        acc = {}
        for k, a in row.items():
            for j, b in lower[k].items():
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            raise LinAlgError("d^2 != 0 at degree %d" % n)


def homology_ranks(v: VectComplex) -> dict:
    """dim H^n for every degree; rejects complexes with d^2 != 0, naming
    the highest offending degree.  This is the one d^2 = 0 check of the
    package: VectComplex.check calls it.

    The differentials are eliminated from the top degree down, with
    clearing: the rows of d^n at the pivot columns J of d^(n+1) are left
    out of the check and the elimination.  This keeps the rank of d^n.
    Proof: d^(n+1) has full column rank on J, so it is injective on the
    span of the basis vectors e_j, j in J; it vanishes on im d^n, so
    im d^n meets that span only in 0.  Dropping the coordinates in J is
    therefore injective on im d^n, and the rank of the remaining rows of
    d^n is the rank of d^n.

    The d^2 = 0 check reads the same rows: once d^(n+1) d^n = 0 is known,
    d^n d^(n-1) = 0 follows from its rows outside J, since its image lies
    in ker d^(n+1), which meets the span of the e_j, j in J, only in 0.
    Each differential is converted to int rows once (_int_rows): d^(n-1)
    is converted as the lower factor of the check of d^n d^(n-1), and its
    rows outside the pivot columns of d^n are then the upper factor of
    the next check and the rows the next step eliminates.
    """
    rk = {}
    low = None  # int rows of d^n, converted one step up
    for n in sorted(v.diffs, reverse=True):
        if n + 1 in rk:  # low and cleared are those of the step for d^(n+1)
            rows = [row for i, row in enumerate(low) if i not in cleared]
        else:
            rows = _int_rows(v.diffs[n])[0]
        lower = v.diffs.get(n - 1)
        if lower is not None:
            low = _int_rows(lower)[0]
            _check_square(n - 1, rows, low)
        cleared = _pivot_columns(rows)
        rk[n] = len(cleared)
    out = {}
    for n in v.dims:
        h = v.dim(n) - rk.get(n, 0) - rk.get(n - 1, 0)
        if h < 0:
            raise LinAlgError("negative homology rank at degree %d" % n)
        if h:
            out[n] = h
    return out


def shift(v: VectComplex, k: int) -> VectComplex:
    """v[k]: degree n component is v^{n+k}; differential scaled by (-1)^k."""
    return VectComplex({n - k: d for n, d in v.dims.items()},
                       {n - k: -m if k % 2 else m for n, m in v.diffs.items()})


def dual(v: VectComplex) -> VectComplex:
    """Linear dual: degree -n gets (V^n)^*, differentials transposed."""
    dims = {-n: d for n, d in v.dims.items()}
    diffs = {}
    for n, m in v.diffs.items():
        # (d^n)^T maps (V^(n+1))^* in degree -n-1 to (V^n)^* in degree -n
        diffs[-n - 1] = m.transpose()
    return VectComplex(dims, diffs)


# ---------------------------------------------------------------------------
# graded direct sums, by one placement rule: each builder places its pieces
# as {piece: (degree, offset)} and writes each block straight from that
# placement through _add_block, the one block writer, or as an inline
# scalar entry (sheaf.sections and kernel_compose)

def _add_block(m, r0, c0, a, b, sign):
    """m += sign * (a (x) b) with the block's top left entry at (r0, c0),
    for sign +-1 and a factor given as an int n standing for I_n: the one
    block writer.  Raises LinAlgError when the block does not fit in m,
    negative offsets included.  A scalar block (both factors a 1x1 Matrix
    or the int 1) is the one entry sign * x * y added into its target
    row, with no product by a factor 1, and nothing when x or y is zero.
    Any other block is added row by row with _add_row, which shifts the
    columns and applies the sign in one pass; when b is the int 1 and a
    is a Matrix the rows are a's own, read and never stored.  Blocks
    into one place add, and entries that cancel are dropped."""
    a_int, b_int = type(a) is int, type(b) is int
    ar, ac = (a, a) if a_int else (a.rows, a.cols)
    br, bc = (b, b) if b_int else (b.rows, b.cols)
    if r0 < 0 or c0 < 0 or r0 + ar * br > m.rows or c0 + ac * bc > m.cols:
        raise LinAlgError("block out of range")
    if ar == ac == br == bc == 1:
        x = _ONE if a_int else a.data[0].get(0)
        y = _ONE if b_int else b.data[0].get(0)
        if x is not None and y is not None:
            if x is _ONE:
                x, y = y, x
            if sign < 0:
                x = -x
            if y is not _ONE:
                x *= y
            row = m.data[r0]
            z = row.get(c0)
            if z is None:
                row[c0] = x
            else:
                x += z
                if x:
                    row[c0] = x
                else:
                    del row[c0]
        return
    data = m.data
    rows = a.data if b_int and b == 1 and not a_int else _kron_rows(a, b)
    for r, row in enumerate(rows, r0):
        _add_row(data[r], row, c0, sign)


def direct_sum(a: VectComplex, b: VectComplex) -> VectComplex:
    """a (+) b: in every degree the pieces of b follow those of a."""
    dims = {n: a.dim(n) + b.dim(n) for n in {**a.dims, **b.dims}}
    mats = {n: Matrix(dims[n + 1], dims[n]) for n in {**a.diffs, **b.diffs}}
    for v, before in ((a, ZERO_COMPLEX), (b, a)):
        for n, m in v.diffs.items():
            _add_block(mats[n], before.dim(n + 1), before.dim(n), m, 1, 1)
    return VectComplex(dims, mats)


def tensor_layout(a: VectComplex, b: VectComplex):
    """The placement (dims, index) of a (x) b: index[(p, q)] =
    (p + q, offset), p ascending within a degree."""
    dims, index = {}, {}
    for p, da in sorted(a.dims.items()):
        for q, db in sorted(b.dims.items()):
            off = dims.get(p + q, 0)
            index[(p, q)] = (p + q, off)
            dims[p + q] = off + da * db
    return dims, index


def tensor(a: VectComplex, b: VectComplex) -> VectComplex:
    """Tensor product with the Koszul differential d(x)1 + (-1)^p 1(x)d."""
    dims, at = tensor_layout(a, b)
    mats = {n: Matrix(dims[n + 1], d) for n, d in dims.items() if n + 1 in dims}
    for (p, q), (n, c0) in at.items():
        if p in a.diffs:
            _add_block(mats[n], at[(p + 1, q)][1], c0, a.diffs[p], b.dims[q], 1)
        if q in b.diffs:
            _add_block(mats[n], at[(p, q + 1)][1], c0, a.dims[p], b.diffs[q],
                       -1 if p % 2 else 1)
    return VectComplex(dims, mats)


# ---------------------------------------------------------------------------
# chain maps (dicts degree -> Matrix)

def is_chain_map(src: VectComplex, tgt: VectComplex, phi) -> bool:
    """Whether phi has the shapes of a map src -> tgt and d phi = phi d,
    compared as dicts (compose_chain_maps stores no zero product)."""
    for n, m in phi.items():
        if m.rows != tgt.dim(n) or m.cols != src.dim(n):
            return False
    return (compose_chain_maps(tgt.diffs, phi)
            == compose_chain_maps(shift_chain_map(phi, 1), src.diffs))


def compose_chain_maps(phi, psi):
    """phi after psi, degreewise."""
    out = {}
    for n, m in phi.items():
        other = psi.get(n)
        if other is not None:
            p = m * other
            if not p.is_zero():
                out[n] = p
    return out


def identity_chain_map(v: VectComplex):
    return {n: Matrix.identity(d) for n, d in v.dims.items()}


def shift_chain_map(phi, k):
    return {n - k: m for n, m in phi.items()}


def tensor_chain_maps(phi, psi, src, tgt):
    """phi (x) psi : a (x) b -> a' (x) b' for degree-0 chain maps
    phi : a -> a' and psi : b -> b'.

    src is tensor_layout(a, b) and tgt is tensor_layout(a', b'), so a
    caller that places many maps on the same complexes builds each
    placement once.  Each pair of components is one block, from piece
    (p, q) to piece (p, q) by phi^p (x) psi^q.  A component may be an int
    n standing for the identity I_n, so the dims of a complex stand for
    its identity chain map; a Matrix component is always multiplied out,
    identity or not.
    """
    (sdims, sat), (tdims, tat) = src, tgt
    out = {}
    for p, fp in phi.items():
        for q, gq in psi.items():
            n, c0 = sat[(p, q)]
            m = out.get(n)
            if m is None:
                m = out[n] = Matrix(tdims[n], sdims[n])
            _add_block(m, tat[(p, q)][1], c0, fp, gq, 1)
    return {n: m for n, m in out.items() if any(m.data)}


def cohomology_trace(phi, v: VectComplex) -> Fraction:
    """Alternating trace of the induced endomorphism of H^*(v).

    The trace on H^n is read off reduced bases of the cycles and the
    boundaries in degree n (see _cohomology_trace), not off the trace of
    phi on cochains.  Rejects non-commuting phi.
    """
    if not is_chain_map(v, v, phi):
        raise LinAlgError("endomorphism does not commute with the differential")
    return _cohomology_trace(phi, v)


def _cohomology_trace(phi, v: VectComplex) -> Fraction:
    """cohomology_trace of a phi already known to be a chain map; d^2 = 0
    is still checked.

    phi keeps Z^n = ker d^n and B^n = im d^(n-1), so its trace on H^n is
    Tr(phi|Z^n) - Tr(phi|B^n).  Each is read off a reduced basis from
    _pivot_rows, whose rows are 1 at their own pivot and 0 at the others;
    which pivots the elimination chose does not matter:
    - the rows r_i of _pivot_rows(d^n), with pivots p_i, span the row
      space of d^n, so each free column c gives the cycle
      z_c = e_c - sum_i r_i[c] e_(p_i), which is 0 at every other free
      column, and Tr(phi|Z^n) = sum_c (phi[c, c] - sum_i r_i[c] phi[c, p_i]);
    - the rows r_i of _pivot_rows((d^(n-1))^T) span B^n, so
      Tr(phi|B^n) = sum_i phi[p_i, :] . r_i.
    """
    v.check()
    total = Fraction(0)
    for n, m in phi.items():
        rows = m.data
        cycles = _pivot_rows(v.diffs.get(n))
        image = v.diffs.get(n - 1)
        bounds = _pivot_rows(None if image is None else image.transpose())
        tr = sum((row.get(c, _ZERO) for c, row in enumerate(rows) if c not in cycles),
                 Fraction(0))
        # in row r_i the only pivot column is p_i itself
        tr -= sum(x * rows[c][p] for p, r in cycles.items() for c, x in r.items()
                  if c != p and p in rows[c])
        tr -= sum(rows[p][c] * x for p, r in bounds.items() for c, x in r.items()
                  if c in rows[p])
        total += (-1 if n % 2 else 1) * tr
    return total


def _pivot_rows(m):
    """{pivot column: row} of a reduced basis of the row space of m, each
    row 1 at its own pivot and 0 at the others; empty for None.

    The rows are the kept rows of _pivot_columns on the int rows of m,
    each zero to the right of its pivot.  Taken by ascending pivot, each
    row clears the other pivot columns it has, all lower than its own, by
    the elimination's integer step _clear against the rows already
    reduced, which are zero at every pivot but their own, so no cleared
    column comes back.  Each row is divided by its pivot entry only at
    the end, the one Fraction arithmetic of the reduction."""
    if m is None:
        return {}
    kept = _pivot_columns(_int_rows(m)[0])
    for p in sorted(kept):
        row = kept[p]
        for q in [q for q in row if q != p and q in kept]:
            _clear(row, kept[q], q)
    return {p: {c: Fraction(x, row[p]) for c, x in row.items()}
            for p, row in kept.items()}


def total_complex(columns, horizontal) -> VectComplex:
    """Total complex of a double complex.

    columns: i -> VectComplex (vertical differentials).
    horizontal: (i, n) -> Matrix mapping columns[i]^n -> columns[i+1]^n.
    Total degree = i + n; d_tot = d_h + (-1)^i d_v.  Verifies that the
    grid commutes and squares to zero, naming the offending bidegree.
    """
    cols = {i: c for i, c in columns.items() if not c.is_zero()}
    for i, c in cols.items():
        try:
            c.check()
        except LinAlgError as e:
            raise LinAlgError("column %d: %s" % (i, e))

    maps = {}  # i -> the chain map columns[i] -> columns[i + 1]
    for (i, n), m in horizontal.items():
        src = cols.get(i, ZERO_COMPLEX)
        tgt = cols.get(i + 1, ZERO_COMPLEX)
        if m.cols != src.dim(n) or m.rows != tgt.dim(n):
            raise LinAlgError("horizontal map at bidegree (%d, %d) has wrong shape" % (i, n))
        maps.setdefault(i, {})[n] = m
    for i, c in cols.items():
        h = maps.get(i, {})
        square = compose_chain_maps(maps.get(i + 1, {}), h)
        lhs = compose_chain_maps(shift_chain_map(h, 1), c.diffs)
        rhs = compose_chain_maps(cols.get(i + 1, ZERO_COMPLEX).diffs, h)
        for n in c.dims:
            if n in square:
                raise LinAlgError("horizontal d^2 != 0 at bidegree (%d, %d)" % (i, n))
            if lhs.get(n) != rhs.get(n):
                raise LinAlgError("grid does not commute at bidegree (%d, %d)" % (i, n))

    # bidegree (i, n) sits in total degree i + n, ordered by i
    dims, at = {}, {}
    for i, c in sorted(cols.items()):
        for n, d in sorted(c.dims.items()):
            off = dims.get(i + n, 0)
            at[(i, n)] = (i + n, off)
            dims[i + n] = off + d
    mats = {k: Matrix(dims[k + 1], d) for k, d in dims.items() if k + 1 in dims}
    for (i, n), h in horizontal.items():
        if not h.is_zero():
            k, c0 = at[(i, n)]
            _add_block(mats[k], at[(i + 1, n)][1], c0, h, 1, 1)
    for i, c in cols.items():
        for n, dv in c.diffs.items():
            k, c0 = at[(i, n)]
            _add_block(mats[k], at[(i, n + 1)][1], c0, dv, 1, -1 if i % 2 else 1)
    return VectComplex(dims, mats).check()
