"""Exact rational matrices and bounded chain complexes.

Everything here is exact, and no floating point appears anywhere.
Matrices have one stored form, ``SparseMat``: the nonzero entries of each
row, each an int or a Fraction.  Every function here computes on it and
returns its matrices in it; a ``Mat`` (dense, with ``fractions.Fraction``
entries, the record that files and dense reads exchange) given to one is
converted once, where it enters.  Kernels, images, cokernels, ranks and solutions
all come from one elimination core on sparse integer rows
({column: int}, each row rescaled by the lcm of its denominators).
``kron`` is the one Kronecker product, and every tensor map of the
library (id (x) m, m (x) id, their block diagonals) is built with it.
Chain complexes and chain maps keep each matrix as a SparseMat and
compose, add, compare and check on it; their dense ``Mat`` reads are
built on each call.  ``direct_sum`` and ``ChainMap.from_blocks`` are the
one block layout of chain-level direct sums and the maps between them.
Matrices act on column vectors, so a map V -> W is a (dim W x dim V)
matrix.
"""

from bisect import bisect
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

F = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def _coerce(x):
    return x if type(x) is Fraction else Fraction(x)


def _exact(v):
    """An entry as an int when it is integral, else the Fraction."""
    return v.numerator if v.denominator == 1 else v


class Mat:
    """Dense matrix over Fraction: the record that files and dense reads
    exchange.  Treat instances as immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None, coerce=True):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        if coerce:
            data = [[_coerce(x) for x in row] for row in data]
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def zeros(rows, cols):
        return Mat([[ZERO] * cols for _ in range(rows)], rows, cols, coerce=False)

    @staticmethod
    def identity(n):
        return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)],
                   n, n, coerce=False)

    @staticmethod
    def from_cols(cols, nrows):
        data = [[col[i] for col in cols] for i in range(nrows)]
        return Mat(data, nrows, len(cols))

    def col(self, j):
        return [row[j] for row in self.data]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return "Mat(%d x %d)%r" % (self.rows, self.cols, self.data)

    def __add__(self, other):
        if type(other) is not Mat:
            return NotImplemented
        assert self.rows == other.rows and self.cols == other.cols
        return Mat([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)],
                   self.rows, self.cols, coerce=False)

    def __sub__(self, other):
        if type(other) is not Mat:
            return NotImplemented
        assert self.rows == other.rows and self.cols == other.cols
        return Mat([[a - b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)],
                   self.rows, self.cols, coerce=False)

    def __neg__(self):
        return Mat([[-a for a in row] for row in self.data],
                   self.rows, self.cols, coerce=False)

    def smul(self, s):
        s = _coerce(s)
        return Mat([[s * a for a in row] for row in self.data],
                   self.rows, self.cols, coerce=False)

    def __matmul__(self, other):
        if type(other) is not Mat:
            return NotImplemented
        assert self.cols == other.rows, (self.cols, other.rows)
        od = other.data
        bterms = [None] * other.rows   # nonzero (j, value) pairs, read once
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, aik in enumerate(arow):
                if aik:
                    bk = bterms[k]
                    if bk is None:
                        bk = bterms[k] = [(j, b) for j, b in enumerate(od[k])
                                          if b]
                    for j, bkj in bk:
                        orow[j] += aik * bkj
        return Mat(out, self.rows, other.cols, coerce=False)

    def transpose(self):
        data = ([list(col) for col in zip(*self.data)] if self.rows
                else [[] for _ in range(self.cols)])
        return Mat(data, self.cols, self.rows, coerce=False)

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == (ONE if i == j else ZERO)
                   for i in range(self.rows) for j in range(self.cols))


def trace(m):
    """Sum of diagonal entries of a square matrix, as a Fraction."""
    m = SparseMat.from_mat(m)
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix (%d x %d)" % (m.rows, m.cols))
    return F(sum(terms.get(i, 0) for i, terms in enumerate(m.terms)))


def kron(a, b):
    """Kronecker product of two matrices.

    Entry (i1*b.rows+i2, j1*b.cols+j2) is a[i1][j1]*b[i2][j2].  Only the
    nonzero entries are read, and integral entries are kept as ints.
    """
    a, b = SparseMat.from_mat(a), SparseMat.from_mat(b)
    bi = [list(t.items()) for t in b.terms]
    bc = b.cols
    return SparseMat([{j1 * bc + j2: x * y for j1, x in arow.items()
                       for j2, y in brow}
                      for arow in a.terms for brow in bi],
                     a.rows * b.rows, a.cols * bc)


def block_diag(mats):
    """The block diagonal matrix of a list of matrices."""
    blocks = []
    rows = cols = 0
    for m in mats:
        blocks.append((rows, cols, SparseMat.from_mat(m)))
        rows += m.rows
        cols += m.cols
    return SparseMat.from_blocks(rows, cols, blocks)


def hstack(rows, mats):
    """The matrices ``mats``, each with ``rows`` rows, side by side."""
    assert all(m.rows == rows for m in mats)
    blocks = []
    cols = 0
    for m in mats:
        blocks.append((0, cols, SparseMat.from_mat(m)))
        cols += m.cols
    return SparseMat.from_blocks(rows, cols, blocks)


# ---------------------------------------------------------------------------
# sparse matrices and the integer elimination core

class SparseMat:
    """Row-sparse exact matrix.  Treat instances as immutable.

    ``terms[i]`` maps column -> entry for the nonzero entries of row i,
    each an int or a Fraction; ``from_mat`` stores integral entries as
    ints, so that products of integral matrices run in integers.
    """

    __slots__ = ("rows", "cols", "terms")

    def __init__(self, terms, rows, cols):
        self.rows = rows
        self.cols = cols
        self.terms = terms

    @staticmethod
    def from_mat(m):
        """m as a SparseMat; a SparseMat is returned as it is."""
        if type(m) is SparseMat:
            return m
        return SparseMat([{j: _exact(v) for j, v in enumerate(row) if v}
                          for row in m.data], m.rows, m.cols)

    @staticmethod
    def zeros(rows, cols):
        return SparseMat([{} for _ in range(rows)], rows, cols)

    @staticmethod
    def identity(n):
        return SparseMat([{i: 1} for i in range(n)], n, n)

    @staticmethod
    def from_blocks(rows, cols, blocks):
        """The rows x cols matrix holding each (row offset, column offset,
        SparseMat) of ``blocks``; the blocks do not overlap."""
        out = [{} for _ in range(rows)]
        for r0, c0, b in blocks:
            for i, terms in enumerate(b.terms, r0):
                if terms:
                    out[i].update({j + c0: v for j, v in terms.items()}
                                  if c0 else terms)
        return SparseMat(out, rows, cols)

    def to_mat(self):
        data = [[ZERO] * self.cols for _ in range(self.rows)]
        for row, terms in zip(data, self.terms):
            for j, v in terms.items():
                row[j] = F(v)
        return Mat(data, self.rows, self.cols, coerce=False)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, terms in enumerate(self.terms):
            for j, v in terms.items():
                out[j][i] = v
        return SparseMat(out, self.cols, self.rows)

    def __eq__(self, other):
        return (isinstance(other, SparseMat) and self.rows == other.rows
                and self.cols == other.cols and self.terms == other.terms)

    __hash__ = None

    def __add__(self, other):
        if type(other) is not SparseMat:
            return NotImplemented
        assert self.rows == other.rows and self.cols == other.cols
        out = []
        for a, b in zip(self.terms, other.terms):
            row = dict(a)
            for j, v in b.items():
                w = row.get(j, 0) + v
                if w:
                    row[j] = w
                else:
                    del row[j]
            out.append(row)
        return SparseMat(out, self.rows, self.cols)

    def smul(self, s):
        s = _exact(_coerce(s))
        if not s:
            return SparseMat.zeros(self.rows, self.cols)
        return SparseMat([{j: v * s for j, v in row.items()}
                          for row in self.terms], self.rows, self.cols)

    def __matmul__(self, other):
        if type(other) is not SparseMat:
            return NotImplemented
        assert self.cols == other.rows, (self.cols, other.rows)
        bt = other.terms
        out = []
        for arow in self.terms:
            acc = {}
            for k, a in arow.items():
                for j, b in bt[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return SparseMat(out, self.rows, other.cols)

    def is_zero(self):
        return not any(self.terms)

    def is_identity(self):
        return self.rows == self.cols and all(
            len(terms) == 1 and terms.get(i) == 1
            for i, terms in enumerate(self.terms))


def _integral(terms):
    """A sparse row rescaled by the lcm of its denominators: {column: int}."""
    if all(type(v) is int for v in terms.values()):
        return dict(terms)
    l = 1
    for v in terms.values():
        d = v.denominator
        if d != 1:
            l = l // gcd(l, d) * d
    if l == 1:
        return {j: v.numerator for j, v in terms.items()}
    return {j: v.numerator * (l // v.denominator) for j, v in terms.items()}


def _int_rows(m):
    """Sparse integer rows of a SparseMat."""
    return [_integral(t) for t in m.terms]


def _eliminate(rows, limit):
    """Forward elimination on sparse integer rows, which it consumes.

    Columns < ``limit`` are taken left to right.  The live rows whose
    leading column is c are the rows with a nonzero there; the sparsest
    of them is the pivot row of c, taken with a positive pivot p, and is
    subtracted from the others in place (copied only to scale by p), as
    in structured Gaussian elimination (LaMacchia-Odlyzko 1990).  The
    pivot columns depend only on the row space and the column order, not
    on which row is chosen.  Returns (echelon rows as (pivot column, row)
    in column order, the nonzero rows left with no pivot below ``limit``).
    """
    buckets = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    leads = list(buckets)
    heapify(leads)
    echelon = []
    while leads and leads[0] < limit:
        c = heappop(leads)
        bucket = buckets.pop(c)
        prow = min(bucket, key=len)
        p = prow[c]
        tail = [(j, v if p > 0 else -v) for j, v in prow.items() if j != c]
        p = abs(p)
        for row in bucket:
            if row is prow:
                continue
            q = row.pop(c)
            g = gcd(p, q)
            sp, sq = p // g, q // g
            if sp != 1:
                row = {j: v * sp for j, v in row.items()}
            for j, v in tail:
                w = row.get(j, 0) - v * sq
                if w:
                    row[j] = w
                else:
                    del row[j]
            if row:
                g = gcd(*row.values())
                if g > 1:
                    row = {j: v // g for j, v in row.items()}
                lead = min(row)
                if lead in buckets:
                    buckets[lead].append(row)
                else:
                    buckets[lead] = [row]
                    heappush(leads, lead)
        echelon.append((c, prow))
    return echelon, [row for b in buckets.values() for row in b]


def _echelon_system(echelon, n):
    """(pivot column, pivot entry, tail) per echelon row, the tail being
    the row's other nonzero (column, value) pairs among the first n."""
    return [(pc, row[pc], [(j, a) for j, a in row.items() if pc < j < n])
            for pc, row in echelon]


def _back_substitute(system, num, rhs=None):
    """Solve echelon rows for their pivot unknowns, in integers.

    Row i of ``system`` reads p * x[pc] + tail . x = rhs[i] (rhs 0 when
    ``rhs`` is None).  ``num`` presets the unknowns that are not pivots,
    as a {column: int} dict.  Rescaling the integer vector instead of
    dividing keeps the work out of Fraction arithmetic; the solution is
    num / den, returned as (num, den).
    """
    den = 1
    for i in range(len(system) - 1, -1, -1):
        pc, p, tail = system[i]
        t = rhs[i] * den if rhs else 0
        for j, a in tail:
            x = num.get(j)
            if x:
                t -= a * x
        if t:
            g = gcd(t, p)
            q = p // g
            t //= g
            if q < 0:
                q, t = -q, -t
            if q != 1:
                num = {j: x * q for j, x in num.items()}
                den *= q
            num[pc] = t
    return num, den


def _sparse(num, den):
    """The vector num / den as {column: entry}, integral entries as ints."""
    if den == 1:
        return {j: x for j, x in num.items() if x}
    return {j: _exact(F(x, den)) for j, x in num.items() if x}


def _columns(vectors, n):
    """The (n x len(vectors)) SparseMat whose columns are the (num, den)
    vectors."""
    rows = [{} for _ in range(n)]
    for j, (num, den) in enumerate(vectors):
        for k, v in _sparse(num, den).items():
            rows[k][j] = v
    return SparseMat(rows, n, len(vectors))


def _kernel_vectors(m):
    """Echelon basis of {v : m v = 0}, one (num, den) vector per free
    column (see ``_back_substitute``)."""
    n = m.cols
    echelon, _ = _eliminate(_int_rows(m), n)
    system = _echelon_system(echelon, n)
    pivcols = [pc for pc, _ in echelon]
    pivset = set(pivcols)
    # the rows whose pivot lies right of the free column stay at zero
    return [_back_substitute(system[:bisect(pivcols, fc)], {fc: 1})
            for fc in range(n) if fc not in pivset]


def rank(m):
    m = SparseMat.from_mat(m)
    return len(_eliminate(_int_rows(m), m.cols)[0])


def kernel_basis(m):
    """Matrix whose columns form a basis of {v : m v = 0}."""
    m = SparseMat.from_mat(m)
    return _columns(_kernel_vectors(m), m.cols)


def _image(s):
    """(the independent columns of the SparseMat s, their indices).

    Row reduction does not change column dependencies, so the pivot
    columns of the echelon form index a basis of the column space.
    """
    pivots = [pc for pc, _ in _eliminate(_int_rows(s), s.cols)[0]]
    col = {pc: k for k, pc in enumerate(pivots)}
    return SparseMat([{col[j]: v for j, v in terms.items() if j in col}
                      for terms in s.terms], s.rows, len(col)), pivots


def image_basis(m):
    """(basis matrix, column indices): independent columns of m."""
    return _image(SparseMat.from_mat(m))


def cokernel(m):
    """(dimension, projection) of W / image(m) for m : V -> W.

    The projection is a surjective (dim x W) matrix with proj @ m = 0;
    its rows span the left null space of m, taken straight from the
    back-substituted vectors.
    """
    m = SparseMat.from_mat(m)
    left = _kernel_vectors(m.transpose())
    return len(left), SparseMat([_sparse(num, den) for num, den in left],
                                len(left), m.rows)


class SolveResult:
    __slots__ = ("solution", "unique")

    def __init__(self, solution, unique):
        self.solution = solution
        self.unique = unique


def _solve(a, b):
    """(one (num, den) vector per column of b, unique) solving a @ x = b
    for SparseMats a and b, with the free variables at zero (see
    ``_back_substitute``), or None when inconsistent."""
    assert a.rows == b.rows
    n = a.cols
    rows = []
    for ta, tb in zip(a.terms, b.terms):
        row = dict(ta)
        for j, v in tb.items():
            row[n + j] = v
        rows.append(_integral(row))
    echelon, rest = _eliminate(rows, n)
    if rest:
        return None
    system = _echelon_system(echelon, n)
    return ([_back_substitute(system, {}, [row.get(n + bc, 0)
                                          for _, row in echelon])
             for bc in range(b.cols)], len(echelon) == n)


def solve_linear(a, b):
    """Solve a @ x = b exactly for a matrix of right-hand columns.

    Returns None when inconsistent, otherwise a SolveResult whose
    ``solution`` sets all free variables to zero and whose ``unique``
    flag reports whether the solution is the only one.
    """
    res = _solve(SparseMat.from_mat(a), SparseMat.from_mat(b))
    if res is None:
        return None
    sols, unique = res
    return SolveResult(_columns(sols, a.cols), unique=unique)


def inverse(m):
    assert m.rows == m.cols
    res = solve_linear(m, SparseMat.identity(m.rows))
    if res is None or not res.unique:
        raise ValueError("matrix is not invertible")
    return res.solution


def _unit_columns(terms):
    """{column: row} taking one column per row where the matrix with these
    sparse rows is that row's unit vector, or None when a row has none."""
    owner = {}      # column -> the row of its one nonzero, if that is 1
    for r, row in enumerate(terms):
        for c, v in row.items():
            owner[c] = -1 if c in owner or v != 1 else r
    unit = {}
    for c, r in owner.items():
        if r >= 0:
            unit.setdefault(r, c)
    if len(unit) < len(terms):
        return None
    return {c: r for r, c in unit.items()}


def factor_through(p, m):
    """The unique n with n @ p = m, for surjective p.

    A projection from ``cokernel`` is the unit vector e_r at the free
    column of each row r, so n is m read at those columns, and what is
    left is the check n @ p = m, as a sparse product; only a p with no
    unit column in some row is solved for.  Fails loudly when m does not
    kill the kernel of p, i.e. when no factorization exists.
    """
    p, m = SparseMat.from_mat(p), SparseMat.from_mat(m)
    assert p.cols == m.cols, (p.cols, m.cols)
    unit = _unit_columns(p.terms)
    if unit is not None:
        n = SparseMat([{unit[c]: v for c, v in row.items() if c in unit}
                       for row in m.terms], m.rows, p.rows)
        if (n @ p) != m:
            raise ValueError("map does not factor through the projection")
        return n
    res = _solve(p.transpose(), m.transpose())
    if res is None:
        raise ValueError("map does not factor through the projection")
    if not res[1]:
        raise ValueError("projection is not surjective; factorization ambiguous")
    return SparseMat([_sparse(num, den) for num, den in res[0]],
                     m.rows, p.rows)


def idempotent_image(e):
    """(i, p) with p @ i = id, i @ p = e, columns of i a basis of im(e).

    The checks, the pivot columns and the solve for p run on sparse
    rows.
    """
    if e.rows != e.cols:
        raise ValueError("idempotent must be square")
    s = SparseMat.from_mat(e)
    # e o e = e as l^2 e o e = l (l e), in integers, l the lcm of e's
    # denominators
    l = 1
    for terms in s.terms:
        for v in terms.values():
            l = l // gcd(l, v.denominator) * v.denominator
    le = SparseMat([{j: v.numerator * (l // v.denominator)
                     for j, v in terms.items()} for terms in s.terms],
                   s.rows, s.cols)
    if not (le @ le == le.smul(l)):
        raise ValueError("matrix is not idempotent")
    i, _ = _image(s)
    res = _solve(i, s)
    assert res is not None and res[1]
    p = _columns(res[0], i.cols)
    assert (p @ i).is_identity()
    return i, p


# ---------------------------------------------------------------------------
# bounded chain complexes

class ChainComplex:
    """Bounded complex of rational spaces; d[n] maps degree n to n-1.

    A differential is kept as a SparseMat (a Mat given is converted once,
    here), read by ``sparse_diff(n)``, and the checks run on it.
    ``diff(n)`` and ``d`` are Mats, built on each read.
    """

    __slots__ = ("dims", "_d")

    def __init__(self, dims, d, check=True):
        self.dims = {n: dim for n, dim in dims.items() if dim}
        self._d = {n: SparseMat.from_mat(m) for n, m in d.items()
                   if m.rows or m.cols}
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    def dim(self, n):
        return self.dims.get(n, 0)

    def degrees(self):
        return sorted(self.dims)

    def support(self):
        if not self.dims:
            return range(0)
        lo = min(self.dims)
        hi = max(self.dims)
        return range(lo, hi + 1)

    def diff(self, n):
        return self.sparse_diff(n).to_mat()

    def sparse_diff(self, n):
        return self._d.get(n) or SparseMat.zeros(self.dim(n - 1), self.dim(n))

    @property
    def d(self):
        """The given differentials by degree, as Mats."""
        return {n: m.to_mat() for n, m in self._d.items()}

    def total_dim(self):
        return sum(self.dims.values())

    def violations(self):
        out = []
        for n, m in self._d.items():
            if m.rows != self.dim(n - 1) or m.cols != self.dim(n):
                out.append("differential at degree %d has shape %dx%d, expected %dx%d"
                           % (n, m.rows, m.cols, self.dim(n - 1), self.dim(n)))
        for n in self.dims:
            a, b = self._d.get(n), self._d.get(n + 1)
            # pairs of the wrong shape are left to the shape check
            if (a is not None and b is not None and a.cols == b.rows
                    and not (a @ b).is_zero()):
                out.append("d o d nonzero out of degree %d" % (n + 1,))
        return out

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and self.dims == other.dims
                and all(self.sparse_diff(n) == other.sparse_diff(n)
                        for n in self._d.keys() | other._d.keys()))

    def __repr__(self):
        return "ChainComplex(%r)" % (self.dims,)


class ChainMap:
    """Degreewise matrices between two complexes, commuting with d.

    A component is kept as a SparseMat (a Mat given is converted once,
    here), read by ``sparse_mat(n)``, and composition, sums, comparison
    and the commutation check run on it.  ``mat(n)`` and
    ``mats`` are Mats, built on each read.
    """

    __slots__ = ("src", "dst", "_mats")

    def __init__(self, src, dst, mats, check=True):
        self.src = src
        self.dst = dst
        self._mats = {n: SparseMat.from_mat(m) for n, m in mats.items()
                      if m.rows or m.cols}
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    @staticmethod
    def from_blocks(src, dst, blocks):
        """The unchecked chain map src -> dst whose component in each
        degree n holds the (row offset, column offset, SparseMat) blocks
        of ``blocks[n]``; see ``SparseMat.from_blocks``."""
        return ChainMap(src, dst, {
            n: SparseMat.from_blocks(dst.dim(n), src.dim(n), b)
            for n, b in blocks.items()}, check=False)

    def mat(self, n):
        return self.sparse_mat(n).to_mat()

    def sparse_mat(self, n):
        return (self._mats.get(n)
                or SparseMat.zeros(self.dst.dim(n), self.src.dim(n)))

    @property
    def mats(self):
        """The given components by degree, as Mats."""
        return {n: m.to_mat() for n, m in self._mats.items()}

    def violations(self):
        out = []
        for n, m in self._mats.items():
            if m.rows != self.dst.dim(n) or m.cols != self.src.dim(n):
                out.append("component at degree %d has shape %dx%d, expected %dx%d"
                           % (n, m.rows, m.cols, self.dst.dim(n), self.src.dim(n)))
                return out
        degs = set(self.src.dims) | set(self.dst.dims)
        for n in degs:
            lhs = self.dst.sparse_diff(n) @ self.sparse_mat(n)
            rhs = self.sparse_mat(n - 1) @ self.src.sparse_diff(n)
            if lhs != rhs:
                out.append("does not commute with differentials at degree %d" % n)
        return out

    def compose(self, other):
        """self after other (other first)."""
        assert other.dst is self.src or other.dst == self.src
        degs = self._mats.keys() | other._mats.keys()
        return ChainMap(other.src, self.dst,
                        {n: self.sparse_mat(n) @ other.sparse_mat(n)
                         for n in degs}, check=False)

    def __add__(self, other):
        degs = self._mats.keys() | other._mats.keys()
        return ChainMap(self.src, self.dst,
                        {n: self.sparse_mat(n) + other.sparse_mat(n)
                         for n in degs}, check=False)

    def smul(self, s):
        return ChainMap(self.src, self.dst,
                        {n: m.smul(s) for n, m in self._mats.items()},
                        check=False)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return False
        degs = self._mats.keys() | other._mats.keys()
        return all(self.sparse_mat(n) == other.sparse_mat(n) for n in degs)


def identity_chain_map(c):
    return ChainMap(c, c, {n: SparseMat.identity(c.dim(n)) for n in c.dims},
                    check=False)


def lefschetz(f):
    """Alternating sum of degreewise traces of a chain endomorphism."""
    if f.src.dims != f.dst.dims:
        raise ValueError("lefschetz needs an endomorphism")
    tot = ZERO
    for n, m in f._mats.items():
        tot += trace(m) if n % 2 == 0 else -trace(m)
    return tot


def shift(c, k):
    """Shifted complex with dim(n) = c.dim(n-k); d picks up the sign (-1)^k."""
    dims = {n + k: dim for n, dim in c.dims.items()}
    sign = ONE if k % 2 == 0 else -ONE
    d = {n + k: m.smul(sign) for n, m in c._d.items()}
    return ChainComplex(dims, d, check=False)


def direct_sum(complexes):
    """(the direct sum of complexes, each one's {degree: offset} in it);
    the differentials are placed as sparse blocks."""
    dims = {}
    offs = []
    for c in complexes:
        off = {}
        for n in c.dims:
            off[n] = dims.get(n, 0)
            dims[n] = off[n] + c.dim(n)
        offs.append(off)
    d = {n: SparseMat.from_blocks(
            dims[n - 1], dims[n],
            [(off[n - 1], off[n], c.sparse_diff(n))
             for c, off in zip(complexes, offs) if n in off and n - 1 in off])
         for n in dims if n - 1 in dims}
    return ChainComplex(dims, d, check=False), offs


def cone(f):
    """Mapping cone of f : X -> Y.

    cone_n = Y_n (+) X_{n-1} with d(y, x) = (d y + f x, -d x), i.e. the
    block matrix [[d_Y, f], [0, -d_X]].  Returns (cone, include_Y,
    project_to_shifted_X).
    """
    x, y = f.src, f.dst
    degs = set(y.dims) | {n + 1 for n in x.dims}
    dims = {n: y.dim(n) + x.dim(n - 1) for n in degs}
    d = {n: SparseMat.from_blocks(
            y.dim(n - 1) + x.dim(n - 2), dims[n],
            [(0, 0, y.sparse_diff(n)), (0, y.dim(n), f.sparse_mat(n - 1)),
             (y.dim(n - 1), y.dim(n), x.sparse_diff(n - 1).smul(-1))])
         for n in dims}
    c = ChainComplex(dims, d)
    inc = ChainMap.from_blocks(y, c, {
        n: [(0, 0, SparseMat.identity(y.dim(n)))] for n in y.dims})
    sx = shift(x, 1)
    proj = ChainMap.from_blocks(c, sx, {
        n: [(0, y.dim(n), SparseMat.identity(sx.dim(n)))] for n in sx.dims})
    return c, inc, proj


def cone_endo(f, g_src, g_dst):
    """Endomorphism of cone(f) induced by a commuting square (g_src, g_dst)."""
    c, _, _ = cone(f)
    y = f.dst
    return c, ChainMap.from_blocks(c, c, {
        n: [(0, 0, g_dst.sparse_mat(n)),
            (y.dim(n), y.dim(n), g_src.sparse_mat(n - 1))] for n in c.dims})


def homology_dims(c):
    out = {}
    for n in c.support():
        z = c.dim(n) - rank(c.sparse_diff(n))
        b = rank(c.sparse_diff(n + 1))
        if z - b:
            out[n] = z - b
    return out


def homology_endo_traces(f):
    """Traces of the maps induced on homology by a chain endomorphism.

    Computed from explicit cycle/boundary bases; independent of any trace
    formula on the chain level.
    """
    c = f.src
    out = {}
    for n in c.support():
        dim = c.dim(n)
        # basis vectors as the rows of the transposed basis matrices
        cycles = kernel_basis(c.sparse_diff(n)).transpose().terms
        bounds = image_basis(c.sparse_diff(n + 1))[0].transpose().terms
        # extend the boundary basis to a basis of the cycles
        acc = list(bounds)
        for z in cycles:
            if rank(SparseMat(acc + [z], len(acc) + 1, dim)) > len(acc):
                acc.append(z)
        chosen = len(acc) - len(bounds)
        if not chosen:
            out[n] = ZERO
            continue
        cmat = SparseMat(acc[len(bounds):], chosen, dim).transpose()
        full = SparseMat(acc, len(acc), dim).transpose()
        res = solve_linear(full, f.sparse_mat(n) @ cmat)
        assert res is not None and res.unique
        coords = res.solution.terms
        out[n] = F(sum(coords[len(bounds) + i].get(i, 0)
                       for i in range(chosen)))
    return out


def lefschetz_via_homology(f):
    tot = ZERO
    for n, t in homology_endo_traces(f).items():
        tot += t if n % 2 == 0 else -t
    return tot
