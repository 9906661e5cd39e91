"""Exact rational matrices and bounded chain complexes.

Everything here is dense and exact: entries are ``fractions.Fraction``,
eliminations run fraction-free on integer-rescaled rows, and no floating
point appears anywhere.  Matrices act on column vectors, so a map V -> W
is a (dim W x dim V) matrix.
"""

from fractions import Fraction
from math import gcd

F = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def _coerce(x):
    return x if type(x) is Fraction else Fraction(x)


class Mat:
    """Dense matrix over Fraction.  Treat instances as immutable."""

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
        assert self.rows == other.rows and self.cols == other.cols
        return Mat([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)],
                   self.rows, self.cols, coerce=False)

    def __sub__(self, other):
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
        assert self.cols == other.rows, (self.cols, other.rows)
        od = other.data
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, aik in enumerate(arow):
                if aik:
                    brow = od[k]
                    for j, bkj in enumerate(brow):
                        if bkj:
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
    """Sum of diagonal entries of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix (%d x %d)" % (m.rows, m.cols))
    return sum((m.data[i][i] for i in range(m.rows)), ZERO)


def kron(a, b):
    """Kronecker product; index (i1*b.rows+i2, j1*b.cols+j2)."""
    out = [[ZERO] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i1, arow in enumerate(a.data):
        for j1, av in enumerate(arow):
            if av:
                for i2, brow in enumerate(b.data):
                    orow = out[i1 * b.rows + i2]
                    base = j1 * b.cols
                    for j2, bv in enumerate(brow):
                        if bv:
                            orow[base + j2] = av * bv
    return Mat(out, a.rows * b.rows, a.cols * b.cols, coerce=False)


def direct_sum(a, b):
    return block_diag([a, b])


def block_diag(mats):
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[ZERO] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.data):
            orow = out[r0 + i]
            for j, v in enumerate(row):
                orow[c0 + j] = v
        r0 += m.rows
        c0 += m.cols
    return Mat(out, rows, cols, coerce=False)


def hstack(mats):
    rows = mats[0].rows
    assert all(m.rows == rows for m in mats)
    data = [sum((m.data[i] for m in mats), []) for i in range(rows)]
    return Mat(data, rows, sum(m.cols for m in mats), coerce=False)


def vstack(mats):
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    data = [row[:] for m in mats for row in m.data]
    return Mat(data, sum(m.rows for m in mats), cols, coerce=False)


def vec(m):
    """Flatten a matrix into the column vector of V (x) W^* coordinates.

    The map W -> V with matrix m corresponds to the element of V (x) W^*
    whose coordinate at (i, j) = i*cols+j is m[i][j].
    """
    col = [x for row in m.data for x in row]
    return Mat([[x] for x in col], m.rows * m.cols, 1, coerce=False)


# ---------------------------------------------------------------------------
# fraction-free elimination core

def _int_rows(m):
    """Rescale each row by the lcm of denominators; returns int rows."""
    out = []
    for row in m.data:
        l = 1
        for x in row:
            d = x.denominator
            if d != 1:
                l = l // gcd(l, d) * d
        if l == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([int(x * l) for x in row])
    return out


def _reduce_row(row):
    g = gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _echelon_int(rows, ncols, pivot_limit=None):
    """In-place forward elimination over the integers.

    Pivots are searched only in columns < pivot_limit (defaults to all).
    Returns the list of pivot column indices; ``rows`` is left in echelon
    form with its nonzero rows first.
    """
    if pivot_limit is None:
        pivot_limit = ncols
    r = 0
    pivots = []
    nrows = len(rows)
    for c in range(pivot_limit):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        ptail = prow[c:]
        for i in range(r + 1, nrows):
            ri = rows[i]
            q = ri[c]
            if q:
                ri[c:] = [x * p - y * q for x, y in zip(ri[c:], ptail)]
                rows[i] = _reduce_row(ri)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(m):
    rows = _int_rows(m)
    return len(_echelon_int(rows, m.cols))


def _back_substitute(tails, pivots, num, rhs):
    """Solve echelon rows for their pivot unknowns, in integers.

    Row i has its pivot entry ``pivots[i]`` = (column, value) and its
    other nonzero unknown coefficients in ``tails[i]`` as (column,
    value) pairs; it reads row . x = rhs[i].  ``num`` presets the
    unknowns that are not pivots.  Rescaling the integer vector instead
    of dividing keeps the work out of Fraction arithmetic; the solution
    num / den comes back as Fractions.
    """
    den = 1
    for i in range(len(pivots) - 1, -1, -1):
        pc, p = pivots[i]
        t = rhs[i] * den
        for j, a in tails[i]:
            x = num[j]
            if x:
                t -= a * x
        if t:
            g = gcd(t, p)
            q = p // g
            t //= g
            if q < 0:
                q, t = -q, -t
            if q != 1:
                num = [x * q for x in num]
                den *= q
            num[pc] = t
    if den == 1:
        return [F(x) if x else ZERO for x in num]
    return [F(x, den) if x else ZERO for x in num]


def _echelon_system(rows, pivots, n):
    """(tails, pivots) of echelon rows for ``_back_substitute``: the
    nonzero coefficients right of each pivot among the first n columns."""
    tails = [[(j, row[j]) for j in range(pc + 1, n) if row[j]]
             for row, pc in zip(rows, pivots)]
    return tails, [(pc, row[pc]) for row, pc in zip(rows, pivots)]


def _kernel_vectors(m):
    """Echelon basis of {v : m v = 0}: one vector per free column."""
    n = m.cols
    rows = _int_rows(m)
    pivots = _echelon_int(rows, n)
    pivset = set(pivots)
    tails, pivs = _echelon_system(rows, pivots, n)
    zero = [0] * len(pivots)
    basis = []
    for fc in range(n):
        if fc not in pivset:
            num = [0] * n
            num[fc] = 1
            basis.append(_back_substitute(tails, pivs, num, zero))
    return basis


def kernel_basis(m):
    """Matrix whose columns form a basis of {v : m v = 0}."""
    basis = _kernel_vectors(m)
    return Mat.from_cols(basis, m.cols) if basis else Mat.zeros(m.cols, 0)


def image_basis(m):
    """(basis matrix, column indices): independent columns of m.

    Row reduction does not change column dependencies, so the pivot
    columns of the echelon form index a basis of the column space.
    """
    rows = _int_rows(m)
    pivots = _echelon_int(rows, m.cols)
    cols = [m.col(j) for j in pivots]
    return (Mat.from_cols(cols, m.rows) if cols else Mat.zeros(m.rows, 0)), pivots


def cokernel(m):
    """(dimension, projection) of W / image(m) for m : V -> W.

    The projection is a surjective (dim x W) matrix with proj @ m = 0; its
    rows span the left null space of m.
    """
    left = _kernel_vectors(m.transpose())
    return len(left), Mat(left, len(left), m.rows, coerce=False)


class SolveResult:
    __slots__ = ("solution", "unique")

    def __init__(self, solution, unique):
        self.solution = solution
        self.unique = unique


def solve_linear(a, b):
    """Solve a @ x = b exactly for a matrix of right-hand columns.

    Returns None when inconsistent, otherwise a SolveResult whose
    ``solution`` sets all free variables to zero and whose ``unique`` flag
    reports whether the solution is the only one.
    """
    assert a.rows == b.rows
    n = a.cols
    aug = hstack([a, b])
    rows = _int_rows(aug)
    pivots = _echelon_int(rows, aug.cols, pivot_limit=n)
    nz = [r for r in rows if any(r)]
    for r in nz[len(pivots):]:
        if any(r[n:]):
            return None
    tails, pivs = _echelon_system(rows, pivots, n)
    sols = [_back_substitute(tails, pivs, [0] * n,
                             [rows[i][n + bc] for i in range(len(pivots))])
            for bc in range(b.cols)]
    return SolveResult(Mat.from_cols(sols, n), unique=(len(pivots) == n))


def inverse(m):
    assert m.rows == m.cols
    res = solve_linear(m, Mat.identity(m.rows))
    if res is None or not res.unique:
        raise ValueError("matrix is not invertible")
    return res.solution


def factor_through(p, m):
    """The unique n with n @ p = m, for surjective p.

    Fails loudly when m does not kill the kernel of p, i.e. when no
    factorization exists.
    """
    res = solve_linear(p.transpose(), m.transpose())
    if res is None:
        raise ValueError("map does not factor through the projection")
    if not res.unique:
        raise ValueError("projection is not surjective; factorization ambiguous")
    return res.solution.transpose()


def idempotent_image(e):
    """(i, p) with p @ i = id, i @ p = e, columns of i a basis of im(e)."""
    if e.rows != e.cols:
        raise ValueError("idempotent must be square")
    if not (e @ e == e):
        raise ValueError("matrix is not idempotent")
    i, _cols = image_basis(e)
    res = solve_linear(i, e)
    assert res is not None and res.unique
    p = res.solution
    assert (p @ i).is_identity()
    return i, p


# ---------------------------------------------------------------------------
# bounded chain complexes

class ChainComplex:
    """Bounded complex of rational spaces; d[n] maps degree n to n-1."""

    __slots__ = ("dims", "d")

    def __init__(self, dims, d, check=True):
        self.dims = {n: dim for n, dim in dims.items() if dim}
        self.d = {}
        for n, m in d.items():
            if m.rows or m.cols:
                self.d[n] = m
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
        m = self.d.get(n)
        if m is None:
            return Mat.zeros(self.dim(n - 1), self.dim(n))
        return m

    def total_dim(self):
        return sum(self.dims.values())

    def violations(self):
        out = []
        for n, m in self.d.items():
            if m.rows != self.dim(n - 1) or m.cols != self.dim(n):
                out.append("differential at degree %d has shape %dx%d, expected %dx%d"
                           % (n, m.rows, m.cols, self.dim(n - 1), self.dim(n)))
        for n in list(self.dims):
            a = self.diff(n)
            b = self.diff(n + 1)
            if a.cols == b.rows and not (a @ b).is_zero():
                out.append("d o d nonzero out of degree %d" % (n + 1,))
        return out

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and self.dims == other.dims
                and all(self.diff(n) == other.diff(n)
                        for n in set(self.d) | set(other.d)))

    def __repr__(self):
        return "ChainComplex(%r)" % (self.dims,)


class ChainMap:
    """Degreewise matrices between two complexes, commuting with d."""

    __slots__ = ("src", "dst", "mats")

    def __init__(self, src, dst, mats, check=True):
        self.src = src
        self.dst = dst
        self.mats = {}
        for n, m in mats.items():
            if m.rows or m.cols:
                self.mats[n] = m
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    def mat(self, n):
        m = self.mats.get(n)
        if m is None:
            return Mat.zeros(self.dst.dim(n), self.src.dim(n))
        return m

    def violations(self):
        out = []
        for n, m in self.mats.items():
            if m.rows != self.dst.dim(n) or m.cols != self.src.dim(n):
                out.append("component at degree %d has shape %dx%d, expected %dx%d"
                           % (n, m.rows, m.cols, self.dst.dim(n), self.src.dim(n)))
                return out
        degs = set(self.src.dims) | set(self.dst.dims)
        for n in degs:
            lhs = self.dst.diff(n) @ self.mat(n)
            rhs = self.mat(n - 1) @ self.src.diff(n)
            if lhs != rhs:
                out.append("does not commute with differentials at degree %d" % n)
        return out

    def compose(self, other):
        """self after other (other first)."""
        assert other.dst is self.src or other.dst == self.src
        degs = set(self.mats) | set(other.mats)
        return ChainMap(other.src, self.dst,
                        {n: self.mat(n) @ other.mat(n) for n in degs}, check=False)

    def __add__(self, other):
        degs = set(self.mats) | set(other.mats)
        return ChainMap(self.src, self.dst,
                        {n: self.mat(n) + other.mat(n) for n in degs}, check=False)

    def smul(self, s):
        return ChainMap(self.src, self.dst,
                        {n: m.smul(s) for n, m in self.mats.items()}, check=False)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return False
        degs = set(self.mats) | set(other.mats)
        return all(self.mat(n) == other.mat(n) for n in degs)


def identity_chain_map(c):
    return ChainMap(c, c, {n: Mat.identity(c.dim(n)) for n in c.dims}, check=False)


def lefschetz(f):
    """Alternating sum of degreewise traces of a chain endomorphism."""
    if f.src.dims != f.dst.dims:
        raise ValueError("lefschetz needs an endomorphism")
    tot = ZERO
    for n in f.src.dims:
        tot += trace(f.mat(n)) if n % 2 == 0 else -trace(f.mat(n))
    return tot


def shift(c, k):
    """Shifted complex with dim(n) = c.dim(n-k); d picks up the sign (-1)^k."""
    dims = {n + k: dim for n, dim in c.dims.items()}
    sign = ONE if k % 2 == 0 else -ONE
    d = {n + k: m.smul(sign) for n, m in c.d.items()}
    return ChainComplex(dims, d, check=False)


def shift_map(f, k):
    return ChainMap(shift(f.src, k), shift(f.dst, k),
                    {n + k: m for n, m in f.mats.items()}, check=False)


def cone(f):
    """Mapping cone of f : X -> Y.

    cone_n = Y_n (+) X_{n-1} with d(y, x) = (d y + f x, -d x).  Returns
    (cone, include_Y, project_to_shifted_X).
    """
    x, y = f.src, f.dst
    degs = set(y.dims) | {n + 1 for n in x.dims}
    dims = {n: y.dim(n) + x.dim(n - 1) for n in degs}
    d = {}
    for n in dims:
        top = hstack([y.diff(n), f.mat(n - 1)])
        bot = hstack([Mat.zeros(x.dim(n - 2), y.dim(n)), -x.diff(n - 1)])
        d[n] = vstack([top, bot])
    c = ChainComplex(dims, d)
    inc = ChainMap(y, c, {n: vstack([Mat.identity(y.dim(n)),
                                     Mat.zeros(x.dim(n - 1), y.dim(n))])
                          for n in y.dims}, check=False)
    sx = shift(x, 1)
    proj = ChainMap(c, sx, {n: hstack([Mat.zeros(x.dim(n - 1), y.dim(n)),
                                       Mat.identity(x.dim(n - 1))])
                            for n in sx.dims}, check=False)
    return c, inc, proj


def cone_endo(f, g_src, g_dst):
    """Endomorphism of cone(f) induced by a commuting square (g_src, g_dst)."""
    c, _, _ = cone(f)
    mats = {}
    for n in c.dims:
        mats[n] = block_diag([g_dst.mat(n), g_src.mat(n - 1)])
    return c, ChainMap(c, c, mats, check=False)


def homology_dims(c):
    out = {}
    for n in c.support():
        z = c.dim(n) - rank(c.diff(n))
        b = rank(c.diff(n + 1))
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
        zmat = kernel_basis(c.diff(n))
        bmat, _ = image_basis(c.diff(n + 1))
        # extend the boundary basis to a basis of the cycles
        chosen = []
        acc = bmat
        for j in range(zmat.cols):
            cand = hstack([acc, Mat.from_cols([zmat.col(j)], zmat.rows)])
            if rank(cand) > rank(acc):
                chosen.append(j)
                acc = cand
        if not chosen:
            out[n] = ZERO
            continue
        cmat = Mat.from_cols([zmat.col(j) for j in chosen], zmat.rows)
        full = hstack([bmat, cmat])
        res = solve_linear(full, f.mat(n) @ cmat)
        assert res is not None and res.unique
        coords = res.solution
        t = ZERO
        for i in range(len(chosen)):
            t += coords.data[bmat.cols + i][i]
        out[n] = t
    return out


def lefschetz_via_homology(f):
    tot = ZERO
    for n, t in homology_endo_traces(f).items():
        tot += t if n % 2 == 0 else -t
    return tot
