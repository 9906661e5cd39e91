import operator
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracelin.exactalg import (
    ChainComplex, ChainMap, Mat, SparseMat, block_diag, cokernel, cone,
    cone_endo, direct_sum, factor_through, hstack, homology_dims,
    homology_endo_traces, idempotent_image, identity_chain_map, image_basis,
    inverse, kernel_basis, kron, lefschetz, lefschetz_via_homology, rank,
    shift, solve_linear, trace,
)


def rand_mat(rng, r, c, lo=-3, hi=3):
    return Mat([[F(rng.randint(lo, hi)) for _ in range(c)] for _ in range(r)])


def test_trace_identity():
    for n in range(4):
        assert trace(Mat.identity(n)) == n


def test_trace_idempotent_block():
    assert trace(Mat([[0, 0], [1, 1]])) == 1


def test_trace_non_square_rejected():
    with pytest.raises(ValueError):
        trace(Mat.zeros(2, 3))


def test_trace_multiplicative_under_kron():
    rng = random.Random(11)
    for _ in range(50):
        a = rand_mat(rng, 2, 2)
        b = rand_mat(rng, 3, 3)
        assert trace(kron(a, b)) == trace(a) * trace(b)


@st.composite
def _kron_factor(draw):
    """(a Mat or a SparseMat of 0 to 3 rows and columns, its entries as
    lists); the entries are ints, Fractions or zero."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    m = Mat(data, rows, cols)
    return (SparseMat.from_mat(m) if draw(st.booleans()) else m), data


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_kron_factor(), _kron_factor())
@example(fa=(Mat([], 0, 2), []),
         fb=(SparseMat.from_mat(Mat([[1], [0]])), [[1], [0]]))
@example(fa=(SparseMat([{}, {}], 2, 0), [[], []]),
         fb=(Mat([[F(1, 2), 3]]), [[F(1, 2), 3]]))
def test_kron_matches_definition(fa, fb):
    (a, da), (b, db) = fa, fb
    k = kron(a, b)
    assert type(k) is SparseMat
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    assert len(k.terms) == k.rows
    for i1 in range(a.rows):
        for i2 in range(b.rows):
            terms = k.terms[i1 * b.rows + i2]
            assert all(v and 0 <= c < k.cols for c, v in terms.items())
            for j1 in range(a.cols):
                for j2 in range(b.cols):
                    x, y = F(da[i1][j1]), F(db[i2][j2])
                    got = terms.get(j1 * b.cols + j2, 0)
                    assert got == x * y
                    # integral entries multiply as ints
                    if x.denominator == y.denominator == 1:
                        assert type(got) is int


def test_trace_cyclic():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_mat(rng, 2, 3)
        b = rand_mat(rng, 3, 2)
        assert trace(a @ b) == trace(b @ a)


def test_kernel_and_image():
    rng = random.Random(7)
    for _ in range(25):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        k = kernel_basis(m).to_mat()
        assert (m @ k).is_zero()
        assert k.cols == m.cols - rank(m)
        img, cols = image_basis(m)
        assert img.cols == rank(m)
        assert all(0 <= j < m.cols for j in cols)


def test_cokernel_projection():
    rng = random.Random(9)
    for _ in range(25):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        dim, proj = cokernel(m)
        assert (proj @ SparseMat.from_mat(m)).is_zero()
        assert rank(proj) == proj.rows == dim == m.rows - rank(m)


def test_solve_reports_unique_and_inconsistent():
    res = solve_linear(Mat([[1, 0], [0, 1]]), Mat([[2], [3]]))
    assert res.unique and res.solution.to_mat().data == [[F(2)], [F(3)]]
    assert solve_linear(Mat([[1], [1]]), Mat([[0], [1]])) is None
    res = solve_linear(Mat([[1, 1]]), Mat([[1]]))
    assert res is not None and not res.unique


def test_factor_through_requires_descent():
    p = Mat([[1, -1]])
    assert factor_through(p, Mat([[2, -2]])).to_mat().data == [[F(2)]]
    with pytest.raises(ValueError):
        factor_through(p, Mat([[1, 1]]))


def test_factor_through_returns_a_sparse_mat_on_both_paths():
    # unit-column path: the row of p is e_0 - e_1, with a unit column
    n = factor_through(Mat([[1, -1]]), Mat([[2, -2]]))
    assert type(n) is SparseMat and n.to_mat() == Mat([[2]])
    # solved path: row 0 of p has no unit column
    p, m = Mat([[2, 0], [0, 1]]), Mat([[4, 3], [1, 0]])
    n = factor_through(p, m)
    assert type(n) is SparseMat and n.to_mat() == Mat([[2, 3], [F(1, 2), 0]])
    assert n @ SparseMat.from_mat(p) == SparseMat.from_mat(m)


def test_mixed_products_raise_type_error():
    for a, b in ((Mat.identity(2), SparseMat.identity(2)),
                 (SparseMat.identity(2), Mat.identity(2))):
        for op in (operator.matmul, operator.add, operator.sub):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(a, b)


def test_inverse():
    m = Mat([[1, 2], [3, 5]])
    assert (inverse(m).to_mat() @ m).is_identity()
    with pytest.raises(ValueError):
        inverse(Mat([[1, 2], [2, 4]]))


def test_sparse_from_mat_returns_a_sparse_matrix_as_it_is():
    m = Mat([[1, 0], [F(1, 2), 3]])
    s = SparseMat.from_mat(m)
    assert s.terms == [{0: 1}, {0: F(1, 2), 1: 3}]
    assert SparseMat.from_mat(s) is s


def test_idempotent_image_splitting():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(1, 4)
        r = rng.randint(0, d)
        p = Mat.identity(d)
        p.data[rng.randrange(d)][rng.randrange(d)] += F(rng.randint(-1, 1))
        if rank(p) < d:
            continue
        e = (p @ block_diag([Mat.identity(r),
                             Mat.zeros(d - r, d - r)]).to_mat()
             @ inverse(p).to_mat())
        i, q = idempotent_image(e)
        assert (q @ i).is_identity()
        assert (i @ q).to_mat() == e
        assert rank(e) == i.cols == r


def test_complex_rejects_bad_differential():
    with pytest.raises(ValueError):
        ChainComplex({0: 1, 1: 1, 2: 1},
                     {1: Mat([[1]]), 2: Mat([[1]])})


def sample_complex():
    # 0 -> Q -> Q^2 -> Q -> 0 in degrees 2, 1, 0 with zero homology in
    # the middle: d2 = (1, 0)^t, d1 = (0, 1)
    return ChainComplex({0: 1, 1: 2, 2: 1},
                        {2: Mat([[1], [0]]), 1: Mat([[0, 1]])})


def test_lefschetz_of_identity_is_graded_dimension():
    c = ChainComplex({0: 2, 1: 3}, {})
    assert lefschetz(identity_chain_map(c)) == -1


def test_shift_flips_lefschetz():
    c = sample_complex()
    f = identity_chain_map(c)
    shifted = ChainMap(shift(c, 1), shift(c, 1),
                       {n + 1: f.sparse_mat(n) for n in c.dims})
    assert lefschetz(shifted) == -lefschetz(f)
    assert shift(shift(c, 1), -1) == c


def test_cone_of_identity_is_acyclic():
    c = sample_complex()
    cc, inc, proj = cone(identity_chain_map(c))
    assert homology_dims(cc) == {}
    assert not inc.violations() and not proj.violations()


def test_cone_of_zero_map_is_shifted_source():
    c = sample_complex()
    zero = ChainComplex({}, {})
    f = ChainMap(c, zero, {})
    cc, _inc, _proj = cone(f)
    assert cc.dims == shift(c, 1).dims
    assert homology_dims(cc) == homology_dims(shift(c, 1))


def _vstack(mats):
    return Mat([row for m in mats for row in m.data],
               sum(m.rows for m in mats), mats[0].cols)


def dense_cone(f):
    """cone(f)'s dimensions, differentials, inclusion and projection,
    built by stacking dense Mat blocks."""
    x, y = f.src, f.dst
    degs = set(y.dims) | {n + 1 for n in x.dims}
    dims = {n: y.dim(n) + x.dim(n - 1) for n in degs}
    d = {n: _vstack([hstack(y.dim(n - 1), [y.diff(n), f.mat(n - 1)]).to_mat(),
                     hstack(x.dim(n - 2), [Mat.zeros(x.dim(n - 2), y.dim(n)),
                                           -x.diff(n - 1)]).to_mat()])
         for n in dims}
    inc = {n: _vstack([Mat.identity(y.dim(n)),
                       Mat.zeros(x.dim(n - 1), y.dim(n))]) for n in y.dims}
    proj = {n + 1: hstack(x.dim(n), [Mat.zeros(x.dim(n), y.dim(n + 1)),
                                     Mat.identity(x.dim(n))]).to_mat()
            for n in x.dims}
    return dims, d, inc, proj


def _nonempty(mats):
    return {n: m for n, m in mats.items() if m.rows or m.cols}


def test_cone_matches_dense_block_reference():
    from tracelin import diagrams, harness
    rng = random.Random(29)
    c = sample_complex()
    pairs = [(identity_chain_map(c), identity_chain_map(c),
              identity_chain_map(c))]
    while len(pairs) < 21:
        x, y = harness.random_complex(rng), harness.random_complex(rng)
        f = harness.random_chain_map(rng, x, y)
        if all(m.is_zero() for m in f.mats.values()):
            continue
        dia = diagrams.ChainDiagram(
            harness.arrow_category(), {"a": x, "b": y},
            {"a": identity_chain_map(x), "b": identity_chain_map(y), "f": f})
        endo = harness.random_endo(rng, dia)
        pairs.append((f, endo.at("a"), endo.at("b")))
    for f, g_src, g_dst in pairs:
        dims, d, inc, proj = dense_cone(f)
        cc, ci, cp = cone(f)
        assert cc.dims == {n: k for n, k in dims.items() if k}
        assert cc.d == _nonempty(d)
        assert ci.mats == _nonempty(inc) and cp.mats == _nonempty(proj)
        assert not ci.violations() and not cp.violations()
        c2, ce = cone_endo(f, g_src, g_dst)
        assert c2 == cc
        assert ce.mats == _nonempty({n: block_diag([g_dst.mat(n),
                                                    g_src.mat(n - 1)]).to_mat()
                                     for n in cc.dims})
        assert not ce.violations()
        assert lefschetz(ce) == lefschetz(g_dst) - lefschetz(g_src)


def chain_endos(rng, c, count):
    """Seeded chain endomorphisms built from the exact solution space."""
    from tracelin.diagrams import chain_map_space
    basis = chain_map_space(c, c)
    out = []
    for _ in range(count):
        acc = None
        for b in basis:
            t = b.smul(F(rng.randint(-2, 2)))
            acc = t if acc is None else acc + t
        out.append(acc if acc is not None else identity_chain_map(c))
    return out


def test_cone_additivity_of_lefschetz():
    rng = random.Random(21)
    c = sample_complex()
    for g in chain_endos(rng, c, 10):
        cc, ce = cone_endo(identity_chain_map(c), g, g)
        assert lefschetz(ce) == 0


def dense_from_blocks(src, dst, blocks):
    """ChainMap.from_blocks's components, written entry by entry."""
    out = {}
    for n, bs in blocks.items():
        rows = [[F(0)] * src.dim(n) for _ in range(dst.dim(n))]
        for r0, c0, b in bs:
            m = b.to_mat()
            for i in range(m.rows):
                for j in range(m.cols):
                    rows[r0 + i][c0 + j] = m.data[i][j]
        out[n] = Mat(rows, dst.dim(n), src.dim(n))
    return out


def test_direct_sum_and_block_chain_maps_match_dense_reference():
    """Sums of seeded spheres and disks, a block matrix of random chain
    maps between the pieces on the sum, and the projection onto each
    piece: the same matrices as the dense references, and chain maps."""
    from test_sparse_chain import dense_direct_sum_complex
    from tracelin import harness
    rng = random.Random(41)
    for _ in range(25):
        pieces = [harness.random_complex(rng)
                  for _ in range(rng.randint(0, 3))]
        total, offs = direct_sum(pieces)
        ref, ref_offs = dense_direct_sum_complex(pieces)
        assert offs == ref_offs
        assert total.dims == ref.dims and total.d == ref.d
        assert not total.violations()
        blocks = {}
        for p, poff in zip(pieces, offs):
            for q, qoff in zip(pieces, offs):
                if rng.random() < 0.5:
                    continue
                f = harness.random_chain_map(rng, p, q)
                for n in set(p.dims) & set(q.dims):
                    blocks.setdefault(n, []).append(
                        (qoff[n], poff[n], f.sparse_mat(n)))
        g = ChainMap.from_blocks(total, total, blocks)
        assert g.mats == _nonempty(dense_from_blocks(total, total, blocks))
        assert not g.violations()
        for p, poff in zip(pieces, offs):
            proj = {n: [(0, poff[n], SparseMat.identity(p.dim(n)))]
                    for n in p.dims}
            g = ChainMap.from_blocks(total, p, proj)
            assert g.mats == _nonempty(dense_from_blocks(total, p, proj))
            assert not g.violations()


def test_hopf_trace_identity():
    rng = random.Random(13)
    c = sample_complex()
    for f in chain_endos(rng, c, 15):
        assert lefschetz(f) == lefschetz_via_homology(f)


def test_homology_endo_traces_identity():
    c = sample_complex()
    tr = homology_endo_traces(identity_chain_map(c))
    assert tr == {n: F(d) for n, d in homology_dims(c).items()} \
        or all(tr.get(n, 0) == homology_dims(c).get(n, 0)
               for n in set(tr) | set(homology_dims(c)))


# ---------------------------------------------------------------------------
# the sparse elimination core against the dense one it replaced
#
# Reference: dense fraction-free elimination, columns left to right with
# the first live row as pivot, and back-substitution in integers.

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


def _back_substitute(tails, pivots, num, rhs):
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
    return [F(x, den) if x else F(0) for x in num]


def _echelon_system(rows, pivots, n):
    tails = [[(j, row[j]) for j in range(pc + 1, n) if row[j]]
             for row, pc in zip(rows, pivots)]
    return tails, [(pc, row[pc]) for row, pc in zip(rows, pivots)]


def _kernel_vectors(m):
    n = m.cols
    rows = _int_rows(m)
    pivots = _echelon_int(rows, n)
    tails, pivs = _echelon_system(rows, pivots, n)
    zero = [0] * len(pivots)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            num = [0] * n
            num[fc] = 1
            basis.append(_back_substitute(tails, pivs, num, zero))
    return basis


def dense_rank(m):
    return len(_echelon_int(_int_rows(m), m.cols))


def dense_kernel(m):
    basis = _kernel_vectors(m)
    return Mat.from_cols(basis, m.cols) if basis else Mat.zeros(m.cols, 0)


def dense_image(m):
    pivots = _echelon_int(_int_rows(m), m.cols)
    cols = [m.col(j) for j in pivots]
    return (Mat.from_cols(cols, m.rows) if cols else Mat.zeros(m.rows, 0)), pivots


def dense_cokernel(m):
    left = _kernel_vectors(m.transpose())
    return len(left), Mat(left, len(left), m.rows, coerce=False)


def dense_solve(a, b):
    n = a.cols
    aug = hstack(a.rows, [a, b]).to_mat()
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
    return Mat.from_cols(sols, n), len(pivots) == n


def _entry(rng, density):
    if rng.random() >= density:
        return 0
    if rng.random() < 0.3:
        return F(rng.randint(-5, 5), rng.randint(1, 4))
    return rng.randint(-3, 3)


def seeded_matrices(seed, count):
    """Seeded matrices with int and Fraction entries: sparse and dense,
    with zero rows and columns, 0 x n and n x 0, rank-deficient products
    of thin factors, and full-rank ones."""
    rng = random.Random(seed)
    out = [Mat.zeros(0, 3), Mat.zeros(3, 0), Mat.zeros(0, 0), Mat.zeros(2, 3),
           Mat.identity(4)]
    for k in range(count):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice((0.15, 0.4, 1.0))
        m = Mat([[_entry(rng, density) for _ in range(c)] for _ in range(r)])
        if k % 4 == 1:
            # rank at most t
            t = rng.randint(1, min(r, c))
            left = Mat([[_entry(rng, 0.7) for _ in range(t)] for _ in range(r)])
            right = Mat([[_entry(rng, 0.7) for _ in range(c)] for _ in range(t)])
            m = left @ right
        elif k % 4 == 2:
            # full rank: a permuted triangle with nonzero diagonal
            n = min(r, c)
            m = Mat([[F(rng.randint(1, 3)) if i == j
                      else (_entry(rng, density) if j > i else 0)
                      for j in range(c)] for i in range(r)])
            perm = list(range(r))
            rng.shuffle(perm)
            m = Mat([m.data[i] for i in perm])
            assert dense_rank(m) == n
        elif k % 4 == 3:
            # a zero row and a zero column
            data = [row[:] for row in m.data]
            data[rng.randrange(r)] = [0] * c
            j = rng.randrange(c)
            for row in data:
                row[j] = 0
            m = Mat(data)
        out.append(m)
    return out


def _all_fractions(m):
    return all(type(x) is F for row in m.data for x in row)


def _stores_no_zero(s):
    return all(v for terms in s.terms for v in terms.values())


def test_sparse_core_matches_dense_reference():
    for m in seeded_matrices(41, 160):
        assert rank(m) == dense_rank(m)
        k = kernel_basis(m)
        assert k.to_mat() == dense_kernel(m) and _stores_no_zero(k)
        assert kernel_basis(SparseMat.from_mat(m)) == k
        img, cols = image_basis(m)
        assert (img.to_mat(), cols) == dense_image(m)
        # a Mat in gives the SparseMat that a SparseMat in gives
        dim, proj = cokernel(m)
        ref_dim, ref_proj = dense_cokernel(m)
        assert type(proj) is SparseMat and dim == ref_dim
        assert proj == SparseMat.from_mat(ref_proj)
        assert proj.to_mat() == ref_proj and _all_fractions(proj.to_mat())
        sdim, sproj = cokernel(SparseMat.from_mat(m))
        assert type(sproj) is SparseMat and sdim == dim and sproj == proj
        assert all(v for terms in sproj.terms for v in terms.values())


def _operand_forms(a, b):
    """(a, b) as Mat and SparseMat, in all four pairings."""
    sa, sb = SparseMat.from_mat(a), SparseMat.from_mat(b)
    return [(a, b), (sa, b), (a, sb), (sa, sb)]


def test_sparse_solve_matches_dense_reference():
    rng = random.Random(43)
    inconsistent = 0
    for a in seeded_matrices(47, 120):
        x = Mat([[_entry(rng, 0.5) for _ in range(2)] for _ in range(a.cols)],
                a.cols, 2)
        consistent = a @ x
        noise = Mat([[_entry(rng, 0.5) for _ in range(2)] for _ in range(a.rows)],
                    a.rows, 2)
        for b in (consistent, consistent + noise, Mat.zeros(a.rows, 0)):
            ref = dense_solve(a, b)
            inconsistent += ref is None
            for a_, b_ in _operand_forms(a, b):
                res = solve_linear(a_, b_)
                if ref is None:
                    assert res is None
                    continue
                assert (res.solution.to_mat(), res.unique) == ref
                assert _stores_no_zero(res.solution)
                assert a @ res.solution.to_mat() == b
    assert inconsistent > 20


def test_sparse_factor_through_matches_dense(monkeypatch):
    """Through a cokernel projection, factoring reads the free columns and
    runs no elimination; the factor is the one that solving p^t n^t = m^t
    gives, and both failures keep their messages."""
    from tracelin import exactalg
    calls = []
    real = exactalg._eliminate
    monkeypatch.setattr(exactalg, "_eliminate",
                        lambda rows, limit: calls.append(limit)
                        or real(rows, limit))
    rng = random.Random(61)
    counts = {"unique": 0, "no factor": 0, "ambiguous": 0}
    for m in seeded_matrices(67, 80):
        p = cokernel(m)[1].to_mat()
        n = Mat([[_entry(rng, 0.5) for _ in range(p.rows)] for _ in range(2)],
                2, p.rows)
        good = n @ p
        bad = good + Mat([[_entry(rng, 0.5) for _ in range(p.cols)]
                          for _ in range(2)], 2, p.cols)
        if dense_solve(p.transpose(), bad.transpose()) is not None:
            bad = None
        ref = solve_linear(p.transpose(), good.transpose()).solution.to_mat()
        for p_, good_ in _operand_forms(p, good):
            del calls[:]
            got = factor_through(p_, good_)
            assert calls == []
            assert n == ref.transpose() and got == SparseMat.from_mat(n)
            counts["unique"] += 1
        if bad is not None:
            for p_, bad_ in _operand_forms(p, bad):
                del calls[:]
                with pytest.raises(ValueError, match="^map does not factor "
                                   "through the projection$"):
                    factor_through(p_, bad_)
                assert calls == []
                counts["no factor"] += 1
        if p.rows:
            # a repeated row leaves p's row space alone but makes the
            # factorization ambiguous; it has no unit column, so p is
            # solved for
            twice = Mat(p.data + p.data[:1], p.rows + 1, p.cols)
            for p_, good_ in _operand_forms(twice, good):
                del calls[:]
                with pytest.raises(ValueError, match="^projection is not "
                                   "surjective; factorization ambiguous$"):
                    factor_through(p_, good_)
                assert calls != []
                counts["ambiguous"] += 1
    assert min(counts.values()) > 40


def test_sparse_product_matches_dense():
    for a in seeded_matrices(53, 40):
        for b in seeded_matrices(59, 40):
            if a.cols == b.rows:
                prod = SparseMat.from_mat(a) @ SparseMat.from_mat(b)
                assert prod.to_mat() == a @ b
                assert prod.is_zero() == (a @ b).is_zero()


def test_dd_check_fires_on_a_large_sparse_complex():
    """Q^120 in degrees 0-3; the differentials are sparse diagonal
    projections that alternate between the two halves, so d o d = 0.
    One perturbed entry makes d o d nonzero, and the error names the
    degree it comes out of."""
    size, half = 120, 60

    def diag(lo, hi):
        return [[1 if i == j and lo <= i < hi else 0 for j in range(size)]
                for i in range(size)]

    dims = {n: size for n in range(4)}
    d = {1: diag(0, half), 2: diag(half, size), 3: diag(0, half)}
    assert ChainComplex(dims, {n: Mat(m) for n, m in d.items()}).violations() == []
    for n, i, j, degree in ((2, 3, size - 1, 2), (3, half, 0, 3)):
        bad = {k: [row[:] for row in m] for k, m in d.items()}
        bad[n][i][j] = 5
        with pytest.raises(ValueError,
                           match=r"^d o d nonzero out of degree %d$" % degree):
            ChainComplex(dims, {k: Mat(m) for k, m in bad.items()})


# ---------------------------------------------------------------------------
# one stored form: every matrix result is a SparseMat, for either input

def dense_kron(a, b):
    return Mat([[x * y for x in arow for y in brow]
                for arow in a.data for brow in b.data],
               a.rows * b.rows, a.cols * b.cols)


def dense_block_diag(mats):
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[F(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.data):
            out[r0 + i][c0:c0 + m.cols] = row
        r0 += m.rows
        c0 += m.cols
    return Mat(out, rows, cols)


def dense_hstack(rows, mats):
    return Mat([[x for m in mats for x in m.data[i]] for i in range(rows)],
               rows, sum(m.cols for m in mats))


def _check_sparse(got, ref):
    """got is a SparseMat that stores no zero and reads as the Mat ref."""
    assert type(got) is SparseMat
    assert _stores_no_zero(got)
    assert got.to_mat() == ref


def _invertible(rng, n):
    """A seeded invertible n x n matrix: lower times upper triangular,
    each with a nonzero diagonal."""
    lower = Mat([[F(rng.randint(1, 3)) if i == j else
                  (_entry(rng, 0.6) if j < i else 0) for j in range(n)]
                 for i in range(n)])
    upper = Mat([[F(rng.choice((-2, -1, 1, 2))) if i == j else
                  (_entry(rng, 0.6) if j > i else 0) for j in range(n)]
                 for i in range(n)])
    return lower @ upper


def test_every_matrix_result_is_sparse_for_either_input_kind():
    rng = random.Random(79)
    mats = seeded_matrices(83, 40)
    for m in mats:
        for x in (m, SparseMat.from_mat(m)):
            _check_sparse(kernel_basis(x), dense_kernel(m))
            img, cols = image_basis(x)
            ref_img, ref_cols = dense_image(m)
            _check_sparse(img, ref_img)
            assert cols == ref_cols
            _check_sparse(cokernel(x)[1], dense_cokernel(m)[1])
        other = mats[rng.randrange(len(mats))]
        for x, y in _operand_forms(m, other):
            _check_sparse(kron(x, y), dense_kron(m, other))
            _check_sparse(block_diag([x, y]), dense_block_diag([m, other]))
        b = m @ Mat([[_entry(rng, 0.5) for _ in range(2)]
                     for _ in range(m.cols)], m.cols, 2)
        for x, y in _operand_forms(m, b):
            _check_sparse(solve_linear(x, y).solution, dense_solve(m, b)[0])
            _check_sparse(hstack(m.rows, [x, y, x]),
                          dense_hstack(m.rows, [m, b, m]))
        # through a cokernel projection (unit columns) and through a
        # matrix of full row rank (solved for)
        for p in (dense_cokernel(m)[1], m):
            if dense_rank(p) < p.rows:
                continue
            n = Mat([[_entry(rng, 0.5) for _ in range(p.rows)]
                     for _ in range(2)], 2, p.rows)
            for x, y in _operand_forms(p, n @ p):
                _check_sparse(factor_through(x, y), n)
    for k in range(20):
        s = _invertible(rng, k % 5 + 1)
        s_inv = dense_solve(s, Mat.identity(s.rows))[0]
        r = rng.randint(0, s.rows)
        e = s @ dense_block_diag([Mat.identity(r),
                                  Mat.zeros(s.rows - r, s.rows - r)]) @ s_inv
        ref_i = dense_image(e)[0]
        ref_p = dense_solve(ref_i, e)[0]
        for x in (s, SparseMat.from_mat(s)):
            _check_sparse(inverse(x), s_inv)
        for x in (e, SparseMat.from_mat(e)):
            i, q = idempotent_image(x)
            _check_sparse(i, ref_i)
            _check_sparse(q, ref_p)


def _negative_leads(m):
    """m as a SparseMat with every row that starts positive negated, so
    each nonzero row starts with a negative entry."""
    s = SparseMat.from_mat(m)
    return SparseMat([{j: -v for j, v in t.items()} if t and t[min(t)] > 0
                      else t for t in s.terms], s.rows, s.cols)


def _half_dense(rng, rows, cols):
    return SparseMat.from_mat(Mat([[_entry(rng, 0.5) for _ in range(cols)]
                                   for _ in range(rows)], rows, cols))


def _terms_of(s):
    """Everything ``s.terms`` holds, in order: (column, type, entry)."""
    return [[(j, type(v), v) for j, v in t.items()] for t in s.terms]


def test_elimination_leaves_its_arguments_unchanged():
    """Elimination rewrites its rows in place, so every public function
    that eliminates must hand it copies: after each call, every argument
    holds the same entries, of the same types, in the same order.  The
    inputs are seeded int and Fraction matrices whose rows all start
    negative, so that pivots are negated."""
    rng = random.Random(89)
    mats = [_negative_leads(m) for m in seeded_matrices(97, 60)]
    assert any(type(v) is F for s in mats for t in s.terms
               for v in t.values())
    assert sum(t[min(t)] < 0 for s in mats for t in s.terms if t) > 200
    calls = []
    for s in mats:
        b = s @ _negative_leads(_half_dense(rng, s.cols, 2))
        proj = cokernel(s)[1]
        n = _half_dense(rng, 2, proj.rows)
        calls += [(kernel_basis, s), (cokernel, s), (rank, s),
                  (image_basis, s), (solve_linear, s, b),
                  (factor_through, proj, n @ proj)]
    for k in range(20):
        sq = _negative_leads(_invertible(rng, k % 5 + 1))
        r = rng.randint(0, sq.rows)
        e = sq @ SparseMat([{i: 1} if i < r else {} for i in range(sq.rows)],
                           sq.rows, sq.rows) @ inverse(sq)
        n = _half_dense(rng, 2, sq.rows)
        calls += [(inverse, sq), (idempotent_image, e),
                  (factor_through, sq, n @ sq)]
    for fn, *args in calls:
        before = [_terms_of(a) for a in args]
        fn(*args)
        assert [_terms_of(a) for a in args] == before, fn.__name__
    assert {fn for fn, *_ in calls} == {
        kernel_basis, cokernel, rank, image_basis, solve_linear, inverse,
        factor_through, idempotent_image}
