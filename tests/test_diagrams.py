import functools
import random
import sys
from fractions import Fraction as F

import pytest

from tracelin import diagrams, exactalg, fincat, harness
from tracelin.diagrams import (
    ChainDiagram, FinSetDiagram, NatEndo, VectDiagram, chain_idempotent_image,
    chain_map_space, colim_fin_set, colim_vect, group_action_idempotent,
    hocolim_EI, hocolim_groupoid, hocolim_hofin, identity_endo,
    induced_endo_colim, induced_endo_fin_set, linearize, nat_endo_basis,
    vect_to_chain, weighted_colim_vect, weighted_colim_endo,
)
from tracelin.exactalg import (
    ChainComplex, ChainMap, Mat, SparseMat, block_diag, cone, cone_endo,
    hstack, homology_dims, identity_chain_map, inverse, kernel_basis,
    lefschetz, rank, trace,
)
from tracelin.fincat import bg_category, cyclic_group, opposite


def terminal():
    return fincat.FinCat(["x"], [("i", "x", "x")], {"x": "i"},
                         {("i", "i"): "i"}, name="one")


def discrete2():
    return harness.discrete_category(2)


def span():
    return harness.span_category()


def idem_cat():
    return harness.idempotent_category()


# ---------------------------------------------------------------------------
# linearization

def set_endo_diagram(fn, n):
    cat = terminal()
    d = FinSetDiagram(cat, {"x": list(range(n))}, {"i": {i: i for i in range(n)}})
    lin = linearize(d)
    m = Mat.zeros(n, n)
    for i in range(n):
        m.data[fn[i]][i] = F(1)
    return lin, m


def test_linearize_identity_counts_fixed_points():
    lin, m = set_endo_diagram({0: 0, 1: 1, 2: 2}, 3)
    assert trace(m) == 3


def test_linearize_cycle_has_no_fixed_points():
    lin, m = set_endo_diagram({0: 1, 1: 2, 2: 0}, 3)
    assert trace(m) == 0


def test_linearize_constant_fixes_one_point():
    lin, m = set_endo_diagram({0: 0, 1: 0, 2: 0}, 3)
    assert trace(m) == 1


def test_linearize_is_functorial():
    cat = span()
    d = FinSetDiagram(
        cat, {"a": [0], "b": [0, 1], "c": [0, 1, 2]},
        {"a": {0: 0}, "b": {0: 0, 1: 1}, "c": {0: 0, 1: 1, 2: 2},
         "f": {0: 1}, "g": {0: 2}})
    lin = linearize(d)
    assert lin.violations() == []


# ---------------------------------------------------------------------------
# strict colimits

def test_colim_discrete_is_direct_sum():
    cat = discrete2()
    x = VectDiagram(cat, {"o0": 2, "o1": 3},
                    {"o0": Mat.identity(2), "o1": Mat.identity(3)})
    assert colim_vect(x).dim == 5


def test_colim_idempotent_is_rank_of_idempotent():
    cat = idem_cat()
    e = Mat([[0, 0], [1, 1]])
    x = VectDiagram(cat, {"x": 2}, {"x": Mat.identity(2), "e": e})
    assert colim_vect(x).dim == rank(e) == 1


def test_colim_regular_action_has_dimension_one():
    cat = bg_category(cyclic_group(2))
    x = VectDiagram(cat, {"x": 2},
                    {("g", 0): Mat.identity(2), ("g", 1): Mat([[0, 1], [1, 0]])})
    assert colim_vect(x).dim == 1


def test_colim_cocone_commutes_and_covers():
    cat = span()
    x = VectDiagram(cat, {"a": 1, "b": 2, "c": 1},
                    {"a": Mat.identity(1), "b": Mat.identity(2),
                     "c": Mat.identity(1), "f": Mat([[1], [0]]),
                     "g": Mat([[1]])})
    res = colim_vect(x)
    for arr in cat.nonidentity():
        s, t = cat.src[arr], cat.dst[arr]
        assert (res.cocone(t).to_mat() @ x.mat(arr).to_mat()
                == res.cocone(s).to_mat())
    stacked = Mat.zeros(res.dim, 0)
    from tracelin.exactalg import hstack
    assert rank(hstack(res.dim, [res.cocone(o) for o in cat.objects])) \
        == res.dim


def _dense_colim_relations(x):
    """The relation columns of colim_vect, filled in one by one."""
    cat = x.base
    offs, total = {}, 0
    for o in cat.objects:
        offs[o] = total
        total += x.dim(o)
    cols = []
    for a in cat.nonidentity():
        s, t = cat.src[a], cat.dst[a]
        m = x.mat(a).to_mat()
        for j in range(x.dim(s)):
            col = [F(0)] * total
            for i in range(x.dim(t)):
                col[offs[t] + i] += m.data[i][j]
            col[offs[s] + j] -= 1
            cols.append(col)
    return Mat.from_cols(cols, total) if cols else Mat.zeros(total, 0)


def test_colim_projection_is_sparse_and_matches_dense_relations():
    from tracelin.exactalg import SparseMat, cokernel
    maps = {"a": Mat.identity(1), "b": Mat.identity(2), "c": Mat.identity(1),
            "f": Mat([[1], [0]]), "g": Mat([[1]])}
    xs = [VectDiagram(span(), {"a": 1, "b": 2, "c": 1}, maps),
          VectDiagram(idem_cat(), {"x": 2}, {"x": Mat.identity(2),
                                              "e": Mat([[0, 0], [1, 1]])}),
          VectDiagram(bg_category(cyclic_group(2)), {"x": 2},
                      {("g", 0): Mat.identity(2),
                       ("g", 1): Mat([[0, 1], [1, 0]])})]
    for x in xs:
        res = colim_vect(x)
        dim, proj = cokernel(_dense_colim_relations(x))
        assert type(res.proj) is SparseMat
        assert res.dim == dim and res.proj == proj
        assert type(induced_endo_colim(x, identity_endo(x))[1]) is SparseMat
        # the colimit is the weighted colimit of the constant weight
        const = VectDiagram(opposite(x.base), {o: 1 for o in x.base.objects},
                            {a: Mat.identity(1) for a in x.base.arrows})
        wres = weighted_colim_vect(const, x)
        assert (wres.dim, wres.proj, wres.offsets) \
            == (res.dim, res.proj, res.offsets)
    w = VectDiagram(opposite(span()), {"a": 1, "b": 1, "c": 1},
                    {a: Mat.identity(1) for a in span().arrows})
    assert type(weighted_colim_vect(w, xs[0]).proj) is SparseMat


def test_idempotent_colim_trace_is_trace_against_idempotent():
    cat = idem_cat()
    e = Mat([[0, 0], [1, 1]])
    x = VectDiagram(cat, {"x": 2}, {"x": Mat.identity(2), "e": e})
    f = Mat([[1, 0], [2, 3]])
    res, ind = induced_endo_colim(x, NatEndo(x, {"x": f}))
    assert trace(ind) == trace(e @ f)


def test_weighted_colim_constant_weight_is_colim():
    cat = span()
    x = VectDiagram(cat, {"a": 1, "b": 2, "c": 1},
                    {"a": Mat.identity(1), "b": Mat.identity(2),
                     "c": Mat.identity(1), "f": Mat([[1], [1]]),
                     "g": Mat([[2]])})
    wcat = opposite(cat)
    w = VectDiagram(wcat, {o: 1 for o in cat.objects},
                    {a: Mat.identity(1) for a in cat.arrows})
    assert weighted_colim_vect(w, x).dim == colim_vect(x).dim


def test_weighted_colim_over_point_is_tensor():
    cat = terminal()
    x = VectDiagram(cat, {"x": 3}, {"i": Mat.identity(3)})
    w = VectDiagram(opposite(cat), {"x": 2}, {"i": Mat.identity(2)})
    assert weighted_colim_vect(w, x).dim == 6


def test_weighted_colim_representable_weight_evaluates():
    cat = span()
    # weight = arrows into b, contravariantly
    wcat = opposite(cat)
    dims = {o: len(cat.hom(o, "b")) for o in cat.objects}
    mats = {}
    for arr in cat.arrows:
        s, t = cat.src[arr], cat.dst[arr]
        basis = cat.hom(t, "b")
        idx = {u: i for i, u in enumerate(cat.hom(s, "b"))}
        m = Mat.zeros(len(idx), len(basis))
        for j, u in enumerate(basis):
            m.data[idx[cat.then(arr, u)]][j] = F(1)
        mats[arr] = m
    w = VectDiagram(wcat, dims, mats)
    x = VectDiagram(cat, {"a": 1, "b": 2, "c": 3},
                    {"a": Mat.identity(1), "b": Mat.identity(2),
                     "c": Mat.identity(3), "f": Mat([[1], [1]]),
                     "g": Mat([[1], [0], [2]])})
    assert weighted_colim_vect(w, x).dim == x.dim("b")


def test_nat_endo_basis_dimensions():
    cat = discrete2()
    x = VectDiagram(cat, {"o0": 2, "o1": 1},
                    {"o0": Mat.identity(2), "o1": Mat.identity(1)})
    assert len(nat_endo_basis(x)) == 5
    two = harness.arrow_category()
    x2 = VectDiagram(two, {"a": 2, "b": 2},
                     {"a": Mat.identity(2), "b": Mat.identity(2),
                      "f": Mat([[1, 1], [0, 1]])})
    assert len(nat_endo_basis(x2)) == 4
    bc2 = bg_category(cyclic_group(2))
    xr = VectDiagram(bc2, {"x": 2},
                     {("g", 0): Mat.identity(2),
                      ("g", 1): Mat([[0, 1], [1, 0]])})
    assert len(nat_endo_basis(xr)) == 2


def test_nat_endo_basis_members_are_natural():
    rng = random.Random(2)
    cat = harness.gen_hofin_category(3)
    dia, endo = harness.gen_chain_diagram(3, cat)
    assert NatEndo(dia, endo.components).violations() == []


def _dense_kron(a, b):
    """Kronecker product of two Mats, entry by entry, as a Mat."""
    return Mat([[x * y for x in arow for y in brow]
                for arow in a.data for brow in b.data],
               a.rows * b.rows, a.cols * b.cols)


def _kron_nullity(blocks, eqs):
    """Dimension of {X : A X_p - X_q B = 0 for all eqs}, from the dense
    system (I (x) A - B^T (x) I) vec(X), vec stacking columns."""
    rows = []
    for a, p, q, b in eqs:
        parts = []
        for key, r, c in blocks:
            m = Mat.zeros(a.rows * b.cols, r * c)
            if key == p:
                m = m + _dense_kron(Mat.identity(c), a)
            if key == q:
                m = m - _dense_kron(b.transpose(), Mat.identity(r))
            parts.append(m)
        rows.extend(hstack(a.rows * b.cols, parts).to_mat().data)
    total = sum(r * c for _, r, c in blocks)
    return total - rank(Mat(rows, len(rows), total))


def _vect_nullity(x):
    cat = x.base
    return _kron_nullity([(o, x.dim(o), x.dim(o)) for o in cat.objects],
                         [(x.mat(a).to_mat(), cat.src[a], cat.dst[a],
                           x.mat(a).to_mat()) for a in cat.arrows])


def _dense_solutions(blocks, eqs):
    """The echelon kernel basis of {X : A X_p - X_q B = 0 for all eqs}
    (A, B Mats), from the dense row-major system (A (x) I) vec(X_p) -
    (I (x) B^T) vec(X_q), each kernel column cut into {key: SparseMat}."""
    rows = []
    for a, p, q, b in eqs:
        parts = []
        for key, r, c in blocks:
            m = Mat.zeros(a.rows * b.cols, r * c)
            if key == p:
                m = m + _dense_kron(a, Mat.identity(c))
            if key == q:
                m = m - _dense_kron(Mat.identity(r), b.transpose())
            parts.append(m)
        if parts:
            rows.extend(hstack(a.rows * b.cols, parts).to_mat().data)
    total = sum(r * c for _, r, c in blocks)
    out = []
    for vec in kernel_basis(Mat(rows, len(rows), total)).to_mat() \
            .transpose().data:
        sol, off = {}, 0
        for key, r, c in blocks:
            sol[key] = SparseMat.from_mat(Mat(
                [vec[off + i * c:off + (i + 1) * c] for i in range(r)], r, c))
            off += r * c
        out.append(sol)
    return out


def _chain_solution_inputs():
    """(blocks, eqs, solutions) for nat_endo_basis of seeded chain
    diagrams and chain_map_space of seeded pairs of complexes, with the
    unknowns in the order those functions lay them out."""
    for seed in range(3):
        cat = harness.gen_hofin_category(seed)
        dia = harness.gen_chain_diagram(seed, cat)[0]
        cx = {o: dia.cx(o) for o in cat.objects}
        blocks = [((o, n), cx[o].dim(n), cx[o].dim(n))
                  for o in cat.objects for n in cx[o].dims]
        eqs = [(cx[o].diff(n), (o, n), (o, n - 1), cx[o].diff(n))
               for o in cat.objects for n in cx[o].dims]
        eqs += [(dia.map(a).mat(n), (cat.src[a], n), (cat.dst[a], n),
                 dia.map(a).mat(n))
                for a in cat.arrows for n in cx[cat.src[a]].dims]
        yield blocks, eqs, [{(o, n): b.at(o).sparse_mat(n)
                             for (o, n), _r, _c in blocks}
                            for b in nat_endo_basis(dia)]
    rng = random.Random(43)
    for _ in range(6):
        src, dst = harness.random_complex(rng), harness.random_complex(rng)
        blocks = [(n, dst.dim(n), src.dim(n))
                  for n in sorted(set(src.dims) & set(dst.dims))]
        eqs = [(dst.diff(n), n, n - 1, src.diff(n)) for n in src.dims]
        yield blocks, eqs, [{n: f.sparse_mat(n) for n, _r, _c in blocks}
                            for f in chain_map_space(src, dst)]


def _rational_vect_diagrams():
    # a conjugated idempotent with entries 1/2, and corpus diagrams
    # conjugated by rational changes of basis
    p = Mat([[1, F(1, 2), 0], [0, 1, F(1, 2)], [F(1, 2), 0, 1]])
    e = p @ Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) @ inverse(p).to_mat()
    yield VectDiagram(idem_cat(), {"x": 3}, {"x": Mat.identity(3), "e": e})
    rng = random.Random(31)
    corp = harness.corpus()
    for name in ["pushout", "delta2op", "hom_C2_C2_id", "BC3"]:
        cat = corp[name]["cat"]
        dia = harness.random_vect_diagram(rng, cat, max_dim=4)
        conj = {a: Mat([[F(rng.randint(1, 3), rng.randint(2, 4)) if i < j
                         else F(int(i == j)) for j in range(dia.dim(a))]
                        for i in range(dia.dim(a))]) for a in cat.objects}
        yield VectDiagram(cat, dia.dims,
                          {g: conj[cat.dst[g]] @ dia.mat(g).to_mat()
                           @ inverse(conj[cat.src[g]]).to_mat()
                           for g in cat.arrows})


def test_nat_endo_basis_rational_entries_against_kron_system():
    for x in _rational_vect_diagrams():
        cat = x.base
        basis = nat_endo_basis(x)
        for b in basis:
            assert NatEndo(x, b.components).violations() == []
        assert len(basis) == _vect_nullity(x)
        vecs = [[v for o in cat.objects for row in b.at(o).to_mat().data
                 for v in row] for b in basis]
        assert not basis or rank(Mat(vecs)) == len(basis)
        # each solution is the dense system's kernel column, kept sparse
        assert all(type(b.at(o)) is SparseMat
                   for b in basis for o in cat.objects)
        assert [b.components for b in basis] == _dense_solutions(
            [(o, x.dim(o), x.dim(o)) for o in cat.objects],
            [(x.mat(a).to_mat(), cat.src[a], cat.dst[a], x.mat(a).to_mat())
             for a in cat.arrows])
    sizes = []
    for blocks, eqs, got in _chain_solution_inputs():
        assert got == _dense_solutions(blocks, eqs)
        sizes.append(len(got))
    assert min(sizes) == 0 and max(sizes) > 3


def test_nat_endo_basis_vector_case_is_chain_case_in_degree_zero():
    rng = random.Random(37)
    corp = harness.corpus()
    diagrams_ = list(_rational_vect_diagrams())
    for name in sorted(corp):
        diagrams_.append(harness.random_vect_diagram(rng, corp[name]["cat"]))
    for x in diagrams_:
        vect = nat_endo_basis(x)
        chain = nat_endo_basis(vect_to_chain(x))
        assert len(vect) == len(chain)
        for bv, bc in zip(vect, chain):
            for o in x.base.objects:
                assert bv.at(o) == bc.at(o).sparse_mat(0)


def test_vect_values_and_components_given_as_mats_are_kept_sparse():
    """Given Mats are converted once, at construction: each read is one
    SparseMat, and a later write to a given Mat changes nothing."""
    e = Mat([[0, 0], [1, 1]])
    x = VectDiagram(idem_cat(), {"x": 2}, {"x": Mat.identity(2), "e": e})
    f = Mat([[1, 0], [F(1, 2), F(3, 2)]])
    endo = NatEndo(x, {"x": f})
    e.data[0][0] = f.data[0][0] = F(7)
    assert type(x.mat("e")) is SparseMat and x.mat("e") is x.mat("e")
    assert x.mat("e").terms == [{}, {0: 1, 1: 1}]
    assert type(endo.at("x")) is SparseMat and endo.at("x") is endo.at("x")
    assert endo.at("x").terms == [{0: 1}, {0: F(1, 2), 1: F(3, 2)}]
    assert x.violations() == [] and endo.violations() == []
    assert type(identity_endo(x).at("x")) is SparseMat
    lin = linearize(FinSetDiagram(idem_cat(), {"x": [0, 1]},
                                  {"x": {0: 0, 1: 1}, "e": {0: 1, 1: 1}}))
    assert type(lin.mat("e")) is SparseMat
    assert lin.mat("e").terms == [{}, {0: 1, 1: 1}]


def _discrete_identity():
    return VectDiagram(discrete2(), {"o0": 1, "o1": 2},
                       {"o0": Mat.identity(1), "o1": Mat.identity(2)})


def test_vect_diagram_without_a_dimension_is_rejected():
    with pytest.raises(ValueError, match=r"^no dimension for object 'o1'$"):
        VectDiagram(discrete2(), {"o0": 1},
                    {"o0": Mat.identity(1), "o1": Mat.identity(1)})


def test_nat_endo_without_a_component_is_rejected():
    x = _discrete_identity()
    for dia, comp in ((x, Mat.identity(1)),
                      (vect_to_chain(x), identity_chain_map(
                          vect_to_chain(x).cx("o0")))):
        with pytest.raises(ValueError,
                           match=r"^no component for object 'o1'$"):
            NatEndo(dia, {"o0": comp})


def test_nat_endo_with_a_misshaped_component_is_rejected():
    with pytest.raises(ValueError, match=r"^component at 'o1' has shape "
                       r"1x2, expected 2x2$"):
        NatEndo(_discrete_identity(),
                {"o0": Mat.identity(1), "o1": Mat([[1, 0]])})


def test_identity_endo_of_vect_and_chain_diagrams():
    x = VectDiagram(idem_cat(), {"x": 2},
                    {"x": Mat.identity(2), "e": Mat([[1, 1], [0, 0]])})
    endo = identity_endo(x)
    assert endo.violations() == []
    assert all(endo.at(o).is_identity() for o in x.base.objects)
    cat = harness.gen_hofin_category(2)
    for dia in [vect_to_chain(x, degree=1),
                harness.gen_chain_diagram(2, cat)[0]]:
        endo = identity_endo(dia)
        assert endo.violations() == []
        for o in dia.base.objects:
            assert endo.at(o) == identity_chain_map(dia.cx(o))


def test_chain_map_space_against_kron_system():
    for seed in range(24):
        rng = random.Random(seed)
        src = harness.random_complex(rng, 3, -1, 2)
        dst = harness.random_complex(rng, 3, 0, 3)
        basis = chain_map_space(src, dst)
        for f in basis:
            assert f.violations() == []
        degs = sorted(set(src.dims) | set(dst.dims))
        blocks = [(n, dst.dim(n), src.dim(n)) for n in degs]
        eqs = [(dst.diff(n), n, n - 1, src.diff(n)) for n in degs]
        assert len(basis) == _kron_nullity(blocks, eqs)


def _kron_commuting_solutions(blocks, eqs):
    """Reference for ``diagrams._commuting_solutions``: each relation row
    of A X_p - X_q B read from the sparse Kronecker products (A (x) I) and
    (I (x) B^T), shifted to the columns of X_p and X_q, summed, and kept
    when nonzero; the kernel basis is read from the cokernel of the
    transposed system, and cut into blocks."""
    offsets, total = {}, 0
    for key, r, c in blocks:
        offsets[key] = total
        total += r * c
    rows = []
    for a, p, q, b in eqs:
        left = right = [{}] * (a.rows * b.cols)
        if p in offsets:
            left = exactalg.kron(a, SparseMat.identity(b.cols)).terms
        if q in offsets:
            right = exactalg.kron(SparseMat.identity(a.rows),
                                  b.transpose()).terms
        for lterms, rterms in zip(left, right):
            terms = {offsets[p] + c: v for c, v in lterms.items()}
            for c, v in rterms.items():
                c += offsets[q]
                terms[c] = terms.get(c, 0) - v
            terms = {c: v for c, v in terms.items() if v}
            if terms:
                rows.append(terms)
    _dim, basis = exactalg.cokernel(
        SparseMat(rows, len(rows), total).transpose())
    out = []
    for vec in basis.terms:
        sol, off = {}, 0
        for key, r, c in blocks:
            sol[key] = SparseMat([{j: vec[off + i * c + j] for j in range(c)
                                   if off + i * c + j in vec}
                                  for i in range(r)], r, c)
            off += r * c
        out.append(sol)
    return out


def _solution_builder_cases():
    """Vector diagrams (a linearized representable at every object of
    every corpus shape, seeded ones, and Fraction-valued ones) and chain
    diagrams (seeded, and the disk over delta'(3))."""
    rng = random.Random(53)
    for name, entry in sorted(harness.corpus().items()):
        cat = entry["cat"]
        for o in cat.objects:
            yield linearize(harness.rep_set_diagram(cat, o))
        yield harness.random_vect_diagram(rng, cat)
    yield from _rational_vect_diagrams()
    for seed in range(4):
        yield harness.gen_chain_diagram(
            seed, harness.gen_hofin_category(seed))[0]
    yield hocolim_case("delta3")
    yield hocolim_case("rational")


def test_solution_builder_matches_kron_reference(monkeypatch):
    """nat_endo_basis and chain_map_space give the same bases, vector for
    vector, whether the relations are written transposed from the
    nonzeros or read from the rows of the Kronecker products."""
    cases = list(_solution_builder_cases())
    got = [nat_endo_basis(x) for x in cases]
    maps = [chain_map_space(x.cx(s), x.cx(t)) for x in cases
            if isinstance(x, ChainDiagram)
            for s in x.base.objects for t in x.base.objects]
    monkeypatch.setattr(diagrams, "_commuting_solutions",
                        _kron_commuting_solutions)
    ref = [nat_endo_basis(x) for x in cases]
    assert [[b.components for b in basis] for basis in got] == [
        [b.components for b in basis] for basis in ref]
    assert maps == [chain_map_space(x.cx(s), x.cx(t)) for x in cases
                    if isinstance(x, ChainDiagram)
                    for s in x.base.objects for t in x.base.objects]
    assert sum(map(len, got)) > 100 and sum(map(len, maps)) > 20
    assert any(v.denominator != 1 for basis in got for b in basis
               for o in b.diagram.base.objects if hasattr(b.at(o), "terms")
               for row in b.at(o).terms for v in row.values())


def test_solution_builder_cancels_entries_of_an_endo_arrow():
    """On an endomorphism arrow p = q: A X - X A on the permutation
    matrix of C3 and on a Fraction-valued idempotent, where the two sides
    share entries (i, i) of X that cancel, and blocks missing on one
    side."""
    perm = SparseMat([{2: 1}, {0: 1}, {1: 1}], 3, 3)
    half = SparseMat([{0: F(1, 2), 1: F(1, 2)}, {0: F(1, 2), 1: F(1, 2)}],
                     2, 2)
    for a in (perm, half, SparseMat.identity(2)):
        n = a.rows
        blocks = [("x", n, n), ("y", n, 1)]
        for eqs in ([(a, "x", "x", a)],
                    [(a, "x", "x", a), (a, "y", "z", SparseMat.zeros(1, 1))],
                    [(a, "z", "x", a)]):
            got = diagrams._commuting_solutions(blocks, eqs)
            assert got == _kron_commuting_solutions(blocks, eqs)
    # X commuting with a 3-cycle: the circulants, plus the free y block
    assert len(diagrams._commuting_solutions(
        [("x", 3, 3), ("y", 3, 1)], [(perm, "x", "x", perm)])) == 3 + 3
    # everything commutes with the identity: every entry cancels
    assert len(diagrams._commuting_solutions(
        [("x", 2, 2)], [(SparseMat.identity(2), "x", "x",
                         SparseMat.identity(2))])) == 4


# ---------------------------------------------------------------------------
# homotopy colimits, strictly homotopy finite shapes

def test_hocolim_over_point_is_the_value():
    cat = terminal()
    cx = ChainComplex({0: 1, 1: 2}, {1: Mat([[1, 0]])})
    dia = ChainDiagram(cat, {"x": cx}, {"i": identity_chain_map(cx)})
    res = hocolim_hofin(dia)
    assert homology_dims(res.complex) == homology_dims(cx)
    f = NatEndo(dia, {"x": identity_chain_map(cx)})
    assert lefschetz(res.induce(f)) == lefschetz(identity_chain_map(cx))


def _span_chain_case(seed):
    rng = random.Random(seed)
    cx = harness.random_complex(rng, 2, 0, 2)
    cy = harness.random_complex(rng, 2, 0, 2)
    basis = chain_map_space(cx, cy)
    fmap = None
    for b in basis:
        t = b.smul(F(rng.randint(-2, 2)))
        fmap = t if fmap is None else fmap + t
    if fmap is None:
        fmap = ChainMap(cx, cy, {})
    zero = ChainComplex({}, {})
    dia = ChainDiagram(
        span(), {"a": cx, "b": cy, "c": zero},
        {"a": identity_chain_map(cx), "b": identity_chain_map(cy),
         "c": identity_chain_map(zero), "f": fmap,
         "g": ChainMap(cx, zero, {})})
    endo = harness.rand_combo_endo(rng, nat_endo_basis(dia))
    if endo is None:
        endo = NatEndo(dia, {o: identity_chain_map(dia.cx(o))
                             for o in dia.base.objects})
    return dia, fmap, endo


def test_hocolim_pushout_with_zero_leg_matches_cone():
    for seed in range(8):
        dia, fmap, endo = _span_chain_case(seed)
        res = hocolim_hofin(dia)
        lhs = lefschetz(res.induce(endo))
        _cc, ce = cone_endo(fmap, endo.at("a"), endo.at("b"))
        assert lhs == lefschetz(ce)
        # the homotopy pushout and the cone have the same homology
        assert homology_dims(res.complex) == homology_dims(_cc)


def test_hocolim_pushout_additivity():
    rng = random.Random(31)
    cat = span()
    c1 = harness.random_complex(rng, 2, 0, 1)
    dia = ChainDiagram(cat, {"a": c1, "b": c1, "c": c1},
                       {"a": identity_chain_map(c1),
                        "b": identity_chain_map(c1),
                        "c": identity_chain_map(c1),
                        "f": identity_chain_map(c1),
                        "g": identity_chain_map(c1)})
    endo = harness.rand_combo_endo(rng, nat_endo_basis(dia))
    if endo is None:
        endo = NatEndo(dia, {o: identity_chain_map(c1) for o in cat.objects})
    res = hocolim_hofin(dia)
    lhs = lefschetz(res.induce(endo))
    rhs = (lefschetz(endo.at("b")) + lefschetz(endo.at("c"))
           - lefschetz(endo.at("a")))
    assert lhs == rhs


def test_hocolim_total_dimension_counts_strings():
    cat = harness.gen_hofin_category(12)
    dia, _endo = harness.gen_chain_diagram(12, cat)
    res = hocolim_hofin(dia)
    total = 0
    for level in fincat.enumerate_strings(cat):
        for (start, _arrs) in level:
            total += dia.cx(start).total_dim()
    assert res.complex.total_dim() == total


def dense_hocolim_hofin(x):
    """Reference: the level construction on dense Fraction rows, checked
    by ChainComplex's own d o d test.  Returns (complex, index)."""
    cat = x.base
    levels = fincat.enumerate_strings(cat)
    index = {}
    dims = {}
    for k, level in enumerate(levels):
        for s in level:
            cx0 = x.cx(s[0])
            for m in cx0.dims:
                n = k + m
                off = dims.get(n, 0)
                index[(s, m)] = (n, off)
                dims[n] = off + cx0.dim(m)
    dims = {n: d for n, d in dims.items() if d}
    diff = {n: [[F(0)] * dims.get(n, 0) for _ in range(dims.get(n - 1, 0))]
            for n in dims}

    def add_block(n, roff, coff, m, sign):
        tgt = diff.get(n)
        if tgt is None:
            return
        for i in range(m.rows):
            trow = tgt[roff + i]
            for j in range(m.cols):
                v = m.data[i][j]
                if v:
                    trow[coff + j] += v if sign > 0 else -v

    for (s, m), (n, off) in index.items():
        start, arrs = s
        k = len(arrs)
        cx0 = x.cx(start)
        dm = cx0.diff(m)
        if dm.rows and (s, m - 1) in index:
            add_block(n, index[(s, m - 1)][1], off, dm, 1 if k % 2 == 0 else -1)
        for i in range(k + 1):
            if i == 0:
                tgt_s = (cat.dst[arrs[0]], arrs[1:]) if k else None
                if tgt_s is None:
                    continue
                comp = x.map(arrs[0]).mat(m)
            elif i < k:
                tgt_s = (start, arrs[:i - 1] + (cat.then(arrs[i - 1], arrs[i]),)
                         + arrs[i + 1:])
                comp = Mat.identity(cx0.dim(m))
            else:
                if k == 0:
                    continue
                tgt_s = (start, arrs[:k - 1])
                comp = Mat.identity(cx0.dim(m))
            if (tgt_s, m) in index:
                add_block(n, index[(tgt_s, m)][1], off, comp,
                          1 if i % 2 == 0 else -1)

    total = ChainComplex(dims, {n: Mat(rows, dims.get(n - 1, 0), dims.get(n, 0),
                                       coerce=False)
                                for n, rows in diff.items()
                                if dims.get(n - 1, 0)})
    return total, index


def disk_sphere_diagram(cat, a0, a1, s=1, scale=None):
    """Over each object o, the representables R = Q[hom(a0, o)] and
    S = Q[hom(a1, o)]: R (+) S in degree 0, R in degree 1, d = (s, 0)^t.
    With ``scale`` (object -> Fraction) every map of the diagram is
    multiplied by scale[dst] / scale[src], which keeps it functorial and
    makes its entries non-integral."""
    r = linearize(harness.rep_set_diagram(cat, a0))
    t = linearize(harness.rep_set_diagram(cat, a1))
    complexes = {}
    for o in cat.objects:
        d1 = Mat([[F(s) if i == j else F(0) for j in range(r.dim(o))]
                  for i in range(r.dim(o) + t.dim(o))], r.dim(o) + t.dim(o),
                 r.dim(o))
        complexes[o] = ChainComplex({0: r.dim(o) + t.dim(o), 1: r.dim(o)},
                                    {1: d1})
    maps = {}
    for a in cat.arrows:
        src, dst = cat.src[a], cat.dst[a]
        k = scale[dst] / scale[src] if scale else 1
        maps[a] = ChainMap(complexes[src], complexes[dst],
                           {0: block_diag([r.mat(a).to_mat(),
                                           t.mat(a).to_mat()]).smul(k),
                            1: r.mat(a).smul(k)})
    return ChainDiagram(cat, complexes, maps)


def hocolim_case(name):
    d3 = fincat.delta_prime_op(3)
    if name == "delta3":
        return disk_sphere_diagram(d3, "[3]", "[2]")
    if name == "dag":
        return harness.gen_chain_diagram(5, harness.gen_hofin_category(5))[0]
    if name == "pushout_span":
        return _span_chain_case(5)[0]
    scale = {o: F(1, i + 2) for i, o in enumerate(d3.objects)}
    return disk_sphere_diagram(d3, "[3]", "[1]", F(3, 2), scale)


@pytest.mark.parametrize("name", ["delta3", "dag", "pushout_span", "rational"])
def test_hocolim_matches_dense_reference(name):
    dia = hocolim_case(name)
    res = hocolim_hofin(dia)
    ref, index = dense_hocolim_hofin(dia)
    assert res.complex == ref
    assert res.index == index
    assert res.complex.dims == ref.dims and set(res.complex.d) == set(ref.d)
    assert all(type(v) is F for m in res.complex.d.values()
               for row in m.data for v in row)
    if name == "rational":
        assert any(v.denominator != 1 for m in res.complex.d.values()
                   for row in m.data for v in row)


def test_hocolim_dd_check_catches_a_broken_composite():
    """A diagram whose map on a composite arrow is not the composite of
    the maps gives a level construction with d o d != 0."""
    dia = disk_sphere_diagram(fincat.delta_prime_op(3), "[3]", "[2]")
    cat = dia.base
    comp = next(a for a in cat.arrows
                if not cat.is_id(a) and a not in cat.generating_arrows()
                and not dia.map(a).mat(0).is_zero())
    maps = {a: dia.map(a) for a in cat.arrows}
    maps[comp] = dia.map(comp).smul(2)
    broken = ChainDiagram(cat, {o: dia.cx(o) for o in cat.objects}, maps,
                          check=False)
    with pytest.raises(ValueError) as ours:
        hocolim_hofin(broken)
    with pytest.raises(ValueError) as ref:
        dense_hocolim_hofin(broken)
    assert str(ours.value) == str(ref.value)
    assert str(ours.value).startswith("d o d nonzero out of degree ")
    res = hocolim_hofin(broken, check=False)
    assert res.complex.violations() == str(ref.value).split("; ")


def test_hocolim_rejects_bad_base():
    cat = bg_category(cyclic_group(2))
    cx = ChainComplex({0: 1}, {})
    dia = ChainDiagram(cat, {"x": cx},
                       {("g", 0): identity_chain_map(cx),
                        ("g", 1): identity_chain_map(cx)})
    with pytest.raises(ValueError):
        hocolim_hofin(dia)


def _constant_diagram(cat, cx):
    return ChainDiagram(cat, {o: cx for o in cat.objects},
                        {a: identity_chain_map(cx) for a in cat.arrows},
                        check=False)


def test_bad_bases_are_refused_on_every_call():
    """The string and chain data are stored only for a base that passes
    its check, so a refused base is refused again."""
    cx = ChainComplex({0: 1}, {})
    not_hofin = _constant_diagram(bg_category(cyclic_group(2)), cx)
    not_ei = _constant_diagram(idem_cat(), cx)
    endo = identity_endo(not_ei)
    for _ in range(2):
        with pytest.raises(ValueError, match="^base category is not "
                           "strictly homotopy finite$"):
            hocolim_hofin(not_hofin)
        with pytest.raises(ValueError, match="^base category is not EI$"):
            hocolim_EI(not_ei, endo)
    assert not_hofin.base._strings is None
    assert not_ei.base._ei_chains is None


@pytest.mark.parametrize("fg", ["h", "ia", "f"])
def test_hocolim_over_a_table_that_is_not_a_category(monkeypatch, fg):
    """f: a -> b then g: b -> c recorded as h (a category), as the
    identity ia (the face that composes f and g is no string and is
    skipped), or as f (two faces of (f, g) meet one string with opposite
    signs and cancel): the differential is the dense reference's, built
    without its d o d check."""
    arrows = [("ia", "a", "a"), ("ib", "b", "b"), ("ic", "c", "c"),
              ("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")]
    ids = {"a": "ia", "b": "ib", "c": "ic"}
    compose = {(x, y): x if y in ids.values() else y
               for x, _s, t in arrows for y, s, _t in arrows if t == s}
    compose[("f", "g")] = fg
    cat = fincat.FinCat(["a", "b", "c"], arrows, ids, compose)
    assert (fincat.validate(cat) == []) == (fg == "h")
    cx = ChainComplex({0: 2, 1: 1}, {1: Mat([[1], [0]])})
    dia = _constant_diagram(cat, cx)
    ours = hocolim_hofin(dia, check=False)
    monkeypatch.setattr(sys.modules[__name__], "ChainComplex",
                        functools.partial(ChainComplex, check=False))
    ref, index = dense_hocolim_hofin(dia)
    assert ours.index == index
    assert ours.complex == ref
    assert bool(ours.complex.violations()) == (fg != "h")


# ---------------------------------------------------------------------------
# coinvariants and groupoid homotopy colimits

def invariant_dims(x):
    """Dimensions of the joint fixed space of a one-object group action,
    from the dense kernel of the stacked (g - 1) over all g."""
    cat = x.base
    cxo = x.cx(cat.objects[0])
    out = {}
    for n in cxo.dims:
        rows = []
        for g in cat.arrows:
            rows.extend((x.map(g).mat(n) - Mat.identity(cxo.dim(n))).data)
        out[n] = kernel_basis(Mat(rows, len(rows), cxo.dim(n))).cols
    return {n: d for n, d in out.items() if d}


def test_coinvariants_trivial_action():
    cat = bg_category(cyclic_group(2))
    cx = ChainComplex({0: 2}, {})
    dia = ChainDiagram(cat, {"x": cx},
                       {("g", 0): identity_chain_map(cx),
                        ("g", 1): identity_chain_map(cx)})
    f = NatEndo(dia, {"x": ChainMap(cx, cx, {0: Mat([[1, 2], [0, 3]])})})
    total, ind, _parts = hocolim_groupoid(dia, f)
    assert total.dims == cx.dims
    assert lefschetz(ind) == lefschetz(f.at("x"))


def test_coinvariants_regular_action():
    cat = bg_category(cyclic_group(2))
    cx = ChainComplex({0: 2}, {})
    dia = ChainDiagram(cat, {"x": cx},
                       {("g", 0): identity_chain_map(cx),
                        ("g", 1): ChainMap(cx, cx, {0: Mat([[0, 1], [1, 0]])})})
    f = NatEndo(dia, {"x": identity_chain_map(cx)})
    total, ind, parts = hocolim_groupoid(dia, f)
    assert total.dims == {0: 1} and lefschetz(ind) == 1
    # the one piece is the split of the averaging idempotent
    e = group_action_idempotent(dia, list(cat.arrows))
    sub, inc, proj = chain_idempotent_image(e)
    assert parts == [("x", sub)] and total == sub
    # split identities and agreement with the invariant subspace
    for n in sub.dims:
        assert (proj.mat(n) @ inc.mat(n)).is_identity()
    assert invariant_dims(dia) == {n: sub.dim(n) for n in sub.dims}


def test_coinvariants_averaged_trace_formula():
    corp = harness.corpus()
    for gname in ["C2", "C3", "C4", "S3"]:
        for seed in range(3):
            dia, endo = harness.group_chain_diagram(
                seed, corp["B" + gname]["cat"])
            _total, ind, _parts = hocolim_groupoid(dia, endo)
            g = harness.GROUPS[gname]
            total = F(0)
            for x in g.elements:
                total += lefschetz(endo.at("x").compose(dia.map(("g", x))))
            assert lefschetz(ind) == total / len(g)


def test_hocolim_groupoid_on_disjoint_union():
    c2 = cyclic_group(2)
    c3 = cyclic_group(3)
    cat = fincat.disjoint_union(bg_category(c2), bg_category(c3))
    cx2 = ChainComplex({0: 2}, {})
    cx3 = ChainComplex({0: 3}, {})
    swap = Mat([[0, 1], [1, 0]])
    rot = Mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    maps = {}
    for x in c2.elements:
        maps[(0, ("g", x))] = ChainMap(cx2, cx2,
                                       {0: Mat.identity(2) if x == 0 else swap})
    for x in c3.elements:
        m = Mat.identity(3)
        for _ in range(x):
            m = rot @ m
        maps[(1, ("g", x))] = ChainMap(cx3, cx3, {0: m})
    dia = ChainDiagram(cat, {(0, "x"): cx2, (1, "x"): cx3}, maps)
    f = NatEndo(dia, {(0, "x"): identity_chain_map(cx2),
                      (1, "x"): identity_chain_map(cx3)})
    total, ind, parts = hocolim_groupoid(dia, f)
    # one invariant line per free summand
    assert total.dims == {0: 2}
    assert lefschetz(ind) == 2


def test_hocolim_ei_agrees_with_hofin_pipeline():
    for seed in [0, 5, 9]:
        cat = harness.gen_hofin_category(seed, max_objects=4, max_edges=5)
        dia, endo = harness.gen_chain_diagram(seed, cat)
        res = hocolim_hofin(dia)
        lhs = lefschetz(res.induce(endo))
        _total, ind2 = hocolim_EI(dia, endo)
        assert lhs == lefschetz(ind2)


def _hofin_bases():
    """(name, diagram, endo) over seeded DAGs and the corpus posets."""
    for seed in range(20):
        cat = harness.gen_hofin_category(seed)
        yield ("dag%d" % seed,) + harness.gen_chain_diagram(seed, cat)
    corp = harness.corpus()
    for name in ["two", "pushout", "delta2op", "par3"]:
        rng = harness.seeded_rng("ei-hofin", name)
        yield (name,) + harness._ei_chain_case(rng, corp[name]["cat"])


def test_hocolim_ei_has_the_hofin_dims_on_hofin_bases():
    """Over a strictly homotopy finite base every string stabilizer is
    trivial, so the EI complex has one summand per string of nonidentity
    arrows, as the hofin complex has: equal dims in every degree, equal
    homology and equal Lefschetz numbers."""
    for name, dia, endo in _hofin_bases():
        res = hocolim_hofin(dia)
        total, induced = hocolim_EI(dia, endo)
        assert total.dims == res.complex.dims, name
        assert homology_dims(total) == homology_dims(res.complex), name
        assert lefschetz(induced) == lefschetz(res.induce(endo)), name


def test_hocolim_ei_agrees_with_coinvariants():
    corp = harness.corpus()
    for gname in ["C2", "C3", "S3"]:
        dia, endo = harness.group_chain_diagram(7, corp["B" + gname]["cat"])
        total, ind, _parts = hocolim_groupoid(dia, endo)
        total2, ind2 = hocolim_EI(dia, endo)
        assert lefschetz(ind) == lefschetz(ind2)
        assert homology_dims(total) == homology_dims(total2)


def test_hocolim_ei_on_skeletalizable_groupoid():
    cat = fincat.connected_groupoid(cyclic_group(2), 2)
    cx = ChainComplex({0: 2}, {})
    swap = Mat([[0, 1], [1, 0]])
    maps = {}
    for a in cat.arrows:
        (_, x, i, j) = a
        maps[a] = ChainMap(cx, cx, {0: Mat.identity(2) if x == 0 else swap})
    dia = ChainDiagram(cat, {o: cx for o in cat.objects}, maps)
    f = NatEndo(dia, {o: identity_chain_map(cx) for o in cat.objects})
    _total, ind = hocolim_EI(dia, f)
    _total, ind2, _parts = hocolim_groupoid(dia, f)
    assert lefschetz(ind) == lefschetz(ind2) == 1


# ---------------------------------------------------------------------------
# set-level colimits

def test_set_pushout_of_injections_counts():
    cat = span()
    d = FinSetDiagram(
        cat, {"a": [0, 1], "b": [0, 1, 2], "c": [0, 1, 2, 3]},
        {"a": {0: 0, 1: 1}, "b": {i: i for i in range(3)},
         "c": {i: i for i in range(4)},
         "f": {0: 0, 1: 1}, "g": {0: 0, 1: 1}})
    reps, assign = colim_fin_set(d)
    assert len(reps) == 3 + 4 - 2
    lin = linearize(d)
    assert colim_vect(lin).dim == len(reps)


def test_induced_endo_on_set_colimit():
    cat = span()
    d = FinSetDiagram(
        cat, {"a": [0], "b": [0, 1], "c": [0, 1]},
        {"a": {0: 0}, "b": {0: 0, 1: 1}, "c": {0: 0, 1: 1},
         "f": {0: 0}, "g": {0: 0}})
    _out, fixed = induced_endo_fin_set(
        d, {"a": {0: 0}, "b": {0: 0, 1: 0}, "c": {0: 0, 1: 1}})
    assert fixed == 1 + 2 - 1


def test_orbit_quotient_of_group_action():
    c3 = cyclic_group(3)
    cat = bg_category(c3)
    d = FinSetDiagram(cat, {"x": [0, 1, 2]},
                      {("g", k): {i: (i + k) % 3 for i in range(3)}
                       for k in c3.elements})
    reps, _assign = colim_fin_set(d)
    assert len(reps) == 1


def test_empty_shape_edge_cases():
    cat = harness.discrete_category(0)
    dia = ChainDiagram(cat, {}, {})
    res = hocolim_hofin(dia)
    assert res.complex.total_dim() == 0
    f = NatEndo(dia, {})
    assert lefschetz(res.induce(f)) == 0
