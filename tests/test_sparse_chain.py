"""The sparse chain layer against the dense bodies it replaced.

The ``dense_*`` functions below are the earlier implementations of
``idempotent_image``, ``chain_idempotent_image``, the direct sums (now
``exactalg.direct_sum`` and ``ChainMap.from_blocks``), the EI face maps,
``HocolimResult.induce`` and the ``ChainMap`` operations, on dense
Fraction rows.  The sparse pipelines must give the same
complexes, indices, induced maps, Lefschetz numbers and error messages.
"""

import random
from fractions import Fraction as F

import pytest

from test_diagrams import dense_hocolim_hofin, disk_sphere_diagram, hocolim_case
from tracelin import diagrams, exactalg, fincat, harness
from tracelin.diagrams import (
    ChainDiagram, NatEndo, chain_idempotent_image, chain_map_space,
    group_action_idempotent, hocolim_EI, hocolim_groupoid, hocolim_hofin,
    identity_endo, nat_endo_basis,
)
from tracelin.exactalg import (
    ZERO, ChainComplex, ChainMap, Mat, SparseMat, idempotent_image,
    identity_chain_map, image_basis, inverse, lefschetz, solve_linear, trace,
)


# ---------------------------------------------------------------------------
# dense references

def dense_compose(a, b):
    degs = set(a.mats) | set(b.mats)
    return ChainMap(b.src, a.dst, {n: a.mat(n) @ b.mat(n) for n in degs},
                    check=False)


def dense_add(a, b):
    degs = set(a.mats) | set(b.mats)
    return ChainMap(a.src, a.dst, {n: a.mat(n) + b.mat(n) for n in degs},
                    check=False)


def dense_smul(a, s):
    return ChainMap(a.src, a.dst, {n: m.smul(s) for n, m in a.mats.items()},
                    check=False)


def dense_equal(a, b):
    degs = set(a.mats) | set(b.mats)
    return all(a.mat(n) == b.mat(n) for n in degs)


def dense_violations(f):
    out = []
    for n, m in f.mats.items():
        if m.rows != f.dst.dim(n) or m.cols != f.src.dim(n):
            out.append("component at degree %d has shape %dx%d, expected %dx%d"
                       % (n, m.rows, m.cols, f.dst.dim(n), f.src.dim(n)))
            return out
    for n in set(f.src.dims) | set(f.dst.dims):
        if f.dst.diff(n) @ f.mat(n) != f.mat(n - 1) @ f.src.diff(n):
            out.append("does not commute with differentials at degree %d" % n)
    return out


def dense_average(maps):
    total = maps[0]
    for m in maps[1:]:
        total = dense_add(total, m)
    return dense_smul(total, F(1, len(maps)))


def dense_idempotent_image(e):
    if e.rows != e.cols:
        raise ValueError("idempotent must be square")
    if not (e @ e == e):
        raise ValueError("matrix is not idempotent")
    i = image_basis(e)[0].to_mat()
    res = solve_linear(i, e)
    assert res is not None and res.unique
    p = res.solution.to_mat()
    assert (p @ i).is_identity()
    return i, p


def dense_chain_idempotent_image(e):
    cx = e.src
    incs, projs, dims = {}, {}, {}
    for n in cx.dims:
        i, p = dense_idempotent_image(e.mat(n))
        if i.cols:
            incs[n] = i
            projs[n] = p
            dims[n] = i.cols
    d = {n: projs[n - 1] @ cx.diff(n) @ incs[n] for n in dims if n - 1 in dims}
    sub = ChainComplex(dims, d)
    return sub, ChainMap(sub, cx, incs, check=False), \
        ChainMap(cx, sub, projs, check=False)


def dense_direct_sum_complex(pieces):
    dims = {}
    offs = []
    for p in pieces:
        off = {}
        for n in p.dims:
            off[n] = dims.get(n, 0)
            dims[n] = off[n] + p.dim(n)
        offs.append(off)
    d = {}
    for n in dims:
        if dims.get(n - 1, 0):
            rows = [[ZERO] * dims.get(n, 0) for _ in range(dims[n - 1])]
            for p, off in zip(pieces, offs):
                dm = p.diff(n)
                for i in range(dm.rows):
                    for j in range(dm.cols):
                        rows[off[n - 1] + i][off[n] + j] = dm.data[i][j]
            d[n] = Mat(rows, dims[n - 1], dims.get(n, 0), coerce=False)
    return ChainComplex(dims, d, check=False), offs


def dense_direct_sum_endo(total, offs, pieces, endos):
    mats = {n: [[ZERO] * total.dim(n) for _ in range(total.dim(n))]
            for n in total.dims}
    for p, off, e in zip(pieces, offs, endos):
        for n in p.dims:
            m = e.mat(n)
            for i in range(m.rows):
                for j in range(m.cols):
                    mats[n][off[n] + i][off[n] + j] = m.data[i][j]
    return ChainMap(total, total,
                    {n: Mat(b, total.dim(n), total.dim(n), coerce=False)
                     for n, b in mats.items()}, check=False)


def dense_induce(complex_, index, f):
    mats = {n: [[ZERO] * complex_.dim(n) for _ in range(complex_.dim(n))]
            for n in complex_.dims}
    for (s, m), (n, off) in index.items():
        fm = f.at(s[0]).mat(m)
        for i in range(fm.rows):
            for j in range(fm.cols):
                mats[n][off + i][off + j] = fm.data[i][j]
    return ChainMap(complex_, complex_,
                    {n: Mat(b, complex_.dim(n), complex_.dim(n), coerce=False)
                     for n, b in mats.items()}, check=False)


def dense_ei_face_map(x, scat, cls, piece, offsets, complexes, c, posn, sub):
    src_cx = complexes[c]
    dst_cx = complexes[sub]
    mats = {n: [[ZERO] * src_cx.dim(n) for _ in range(dst_cx.dim(n))]
            for n in set(src_cx.dims) | set(dst_cx.dims)}
    for ci, k in enumerate(cls[c].classes):
        rep = k["rep"]
        pushed = tuple(scat.then_seq(list(rep[posn[i - 1]:posn[i]]))
                       for i in range(1, len(posn)))
        connect = (scat.idarr(c[0]) if posn[0] == 0
                   else scat.then_seq(list(rep[:posn[0]])))
        di, g = cls[sub].locate(pushed)
        total_arrow = scat.then(connect, scat.inv(g[0]))
        (_dsub, _dinc, dproj) = piece[sub][di]
        (ssub, sinc, _sproj) = piece[c][ci]
        block = dense_compose(dense_compose(dproj, x.map(total_arrow)), sinc)
        soff = offsets[c][ci]
        doff = offsets[sub][di]
        for n in ssub.dims:
            m = block.mat(n)
            for i in range(m.rows):
                for j in range(m.cols):
                    mats[n][doff[n] + i][soff[n] + j] = m.data[i][j]
    return ChainMap(src_cx, dst_cx,
                    {n: Mat(rows, dst_cx.dim(n), src_cx.dim(n), coerce=False)
                     for n, rows in mats.items()}, check=False)


def dense_hocolim_EI(x, f):
    """The EI complex written directly from the poset's chains on the
    dense references: chain c holds the sum of its coinvariant pieces at
    level len(c) - 1 with internal sign (-1)^(len(c) - 1), and its face
    deleting position i adds the dense face map with sign (-1)^i.
    Returns (complex, induced endo)."""
    scat = fincat.skeletalize(x.base).cat
    pos, _ = fincat.poset_reflection(scat)
    chains = diagrams._chains_of_poset(pos)
    cls, piece, complexes, offsets, endos = {}, {}, {}, {}, {}
    for c in chains:
        cls[c] = fincat.string_iso_classes(scat, c)
        piece[c] = [dense_chain_idempotent_image(
            dense_average([x.map(g[0]) for g in k["aut"].elements]))
            for k in cls[c].classes]
        complexes[c], offsets[c] = dense_direct_sum_complex(
            [p[0] for p in piece[c]])
        endos[c] = dense_direct_sum_endo(
            complexes[c], offsets[c], [p[0] for p in piece[c]],
            [dense_compose(dense_compose(proj, f.at(c[0])), inc)
             for (_sub, inc, proj) in piece[c]])
    index, dims = {}, {}
    for c in chains:
        for m in complexes[c].dims:
            n = len(c) - 1 + m
            index[(c, m)] = (n, dims.get(n, 0))
            dims[n] = dims.get(n, 0) + complexes[c].dim(m)
    diff = {n: [[ZERO] * dims[n] for _ in range(dims.get(n - 1, 0))]
            for n in dims}
    ends = {n: [[ZERO] * dims[n] for _ in range(dims[n])] for n in dims}

    def put(rows, roff, coff, m, sign=1):
        for i, row in enumerate(m.data, roff):
            for j, v in enumerate(row, coff):
                rows[i][j] += sign * v

    for c in chains:
        k = len(c) - 1
        faces = [(i, c[:i] + c[i + 1:]) for i in range(len(c) if k else 0)]
        face_maps = {i: dense_ei_face_map(
            x, scat, cls, piece, offsets, complexes, c,
            tuple(j for j in range(len(c)) if j != i), sub)
            for i, sub in faces}
        for m in complexes[c].dims:
            n, off = index[(c, m)]
            put(ends[n], off, off, endos[c].mat(m))
            if (c, m - 1) in index:
                put(diff[n], index[(c, m - 1)][1], off, complexes[c].diff(m),
                    (-1) ** k)
            for i, sub in faces:
                if (sub, m) in index:
                    put(diff[n], index[(sub, m)][1], off,
                        face_maps[i].mat(m), (-1) ** i)
    total = ChainComplex(dims, {
        n: Mat(rows, dims[n - 1], dims[n], coerce=False)
        for n, rows in diff.items() if rows})
    return total, ChainMap(total, total, {
        n: Mat(rows, dims[n], dims[n], coerce=False)
        for n, rows in ends.items()}, check=False)


def dense_hocolim_groupoid(x, f):
    cat = x.base
    pieces, endos = [], []
    for a in fincat.skeletalize(cat).cat.objects:
        e = dense_average([x.map(g)
                           for g in fincat.aut_group(cat, a).elements])
        sub, inc, proj = dense_chain_idempotent_image(e)
        pieces.append(sub)
        endos.append(dense_compose(dense_compose(proj, f.at(a)), inc))
    total, offs = dense_direct_sum_complex(pieces)
    return total, dense_direct_sum_endo(total, offs, pieces, endos)


# ---------------------------------------------------------------------------
# helpers

def _fraction_mat(m):
    return type(m) is Mat and all(type(v) is F for row in m.data for v in row)


def assert_same_complex(ours, ref):
    """Equal dims and differentials; the dense reads are Fraction Mats."""
    assert ours.dims == ref.dims
    assert ours == ref
    for n in set(ours.d) | set(ref.d) | set(ours.dims):
        assert _fraction_mat(ours.diff(n))
        assert ours.diff(n) == ref.diff(n)
    assert all(_fraction_mat(m) for m in ours.d.values())


def assert_same_map(ours, ref):
    for n in set(ours.src.dims) | set(ref.src.dims):
        assert _fraction_mat(ours.mat(n))
        assert ours.mat(n) == ref.mat(n)
    assert all(_fraction_mat(m) for m in ours.mats.values())
    assert ours == ref
    if ours.src.dims == ours.dst.dims:
        assert lefschetz(ours) == lefschetz(ref)
        assert type(lefschetz(ours)) is F


def endo_for(dia, seed):
    endo = harness.rand_combo_endo(random.Random(seed), nat_endo_basis(dia))
    if endo is None:
        endo = NatEndo(dia, {o: identity_chain_map(dia.cx(o))
                             for o in dia.base.objects}, check=False)
    return endo


def ei_case(name, seed=0):
    if name == "rational":
        d2 = fincat.delta_prime_op(2)
        scale = {o: F(2, i + 3) for i, o in enumerate(d2.objects)}
        dia = disk_sphere_diagram(d2, "[2]", "[1]", F(3, 2), scale)
    else:
        cat = harness.corpus()[name]["cat"]
        dia, _ = harness._ei_chain_case(harness.seeded_rng("sp", seed, name),
                                        cat)
    return dia, endo_for(dia, seed)


# ---------------------------------------------------------------------------
# hofin: complexes, index and induced maps

@pytest.mark.parametrize("name", ["delta3", "dag", "pushout_span", "rational"])
def test_hofin_induce_matches_dense_reference(name):
    dia = hocolim_case(name)
    res = hocolim_hofin(dia)
    ref, index = dense_hocolim_hofin(dia)
    assert res.index == index
    assert_same_complex(res.complex, ref)
    for seed in range(3):
        endo = endo_for(dia, seed)
        ours = res.induce(endo)
        assert_same_map(ours, dense_induce(ref, index, endo))
        # the Lefschetz number is the sum of the per-string block traces
        blocks = sum(((-1) ** n * trace(endo.at(s[0]).mat(m))
                      for (s, m), (n, _off) in index.items()), ZERO)
        assert lefschetz(ours) == blocks


@pytest.mark.parametrize("store", ["dense", "sparse"])
def test_hofin_dd_check_matches_dense_reference(store):
    """A map on a composite arrow that is not the composite of the maps
    gives d o d != 0 in the level construction, reported as before
    whether the diagram's maps are stored dense or sparse."""
    dia = disk_sphere_diagram(fincat.delta_prime_op(3), "[3]", "[2]")
    cat = dia.base
    twin = _sparse_twin if store == "sparse" else (lambda f: f)
    comps = [a for a in cat.arrows
             if not cat.is_id(a) and a not in cat.generating_arrows()
             and not dia.map(a).mat(0).is_zero()]
    for comp in comps[:3]:
        maps = {a: twin(dia.map(a)) for a in cat.arrows}
        maps[comp] = dia.map(comp).smul(F(3, 2))
        broken = ChainDiagram(cat, dia.complexes, maps, check=False)
        with pytest.raises(ValueError) as ref:
            dense_hocolim_hofin(broken)
        with pytest.raises(ValueError) as ours:
            hocolim_hofin(broken)
        assert str(ours.value) == str(ref.value)
        assert str(ours.value).startswith("d o d nonzero out of degree ")


# ---------------------------------------------------------------------------
# EI and groupoid pipelines

EI_SHAPES = ["orbit_C4", "orbit_S3", "hom_C2_C2_id", "hom_C3_C3_id", "BS3",
             "gpd_conn_C2", "delta2op", "rational"]


@pytest.mark.parametrize("name", EI_SHAPES)
def test_ei_matches_dense_reference(name):
    for seed in range(2):
        dia, endo = ei_case(name, seed)
        total, induced = hocolim_EI(dia, endo)
        ref, ref_induced = dense_hocolim_EI(dia, endo)
        assert_same_complex(total, ref)
        if name == "rational":
            assert any(v.denominator != 1 for m in ref.d.values()
                       for row in m.data for v in row)
        assert_same_map(induced, ref_induced)
        _total, ident = hocolim_EI(dia, identity_endo(dia))
        assert_same_map(ident, identity_chain_map(ref))


def test_category_data_is_reused_across_diagrams():
    """Three diagrams over one category, then one over a second category
    of the same kind: each call reuses what its own base keeps, and each
    result equals the dense reference built from scratch."""
    d3 = fincat.delta_prime_op(3)
    scale = {o: F(1, i + 2) for i, o in enumerate(d3.objects)}
    hofin = [disk_sphere_diagram(d3, "[3]", "[2]"),
             disk_sphere_diagram(d3, "[3]", "[1]", F(3, 2), scale),
             disk_sphere_diagram(d3, "[2]", "[0]"),
             disk_sphere_diagram(fincat.delta_prime_op(2), "[2]", "[1]")]
    for dia in hofin:
        res = hocolim_hofin(dia)
        ref, index = dense_hocolim_hofin(dia)
        assert res.index == index
        assert res.strings == [s for lv in fincat.enumerate_strings(dia.base)
                               for s in lv]
        assert_same_complex(res.complex, ref)
        assert diagrams._string_faces(dia.base) is dia.base._strings
    corp = harness.corpus()
    first, second = corp["orbit_S3"]["cat"], corp["orbit_C4"]["cat"]
    kept = []
    for seed, cat in enumerate([first, first, first, second]):
        dia, _ = harness._ei_chain_case(harness.seeded_rng("reuse", seed, 0),
                                        cat)
        endo = endo_for(dia, seed)
        total, induced = hocolim_EI(dia, endo)
        ref, ref_induced = dense_hocolim_EI(dia, endo)
        assert_same_complex(total, ref)
        assert_same_map(induced, ref_induced)
        kept.append(dia.base._ei_chains)
    assert kept[0] is kept[1] is kept[2] is first._ei_chains
    assert kept[3] is second._ei_chains and kept[3] is not kept[0]
    assert diagrams._ei_chain_data(first) is first._ei_chains


@pytest.mark.parametrize("name", ["gpd_conn_C2", "gpd_C2_C3"])
def test_groupoid_matches_dense_reference(name):
    for seed in range(3):
        dia, endo = harness.groupoid_chain_diagram(seed, name)
        total, induced, _parts = hocolim_groupoid(dia, endo)
        ref, ref_induced = dense_hocolim_groupoid(dia, endo)
        assert_same_complex(total, ref)
        assert_same_map(induced, ref_induced)


@pytest.mark.parametrize("gname", ["C2", "C3", "C4", "S3"])
def test_coinvariants_match_dense_reference(gname):
    for seed in range(3):
        dia, endo = harness.group_chain_diagram(seed, gname)
        total, induced, _parts = hocolim_groupoid(dia, endo)
        e = dense_average([dia.map(g) for g in dia.base.arrows])
        rsub, rinc, rproj = dense_chain_idempotent_image(e)
        assert_same_complex(total, rsub)
        assert_same_map(induced, dense_compose(dense_compose(rproj,
                                                             endo.at("x")),
                                               rinc))
        sub, inc, proj = chain_idempotent_image(
            group_action_idempotent(dia, list(dia.base.arrows)))
        assert_same_complex(sub, rsub)
        assert all(inc.mat(n) == rinc.mat(n) and proj.mat(n) == rproj.mat(n)
                   for n in sub.dims)


# ---------------------------------------------------------------------------
# idempotent splitting

def seeded_idempotents(seed, count):
    """Conjugates s diag(1, .., 1, 0, .., 0) s^-1 by seeded invertible
    rational s, so entries are non-integral."""
    rng = random.Random(seed)
    out = [Mat.zeros(0, 0), Mat.identity(3), Mat.zeros(2, 2)]
    while len(out) < count:
        n = rng.randint(1, 6)
        s = Mat([[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)])
        if exactalg.rank(s) < n:
            continue
        r = rng.randint(0, n)
        d = Mat([[1 if i == j and i < r else 0 for j in range(n)]
                  for i in range(n)])
        out.append(s @ d @ inverse(s).to_mat())
    return out


def test_idempotent_image_matches_dense_reference():
    for e in seeded_idempotents(71, 40):
        ref_i, ref_p = dense_idempotent_image(e)
        # a Mat in gives the SparseMats that a SparseMat in gives
        i, p = idempotent_image(e)
        assert type(i) is SparseMat and type(p) is SparseMat
        assert (i, p) == (SparseMat.from_mat(ref_i), SparseMat.from_mat(ref_p))
        assert (i.to_mat(), p.to_mat()) == (ref_i, ref_p)
        assert idempotent_image(SparseMat.from_mat(e)) == (i, p)


@pytest.mark.parametrize("e, message", [
    (Mat([[1, 1], [0, 0], [0, 0]]), "idempotent must be square"),
    (Mat([[F(1, 2), 0], [0, 1]]), "matrix is not idempotent"),
    (Mat([[1, 1], [0, 1]]), "matrix is not idempotent"),
    (Mat([[0, 1], [0, 0]]), "matrix is not idempotent"),
])
def test_idempotent_image_errors_match_dense_reference(e, message):
    for arg in (e, SparseMat.from_mat(e)):
        with pytest.raises(ValueError) as ours:
            idempotent_image(arg)
        with pytest.raises(ValueError) as ref:
            dense_idempotent_image(e)
        assert str(ours.value) == str(ref.value) == message


def test_idempotent_image_checks_the_splitting(monkeypatch):
    """A wrong solve for p makes p o i != id, which the split checks."""
    solve = exactalg._solve

    def doubled(a, b):
        sols, unique = solve(a, b)
        return [({j: 2 * x for j, x in num.items()}, den)
                for num, den in sols], unique

    monkeypatch.setattr(exactalg, "_solve", doubled)
    with pytest.raises(AssertionError):
        idempotent_image(Mat([[1, 0], [0, 0]]))


def _broken_group_action():
    """B(C2) acting on Q by g -> 2: not a group action, so the average
    (1 + 2) / 2 is not idempotent."""
    cat = fincat.bg_category(fincat.cyclic_group(2))
    cx = ChainComplex({0: 1}, {})
    maps = {("g", 0): identity_chain_map(cx),
            ("g", 1): ChainMap(cx, cx, {0: Mat([[2]])})}
    dia = ChainDiagram(cat, {"x": cx}, maps, check=False)
    return dia, NatEndo(dia, {"x": identity_chain_map(cx)}, check=False)


def test_non_idempotent_average_is_reported_as_before():
    dia, endo = _broken_group_action()
    with pytest.raises(ValueError) as ref:
        dense_hocolim_groupoid(dia, endo)
    for run in (lambda: hocolim_groupoid(dia, endo),
                lambda: hocolim_EI(dia, endo, check=False)):
        with pytest.raises(ValueError) as ours:
            run()
        assert str(ours.value) == str(ref.value) == "matrix is not idempotent"


# ---------------------------------------------------------------------------
# ChainMap with sparse and dense stores mixed

def _sparse_twin(f):
    return ChainMap(f.src, f.dst,
                    {n: SparseMat.from_mat(m) for n, m in f.mats.items()},
                    check=False)


def _map_pairs(seed, count):
    """Seeded (f, g) chain maps with g after f defined, from the exact
    chain-map spaces between seeded complexes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = (harness.random_complex(rng) for _ in range(3))
        fs, gs = chain_map_space(a, b), chain_map_space(b, c)
        if not fs or not gs:
            continue
        f = fs[0]
        for extra in fs[1:]:
            f = dense_add(f, dense_smul(extra, F(rng.randint(-3, 3),
                                                  rng.randint(1, 2))))
        out.append((f, gs[rng.randrange(len(gs))]))
    return out


def test_chain_map_operations_with_mixed_stores():
    for f, g in _map_pairs(83, 30):
        forms_f = (f, _sparse_twin(f))
        forms_g = (g, _sparse_twin(g))
        for f_ in forms_f:
            assert f_.violations() == dense_violations(f) == []
            for s in (0, 1, F(-2, 3)):
                assert_same_map(f_.smul(s), dense_smul(f, s))
            for h_ in forms_f:
                assert f_ == h_
                assert_same_map(f_ + h_, dense_add(f, f))
            for g_ in forms_g:
                assert_same_map(g_.compose(f_), dense_compose(g, f))
        double = dense_smul(f, 2)
        for f_ in forms_f:
            for d_ in (double, _sparse_twin(double)):
                assert (f_ == d_) == dense_equal(f, double)


def test_chain_map_commutation_messages_match_dense_reference():
    rng = random.Random(89)
    seen = 0
    for f, _g in _map_pairs(97, 30):
        mats = {n: Mat([[F(rng.randint(-1, 1)) for _ in range(m.cols)]
                        for _ in range(m.rows)], m.rows, m.cols)
                for n, m in f.mats.items()}
        bad = ChainMap(f.src, f.dst, mats, check=False)
        ref = dense_violations(bad)
        seen += bool(ref)
        for b_ in (bad, _sparse_twin(bad)):
            assert b_.violations() == ref
            if ref:
                with pytest.raises(ValueError) as ours:
                    ChainMap(b_.src, b_.dst, b_.mats)
                assert str(ours.value) == "; ".join(ref)
    assert seen > 5


def test_dense_reads_of_sparse_stores_are_fraction_mats():
    d1 = SparseMat([{0: 1}, {}], 2, 1)
    cx = ChainComplex({0: 2, 1: 1, 2: 0}, {1: d1})
    assert _fraction_mat(cx.diff(1)) and cx.diff(1) == d1.to_mat()
    assert _fraction_mat(cx.diff(0)) and cx.diff(0).rows == 0
    assert list(cx.d) == [1] and _fraction_mat(cx.d[1])
    f = ChainMap(cx, cx, {0: SparseMat([{1: F(1, 2)}, {0: 3}], 2, 2),
                          1: SparseMat.identity(1)}, check=False)
    assert all(_fraction_mat(f.mat(n)) for n in (0, 1, 2))
    assert all(_fraction_mat(m) for m in f.mats.values())
    assert f.mat(0) == Mat([[0, F(1, 2)], [3, 0]])
    assert lefschetz(f) == -1 and type(lefschetz(f)) is F


def test_mats_given_dense_are_kept_sparse():
    """Given Mats are converted once, at construction: the sparse reads
    are one object each, and a later write to a given Mat changes
    nothing."""
    d1 = Mat([[1], [0]])
    cx = ChainComplex({0: 2, 1: 1}, {1: d1})
    m0 = Mat([[0, F(1, 2)], [3, 0]])
    f = ChainMap(cx, cx, {0: m0, 1: Mat.identity(1)}, check=False)
    d1.data[1][0] = m0.data[0][0] = F(5)
    assert type(cx.sparse_diff(1)) is SparseMat
    assert cx.sparse_diff(1) is cx.sparse_diff(1)
    assert cx.sparse_diff(1).terms == [{0: 1}, {}]
    assert cx.diff(1) == Mat([[1], [0]])
    assert type(f.sparse_mat(0)) is SparseMat
    assert f.sparse_mat(0) is f.sparse_mat(0)
    assert f.sparse_mat(0).terms == [{1: F(1, 2)}, {0: 3}]
    assert f.mat(0) == Mat([[0, F(1, 2)], [3, 0]])


# ---------------------------------------------------------------------------
# the checks inside hocolim_EI still run

def test_hocolim_ei_checks_the_endomorphism_is_natural():
    dia, endo = ei_case("orbit_C4")
    comps = {o: endo.at(o) for o in dia.base.objects}
    o = next(o for o in dia.base.objects if dia.cx(o).total_dim() > 1)
    n = next(iter(dia.cx(o).dims))
    k = dia.cx(o).dim(n)
    comps[o] = ChainMap(dia.cx(o), dia.cx(o),
                        {n: Mat([[1 if (i, j) == (0, k - 1) else 0
                                  for j in range(k)] for i in range(k)])},
                        check=False)
    bad = NatEndo(dia, comps, check=False)
    assert bad.violations()
    # the induced block-diagonal map is checked as a chain map
    with pytest.raises(ValueError, match="^does not commute with "
                       "differentials at degree "):
        hocolim_EI(dia, bad)


def test_hocolim_ei_checks_the_chain_diagram():
    """A map that does not commute with the differentials breaks the
    total differential: d o d != 0."""
    dia = disk_sphere_diagram(fincat.delta_prime_op(2), "[2]", "[1]")
    cat = dia.base
    a = next(a for a in cat.generating_arrows()
             if dia.map(a).mat(1).rows and not dia.map(a).mat(1).is_zero())
    maps = {b: dia.map(b) for b in cat.arrows}
    maps[a] = ChainMap(dia.map(a).src, dia.map(a).dst,
                       {0: dia.map(a).mat(0), 1: dia.map(a).mat(1).smul(2)},
                       check=False)
    broken = ChainDiagram(cat, {o: dia.cx(o) for o in cat.objects}, maps,
                          check=False)
    endo = NatEndo(broken, {o: identity_chain_map(dia.cx(o))
                            for o in cat.objects}, check=False)
    with pytest.raises(ValueError, match="^d o d nonzero out of degree "):
        hocolim_EI(broken, endo)


def test_hocolim_ei_checks_functoriality():
    """A map on a composite arrow that is not the composite of the maps
    makes an inner face disagree with the outer ones: d o d != 0."""
    dia = disk_sphere_diagram(fincat.delta_prime_op(2), "[2]", "[1]")
    cat = dia.base
    comp = next(a for a in cat.arrows
                if not cat.is_id(a) and a not in cat.generating_arrows()
                and not dia.map(a).mat(0).is_zero())
    maps = {a: dia.map(a) for a in cat.arrows}
    maps[comp] = dia.map(comp).smul(2)
    broken = ChainDiagram(cat, {o: dia.cx(o) for o in cat.objects}, maps,
                          check=False)
    endo = NatEndo(broken, {o: identity_chain_map(dia.cx(o))
                            for o in cat.objects}, check=False)
    with pytest.raises(ValueError, match="^d o d nonzero out of degree "):
        hocolim_EI(broken, endo)


# ---------------------------------------------------------------------------
# the identity and functoriality checks of ChainDiagram

def dense_diagram_violations(dia):
    out = []
    cat = dia.base
    for a in cat.arrows:
        out.extend("arrow %r: %s" % (a, v) for v in dense_violations(dia.map(a)))
    if out:
        return out
    for o in cat.objects:
        if not all(dia.map(cat.idarr(o)).mat(n).is_identity()
                   for n in dia.cx(o).dims):
            out.append("identity of %r is not the identity" % (o,))
    for (f, g), h in cat.compose.items():
        if not dense_equal(dense_compose(dia.map(g), dia.map(f)), dia.map(h)):
            out.append("functoriality fails at (%r, %r)" % (f, g))
    return out


def test_chain_diagram_checks_match_dense_reference():
    dia = disk_sphere_diagram(fincat.delta_prime_op(2), "[2]", "[1]")
    cat = dia.base
    o = cat.objects[1]
    comp = next(a for a in cat.arrows
                if not cat.is_id(a) and a not in cat.generating_arrows()
                and not dia.map(a).mat(0).is_zero())
    gen = next(a for a in cat.generating_arrows()
               if not dia.map(a).mat(1).is_zero())
    g = dia.map(gen)
    variants = [{}, {cat.idarr(o): dia.map(cat.idarr(o)).smul(2)},
                {comp: dia.map(comp).smul(F(1, 2))},
                {gen: ChainMap(g.src, g.dst, {0: g.mat(0),
                                              1: g.mat(1).smul(3)},
                               check=False)}]
    for change in variants:
        maps = {a: change.get(a, dia.map(a)) for a in cat.arrows}
        ref = dense_diagram_violations(
            ChainDiagram(cat, dia.complexes, maps, check=False))
        assert bool(ref) == bool(change)
        for twin in (lambda m: m, _sparse_twin):
            broken = ChainDiagram(cat, dia.complexes,
                                  {a: twin(m) for a, m in maps.items()},
                                  check=False)
            assert broken.violations() == ref
            if ref:
                with pytest.raises(ValueError) as ours:
                    ChainDiagram(cat, dia.complexes, broken.maps)
                assert str(ours.value) == "; ".join(ref)
