import gc
import random
import re
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelin import diagrams, fincat, harness, profcalc
from tracelin.diagrams import NatEndo, VectDiagram, nat_endo_basis
from tracelin.exactalg import Mat, SparseMat, inverse, rank, trace
from tracelin.fincat import (
    Functor, bg_category, cyclic_group, opposite, symmetric_group,
)
from tracelin.profcalc import (
    bicat_trace, coeff_vector_direct, compose_prof, dual_of_pointwise,
    dual_via_retract, prof_from_diagram, prof_from_weight, representable,
    shadow, terminal_category, unit_prof, unit_shadow,
)


def idem_cat():
    return harness.idempotent_category()


def span():
    return harness.span_category()


def object_functor(cat, a):
    one = terminal_category()
    return Functor(one, cat, {"*": a}, {"id*": cat.idarr(a)})


# ---------------------------------------------------------------------------
# shadows

def test_shadow_of_unit_discrete():
    cat = harness.discrete_category(2)
    assert shadow(unit_prof(cat)).dim == 2


def test_shadow_of_unit_idempotent():
    assert shadow(unit_prof(idem_cat())).dim == 2


def test_shadow_of_unit_bs3():
    cat = bg_category(symmetric_group(3))
    unit_shadow(cat)
    assert shadow(unit_prof(cat)).dim == 3


def test_unit_shadow_leaves_its_category_free():
    # the shadow kept on the category must not point back at it, or the
    # category would live until the cyclic collector runs
    gc.disable()
    try:
        cat = bg_category(symmetric_group(3))
        unit_shadow(cat)
        ref = weakref.ref(cat)
        del cat
        assert ref() is None
    finally:
        gc.enable()


def test_unit_shadow_class_basis_spans():
    for cat in [span(), idem_cat(), bg_category(cyclic_group(3))]:
        su = unit_shadow(cat)
        assert su.class_matrix.cols == su.dim == len(su.classes)
        assert rank(su.class_matrix) == su.dim


def test_shadow_relations_full_vs_generating_arrows():
    # quotienting by relations from all arrows gives the same dimension
    cat = bg_category(symmetric_group(3))
    h = unit_prof(cat)
    sh = shadow(h)
    from tracelin.profcalc import _coend
    rels = [(cat.src[g], h.tact(g, cat.src[g]),
             cat.dst[g], h.sact(cat.dst[g], g))
            for g in cat.nonidentity()]
    assert len(rels) > len(cat.generating_arrows())
    _offsets, proj = _coend(cat.objects, lambda a: h.dim(a, a), rels)
    assert proj.rows == sh.dim
    # the same quotient, so the same reduced echelon projection
    assert sh.sparse_proj == proj


# ---------------------------------------------------------------------------
# composition

def test_compose_with_unit_preserves_dimensions():
    cat = bg_category(symmetric_group(3))
    x = VectDiagram(cat, {"x": 2},
                    {a: harness.rep_standard_perm(symmetric_group(3))[a[1]]
                     for a in cat.arrows})
    h = prof_from_diagram(x)
    hi = compose_prof(unit_prof(cat), h)
    for key, d in h.dims.items():
        assert hi.dims[(key[0], key[1])] == d


def test_compose_restriction_is_restriction():
    # against a representable: the composite is the restricted module
    two = harness.arrow_category()
    cat = span()
    fun = Functor(two, cat, {"a": "a", "b": "b"},
                  {"a": "a", "b": "b", "f": "f"})
    x, y, w = representable(fun)
    h = unit_prof(cat)
    comp = compose_prof(x, h)
    for c in cat.objects:
        for a in two.objects:
            assert comp.dims[(c, a)] == len(cat.hom(c, fun.obj_map[a]))
            assert comp.sparse_projs[(c, a)].rows == comp.dims[(c, a)]
    # commuting comparison square on a generating arrow
    for beta in cat.generating_arrows():
        for a in two.objects:
            c1, c2 = cat.src[beta], cat.dst[beta]
            lhs = comp.tact(beta, a).to_mat()
            # the restriction itself: precomposition on hom(c, f a)
            basis2 = cat.hom(c2, fun.obj_map[a])
            idx = {u: i for i, u in enumerate(cat.hom(c1, fun.obj_map[a]))}
            m = Mat.zeros(len(idx), len(basis2))
            for j, u in enumerate(basis2):
                m.data[idx[cat.then(beta, u)]][j] = F(1)
            # compare through the canonical identification of the coend
            # with the restriction: both have the hom-set dimensions
            assert lhs.rows == m.rows and lhs.cols == m.cols


def test_compose_weight_against_diagram_over_discrete():
    cat = harness.discrete_category(2)
    x = VectDiagram(cat, {"o0": 2, "o1": 3},
                    {"o0": Mat.identity(2), "o1": Mat.identity(3)})
    w = VectDiagram(opposite(cat), {"o0": 1, "o1": 1},
                    {"o0": Mat.identity(1), "o1": Mat.identity(1)})
    comp = compose_prof(prof_from_weight(w), prof_from_diagram(x))
    assert comp.dims[("*", "*")] == 5


# ---------------------------------------------------------------------------
# duality witnesses

def test_dual_of_pointwise_over_point():
    one = terminal_category()
    x = VectDiagram(one, {"*": 3}, {"id*": Mat.identity(3)})
    w = dual_of_pointwise(prof_from_diagram(x))
    f = Mat([[1, 2, 0], [0, 3, 0], [1, 0, 5]])
    got = bicat_trace(w, {"*": f})
    assert got == {"id*": trace(f)}


def test_dual_of_pointwise_random_two_object():
    rng = random.Random(17)
    two = harness.arrow_category()
    for _ in range(10):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        m = Mat([[F(rng.randint(-2, 2)) for _ in range(d1)]
                 for _ in range(d2)], d2, d1)
        x = VectDiagram(two, {"a": d1, "b": d2},
                        {"a": Mat.identity(d1), "b": Mat.identity(d2),
                         "f": m})
        # construction verifies the triangle identities exactly
        dual_of_pointwise(prof_from_diagram(x))


def test_representable_of_identity_functor_is_unit():
    cat = span()
    ident = Functor(cat, cat, {o: o for o in cat.objects},
                    {a: a for a in cat.arrows})
    x, y, w = representable(ident)
    u = unit_prof(cat)
    assert x.dims == u.dims
    assert y.dims == u.dims


def test_representable_object_functor_dims_are_hom_sizes():
    cat = span()
    x, y, w = representable(object_functor(cat, "a"))
    for b in cat.objects:
        assert x.dims[(b, "*")] == len(cat.hom(b, "a"))


def test_representable_endo_trace_is_class_basis_vector():
    # postcomposition with a class representative traces to its basis vector
    for cat in [idem_cat(), bg_category(cyclic_group(2)),
                bg_category(symmetric_group(3))]:
        a0 = cat.objects[0]
        x, y, w = representable(object_functor(cat, a0))
        classes = fincat.conjugacy_classes(cat)
        for alpha in cat.endos(a0):
            endo = {}
            for b in cat.objects:
                basis = cat.hom(b, a0)
                m = Mat.zeros(len(basis), len(basis))
                for j, u in enumerate(basis):
                    m.data[basis.index(cat.then(u, alpha))][j] = F(1)
                endo[b] = m
            got = coeff_vector_direct(w, endo=endo)
            want = {rep: (F(1) if classes.class_of[alpha] == i else F(0))
                    for i, rep in enumerate(classes.reps)}
            assert got == want


def test_retract_of_identity_is_identity():
    cat = bg_category(cyclic_group(2))
    x, y, w = representable(object_functor(cat, "x"))
    n = x.dims[("x", "*")]
    r = {"x": Mat.identity(n)}
    wz = dual_via_retract(w, r, r)
    assert coeff_vector_direct(wz) == coeff_vector_direct(w)


def test_retract_requires_section():
    cat = bg_category(cyclic_group(2))
    x, y, w = representable(object_functor(cat, "x"))
    with pytest.raises(ValueError):
        dual_via_retract(w, {"x": Mat([[1, 0]])}, {"x": Mat([[0], [0]])})


def test_retract_over_the_empty_category_keeps_a_0x1_coevaluation():
    empty = fincat.FinCat([], [], {}, {}, name="empty")
    one = terminal_category()
    w = profcalc.DualityWitness(profcalc.Profunctor(one, empty, {}, {}, {}),
                                profcalc.Profunctor(empty, one, {}, {}, {}),
                                {"*": Mat.zeros(0, 1)}, {})
    wz = dual_via_retract(w, {}, {})
    assert (wz.eta["*"].rows, wz.eta["*"].cols) == (0, 1)
    assert coeff_vector_direct(wz) == {}


def test_split_idempotent_weight_coefficients():
    cat = idem_cat()
    x, y, w = representable(object_functor(cat, "x"))
    wz = dual_via_retract(w, {"x": Mat([[1, 1]])}, {"x": Mat([[0], [1]])})
    got = coeff_vector_direct(wz)
    assert got == {"x": F(0), "e": F(1)}


def test_averaging_retract_matches_group_coefficients():
    from tracelin import coeffs
    for g in [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              symmetric_group(3)]:
        cat = bg_category(g)
        x, y, w = representable(object_functor(cat, "x"))
        n = len(g)
        r = {"x": Mat([[1] * n])}
        s = {"x": Mat([[F(1, n)] for _ in range(n)])}
        wz = dual_via_retract(w, r, s)
        got = coeff_vector_direct(wz)
        want = dict(coeffs.coeff_group(g, cat).items())
        assert got == want


# ---------------------------------------------------------------------------
# the trace pipeline against direct traces

def test_bicat_trace_regular_representation_identity():
    cat = bg_category(cyclic_group(2))
    x = VectDiagram(cat, {"x": 2},
                    {("g", 0): Mat.identity(2),
                     ("g", 1): Mat([[0, 1], [1, 0]])})
    w = dual_of_pointwise(prof_from_diagram(x))
    got = bicat_trace(w, {"x": Mat.identity(2)})
    assert got == {("g", 0): F(2), ("g", 1): F(0)}


def test_bicat_trace_idempotent_pair():
    cat = idem_cat()
    e = Mat([[0, 0], [1, 1]])
    x = VectDiagram(cat, {"x": 2}, {"x": Mat.identity(2), "e": e})
    w = dual_of_pointwise(prof_from_diagram(x))
    f = Mat([[1, 0], [2, 3]])
    got = bicat_trace(w, {"x": f})
    assert got == {"x": trace(f), "e": trace(f @ e)}


def test_bicat_trace_non_integral_idempotent():
    # entries with denominators reach the coend relations and the
    # endomorphism: a conjugated idempotent with a rational endomorphism
    cat = idem_cat()
    p = Mat([[1, F(1, 2), 0], [0, 1, F(1, 2)], [F(1, 2), 0, 1]])
    pinv = inverse(p).to_mat()
    e = p @ Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) @ pinv
    f = p @ Mat([[F(1, 3), 2, 0], [-1, F(5, 2), 0], [0, 0, F(7, 4)]]) @ pinv
    assert any(v.denominator != 1 for row in e.data for v in row)
    assert any(v.denominator != 1 for row in f.data for v in row)
    x = VectDiagram(cat, {"x": 3}, {"x": Mat.identity(3), "e": e})
    w = dual_of_pointwise(prof_from_diagram(x))
    got = bicat_trace(w, {"x": f})
    assert got == {"x": trace(f), "e": trace(f @ e)}
    assert got["e"].denominator != 1


def test_bicat_trace_rationally_conjugated_sweep():
    # conjugating every value of a diagram and its endomorphism by a
    # rational change of basis leaves the componentwise traces fixed
    rng = random.Random(29)
    corp = harness.corpus()
    for name in ["pushout", "BC3", "idem", "delta2op"]:
        cat = corp[name]["cat"]
        for _ in range(2):
            dia = harness.random_vect_diagram(rng, cat, max_dim=3)
            endo = harness.random_endo(rng, dia)
            conj = {}
            for a in cat.objects:
                d = dia.dim(a)
                conj[a] = Mat([[F(rng.randint(1, 3), rng.randint(2, 4))
                                if i < j else (F(1) if i == j else F(0))
                                for j in range(d)] for i in range(d)])
            inv = {a: inverse(conj[a]).to_mat() for a in cat.objects}
            mats = {g: conj[cat.dst[g]] @ dia.mat(g).to_mat()
                    @ inv[cat.src[g]] for g in cat.arrows}
            x = VectDiagram(cat, {a: dia.dim(a) for a in cat.objects}, mats)
            f = {a: conj[a] @ endo.at(a).to_mat() @ inv[a]
                 for a in cat.objects}
            w = dual_of_pointwise(prof_from_diagram(x))
            got = bicat_trace(w, f)
            for rep, v in got.items():
                assert v == trace(endo.at(cat.src[rep]) @ dia.mat(rep))


def test_bicat_trace_rejects_non_natural_endo():
    cat = idem_cat()
    x = VectDiagram(cat, {"x": 2},
                    {"x": Mat.identity(2), "e": Mat([[0, 0], [1, 1]])})
    w = dual_of_pointwise(prof_from_diagram(x))
    with pytest.raises(ValueError):
        bicat_trace(w, {"x": Mat([[1, 2], [3, 4]])})


def test_bicat_trace_componentwise_sweep():
    rng = random.Random(23)
    corp = harness.corpus()
    for name in ["two", "pushout", "BC2", "BC3", "idem", "par3"]:
        cat = corp[name]["cat"]
        for _ in range(4):
            dia = harness.random_vect_diagram(rng, cat, max_dim=3)
            endo = harness.random_endo(rng, dia)
            w = dual_of_pointwise(prof_from_diagram(dia))
            got = bicat_trace(w, {a: endo.at(a) for a in cat.objects})
            for rep, v in got.items():
                assert v == trace(endo.at(cat.src[rep]) @ dia.mat(rep))


def test_coefficient_pairing_matches_split_colimit_trace():
    # pairing the coefficient vector with componentwise traces equals the
    # trace of the induced map on the weighted colimit
    cat = idem_cat()
    x, y, w = representable(object_functor(cat, "x"))
    wz = dual_via_retract(w, {"x": Mat([[1, 1]])}, {"x": Mat([[0], [1]])})
    phi = coeff_vector_direct(wz)
    e = Mat([[0, 0], [1, 1]])
    dia = VectDiagram(cat, {"x": 2}, {"x": Mat.identity(2), "e": e})
    f = Mat([[1, 0], [2, 3]])
    # direct pairing
    wd = dual_of_pointwise(prof_from_diagram(dia))
    comp = bicat_trace(wd, {"x": f})
    paired = sum((phi[rep] * comp[rep] for rep in comp), F(0))
    # independent: induced endomorphism on the weight-shaped colimit,
    # which here is the idempotent splitting
    weight = VectDiagram(opposite(cat), {"x": 1},
                         {"x": Mat.identity(1), "e": Mat.identity(1)})
    res, ind = diagrams.weighted_colim_endo(weight, dia,
                                            NatEndo(dia, {"x": f}))
    assert paired == trace(ind)


def test_coefficient_pairing_matches_quotient_trace():
    from tracelin import coeffs
    g = cyclic_group(3)
    cat = bg_category(g)
    rot = harness.rep_rotation(g)
    dia = VectDiagram(cat, {"x": 2}, {("g", k): rot[k] for k in g.elements})
    basis = nat_endo_basis(dia)
    rng = random.Random(5)
    endo = harness.rand_combo_endo(rng, basis)
    f = endo.at("x")
    phi = coeffs.coeff_group(g, cat)
    wd = dual_of_pointwise(prof_from_diagram(dia))
    comp = bicat_trace(wd, {"x": f})
    paired = sum((phi[rep] * comp[rep] for rep in comp), F(0))
    weight = VectDiagram(opposite(cat), {"x": 1},
                         {a: Mat.identity(1) for a in cat.arrows})
    res, ind = diagrams.weighted_colim_endo(weight, dia,
                                            NatEndo(dia, {"x": f}))
    assert paired == trace(ind)


def test_restriction_comparison_walking_arrow_into_span():
    two = harness.arrow_category()
    cat = span()
    fun = Functor(two, cat, {"a": "a", "b": "b"},
                  {"a": "a", "b": "b", "f": "f"})
    comp, restr, iso = profcalc.restriction_comparison(
        fun, unit_prof(cat))
    for key in comp.dims:
        assert comp.dims[key] == restr.dims[key]


def test_restriction_comparison_rejects_a_singular_component():
    # a zero identity action of the module at a leaves the comparison at
    # (a, a) without the column of the identity arrow
    two = harness.arrow_category()
    cat = span()
    fun = Functor(two, cat, {"a": "a", "b": "b"},
                  {"a": "a", "b": "b", "f": "f"})
    h = unit_prof(cat)
    sacts = dict(h.sacts)
    sacts[("a", "a")] = Mat.zeros(h.sact("a", "a").rows, h.sact("a", "a").cols)
    bad = profcalc.Profunctor(cat, cat, h.dims, h.tacts, sacts, check=False)
    with pytest.raises(AssertionError,
                       match="^comparison is not invertible at \\('a', 'a'\\)$"):
        profcalc.restriction_comparison(fun, bad)


def test_restriction_comparison_subgroup_inclusion():
    s3 = symmetric_group(3)
    bs3 = bg_category(s3, name="BS3")
    flip = (1, 0, 2)
    sub = fincat.subgroup(s3, [s3.identity, flip])
    bc2 = bg_category(sub, name="BC2sub")
    fun = Functor(bc2, bs3, {"x": "x"},
                  {("g", s3.identity): ("g", s3.identity),
                   ("g", flip): ("g", flip)})
    # the representable dual pair for a two-sided module with honest
    # middle actions; construction verifies the triangle identities
    x, y, w = representable(fun)
    assert x.dims[("x", "x")] == 6
    comp, restr, _iso = profcalc.restriction_comparison(
        fun, unit_prof(bs3))
    assert comp.dims[("x", "x")] == restr.dims[("x", "x")] == 6


def test_compose_prof_associativity_dimensions():
    cat = idem_cat()
    u = unit_prof(cat)
    left = compose_prof(compose_prof(u, u), u)
    right = compose_prof(u, compose_prof(u, u))
    assert left.dims == right.dims == u.dims
    cat2 = bg_category(cyclic_group(3))
    u2 = unit_prof(cat2)
    left2 = compose_prof(compose_prof(u2, u2), u2)
    right2 = compose_prof(u2, compose_prof(u2, u2))
    assert left2.dims == right2.dims == u2.dims


def test_dual_of_pointwise_discrete_is_componentwise():
    cat = harness.discrete_category(2)
    x = VectDiagram(cat, {"o0": 2, "o1": 3},
                    {"o0": Mat.identity(2), "o1": Mat.identity(3)})
    w = dual_of_pointwise(prof_from_diagram(x))
    # dual components are the transposed spaces; traces componentwise
    f = {"o0": Mat([[1, 2], [0, 5]]), "o1": Mat.identity(3)}
    got = bicat_trace(w, f)
    assert got == {cat.idarr("o0"): F(6), cat.idarr("o1"): F(3)}


def test_coefficient_pairing_matches_evaluation_weight():
    # a representable weight evaluates the diagram at its object
    cat = span()
    x, y, w = representable(object_functor(cat, "b"))
    phi = coeff_vector_direct(w)
    assert phi == {"a": F(0), "b": F(1), "c": F(0)}
    dia = VectDiagram(cat, {"a": 1, "b": 2, "c": 1},
                      {"a": Mat.identity(1), "b": Mat.identity(2),
                       "c": Mat.identity(1), "f": Mat([[1], [2]]),
                       "g": Mat([[3]])})
    endo = harness.random_endo(random.Random(8), dia)
    wd = dual_of_pointwise(prof_from_diagram(dia))
    comp = bicat_trace(wd, {a: endo.at(a) for a in cat.objects})
    paired = sum((phi[rep] * comp[rep] for rep in comp), F(0))
    assert paired == trace(endo.at("b"))


# ---------------------------------------------------------------------------
# sparse Kronecker maps against plain dense Kronecker products

def _dense_kron(a, b):
    """Kronecker product of two Mats, entry by entry, as a Mat."""
    return Mat([[x * y for x in arow for y in brow]
                for arow in a.data for brow in b.data],
               a.rows * b.rows, a.cols * b.cols)


def _rand_mat(rng, rows, cols):
    return Mat([[F(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.6
                 else F(0) for _ in range(cols)] for _ in range(rows)],
               rows, cols)


def test_projection_times_kron_blocks_matches_dense():
    # p @ diag([I (x) m (x) I, ...]) on random matrices and on sparse
    # cokernel projections, as the induced maps on coends are built
    from tracelin.exactalg import SparseMat, block_diag, cokernel, kron
    rng = random.Random(5)
    for _ in range(20):
        routes = [(_rand_mat(rng, rng.randint(0, 3), rng.randint(0, 3)),
                   rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3)]
        dense = block_diag([_dense_kron(_dense_kron(Mat.identity(l), m),
                                        Mat.identity(r))
                            for m, l, r in routes]).to_mat()
        diag = block_diag([kron(kron(SparseMat.identity(l), m),
                                SparseMat.identity(r)) for m, l, r in routes])
        rel = _rand_mat(rng, dense.rows, rng.randint(0, dense.rows))
        for p in (SparseMat.from_mat(_rand_mat(rng, rng.randint(1, 4),
                                                dense.rows)),
                  cokernel(SparseMat.from_mat(rel))[1]):
            got = p @ diag
            assert got.to_mat() == p.to_mat() @ dense
            assert all(v for terms in got.terms for v in terms.values())


def test_coend_matches_dense_kron_relations():
    # relations written from the rows of the sparse Kronecker products give
    # the projection that dense columns of plain Kronecker products give
    from tracelin.exactalg import SparseMat, cokernel
    from tracelin.profcalc import _coend, _tensor_rels
    rng = random.Random(11)
    for name in ["idem", "pushout", "BC3", "delta2op"]:
        cat = harness.corpus()[name]["cat"]
        cov = harness.random_vect_diagram(rng, cat, max_dim=3)
        other = harness.random_vect_diagram(rng, cat, max_dim=4)
        dc = {a: cov.dim(a) for a in cat.objects}
        dw = {a: other.dim(a) for a in cat.objects}
        # transposed actions make a contravariant module of other sizes
        contra = {g: other.mat(g).transpose() for g in cat.arrows}
        for first_cov in (True, False):
            du, u, dv, v = ((dc, cov.mat, dw, contra.get) if first_cov
                            else (dw, contra.get, dc, cov.mat))
            rels = _tensor_rels(cat, du, u, dv, v, first_cov)
            offsets, proj = _coend(cat.objects, lambda a: dc[a] * dw[a], rels)
            total = sum(dc[a] * dw[a] for a in cat.objects)
            cols = []
            for g in cat.generating_arrows():
                a, b = cat.src[g], cat.dst[g]
                ug, vg = u(g).to_mat(), v(g).to_mat()
                if first_cov:
                    k1 = _dense_kron(Mat.identity(du[a]), vg)
                    k2 = _dense_kron(ug, Mat.identity(dv[b]))
                else:
                    k1 = _dense_kron(ug, Mat.identity(dv[a]))
                    k2 = _dense_kron(Mat.identity(du[b]), vg)
                assert k1.cols == k2.cols
                for j in range(k1.cols):
                    col = [F(0)] * total
                    for i in range(k1.rows):
                        col[offsets[a][0] + i] += k1.data[i][j]
                    for i in range(k2.rows):
                        col[offsets[b][0] + i] -= k2.data[i][j]
                    cols.append(col)
            rel = Mat.from_cols(cols, total) if cols else Mat.zeros(total, 0)
            assert proj == cokernel(rel)[1]
            assert proj == cokernel(SparseMat.from_mat(rel))[1]


def test_triangles_match_kron_formula():
    from tracelin.profcalc import (
        DualityWitness, _triangle_one, _triangle_two,
    )

    def unit_row(n, k):
        return Mat([[F(1) if j == k else F(0) for j in range(n)]], 1, n)

    def eta_col(w, a, b):
        # the coevaluation block at b, flattened back from its reshape
        return Mat([[v] for row in w.eta_blocks[(a, b)].to_mat().data
                    for v in row])

    def one(w, b, a):
        x, y, B = w.x, w.y, w.x.tgt
        total = Mat.zeros(x.dim(b, a), x.dim(b, a))
        for bp in B.objects:
            if x.dim(bp, a) * y.dim(a, bp) == 0:
                continue
            start = _dense_kron(eta_col(w, a, bp), Mat.identity(x.dim(b, a)))
            for k, u in enumerate(B.hom(b, bp)):
                row = unit_row(len(B.hom(b, bp)), k) @ w.eps[(a, b, bp)].to_mat()
                mid = _dense_kron(Mat.identity(x.dim(bp, a)), row)
                total = total + x.tact(u, a).to_mat() @ mid @ start
        return total

    def two(w, a, b):
        x, y, B = w.x, w.y, w.x.tgt
        total = Mat.zeros(y.dim(a, b), y.dim(a, b))
        for bp in B.objects:
            if x.dim(bp, a) * y.dim(a, bp) == 0:
                continue
            start = _dense_kron(Mat.identity(y.dim(a, b)), eta_col(w, a, bp))
            for k, u in enumerate(B.hom(bp, b)):
                row = unit_row(len(B.hom(bp, b)), k) @ w.eps[(a, bp, b)].to_mat()
                mid = _dense_kron(row, Mat.identity(y.dim(a, bp)))
                total = total + y.sact(a, u).to_mat() @ mid @ start
        return total

    rng = random.Random(3)
    witnesses = [representable(object_functor(cat, cat.objects[0]))[2]
                 for cat in [span(), idem_cat(), bg_category(cyclic_group(3))]]
    for name in ["pushout", "idem", "BC3"]:
        cat = harness.corpus()[name]["cat"]
        dia = harness.random_vect_diagram(rng, cat, max_dim=3)
        witnesses.append(dual_of_pointwise(prof_from_diagram(dia)))
    for w in witnesses:
        # a scaled coevaluation leaves the witness, so the triangles are
        # compared off the identity too
        for s in (1, 3):
            bad = DualityWitness(w.x, w.y,
                                 {a: v.smul(s) for a, v in w.eta.items()},
                                 w.eps, check=False)
            A, B = w.x.src, w.x.tgt
            for a in A.objects:
                for b in B.objects:
                    assert _triangle_one(bad, b, a).to_mat() == one(bad, b, a)
                    assert _triangle_two(bad, a, b).to_mat() == two(bad, a, b)


def test_actions_and_components_given_as_mats_are_kept_sparse():
    from tracelin.exactalg import SparseMat
    from tracelin.profcalc import DualityWitness, Profunctor
    one = terminal_category()
    x = Profunctor(one, one, {("*", "*"): 2}, {("id*", "*"): Mat.identity(2)},
                   {("*", "id*"): Mat.identity(2)})
    assert type(x.tact("id*", "*")) is SparseMat
    assert x.sact("*", "id*").to_mat() == Mat.identity(2)
    eta = Mat([[1], [0], [0], [1]])
    eps = Mat([[1, 0, 0, 1]])
    w = DualityWitness(x, x, {"*": eta}, {("*", "*", "*"): eps})
    assert type(w.eta["*"]) is SparseMat and w.eta["*"].to_mat() == eta
    assert type(w.eps[("*", "*", "*")]) is SparseMat
    assert w.eps[("*", "*", "*")].to_mat() == eps
    assert w.eta_blocks[("*", "*")].to_mat() == Mat.identity(2)
    # a SparseMat given at construction is kept as it is
    s = SparseMat.identity(2)
    y = Profunctor(one, one, {("*", "*"): 2}, {("id*", "*"): s},
                   {("*", "id*"): Mat.identity(2)})
    assert y.tact("id*", "*") is s


def test_witness_with_scaled_coevaluation_is_rejected():
    from tracelin.profcalc import DualityWitness
    dia = harness.random_vect_diagram(random.Random(7),
                                      harness.corpus()["pushout"]["cat"], 3)
    w = dual_of_pointwise(prof_from_diagram(dia))
    with pytest.raises(AssertionError, match="triangle identity fails"):
        DualityWitness(w.x, w.y, {a: v.smul(2) for a, v in w.eta.items()},
                       w.eps)


@pytest.mark.parametrize("dx, dy, which", [(2, 1, "first"), (1, 2, "second")])
def test_witness_checks_each_triangle(dx, dy, which):
    """With x and y of different dimensions, E R = I can hold while R E is
    not I, and the other way round, so each triangle fails on its own."""
    from tracelin.profcalc import DualityWitness, Profunctor
    one = terminal_category()

    def prof(d):
        return Profunctor(one, one, {("*", "*"): d},
                          {("id*", "*"): Mat.identity(d)},
                          {("*", "id*"): Mat.identity(d)})

    e = Mat([[F(int(i == j)) for j in range(dy)] for i in range(dx)])
    r = e.transpose()
    eps = Mat([[r.data[i][j] for i in range(dy) for j in range(dx)]])
    with pytest.raises(AssertionError,
                       match="^%s triangle identity fails" % which):
        DualityWitness(prof(dx), prof(dy),
                       {"*": Mat([[v] for row in e.data for v in row])},
                       {("*", "*", "*"): eps})


# one entry of the evaluation of the representable witness of the span at
# an object moved by one, and the naturality square that then fails
EPS_NOT_NATURAL = [
    ("a", ("*", "a", "a"), "covariant) at 'f'"),
    ("a", ("*", "a", "b"), "covariant) at 'f'"),
    ("a", ("*", "a", "c"), "covariant) at 'g'"),
    ("b", ("*", "a", "b"), "contravariant) at 'f'"),
    ("b", ("*", "b", "b"), "contravariant) at 'f'"),
    ("c", ("*", "a", "c"), "contravariant) at 'g'"),
    ("c", ("*", "c", "c"), "contravariant) at 'g'"),
]


@pytest.mark.parametrize("obj, key, where", EPS_NOT_NATURAL)
def test_witness_rejects_evaluation_that_is_not_natural(obj, key, where):
    from tracelin.profcalc import DualityWitness, _check_eps_natural
    w = representable(object_functor(span(), obj))[2]
    eps = dict(w.eps)
    data = [list(row) for row in eps[key].to_mat().data]
    data[0][0] += 1
    eps[key] = Mat(data)
    bad = DualityWitness(w.x, w.y, w.eta, eps, check=False)
    _check_eps_natural(w)
    with pytest.raises(AssertionError, match="^evaluation not natural \\(%s$"
                       % re.escape(where)):
        _check_eps_natural(bad)


def _rejection_witnesses():
    """Witnesses of a constant pushout diagram and of the standard
    representation of S3, whose evaluations descend only to the coend,
    not to the whole blockwise sum."""
    pushout = harness.corpus()["pushout"]["cat"]
    const = VectDiagram(pushout, {a: 1 for a in pushout.objects},
                        {g: Mat.identity(1) for g in pushout.arrows})
    bs3 = bg_category(symmetric_group(3))
    rep = harness.rep_standard_perm(symmetric_group(3))
    perm = VectDiagram(bs3, {"x": rep[bs3.arrows[0][1]].rows},
                       {g: rep[g[1]] for g in bs3.arrows})
    return [dual_of_pointwise(prof_from_diagram(d)) for d in (const, perm)]


def _count_eliminations(monkeypatch):
    """A list that grows by one on each exactalg._eliminate call."""
    from tracelin import exactalg
    calls = []
    real = exactalg._eliminate
    monkeypatch.setattr(exactalg, "_eliminate",
                        lambda rows, limit: calls.append(limit)
                        or real(rows, limit))
    return calls


@pytest.mark.parametrize("name", ["orbit_S3", "BS3", "delta3op"])
def test_bicat_trace_eliminates_once_per_coend(monkeypatch, name):
    """With the unit shadow cached, the only eliminations left are the
    two coends; every map is factored through a projection by reading
    its free columns."""
    cat = harness.corpus()[name]["cat"]
    unit_shadow(cat)
    rng = random.Random(5)
    dia = harness.random_vect_diagram(rng, cat, max_dim=3)
    endo = harness.random_endo(rng, dia)
    w = dual_of_pointwise(prof_from_diagram(dia))
    calls = _count_eliminations(monkeypatch)
    got = bicat_trace(w, {a: endo.at(a) for a in cat.objects})
    assert len(calls) == 2
    for rep, v in got.items():
        assert v == trace(endo.at(cat.src[rep]) @ dia.mat(rep))


def test_bicat_trace_rejects_coevaluation_that_is_not_natural():
    """An identity action of the dual that is not the identity moves the
    coevaluation off its naturality square at the identity arrow."""
    from tracelin.profcalc import DualityWitness, Profunctor
    for w in _rejection_witnesses():
        A = w.x.src
        y = w.y
        tacts = dict(y.tacts)
        a = A.objects[0]
        tacts[(A.idarr(a), "*")] = y.tact(A.idarr(a), "*").smul(2)
        y2 = Profunctor(y.src, y.tgt, y.dims, tacts, y.sacts, check=False)
        bad = DualityWitness(w.x, y2, w.eta, w.eps, check=False)
        f = {b: Mat.identity(w.x.dim("*", b)) for b in A.objects}
        msg = "coevaluation is not natural at endomorphism %r" % (A.idarr(a),)
        with pytest.raises(AssertionError, match="^%s$" % re.escape(msg)):
            bicat_trace(bad, f)


def test_bicat_trace_rejects_evaluation_that_does_not_descend():
    from tracelin.profcalc import DualityWitness, _check_eps_descends
    for w in _rejection_witnesses():
        A = w.x.src
        a = A.objects[0]
        eps = dict(w.eps)
        row = list(eps[(a, "*", "*")].to_mat().data[0])
        row[0] += 1
        eps[(a, "*", "*")] = Mat([row])
        bad = DualityWitness(w.x, w.y, w.eta, eps, check=False)
        with pytest.raises(AssertionError,
                           match="evaluation does not kill the coend relation"):
            _check_eps_descends(bad)
        f = {b: Mat.identity(w.x.dim("*", b)) for b in A.objects}
        with pytest.raises(ValueError, match="^map does not factor through "
                           "the projection$"):
            bicat_trace(bad, f)
        # the unperturbed witness gives the direct traces
        assert all(v == trace(w.x.sact("*", rep))
                   for rep, v in bicat_trace(w, f).items())


def test_bicat_trace_rejects_endomorphism_that_is_not_natural():
    for w in _rejection_witnesses():
        A = w.x.src
        f = {b: Mat.identity(w.x.dim("*", b)) for b in A.objects}
        a = A.objects[-1]
        d = w.x.dim("*", a)
        f[a] = Mat([[F(i + 2) if i == j else F(0) for j in range(d)]
                    for i in range(d)])
        with pytest.raises(ValueError, match="^endomorphism is not natural at"):
            bicat_trace(w, f)


# ---------------------------------------------------------------------------
# the coends of bicat_trace, kept on the category

def _trace_fresh(dia, f):
    """bicat_trace through a new profunctor and witness of dia."""
    return bicat_trace(dual_of_pointwise(prof_from_diagram(dia)), f)


def _copy_diagram(dia):
    """A new VectDiagram with new matrices holding equal entries."""
    return VectDiagram(dia.base, dict(dia.dims),
                       {g: m.to_mat() for g, m in dia.mats.items()})


@pytest.mark.parametrize("name", ["orbit_S3", "BS3", "delta3op"])
def test_bicat_trace_reuses_coends_of_equal_action_values(monkeypatch, name):
    """A diagram built again with equal entries hits the category's kept
    coends: no elimination runs, and the traces are the direct ones."""
    cat = harness.corpus()[name]["cat"]
    rng = random.Random(5)
    dia = harness.random_vect_diagram(rng, cat, max_dim=3)
    endo = harness.random_endo(rng, dia)
    other = harness.random_endo(rng, dia)
    first = _trace_fresh(dia, {a: endo.at(a) for a in cat.objects})
    calls = _count_eliminations(monkeypatch)
    again = _trace_fresh(_copy_diagram(dia),
                         {a: endo.at(a) for a in cat.objects})
    assert calls == []
    assert again == first
    # a second endomorphism of the same values reads the same coends
    got = _trace_fresh(_copy_diagram(dia),
                       {a: other.at(a) for a in cat.objects})
    assert calls == []
    for rep, v in got.items():
        assert v == trace(other.at(cat.src[rep]) @ dia.mat(rep))


def test_bicat_trace_rebuilds_coends_when_one_action_entry_changes(
        monkeypatch):
    """On the free pushout shape any matrices form a diagram, so one
    entry of one arrow can change alone; the coends are then built and
    eliminated again, once each."""
    cat = harness.corpus()["pushout"]["cat"]
    dia = harness.random_vect_diagram(random.Random(1), cat, max_dim=3)
    ident = {a: Mat.identity(dia.dim(a)) for a in cat.objects}
    _trace_fresh(dia, ident)
    g = next(g for g in cat.generating_arrows()
             if dia.mat(g).rows and dia.mat(g).cols)
    mats = {a: m.to_mat() for a, m in dia.mats.items()}
    mats[g].data[0][0] += 1
    changed = VectDiagram(cat, dict(dia.dims), mats)
    calls = _count_eliminations(monkeypatch)
    got = _trace_fresh(changed, ident)
    assert len(calls) == 2
    for rep, v in got.items():
        assert v == trace(changed.mat(rep))
    _trace_fresh(changed, ident)
    assert len(calls) == 2


def test_bicat_trace_runs_every_check_on_a_kept_coend(monkeypatch):
    """The checks of the endomorphism and of the witness run on every
    call, also when the coends are read from the category."""
    from tracelin.profcalc import DualityWitness, Profunctor
    for w in _rejection_witnesses():
        A = w.x.src
        a = A.objects[-1]
        ident = {b: Mat.identity(w.x.dim("*", b)) for b in A.objects}
        bicat_trace(w, ident)
        calls = _count_eliminations(monkeypatch)
        # an endomorphism that is not natural
        d = w.x.dim("*", a)
        f = dict(ident)
        f[a] = Mat([[F(i + 2) if i == j else F(0) for j in range(d)]
                    for i in range(d)])
        with pytest.raises(ValueError, match="^endomorphism is not natural at"):
            bicat_trace(w, f)
        # a coevaluation that is not natural, through the kept p1
        tacts = dict(w.y.tacts)
        tacts[(A.idarr(a), "*")] = w.y.tact(A.idarr(a), "*").smul(2)
        y2 = Profunctor(w.y.src, w.y.tgt, w.y.dims, tacts, w.y.sacts,
                        check=False)
        bad = DualityWitness(w.x, y2, w.eta, w.eps, check=False)
        with pytest.raises(AssertionError,
                           match="^coevaluation is not natural at"):
            bicat_trace(bad, ident)
        # an evaluation that does not descend, through the kept p2
        eps = dict(w.eps)
        row = list(eps[(a, "*", "*")].to_mat().data[0])
        row[0] += 1
        eps[(a, "*", "*")] = Mat([row])
        bad = DualityWitness(w.x, w.y, w.eta, eps, check=False)
        with pytest.raises(ValueError, match="^map does not factor through"):
            bicat_trace(bad, ident)
        assert calls == []
        monkeypatch.undo()


def _fresh_copy(cat):
    """A new FinCat with cat's table, and so with nothing kept yet."""
    return fincat.FinCat(cat.objects,
                         [(g, cat.src[g], cat.dst[g]) for g in cat.arrows],
                         cat.identities, cat.compose, name=cat.name)


_MEMO_SHAPES = {name: harness.corpus()[name]["cat"]
                for name in ("pushout", "par3", "BC2", "delta1op")}


@st.composite
def _coend_inputs(draw):
    """A shape, constant dimensions n1 and n2, one action act1, and
    (first_covariant, act2) for two actions act2 under one variance and
    the first of them under both, in a drawn order; the square matrices
    fit either variance."""
    cat = _MEMO_SHAPES[draw(st.sampled_from(sorted(_MEMO_SHAPES)))]
    n1 = draw(st.integers(1, 2))
    n2 = draw(st.integers(1, 2))

    def act(n):
        return {g: SparseMat.from_mat(Mat([[draw(st.integers(-1, 2))
                                            for _ in range(n)]
                                           for _ in range(n)]))
                for g in cat.generating_arrows()}

    act1 = act(n1)
    cov = draw(st.booleans())
    one, two = act(n2), act(n2)
    rest = draw(st.permutations([(cov, one), (not cov, one), (cov, two)]))
    return cat, n1, n2, act1, rest


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_coend_inputs())
def test_paired_coend_on_a_used_category_equals_a_fresh_one(inputs):
    """Inputs that share dimensions and act1 but differ in act2 or in
    first_covariant each get their own coends from the kept memo."""
    from tracelin.profcalc import _paired_coend
    cat, n1, n2, act1, rest = inputs
    used = _fresh_copy(cat)
    d1 = {a: n1 for a in cat.objects}
    d2 = {a: n2 for a in cat.objects}
    for cov, act2 in rest:
        got = _paired_coend(used, d1, act1.__getitem__, d2, act2.__getitem__,
                            cov)
        want = _paired_coend(_fresh_copy(cat), d1, act1.__getitem__,
                             d2, act2.__getitem__, cov)
        assert got == want
