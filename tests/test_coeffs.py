from fractions import Fraction as F

import pytest

from tracelin import coeffs, diagrams, fincat, harness
from tracelin.coeffs import (
    CoeffVector, NoWeighting, Weighting, coeff_EI, coeff_EI_desouza,
    coeff_cofiber, coeff_coproduct, coeff_group, coeff_groupoid,
    coeff_hofin, coeff_idempotent, coeff_initial, coeff_pushout,
    leinster_weighting, realiz_coeff_check, stabilizer_orbit_identity,
)
from tracelin.exactalg import ChainComplex, Mat, identity_chain_map, lefschetz
from tracelin.fincat import (
    FinCat, bg_category, cyclic_group, disjoint_union, subgroup,
    symmetric_group,
)


def test_coeff_hofin_pushout_shape():
    cv = coeff_hofin(harness.span_category())
    assert dict(cv.items()) == {"a": F(-1), "b": F(1), "c": F(1)}


def test_coeff_hofin_parallel_arrows():
    for n in range(1, 5):
        cv = coeff_hofin(fincat.parallel_arrows(n + 1))
        vals = [v for _, v in cv.items()]
        assert vals == [F(-n), F(1)]


def test_coeff_hofin_walking_arrow_with_hocolim_oracle():
    cat = harness.arrow_category()
    cv = coeff_hofin(cat)
    assert dict(cv.items()) == {"a": F(0), "b": F(1)}
    # hocolim oracle: the colimit over the walking arrow evaluates at the
    # target, so the trace must be the trace at b
    cx = ChainComplex({0: 2}, {})
    dia = diagrams.ChainDiagram(
        cat, {"a": cx, "b": cx},
        {"a": identity_chain_map(cx), "b": identity_chain_map(cx),
         "f": identity_chain_map(cx)})
    from tracelin.exactalg import ChainMap
    f = diagrams.NatEndo(dia, {"a": ChainMap(cx, cx, {0: Mat([[1, 1], [0, 2]])}),
                               "b": ChainMap(cx, cx, {0: Mat([[1, 1], [0, 2]])})})
    res = diagrams.hocolim_hofin(dia)
    assert lefschetz(res.induce(f)) == 3 == harness.linearity_rhs(cv, dia, f)


def test_coeff_group_values_and_total():
    assert [str(v) for _, v in coeff_group(cyclic_group(1)).items()] == ["1"]
    assert [str(v) for _, v in coeff_group(cyclic_group(2)).items()] \
        == ["1/2", "1/2"]
    s3 = coeff_group(symmetric_group(3))
    assert sorted(str(v) for _, v in s3.items()) == ["1/2", "1/3", "1/6"]
    for g in [cyclic_group(2), cyclic_group(4), symmetric_group(3)]:
        assert sum(v for _, v in coeff_group(g).items()) == 1


def test_coeff_groupoid_discrete_is_all_ones():
    cv = coeff_groupoid(harness.discrete_category(3))
    assert all(v == 1 for _, v in cv.items())


def test_coeff_groupoid_disjoint_union_blocks():
    cat = disjoint_union(bg_category(cyclic_group(2)),
                         bg_category(cyclic_group(3)))
    cv = coeff_groupoid(cat)
    assert sorted(str(v) for _, v in cv.items()) \
        == ["1/2", "1/2", "1/3", "1/3", "1/3"]


def test_coeff_groupoid_connected_reduces_to_skeleton():
    cat = fincat.connected_groupoid(cyclic_group(2), 2)
    cv = coeff_groupoid(cat)
    assert sorted(str(v) for _, v in cv.items()) == ["1/2", "1/2"]


def test_coeff_ei_collapses_to_hofin_on_posets():
    for cat in [harness.span_category(), harness.arrow_category(),
                fincat.delta_prime_op(2)]:
        a = coeff_EI(cat)
        b = coeff_hofin(cat)
        assert dict(a.items()) == dict(b.items())


def test_coeff_ei_collapses_to_group_on_one_object_groupoids():
    for g in [cyclic_group(2), cyclic_group(4), symmetric_group(3)]:
        cat = bg_category(g)
        assert dict(coeff_EI(cat).items()) == dict(coeff_group(g, cat).items())


def test_coeff_ei_equals_desouza_on_corpus():
    corp = harness.corpus()
    for name, entry in corp.items():
        cat = entry["cat"]
        if not fincat.is_EI(cat):
            continue
        assert coeff_EI(cat) == coeff_EI_desouza(cat), name


def test_coeff_ei_hom_category_against_hocolim_oracle():
    c2 = cyclic_group(2)
    cat = fincat.category_from_group_hom(c2, c2, {0: 0, 1: 1})
    phi = coeff_EI(cat)
    rng = __import__("random").Random(4)
    for _ in range(5):
        dia, endo = harness._ei_chain_case(rng, cat)
        _res, ind = diagrams.hocolim_EI(dia, endo)
        assert lefschetz(ind) == harness.linearity_rhs(phi, dia, endo)


def test_stabilizer_orbit_full_group_is_orbit_count():
    g = symmetric_group(3)
    subs = harness._subgroups("S3")
    rng = __import__("random").Random(9)
    zset, action = harness._random_gset(rng, g, subs)
    lhs, rhs = stabilizer_orbit_identity(g, zset, action, list(g.elements))
    uf = fincat.UnionFind(zset)
    for x in g.elements:
        for z in zset:
            uf.union(z, action(x, z))
    assert lhs == rhs == len(uf.groups())


def test_stabilizer_orbit_identity_on_cosets():
    g = cyclic_group(4)
    h = subgroup(g, [0, 2])
    helems = set(h.elements)
    cosets = []
    for x in g.elements:
        c = frozenset(g.mul(x, y) for y in helems)
        if c not in cosets:
            cosets.append(c)

    def action(x, c):
        return frozenset(g.mul(x, y) for y in c)

    lhs, rhs = stabilizer_orbit_identity(g, cosets, action, [0])
    assert lhs == rhs == F(1, len(h))


def test_stabilizer_orbit_rejects_unclosed_subset():
    g = symmetric_group(3)
    flip = (1, 0, 2)
    with pytest.raises(ValueError):
        stabilizer_orbit_identity(g, list(g.elements),
                                  lambda x, z: g.mul(x, z), [flip])


def test_leinster_weighting_closed_forms():
    for g in [cyclic_group(2), cyclic_group(3), symmetric_group(3)]:
        w = leinster_weighting(bg_category(g))
        assert w["x"] == F(1, len(g))
    w = leinster_weighting(harness.idempotent_category())
    assert w["x"] == F(1, 2)
    w = leinster_weighting(harness.span_category())
    assert (w["a"], w["b"], w["c"]) == (F(-1), F(1), F(1))


class _HomCountStub:
    """Duck-typed shape with prescribed hom-set sizes.

    Only the weighting solver's interface is provided; the hom-count
    matrix here has dependent rows with an inconsistent right side, which
    no small honest category in the corpus exhibits.
    """

    def __init__(self, counts):
        self.objects = tuple(range(len(counts)))
        self._counts = counts

    def hom(self, a, b):
        return tuple(range(self._counts[a][b]))


def test_leinster_no_weighting_certificate():
    stub = _HomCountStub([[2, 2], [1, 1]])
    res = leinster_weighting(stub)
    assert isinstance(res, NoWeighting)
    # the certificate pairs to zero against every hom-count column but
    # not against the all-ones vector
    for b in stub.objects:
        col = sum(res.certificate[i] * len(stub.hom(a, b))
                  for i, a in enumerate(stub.objects))
        assert col == 0
    assert sum(res.certificate) != 0


def test_fixed_tables():
    assert [v for _, v in
            coeff_coproduct(harness.discrete_category(2)).items()] \
        == [F(1), F(1)]
    assert list(coeff_initial(harness.discrete_category(0)).items()) == []
    assert dict(coeff_idempotent(harness.idempotent_category()).items()) \
        == {"x": F(0), "e": F(1)}
    assert dict(coeff_cofiber(harness.arrow_category()).items()) \
        == {"a": F(-1), "b": F(1)}
    assert dict(coeff_pushout(harness.span_category()).items()) \
        == {"a": F(-1), "b": F(1), "c": F(1)}


def test_fixed_tables_reject_wrong_shapes():
    with pytest.raises(ValueError):
        coeff_coproduct(harness.arrow_category())
    with pytest.raises(ValueError):
        coeff_cofiber(harness.span_category())
    with pytest.raises(ValueError):
        coeff_idempotent(harness.arrow_category())


def test_realiz_coeff_check():
    for n in range(6):
        total, expected = realiz_coeff_check(n)
        assert total == expected == (-1) ** n


def test_coeff_vector_rejects_bad_keys():
    with pytest.raises(ValueError):
        CoeffVector(harness.arrow_category(), {"f": F(1)})


def test_weighting_formula_differs_from_linearity_off_representables():
    # on a trivial one-point group action the weighting pairing
    # undercounts, while the conjugacy-class formula is exact
    g = cyclic_group(2)
    cat = bg_category(g)
    trivial = diagrams.FinSetDiagram(
        cat, {"x": [0]}, {("g", k): {0: 0} for k in g.elements})
    reps, _assign = diagrams.colim_fin_set(trivial)
    w = leinster_weighting(cat)
    weighted = w["x"] * len(trivial.sets["x"])
    assert weighted == F(1, 2) != F(len(reps)) == F(1)
    lin = diagrams.linearize(trivial)
    phi = coeff_group(g, cat)
    paired = sum((phi[rep] * Mat.identity(1).data[0][0]
                  for rep, _ in phi.items()), F(0))
    assert paired == F(len(reps))


def test_ei_coefficient_sum_rule_on_groupoids():
    # over any one-object groupoid the coefficients total one
    for g in [cyclic_group(2), cyclic_group(4), symmetric_group(3)]:
        cv = coeff_EI(bg_category(g))
        assert sum(v for _, v in cv.items()) == 1


# ---------------------------------------------------------------------------
# coeff_EI against the per-chain enumeration over string_iso_classes

def _coeff_EI_reference(cat):
    """coeff_EI as a sum over every chain's string classes, each chain
    enumerated from scratch by ``fincat.string_iso_classes``."""
    skel = fincat.skeletalize(cat).cat
    classes = fincat.conjugacy_classes(skel)
    pos, _ = fincat.poset_reflection(skel)
    lt = {o: [] for o in pos.objects}
    for arr in pos.nonidentity():
        lt[pos.src[arr]].append(pos.dst[arr])
    aut_classes = {a: fincat.group_conj_classes(fincat.aut_group(skel, a))
                   for a in skel.objects}
    values = {rep: F(0) for rep in classes.reps}
    for a in skel.objects:
        chains = [(a,)]
        frontier = [(a,)]
        while frontier:
            frontier = [c + (o,) for c in frontier for o in lt[c[-1]]]
            chains.extend(frontier)
        for chain in chains:
            sign = 1 if len(chain) % 2 == 1 else -1
            for k in fincat.string_iso_classes(skel, chain).classes:
                aut = k["aut"]
                for cls in fincat.group_conj_classes(aut):
                    ci = coeffs._class_of_first_components(
                        skel, a, aut_classes[a], cls)
                    target = classes.class_of[aut_classes[a][ci][0]]
                    values[classes.reps[target]] += sign * F(len(cls),
                                                             len(aut))
    return CoeffVector(skel, values)


def _generated(group, gens, name=None):
    """Subgroup generated by ``gens``."""
    els = {group.identity}
    todo = [group.identity]
    while todo:
        x = todo.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in els:
                els.add(y)
                todo.append(y)
    out = subgroup(group, sorted(els, key=group.index.get))
    out.name = name
    return out


def _table_group(name, elements, mul, identity):
    return fincat.FinGroup(elements, {(a, b): mul(a, b) for a in elements
                                      for b in elements}, identity, name=name)


def _quaternion_group():
    units = {("1", u): (1, u) for u in "1ijk"}
    units.update({(u, "1"): (1, u) for u in "ijk"})
    units.update({("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
                  ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"),
                  ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
                  ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"),
                  ("i", "k"): (-1, "j")})

    def mul(a, b):
        s, u = units[(a[1], b[1])]
        return (a[0] * b[0] * s, u)
    return _table_group("Q8", [(s, u) for s in (1, -1) for u in "1ijk"],
                        mul, (1, "1"))


def _xor_group(n):
    els = [tuple((i >> k) & 1 for k in range(n)) for i in range(2 ** n)]
    return _table_group("C2^%d" % n, els,
                        lambda a, b: tuple(x ^ y for x, y in zip(a, b)),
                        els[0])


def _small_groups():
    """One group for each isomorphism type of order at most 8."""
    c2c4 = [(a, b) for a in range(2) for b in range(4)]
    s4 = symmetric_group(4)
    return ([cyclic_group(n) for n in range(1, 9)]
            + [symmetric_group(3), _xor_group(2), _xor_group(3),
               _generated(s4, [(1, 2, 3, 0), (1, 0, 3, 2)], "D4"),
               _quaternion_group(),
               _table_group("C2xC4", c2c4,
                            lambda a, b: ((a[0] + b[0]) % 2,
                                          (a[1] + b[1]) % 4), (0, 0))])


def _orbit_categories():
    s3, s4 = symmetric_group(3), symmetric_group(4)
    d4 = _generated(s4, [(1, 2, 3, 0), (1, 0, 3, 2)])
    lists = [
        (s3, [(), [(1, 0, 2)], [(1, 2, 0)], [(1, 0, 2), (1, 2, 0)]]),
        (cyclic_group(4), [(), [2], [1]]),
        (cyclic_group(6), [(), [3], [2], [1]]),
        (d4, [(), [(1, 0, 3, 2)], [(1, 2, 3, 0)],
              [(1, 2, 3, 0), (1, 0, 3, 2)]]),
        (d4, [(), [(2, 3, 0, 1)], [(1, 0, 3, 2), (2, 3, 0, 1)],
              [(1, 2, 3, 0), (1, 0, 3, 2)]]),
        (s4, [(), [(1, 0, 2, 3)], [(1, 0, 3, 2)], [(1, 2, 0, 3)],
              [(1, 2, 3, 0)]]),
    ]
    return [pytest.param(
        fincat.orbit_category(g, [_generated(g, gens) for gens in subs]),
        id="orbit%d_%d" % (len(g), len(subs)))
        for g, subs in lists]


def _group_hom_shapes():
    c2, c3, c4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    c5, c6, s3 = cyclic_group(5), cyclic_group(6), symmetric_group(3)
    k4 = _xor_group(2)

    def sign(p):
        return sum(1 for i in range(3) for j in range(i + 1, 3)
                   if p[i] > p[j]) % 2
    homs = [(c6, c3, {x: x % 3 for x in range(6)}),
            (c4, c2, {x: x % 2 for x in range(4)}),
            (c6, c2, {x: x % 2 for x in range(6)}),
            (c5, c5, {x: 2 * x % 5 for x in range(5)}),
            (s3, c2, {p: sign(p) for p in s3.elements}),
            (k4, c2, {p: p[0] for p in k4.elements}),
            (s3, c3, {p: 0 for p in s3.elements})]
    return [pytest.param(fincat.category_from_group_hom(g, h, phi),
                         id="hom_%s_%s_%d" % (g.name, h.name, i))
            for i, (g, h, phi) in enumerate(homs)]


def _coeff_ei_reference_cases():
    cases = [pytest.param(fincat.delta_prime_op(n), id="delta%dop" % n)
             for n in range(2, 6)]
    cases += [pytest.param(entry["cat"], id=name)
              for name, entry in harness.corpus().items()
              if fincat.is_EI(entry["cat"])]
    cases += _orbit_categories() + _group_hom_shapes()
    cases += [pytest.param(bg_category(g), id="B" + g.name)
              for g in _small_groups()]
    cases += [pytest.param(harness.gen_hofin_category(seed),
                           id="hofin_seed%d" % seed) for seed in range(40)]
    return cases


@pytest.mark.parametrize("cat", _coeff_ei_reference_cases())
def test_coeff_ei_matches_per_chain_reference(cat):
    assert coeff_EI(cat).items() == _coeff_EI_reference(cat).items()
