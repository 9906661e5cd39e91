from itertools import product as iproduct

import pytest

from tracelin import fincat, harness
from tracelin.fincat import (
    FinCat, Functor, aut_group, bg_category, category_from_group_hom,
    conjugacy_classes, connected_groupoid, count_strings, cyclic_group,
    delta_prime_op, disjoint_union, enumerate_strings, free_category_on_dag,
    group_conj_classes, is_EI, is_groupoid, is_skeletal,
    is_strictly_homotopy_finite, lambda_cat, opposite, orbit_category,
    parallel_arrows, poset_reflection, product, skeletalize,
    string_alternating_sum, string_iso_classes, subgroup, symmetric_group,
    table_violations, validate,
)


def terminal():
    return FinCat(["x"], [("i", "x", "x")], {"x": "i"}, {("i", "i"): "i"})


def walking_arrow():
    return FinCat(["a", "b"],
                  [("ia", "a", "a"), ("ib", "b", "b"), ("f", "a", "b")],
                  {"a": "ia", "b": "ib"},
                  {("ia", "ia"): "ia", ("ib", "ib"): "ib",
                   ("ia", "f"): "f", ("f", "ib"): "f"})


def idem_cat():
    return FinCat(["x"], [("i", "x", "x"), ("e", "x", "x")], {"x": "i"},
                  {("i", "i"): "i", ("i", "e"): "e", ("e", "i"): "e",
                   ("e", "e"): "e"})


def span():
    return FinCat(
        ["a", "b", "c"],
        [("ia", "a", "a"), ("ib", "b", "b"), ("ic", "c", "c"),
         ("f", "a", "b"), ("g", "a", "c")],
        {"a": "ia", "b": "ib", "c": "ic"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib", ("ic", "ic"): "ic",
         ("ia", "f"): "f", ("f", "ib"): "f", ("ia", "g"): "g",
         ("g", "ic"): "g"})


def test_validate_terminal():
    assert validate(terminal()) == []


def test_validate_catches_missing_unit_composite():
    broken = FinCat(["a", "b"],
                    [("ia", "a", "a"), ("ib", "b", "b"), ("f", "a", "b")],
                    {"a": "ia", "b": "ib"},
                    {("ia", "ia"): "ia", ("ib", "ib"): "ib",
                     ("f", "ib"): "f"})
    bad = validate(broken)
    assert any("missing composite" in v for v in bad)


def test_table_violations_leave_the_laws_to_validate():
    # a complete table with e then e = i: well formed, but i is no unit
    # for e (i then e = i), so only validate objects
    bad_unit = FinCat(["x"], [("i", "x", "x"), ("e", "x", "x")], {"x": "i"},
                      {("i", "i"): "i", ("i", "e"): "i", ("e", "i"): "e",
                       ("e", "e"): "e"})
    assert table_violations(bad_unit) == []
    assert validate(bad_unit) == ["left unit law fails at 'e'"]
    broken = FinCat(["x"], [("i", "x", "x"), ("e", "y", "x")], {"x": "i"},
                    {("i", "i"): "i"})
    assert table_violations(broken) == validate(broken) == [
        "arrow 'e' has unknown endpoint",
        "missing composite for ('e', 'i')"]


def test_validate_free_dag_with_composites():
    cat = free_category_on_dag(["a", "b", "c"],
                               [("e1", "a", "b"), ("e2", "b", "c")])
    assert validate(cat) == []
    assert len(cat.arrows) == 6  # three identities, two edges, one composite


def test_conjugacy_discrete():
    cat = disjoint_union(terminal(), terminal())
    assert len(conjugacy_classes(cat)) == 2


def test_conjugacy_idempotent():
    assert len(conjugacy_classes(idem_cat())) == 2


def test_conjugacy_bs3_matches_group_classes():
    s3 = symmetric_group(3)
    cat = bg_category(s3)
    cc = conjugacy_classes(cat)
    grp = group_conj_classes(s3)
    assert len(cc) == len(grp) == 3
    # the category classes are exactly the group classes
    cat_classes = {frozenset(x for (_, x) in cls) for cls in cc.classes}
    grp_classes = {frozenset(cls) for cls in grp}
    assert cat_classes == grp_classes


def test_lambda_of_walking_arrow_is_discrete_pair():
    lcat, comp = lambda_cat(walking_arrow())
    assert len(lcat.objects) == 2
    assert all(lcat.is_id(a) for a in lcat.arrows)
    assert len(set(comp.values())) == 2


def test_lambda_of_discrete_is_discrete():
    cat = disjoint_union(terminal(), terminal())
    lcat, comp = lambda_cat(cat)
    assert len(lcat.objects) == len(cat.objects)
    assert len(set(comp.values())) == 2


def test_lambda_components_equal_conjugacy_classes_bs3():
    cat = bg_category(symmetric_group(3))
    _lcat, comp = lambda_cat(cat)
    assert len(set(comp.values())) == len(conjugacy_classes(cat))


def test_lambda_component_map_respects_composite_classes():
    cat = bg_category(symmetric_group(3))
    lcat, comp = lambda_cat(cat)
    cc = conjugacy_classes(cat)
    # two pair objects in one component compose to conjugate endomorphisms
    by_comp = {}
    for (f, g) in lcat.objects:
        by_comp.setdefault(comp[(f, g)], set()).add(
            cc.class_of[cat.then(f, g)])
    assert all(len(v) == 1 for v in by_comp.values())


def _lambda_brute_force(cat):
    """Morphisms and components of the pair category, by testing every
    (x, z) between every pair of objects against both equations."""
    objs = [(f, g) for f in cat.arrows
            for g in cat.hom(cat.dst[f], cat.src[f])]
    arrows = []
    for (f, g) in objs:
        a, b = cat.src[f], cat.dst[f]
        for (f2, g2) in objs:
            a2, b2 = cat.src[f2], cat.dst[f2]
            for x in cat.hom(a, a2):
                for z in cat.hom(b2, b):
                    if (cat.then_seq([x, f2, z]) == f
                            and cat.then_seq([z, g, x]) == g2):
                        arrows.append(((f, g), (f2, g2), x, z))
    uf = fincat.UnionFind(objs)
    for (s, t, _x, _z) in arrows:
        uf.union(s, t)
    roots = {}
    comp = {o: roots.setdefault(uf.find(o), len(roots)) for o in objs}
    return arrows, comp


def _klein_four():
    els = [(a, b) for a in range(2) for b in range(2)]
    mul = {(p, q): (p[0] ^ q[0], p[1] ^ q[1]) for p in els for q in els}
    return fincat.FinGroup(els, mul, (0, 0), name="C2xC2")


def _dihedral_four():
    """D4 as the symmetries of a square on the permutations of 4 points."""
    s4 = symmetric_group(4)
    els = {s4.identity}
    todo = [s4.identity]
    while todo:
        x = todo.pop()
        for g in ((1, 2, 3, 0), (1, 0, 3, 2)):
            y = s4.mul(x, g)
            if y not in els:
                els.add(y)
                todo.append(y)
    d4 = subgroup(s4, sorted(els))
    d4.name = "D4"
    return d4


def _self_maps(n):
    """One-object category of all self-maps m of range(n), m[i] the
    image of i."""
    maps = list(iproduct(range(n), repeat=n))
    ident = tuple(range(n))
    return FinCat(["x"], [(m, "x", "x") for m in maps], {"x": ident},
                  {(f, g): tuple(g[f[i]] for i in range(n))
                   for f in maps for g in maps})


def _lambda_reference_cases():
    cases = [pytest.param(entry["cat"], id=name)
             for name, entry in harness.corpus().items()]
    d4 = _dihedral_four()
    groups = [cyclic_group(n) for n in range(1, 7)]
    groups += [symmetric_group(3), _klein_four(), d4]
    cases += [pytest.param(bg_category(g), id="B" + g.name) for g in groups]
    cases.append(pytest.param(delta_prime_op(3), id="delta3op"))
    rot, flip = (1, 2, 3, 0), (1, 0, 3, 2)
    subs = [[d4.identity], [d4.identity, flip],
            [d4.identity, rot, (2, 3, 0, 1), (3, 0, 1, 2)],
            [d4.identity, flip, (2, 3, 0, 1), (3, 2, 1, 0)]]
    cases.append(pytest.param(
        orbit_category(d4, [subgroup(d4, h) for h in subs]), id="orbit_D4"))
    # in a skeletal EI shape every f of an object (f, g) is an
    # automorphism with one preimage per (x, z); these have several
    cases.append(pytest.param(_self_maps(2), id="T2"))
    return cases


@pytest.mark.parametrize("cat", _lambda_reference_cases())
def test_lambda_cat_matches_brute_force(cat):
    """The listed morphisms are morphisms, listed by source with each
    source's identity first, and the components are the brute force's."""
    lcat, comp = lambda_cat(cat)
    arrows, ref_comp = _lambda_brute_force(cat)
    assert set(lcat.arrows) <= set(arrows)
    assert all((lcat.src[m], lcat.dst[m]) == m[:2] for m in lcat.arrows)
    sources = [lcat.obj_index[m[0]] for m in lcat.arrows]
    assert sources == sorted(sources)
    firsts = [m for i, m in enumerate(lcat.arrows)
              if i == 0 or m[0] != lcat.arrows[i - 1][0]]
    assert firsts == [lcat.identities[o] for o in lcat.objects]
    assert all(lcat.identities[(f, g)] == ((f, g), (f, g),
                                           cat.idarr(cat.src[f]),
                                           cat.idarr(cat.dst[f]))
               for (f, g) in lcat.objects)
    assert comp == ref_comp
    assert lcat.compose == {}


@pytest.mark.parametrize("cat", _lambda_reference_cases())
def test_lambda_cat_morphisms_form_a_category(cat):
    """Closing the listed morphisms under (x, z) then (x', z') =
    (x;x', z';z) gives exactly the brute-force morphisms."""
    lcat, _comp = lambda_cat(cat)
    arrows, _ref_comp = _lambda_brute_force(cat)
    by_src = {}
    for m in lcat.arrows:
        by_src.setdefault(m[0], []).append(m)
    closure = set(lcat.arrows)
    todo = list(closure)
    while todo:
        (s, t, x1, z1) = todo.pop()
        for (_t, u, x2, z2) in by_src[t]:
            m = (s, u, cat.then(x1, x2), cat.then(z2, z1))
            if m not in closure:
                closure.add(m)
                todo.append(m)
    assert closure == set(arrows)


def _s4_orbit_categories():
    """Orbit categories of S4 on three lists of subgroups, each given by
    generators: trivial, order 2 and 3, and larger ones."""
    s4 = symmetric_group(4)
    lists = [[(), [(1, 0, 2, 3)], [(1, 2, 0, 3)],
              [(1, 0, 2, 3), (1, 2, 0, 3)], [(1, 2, 0, 3), (1, 0, 3, 2)]],
             [(), [(1, 0, 3, 2)], [(1, 2, 3, 0)], [(1, 0, 3, 2), (2, 3, 0, 1)],
              [(1, 2, 3, 0), (1, 0, 3, 2)]],
             [(), [(1, 0, 2, 3)], [(1, 0, 3, 2)], [(1, 2, 0, 3)],
              [(1, 2, 3, 0)]]]

    def generated(gens):
        els = {s4.identity}
        todo = [s4.identity]
        while todo:
            x = todo.pop()
            for g in gens:
                y = s4.mul(x, g)
                if y not in els:
                    els.add(y)
                    todo.append(y)
        return subgroup(s4, sorted(els))

    return [pytest.param(orbit_category(s4, [generated(g) for g in lst]),
                         id="orbit_S4_%d" % i)
            for i, lst in enumerate(lists)]


@pytest.mark.parametrize("cat", _s4_orbit_categories())
def test_lambda_cat_lists_only_generating_morphisms(cat):
    """Out of each (f: a->b, g) only its identity, one (x, id_b) per
    generating x out of a and one (id_a, z) per generating z into b are
    listed: every arrow between the isomorphic a and b is an iso."""
    lcat, comp = lambda_cat(cat)
    assert len(set(comp.values())) == len(conjugacy_classes(cat))
    gens = cat.generating_arrows()
    listed = {}
    for m in lcat.arrows:
        listed[m[0]] = listed.get(m[0], 0) + 1
    for (f, g) in lcat.objects:
        a, b = cat.src[f], cat.dst[f]
        bound = (1 + sum(1 for x in gens if cat.src[x] == a)
                 + sum(1 for z in gens if cat.dst[z] == b))
        assert listed[(f, g)] <= bound


def test_union_find_follows_long_chains():
    """find walks a chain of 3,000 links without recursing and relinks
    every item on it to the root; union keeps its first argument's root."""
    uf = fincat.UnionFind(range(3000))
    for i in range(1, 3000):
        uf.union(i, i - 1)
    assert uf.find(0) == 2999
    assert all(uf.parent[i] == 2999 for i in range(3000))
    assert list(uf.groups()) == [2999]
    uf = fincat.UnionFind("abcd")
    uf.union("b", "a")
    uf.union("c", "d")
    uf.union("a", "d")
    assert [uf.find(x) for x in "abcd"] == ["b", "b", "b", "b"]


def test_count_strings_empty_string():
    for cat in [terminal(), span(), idem_cat()]:
        for a in cat.objects:
            assert count_strings(cat, a, 0) == 1


def test_count_strings_span_apex():
    assert count_strings(span(), "a", 1) == 2
    assert count_strings(span(), "a", 2) == 0


def test_count_strings_matches_enumeration():
    cat = delta_prime_op(3)
    levels = enumerate_strings(cat)
    for k, level in enumerate(levels):
        per_obj = {}
        for (start, _arrs) in level:
            per_obj[start] = per_obj.get(start, 0) + 1
        for a in cat.objects:
            assert count_strings(cat, a, k) == per_obj.get(a, 0)


def test_predicates():
    assert is_EI(span()) and is_strictly_homotopy_finite(span())
    bs3 = bg_category(symmetric_group(3))
    assert is_EI(bs3) and not is_strictly_homotopy_finite(bs3)
    assert not is_EI(idem_cat())
    assert is_groupoid(bs3) and not is_groupoid(span())


def test_skeletalize_connected_groupoid():
    cat = connected_groupoid(cyclic_group(2), 2)
    assert not is_skeletal(cat)
    skel = skeletalize(cat)
    assert len(skel.cat.objects) == 1
    assert len(skel.cat.arrows) == 2
    assert validate(skel.cat) == []
    for o in cat.objects:
        iso = skel.iso_to_rep[o]
        assert cat.src[iso] == skel.obj_map[o] and cat.dst[iso] == o
        assert cat.inv(iso) is not None


def test_poset_reflection_of_poset_is_itself_shaped():
    pos, amap = poset_reflection(span())
    assert validate(pos) == []
    assert len(pos.objects) == 3
    assert len(pos.nonidentity()) == 2


def test_poset_reflection_of_group_is_terminal():
    pos, _ = poset_reflection(bg_category(cyclic_group(3)))
    assert len(pos.objects) == 1 and len(pos.arrows) == 1


def test_poset_reflection_of_hom_category():
    c2 = cyclic_group(2)
    cat = category_from_group_hom(c2, c2, {0: 0, 1: 1})
    pos, _ = poset_reflection(cat)
    assert len(pos.nonidentity()) == 1
    arr = pos.nonidentity()[0]
    assert pos.src[arr] == "a" and pos.dst[arr] == "b"


def test_poset_reflection_rejects_non_ei():
    with pytest.raises(ValueError):
        poset_reflection(idem_cat())


def test_string_iso_classes_length_zero():
    c2 = cyclic_group(2)
    cat = category_from_group_hom(c2, c2, {0: 0, 1: 1})
    sc = string_iso_classes(cat, ("a",))
    assert len(sc.classes) == 1
    assert len(sc.classes[0]["aut"]) == 2


def test_string_iso_classes_identity_hom():
    c2 = cyclic_group(2)
    cat = category_from_group_hom(c2, c2, {0: 0, 1: 1})
    sc = string_iso_classes(cat, ("a", "b"))
    assert len(sc.classes) == 1
    assert len(sc.classes[0]["aut"]) == 2


def test_string_iso_classes_trivial_hom_computed_not_assumed():
    c2 = cyclic_group(2)
    cat = category_from_group_hom(c2, c2, {0: 0, 1: 0})
    sc = string_iso_classes(cat, ("a", "b"))
    # brute force: the left factor acts trivially through the trivial
    # homomorphism, the right factor transitively; one orbit remains
    assert len(sc.classes) == 1
    assert len(sc.classes[0]["aut"]) == 2


def test_string_iso_classes_partition_identity():
    c3 = cyclic_group(3)
    cat = category_from_group_hom(c3, c3, {0: 0, 1: 1, 2: 2})
    sc = string_iso_classes(cat, ("a", "b"))
    total = sum(k["orbit_size"] for k in sc.classes)
    assert total == len(cat.hom("a", "b"))
    for k in sc.classes:
        assert k["orbit_size"] * len(k["aut"]) == len(sc.group)


def test_delta_prime_op_small():
    d0 = delta_prime_op(0)
    assert len(d0.objects) == 1 and len(d0.arrows) == 1
    d1 = delta_prime_op(1)
    assert len(d1.objects) == 2
    nonid = d1.nonidentity()
    assert len(nonid) == 2
    assert all(d1.src[a] == "[1]" and d1.dst[a] == "[0]" for a in nonid)


def test_delta_prime_op_hom_counts_are_binomial():
    from math import comb
    d = delta_prime_op(3)
    for m in range(4):
        # monotone injections into [3] from [m]
        assert len(d.hom("[3]", "[%d]" % m)) == comb(4, m + 1)


def _delta_prime_compose_reference(cat):
    """The composition table of delta'(n) by testing every ordered pair
    of arrows, f in arrow order, then g in arrow order."""
    compose = {}
    for f in cat.arrows:
        (_, k, _m, img1) = f
        for g in cat.arrows:
            if cat.src[g] != cat.dst[f]:
                continue
            (_, _m2, p, img2) = g
            compose[(f, g)] = ("i", k, p, tuple(img1[i] for i in img2))
    return compose


@pytest.mark.parametrize("n", range(6))
def test_delta_prime_op_compose_matches_all_pairs_reference(n):
    cat = delta_prime_op(n)
    ref = _delta_prime_compose_reference(cat)
    assert list(cat.compose.items()) == list(ref.items())
    if n == 5:
        assert len(ref) == 966


def test_alternating_string_sums_delta():
    for n in range(6):
        cat = delta_prime_op(n)
        assert string_alternating_sum(cat, "[%d]" % n) == (-1) ** n


def test_opposite_involution():
    for cat in [span(), idem_cat(), bg_category(cyclic_group(3))]:
        back = opposite(opposite(cat))
        assert back.objects == cat.objects
        assert back.arrows == cat.arrows
        assert back.src == cat.src and back.dst == cat.dst
        assert back.compose == cat.compose


def test_product_category():
    p = product(walking_arrow(), walking_arrow())
    assert validate(p) == []
    assert len(p.objects) == 4 and len(p.arrows) == 9


def test_aut_group_and_conj_classes():
    s3 = symmetric_group(3)
    cat = bg_category(s3)
    g = aut_group(cat, "x")
    assert len(g) == 6
    assert g.violations() == []
    assert [len(c) for c in group_conj_classes(g)] == [1, 3, 2]


def test_free_category_rejects_cycles():
    with pytest.raises(ValueError):
        free_category_on_dag(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])


def test_category_from_group_hom_validates():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    for phi in [{0: 0, 1: 1}, {0: 0, 1: 0}]:
        cat = category_from_group_hom(c2, c2, phi)
        assert validate(cat) == []
        assert is_EI(cat) and is_skeletal(cat)
    cat = category_from_group_hom(c3, c3, {0: 0, 1: 2, 2: 1})
    assert validate(cat) == []


def test_orbit_category_validates_and_is_ei():
    c4 = cyclic_group(4)
    subs = [subgroup(c4, [0]), subgroup(c4, [0, 2]), c4]
    cat = orbit_category(c4, subs)
    assert validate(cat) == []
    assert is_EI(cat) and is_skeletal(cat)
    # automorphisms of the free orbit form the full group
    assert len(aut_group(cat, 0)) == 4
    assert len(aut_group(cat, 1)) == 2
    assert len(aut_group(cat, 2)) == 1


def _orbit_category_reference(group, subgroups):
    """(objects, arrows, identities, compose) of the orbit category as it
    was built before its tables were indexed: cosets as frozensets, maps
    as dicts, each coset's image found by scanning the cosets, and each
    identity and composite by scanning the arrows."""
    G = group
    cosets = {}
    for idx, H in enumerate(subgroups):
        helems = set(H.elements)
        seen = set()
        cs = []
        for x in G.elements:
            coset = frozenset(G.mul(x, h) for h in helems)
            if coset not in seen:
                seen.add(coset)
                cs.append(coset)
        cosets[idx] = cs
    objs = list(range(len(subgroups)))

    def coset_of(idx, x):
        for c in cosets[idx]:
            if x in c:
                return c
        raise AssertionError

    arrows = []
    maps = {}
    for i in objs:
        for j in objs:
            seen = set()
            hi = set(subgroups[i].elements)
            kj = set(subgroups[j].elements)
            for g in G.elements:
                if any(G.mul(G.mul(G.inv(g), h), g) not in kj for h in hi):
                    continue
                fn = {c: coset_of(j, G.mul(sorted(c, key=G.index.get)[0], g))
                      for c in cosets[i]}
                key = tuple(fn[c] for c in cosets[i])
                if key not in seen:
                    seen.add(key)
                    aid = ("o", i, j, len(seen) - 1)
                    arrows.append((aid, i, j))
                    maps[aid] = fn
    identities = {}
    for i in objs:
        for (aid, s, t) in arrows:
            if s == i and t == i and all(maps[aid][c] == c for c in cosets[i]):
                identities[i] = aid
                break
    compose = {}
    for (f, fs, ft) in arrows:
        for (g, gs, gt) in arrows:
            if ft != gs:
                continue
            comp = {c: maps[g][maps[f][c]] for c in cosets[fs]}
            hit = None
            for (h, hs, ht) in arrows:
                if hs == fs and ht == gt and maps[h] == comp:
                    hit = h
                    break
            assert hit is not None, "composite escapes the arrow set"
            compose[(f, g)] = hit
    return objs, arrows, identities, compose


def _generated_subgroup(group, gens):
    els = {group.identity}
    todo = [group.identity]
    while todo:
        x = todo.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in els:
                els.add(y)
                todo.append(y)
    return subgroup(group, sorted(els, key=group.index.get))


def _orbit_reference_cases():
    """Subgroup lists by generators: the benchmark's S4, D4 and small
    lists, which include the coefficient tests' orbit shapes, and the
    corpus's orbit_S3 (orbit_C4 is the C4 list)."""
    s3, s4 = symmetric_group(3), symmetric_group(4)
    d4 = _generated_subgroup(s4, [(1, 2, 3, 0), (1, 0, 3, 2)])
    lists = [
        ("S4a", s4, [(), [(1, 0, 2, 3)], [(1, 2, 0, 3)],
                     [(1, 0, 2, 3), (1, 2, 0, 3)],
                     [(1, 2, 0, 3), (1, 0, 3, 2)]]),
        ("S4b", s4, [(), [(1, 0, 3, 2)], [(1, 2, 3, 0)],
                     [(1, 0, 3, 2), (2, 3, 0, 1)],
                     [(1, 2, 3, 0), (1, 0, 3, 2)]]),
        ("S4c", s4, [(), [(1, 0, 2, 3)], [(1, 0, 3, 2)], [(1, 2, 0, 3)],
                     [(1, 2, 3, 0)]]),
        ("D4a", d4, [(), [(1, 0, 3, 2)], [(1, 2, 3, 0)],
                     [(1, 2, 3, 0), (1, 0, 3, 2)]]),
        ("D4b", d4, [(), [(2, 3, 0, 1)], [(1, 0, 3, 2), (2, 3, 0, 1)],
                     [(1, 2, 3, 0), (1, 0, 3, 2)]]),
        ("S3", s3, [(), [(1, 0, 2)], [(1, 2, 0)], [(1, 0, 2), (1, 2, 0)]]),
        ("C6", cyclic_group(6), [(), [3], [2], [1]]),
        ("C4", cyclic_group(4), [(), [2], [1]]),
        ("orbit_S3", s3, [(), [(1, 2, 0)], [(1, 0, 2), (1, 2, 0)]]),
    ]
    return [pytest.param(g, [_generated_subgroup(g, gens) for gens in subs],
                         id=name) for name, g, subs in lists]


@pytest.mark.parametrize("group, subs", _orbit_reference_cases())
def test_orbit_category_matches_reference(group, subs):
    cat = orbit_category(group, subs)
    objs, arrows, identities, compose = _orbit_category_reference(group, subs)
    assert list(cat.objects) == objs
    assert [(a, cat.src[a], cat.dst[a]) for a in cat.arrows] == arrows
    assert list(cat.identities.items()) == list(identities.items())
    assert list(cat.compose.items()) == list(compose.items())


def test_orbit_category_rejects_a_foreign_element():
    c4 = cyclic_group(4)
    z2 = fincat.FinGroup([0, 5], {(a, b): (a + b) % 10 for a in (0, 5)
                                  for b in (0, 5)}, 0)
    with pytest.raises(ValueError, match="subgroup 1 is not a subgroup of "
                                         "the group: 5 is not in the group"):
        orbit_category(c4, [subgroup(c4, [0]), z2])


def test_orbit_category_rejects_an_unclosed_subset():
    c4 = cyclic_group(4)
    with pytest.raises(ValueError, match=r"subgroup 0 is not a subgroup of "
                                         r"the group: 1 \* 1 is not in it"):
        orbit_category(c4, [subgroup(c4, [0, 1]), c4])


def _definitional_attributes(objects, arrows, identities):
    """arrows, src, dst, arrow_index, obj_index, _hom and _out of a FinCat
    on the given data, each as its definition builds it."""
    names = tuple(a for a, _, _ in arrows)
    src = {a: s for a, s, _ in arrows}
    dst = {a: t for a, _, t in arrows}
    ids = set(identities.values())
    hom = {}
    for a in names:
        hom.setdefault((src[a], dst[a]), []).append(a)
    out = {o: [] for o in objects}
    for a in names:
        if a not in ids:
            out.setdefault(src[a], []).append(a)
    return [names, list(src.items()), list(dst.items()),
            list({a: i for i, a in enumerate(names)}.items()),
            [(o, i) for i, o in enumerate(objects)],
            list(hom.items()), list(out.items())]


def _attributes(cat):
    return [cat.arrows, list(cat.src.items()), list(cat.dst.items()),
            list(cat.arrow_index.items()), list(cat.obj_index.items()),
            list(cat._hom.items()), list(cat._out.items())]


def _attribute_cases():
    cases = [pytest.param(entry["cat"], id=name)
             for name, entry in harness.corpus().items()]
    cases.append(pytest.param(lambda_cat(bg_category(cyclic_group(4)))[0],
                              id="lambda_BC4"))
    cases.append(pytest.param(delta_prime_op(4), id="delta4op"))
    return cases


@pytest.mark.parametrize("cat", _attribute_cases())
def test_fincat_attributes_match_definition(cat):
    arrows = [(a, cat.src[a], cat.dst[a]) for a in cat.arrows]
    assert _attributes(cat) == _definitional_attributes(
        cat.objects, arrows, cat.identities)


def test_fincat_repeated_arrow_keeps_its_last_entry():
    """A repeated arrow id keeps its last endpoints and index, and each
    of its entries is filed under those endpoints."""
    objects = ["a", "b"]
    arrows = [("f", "a", "b"), ("i", "a", "a"), ("f", "b", "a"),
              ("j", "b", "b"), ("f", "b", "b"), ("k", "c", "a")]
    identities = {"a": "i", "b": "j"}
    cat = FinCat(objects, arrows, identities, {})
    assert _attributes(cat) == _definitional_attributes(objects, arrows,
                                                        identities)
    assert cat.hom("b", "b") == ["f", "f", "j", "f"]
    assert cat.arrow_index["f"] == 4


def test_generating_arrows_are_the_indecomposables_on_delta_prime():
    for n, (gens, arrows) in {3: (9, 22), 4: (14, 52), 5: (20, 114)}.items():
        cat = delta_prime_op(n)
        ids = set(cat.identities.values())
        composites = {h for (f, g), h in cat.compose.items()
                      if f not in ids and g not in ids}
        indecomposable = [a for a in cat.nonidentity() if a not in composites]
        assert list(cat.generating_arrows()) == indecomposable
        assert (len(indecomposable), len(cat.nonidentity())) == (gens, arrows)


def test_generating_arrows_generate():
    for cat in [span(), bg_category(symmetric_group(3)), idem_cat(),
                delta_prime_op(2), delta_prime_op(4),
                orbit_category(cyclic_group(4),
                               [subgroup(cyclic_group(4), [0]),
                                subgroup(cyclic_group(4), [0, 2])])]:
        gens = set(cat.generating_arrows())
        closure = set(cat.identities.values()) | gens
        changed = True
        while changed:
            changed = False
            for f in list(closure):
                for g in list(closure):
                    h = cat.compose.get((f, g))
                    if h is not None and h not in closure:
                        closure.add(h)
                        changed = True
        assert closure == set(cat.arrows)


def test_parallel_arrows_shape():
    cat = parallel_arrows(4)
    assert validate(cat) == []
    assert len(cat.nonidentity()) == 4
    assert is_strictly_homotopy_finite(cat)


def test_functor_validation():
    f = Functor(walking_arrow(), span(),
                {"a": "a", "b": "b"},
                {"ia": "ia", "ib": "ib", "f": "f"})
    assert f.violations() == []
    bad = Functor(walking_arrow(), span(),
                  {"a": "a", "b": "c"},
                  {"ia": "ia", "ib": "ic", "f": "f"})
    assert bad.violations()


def test_delta_prime_op_validates_through_degree_five():
    for n in [4, 5]:
        cat = delta_prime_op(n)
        assert validate(cat) == []
        assert is_strictly_homotopy_finite(cat)


def test_string_iso_classes_three_level_orbit_chain():
    c4 = cyclic_group(4)
    subs = [subgroup(c4, [0]), subgroup(c4, [0, 2]), c4]
    cat = orbit_category(c4, subs)
    sc = string_iso_classes(cat, (0, 1, 2))
    total = sum(k["orbit_size"] for k in sc.classes)
    assert total == len(cat.hom(0, 1)) * len(cat.hom(1, 2))
    for k in sc.classes:
        assert k["orbit_size"] * len(k["aut"]) == len(sc.group)
