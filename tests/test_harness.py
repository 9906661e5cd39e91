import json

from tracelin import diagrams, fincat, harness
from tracelin.exactalg import identity_chain_map, lefschetz


def test_corpus_categories_all_validate():
    for name, entry in harness.corpus().items():
        assert fincat.validate(entry["cat"]) == [], name


def test_corpus_methods_match_predicates():
    for name, entry in harness.corpus().items():
        cat = entry["cat"]
        for m in entry["methods"]:
            if m == "hofin":
                assert fincat.is_strictly_homotopy_finite(cat), name
            elif m in ("group", "groupoid"):
                assert fincat.is_groupoid(cat), name
            elif m == "ei":
                assert fincat.is_EI(cat), name


def test_gen_hofin_zero_edges_is_discrete():
    # find a seed with no edges; seed choice is arbitrary but stable
    for seed in range(50):
        cat = harness.gen_hofin_category(seed, max_objects=3, max_edges=0)
        assert not cat.nonidentity()
        break


def test_gen_hofin_is_strictly_homotopy_finite():
    for seed in range(12):
        cat = harness.gen_hofin_category(seed)
        assert fincat.is_strictly_homotopy_finite(cat)
        assert len(cat.arrows) <= 200


def test_gen_chain_diagram_is_functorial_and_natural():
    for seed in [0, 3, 10]:
        cat = harness.gen_hofin_category(seed)
        dia, endo = harness.gen_chain_diagram(seed, cat)
        assert dia.violations() == []
        assert diagrams.NatEndo(dia, endo.components).violations() == []


def test_gen_chain_identity_endo_gives_euler_characteristic():
    cat = harness.gen_hofin_category(2)
    dia, _ = harness.gen_chain_diagram(2, cat)
    ident = diagrams.NatEndo(
        dia, {o: identity_chain_map(dia.cx(o)) for o in cat.objects},
        check=False)
    res = diagrams.hocolim_hofin(dia)
    lhs = lefschetz(res.induce(ident))
    from tracelin import coeffs
    phi = coeffs.coeff_hofin(cat)
    euler = sum((phi[rep]
                 * lefschetz(identity_chain_map(dia.cx(cat.src[rep]))))
                for rep, _ in phi.items())
    assert lhs == euler


def test_group_chain_diagram_valid():
    for gname in ["C2", "C3", "C4", "S3"]:
        dia, endo = harness.group_chain_diagram(1, gname)
        assert dia.violations() == []
        assert diagrams.NatEndo(dia, endo.components).violations() == []


def test_reports_are_seed_deterministic():
    a = harness.run_suite("sets", seed=5, cases=6)
    b = harness.run_suite("sets", seed=5, cases=6)
    assert json.dumps(a.to_json(), sort_keys=True) \
        == json.dumps(b.to_json(), sort_keys=True)
    c = harness.run_suite("sets", seed=6, cases=6)
    assert json.dumps(a.to_json(), sort_keys=True) \
        != json.dumps(c.to_json(), sort_keys=True)


def test_small_suite_passes():
    for name, kwargs in [("sets", {"cases": 4}), ("leinster", {"cases": 4}),
                         ("burnside", {"cases": 8})]:
        rep = harness.run_suite(name, seed=2, **kwargs)
        assert rep.all_pass, [c.to_json() for c in rep.failures()]


def test_case_results_serialize():
    rep = harness.run_suite("sets", seed=0, cases=2)
    payload = rep.to_json()
    assert payload["suite"] == "sets"
    assert payload["case_count"] == len(payload["cases"])
    assert all(set(c) >= {"id", "lhs", "rhs", "equal"}
               for c in payload["cases"])


def test_verify_linearity_covers_all_pipelines():
    assert harness.verify_linearity_hofin(1, 0).equal
    assert harness.verify_linearity_group(1, 0, "C3").equal
    assert harness.verify_linearity_groupoid(1, 0, "gpd_conn_C2").equal
    assert harness.verify_linearity_groupoid(1, 0, "gpd_C2_C3").equal
    assert harness.verify_linearity_ei(1, 0, "orbit_C4").equal


def test_named_case_verifiers():
    rng = harness.seeded_rng("x", 0)
    cat = harness.corpus()["BC3"]["cat"]
    assert harness.verify_component_lemma(rng, cat, "c").equal
    assert all(c.equal for c in harness.verify_set_formulas(0, 1))
    assert harness.verify_leinster(0, 2).equal
    assert harness.verify_multiplicativity(0, 3).equal


def test_generated_dag_categories_validate():
    cat = harness.gen_hofin_category(4, max_objects=4, max_edges=4)
    assert fincat.validate(cat) == []
