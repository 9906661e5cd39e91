"""Acceptance criteria, one test per criterion, exact equality throughout.

Every comparison is between two independently computed exact rationals;
any inequality is a hard failure with the offending cases in the report.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
from fractions import Fraction as F

from tracelin import coeffs, diagrams, fincat, harness
from tracelin.exactalg import (
    ChainMap, Mat, block_diag, idempotent_image, lefschetz, shift, trace,
)

SEED = 2026


def _announce(num, label, report):
    status = "PASS" if report.all_pass else "FAIL"
    print("ACCEPTANCE %d %s: %s (%d cases)"
          % (num, label, status, len(report.cases)))
    assert report.all_pass, [c.to_json() for c in report.failures()][:5]


def test_acceptance_1_componentwise_traces():
    report = harness.suite_component(seed=SEED, cases=200)
    assert len(report.cases) >= 200
    _announce(1, "componentwise trace agreement", report)


def test_acceptance_2_homotopy_finite_linearity():
    out = []
    span = harness.span_category()
    phi = coeffs.coeff_hofin(span)
    out.append(harness._case("fixed:pushout",
                             tuple(str(v) for _, v in phi.items()),
                             ("-1", "1", "1")))
    for n in range(1, 4):
        par = fincat.parallel_arrows(n + 1)
        out.append(harness._case(
            "fixed:parallel%d" % (n + 1),
            tuple(str(v) for _, v in coeffs.coeff_hofin(par).items()),
            (str(-n), "1")))
    for i in range(100):
        out.append(harness.verify_linearity_hofin(SEED, i))
    report = harness.SuiteReport("hofin-linearity", SEED, out)
    assert len(report.cases) >= 104
    _announce(2, "homotopy finite linearity", report)


def test_acceptance_3_cofiber_additivity():
    out = [harness.verify_cofiber(SEED, i) for i in range(100)]
    report = harness.SuiteReport("cofiber", SEED, out)
    assert len(report.cases) >= 100
    _announce(3, "cofiber additivity", report)


def test_acceptance_4_orbit_counting():
    out = []
    corp = harness.corpus()
    for gname in ["C2", "C3", "C4", "S3"]:
        g = harness.GROUPS[gname]
        cat = corp["B" + gname]["cat"]
        phi = coeffs.coeff_group(g, cat)
        for i in range(5):
            out.append(harness.verify_linearity_group(SEED, i, cat, phi))
            # the same identity summed over group elements instead of
            # conjugacy classes
            dia, endo = harness.group_chain_diagram((SEED, i), cat)
            _total, ind, _parts = diagrams.hocolim_groupoid(dia, endo)
            total = sum((lefschetz(endo.at("x").compose(dia.map(("g", x))))
                         for x in g.elements), F(0))
            out.append(harness._case(
                "orbit-element-form:%s:%d" % (gname, i),
                lefschetz(ind), total / len(g)))
    gset_report = harness.suite_burnside(seed=SEED, cases=50)
    counting = [c for c in gset_report.cases
                if c.case_id.startswith("burnside:")]
    assert len(counting) >= 50
    report = harness.SuiteReport("orbit-counting", SEED, out + gset_report.cases)
    _announce(4, "orbit counting", report)


def test_acceptance_5_ei_suite():
    report = harness.suite_ei(seed=SEED)
    desouza = [c for c in report.cases if c.case_id.startswith("ei:desouza")]
    assert len(desouza) >= 5
    _announce(5, "EI coefficients and linearity", report)


def test_acceptance_6_combinatorial_identities():
    report = harness.suite_realiz(seed=SEED, cases=20)
    realiz = [c for c in report.cases if c.case_id.startswith("realiz:")]
    stab = [c for c in report.cases if c.case_id.startswith("stab-orbit:")]
    pairs = [c for c in report.cases if c.case_id.startswith("pi0-pairs:")]
    assert len(realiz) == 6 and len(stab) >= 20 and len(pairs) >= 15
    _announce(6, "combinatorial identities", report)


def test_acceptance_7_leinster_comparison():
    report = harness.suite_leinster(seed=SEED, cases=22)
    plain = [c for c in report.cases if c.case_id.startswith("leinster:")
             and "idem-" not in c.case_id]
    idem = [c for c in report.cases if "idem-" in c.case_id]
    assert len(plain) >= 20 and len(idem) >= 8
    _announce(7, "weighting comparison", report)


def test_acceptance_8_small_fixed_facts():
    rng = random.Random(SEED)
    out = []
    # idempotent splitting: the induced trace on the splitting is the
    # trace against the idempotent
    E = harness.idempotent_category()
    for i in range(20):
        dia = harness.random_vect_diagram(rng, E, max_dim=4)
        endo = harness.random_endo(rng, dia)
        e = dia.mat("e")
        if not e.rows:
            continue
        inc, proj = idempotent_image(e)
        out.append(harness._case("idem-split:%d" % i,
                                 trace(proj @ endo.at("x") @ inc),
                                 trace(e @ endo.at("x"))))
    # suspension flips the sign of the alternating trace
    for i in range(20):
        cx = harness.random_complex(rng, 3, 0, 2)
        basis = diagrams.chain_map_space(cx, cx)
        acc = None
        for b in basis:
            t = b.smul(F(rng.randint(-2, 2)))
            acc = t if acc is None else acc + t
        if acc is None:
            continue
        suspended = ChainMap(shift(cx, 1), shift(cx, 1),
                             {n + 1: acc.sparse_mat(n) for n in cx.dims})
        out.append(harness._case("suspension:%d" % i, lefschetz(suspended),
                                 -lefschetz(acc)))
    # multiplicativity of traces under tensor product
    for i in range(50):
        out.append(harness.verify_multiplicativity(SEED, i))
    # additivity over a two-object discrete shape
    for i in range(20):
        n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
        a = Mat([[F(rng.randint(-3, 3)) for _ in range(n1)]
                 for _ in range(n1)], n1, n1)
        b = Mat([[F(rng.randint(-3, 3)) for _ in range(n2)]
                 for _ in range(n2)], n2, n2)
        out.append(harness._case("coproduct:%d" % i,
                                 trace(block_diag([a, b])),
                                 trace(a) + trace(b)))
    report = harness.SuiteReport("small-facts", SEED, out)
    assert len([c for c in out if c.case_id.startswith("mult")]) >= 50
    _announce(8, "small fixed facts", report)
