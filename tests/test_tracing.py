"""The benchmark's tracer must still find the library's layer boundaries.

``perfbench/tracing.py`` wraps public functions and listed methods by
name; a refactor that renames or aliases one of them blinds ``--trace 1``
without failing anything else.  The tracer patches module namespaces, so
the check runs in a subprocess and no wrapper leaks into other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import tracing
from test_diagrams import disk_sphere_diagram
from tracelin import diagrams, exactalg, fincat

tracer = tracing.Tracer()
tracing.install(tracer)
cat = fincat.delta_prime_op(3)
tracer.active = True
dia = disk_sphere_diagram(cat, "[3]", "[2]")
basis = diagrams.nat_endo_basis(dia)
res = diagrams.hocolim_hofin(dia)
exactalg.lefschetz(res.induce(basis[0]))
tracer.active = False
metrics, _ = tracing.layer_metrics(tracer.spans)
print(json.dumps({"names": sorted({s[0] for s in tracer.spans}),
                  "hocolim_s": metrics["diagrams.hocolim_hofin.s"],
                  "elim_calls": metrics["exactalg.elim.calls"]}))
"""


PROFCALC_SCRIPT = """
import json
import tracing
from tracelin import diagrams, fincat, harness, profcalc
from tracelin.exactalg import Mat

tracer = tracing.Tracer()
tracing.install(tracer)
s3 = fincat.symmetric_group(3)
cat = fincat.bg_category(s3)
rep = harness.rep_standard_perm(s3)
dia = diagrams.VectDiagram(cat, {"x": 2}, {g: rep[g[1]] for g in cat.arrows})
tracer.active = True
w = profcalc.dual_of_pointwise(profcalc.prof_from_diagram(dia))
got = profcalc.bicat_trace(w, {"x": Mat.identity(2)})
tracer.active = False
spans = tracer.spans
metrics, _ = tracing.layer_metrics(spans)
print(json.dumps({
    "names": sorted({s[0] for s in spans}),
    "cokernel_parents": sorted({spans[s[3]][0] for s in spans
                                if s[0] == "exactalg.cokernel"}),
    "coend_dim": metrics["profcalc.coend.dim"],
    "coend_relations": metrics["profcalc.coend.relations"],
    "got": sorted(str(v) for v in got.values())}))
"""


ROUTES_SCRIPT = """
import json
import tracing
from tracelin import cli, coeffs, diagrams, fincat, harness

tracer = tracing.Tracer()
tracing.install(tracer)
orbit_s3 = harness.corpus()["orbit_S3"]["cat"]
delta3 = fincat.delta_prime_op(3)
dia, endo = cli.load_diagram("pushout_span")
tracer.active = True
coeffs.coeff_EI(delta3)
coeffs.coeff_EI(orbit_s3)
diagrams.hocolim_EI(dia, endo)
tracer.active = False
spans = tracer.spans


def under(i):
    names = set()
    for s in spans:
        p = s[3]
        while p != -1 and p != i:
            p = spans[p][3]
        if p == i:
            names.add(s[0])
    return sorted(names)


print(json.dumps({name: [under(i) for i, s in enumerate(spans)
                         if s[0] == name]
                  for name in ("coeffs.coeff_EI", "diagrams.hocolim_EI")}))
"""


def _run_traced(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (ROOT / "src", ROOT / "perfbench", ROOT / "tests"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_sees_the_hocolim_path():
    out = _run_traced(SCRIPT)
    names = set(out["names"])
    for span in ("diagrams.hocolim_hofin", "diagrams.nat_endo_basis",
                 "exactalg.kernel_basis", "exactalg.ChainComplex.violations",
                 "exactalg.lefschetz"):
        assert span in names
    assert out["hocolim_s"] > 0
    assert out["elim_calls"] >= 1


def test_tracer_counts_the_coends_of_bicat_trace():
    """The coend counters read the shape of each ``exactalg.cokernel``
    span under a profcalc span; B(S3) acting on its 2-dimensional
    irreducible gives the unit shadow (6 diagonal values, 2 generating
    arrows) and two coends of 4 values each."""
    out = _run_traced(PROFCALC_SCRIPT)
    names = set(out["names"])
    for span in ("exactalg.cokernel", "exactalg.factor_through",
                 "profcalc.bicat_trace"):
        assert span in names
    assert out["cokernel_parents"] == ["profcalc.bicat_trace",
                                       "profcalc.shadow"]
    assert out["coend_dim"] == 6 + 4 + 4
    assert out["coend_relations"] == 2 * 6 + 2 * 4 + 2 * 4
    assert out["got"] == ["-1", "0", "2"]    # the character of the irreducible


def test_coeff_ei_and_hocolim_ei_build_their_string_orbits_apart():
    """The ``ei`` linearity check pairs coeff_EI with the Lefschetz
    number of hocolim_EI; only the latter enumerates string orbits with
    ``fincat.string_iso_classes``, so the two sides share no orbit
    builder."""
    out = _run_traced(ROUTES_SCRIPT)
    assert len(out["coeffs.coeff_EI"]) == 2
    for names in out["coeffs.coeff_EI"]:
        assert "fincat.skeletalize" in names
        assert "fincat.string_iso_classes" not in names
    assert len(out["diagrams.hocolim_EI"]) == 1
    assert "fincat.string_iso_classes" in out["diagrams.hocolim_EI"][0]
