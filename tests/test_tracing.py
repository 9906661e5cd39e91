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


def test_tracer_sees_the_hocolim_path():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (ROOT / "src", ROOT / "perfbench", ROOT / "tests"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    names = set(out["names"])
    for span in ("diagrams.hocolim_hofin", "diagrams.nat_endo_basis",
                 "exactalg.kernel_basis", "exactalg.ChainComplex.violations",
                 "exactalg.lefschetz"):
        assert span in names
    assert out["hocolim_s"] > 0
    assert out["elim_calls"] >= 1
