"""Command-line front end.

Loads categories and diagrams from JSON files (bare names resolve against
the bundled corpus, overridable with TRACELIN_DATA_DIR), runs the
computations, and emits text or JSON.  Exit codes: 0 on success or an
all-pass verification, 1 on a verification failure or an exception
inside a suite (witness files are written), 2 on input errors.
"""

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import coeffs, diagrams, fincat, harness, profcalc, serialize
from .exactalg import SparseMat, lefschetz


def data_dir():
    env = os.environ.get("TRACELIN_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def resolve_category_path(spec):
    p = Path(spec)
    if p.exists():
        return p
    cand = data_dir() / (spec if spec.endswith(".json") else spec + ".json")
    if cand.exists():
        return cand
    raise FileNotFoundError("no category file or corpus entry %r" % (spec,))


def load_category(spec):
    path = resolve_category_path(spec)
    obj = serialize.load_json(path)
    return serialize.cat_from_json(obj, name=path.stem)


def load_diagram(spec):
    path = Path(spec)
    if not path.exists():
        path = data_dir() / (spec if spec.endswith(".json") else spec + ".json")
    obj = serialize.load_json(path)
    return serialize.diagram_from_json(obj, load_category)


def _category_and_diagram(args):
    """The category and the diagram of ``args``, the diagram's base
    compared with the category by its table, since an inline category
    has no name.  A mismatch is an input error."""
    cat = load_category(args.category)
    dia, endo = load_diagram(args.diagram)
    base = dia.base
    if (set(base.objects) != set(cat.objects) or base.src != cat.src
            or base.dst != cat.dst or base.identities != cat.identities
            or base.compose != cat.compose):
        raise ValueError("diagram %r is not over category %r"
                         % (args.diagram, args.category))
    return cat, dia, endo


def emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args):
    # unchecked: every violation is reported below, not just the first
    path = resolve_category_path(args.category)
    cat = serialize.cat_from_json(serialize.load_json(path), name=path.stem,
                                  check=False)
    violations = fincat.validate(cat)
    emit(args, {"violations": violations},
         ["ok" if not violations else "violations:"] + violations)
    return 0 if not violations else 1


def cmd_classes(args):
    cat = load_category(args.category)
    cc = fincat.conjugacy_classes(cat)
    payload = {"classes": [{"rep": str(cc.reps[i]),
                            "members": [str(a) for a in cls]}
                           for i, cls in enumerate(cc.classes)]}
    emit(args, payload,
         ["%s: %s" % (str(cc.reps[i]), ", ".join(str(a) for a in cls))
          for i, cls in enumerate(cc.classes)])
    return 0


def _coeff_by_method(method, cat):
    if method == "hofin":
        return coeffs.coeff_hofin(cat)
    if method == "group":
        if len(cat.objects) != 1 or not fincat.is_groupoid(cat):
            raise ValueError("group method needs a one-object groupoid")
        return coeffs.coeff_group(fincat.aut_group(cat, cat.objects[0]), cat)
    if method == "groupoid":
        return coeffs.coeff_groupoid(cat)
    if method == "ei":
        return coeffs.coeff_EI(cat)
    if method == "desouza":
        return coeffs.coeff_EI_desouza(cat)
    if method.startswith("table:"):
        table = method.split(":", 1)[1]
        fn = {"coproduct": coeffs.coeff_coproduct,
              "initial": coeffs.coeff_initial,
              "idempotent": coeffs.coeff_idempotent,
              "cofiber": coeffs.coeff_cofiber,
              "pushout": coeffs.coeff_pushout}.get(table)
        if fn is None:
            raise ValueError("unknown table %r" % (table,))
        return fn(cat)
    raise ValueError("unknown method %r" % (method,))


def cmd_coeffs(args):
    cat = load_category(args.category)
    if args.method == "leinster":
        w = coeffs.leinster_weighting(cat)
        if isinstance(w, coeffs.NoWeighting):
            emit(args, {"weighting": None,
                        "certificate": [str(x) for x in w.certificate]},
                 ["no weighting; certificate: "
                  + " ".join(str(x) for x in w.certificate)])
            return 1
        payload = {str(o): str(w[o]) for o in cat.objects}
        emit(args, payload, ["%s: %s" % (o, w[o]) for o in cat.objects])
        return 0
    cv = _coeff_by_method(args.method, cat)
    payload = serialize.coeffs_to_json(cv)
    emit(args, payload, ["%s: %s" % (k, v) for k, v in payload.items()])
    return 0


def _pick_pipeline(cat, method):
    if method != "auto":
        return method
    if fincat.is_strictly_homotopy_finite(cat):
        return "hofin"
    if fincat.is_groupoid(cat):
        return "groupoid"
    if fincat.is_EI(cat):
        return "ei"
    raise ValueError("no homotopy colimit pipeline applies to this category")


def _hocolim(cat, dia, endo, method):
    method = _pick_pipeline(cat, method)
    if method == "hofin":
        res = diagrams.hocolim_hofin(dia)
        return res.complex, res.induce(endo), method
    if method == "groupoid":
        total, induced, _parts = diagrams.hocolim_groupoid(dia, endo)
        return total, induced, method
    if method == "ei":
        total, induced = diagrams.hocolim_EI(dia, endo)
        return total, induced, method
    raise ValueError("unknown method %r" % (method,))


def cmd_hocolim(args):
    cat, dia, _endo = _category_and_diagram(args)
    total, _induced, method = _hocolim(cat, dia, diagrams.identity_endo(dia),
                                       args.method)
    payload = {"method": method, "complex": serialize.complex_to_json(total)}
    emit(args, payload,
         ["method: %s" % method,
          "degrees: %s" % ({n: total.dim(n) for n in total.degrees()},)])
    return 0


def cmd_trace(args):
    cat, dia, endo = _category_and_diagram(args)
    if endo is None:
        endo = diagrams.identity_endo(dia)
    _total, induced, method = _hocolim(cat, dia, endo, args.method)
    val = lefschetz(induced)
    emit(args, {"method": method, "trace": str(val)},
         ["method: %s" % method, "trace: %s" % val])
    return 0


def cmd_bicat_trace(args):
    cat, dia, endo = _category_and_diagram(args)
    vd = _degree_zero_vect(dia)
    if vd is None:
        print("bicat-trace needs a degree-zero diagram", file=sys.stderr)
        return 2
    prof = profcalc.prof_from_diagram(vd)
    w = profcalc.dual_of_pointwise(prof)
    if endo is None:
        f = {a: SparseMat.identity(vd.dim(a)) for a in cat.objects}
    else:
        f = {a: endo.at(a).sparse_mat(0) for a in cat.objects}
    got = profcalc.bicat_trace(w, f)
    payload = {str(k): str(v) for k, v in got.items()}
    emit(args, payload, ["%s: %s" % (k, v) for k, v in payload.items()])
    return 0


def _degree_zero_vect(dia):
    cat = dia.base
    dims = {}
    mats = {}
    for o in cat.objects:
        c = dia.cx(o)
        if any(n != 0 for n in c.dims):
            return None
        dims[o] = c.dim(0)
    for a in cat.arrows:
        mats[a] = dia.map(a).sparse_mat(0)
    return diagrams.VectDiagram(cat, dims, mats, check=False)


def cmd_verify(args):
    names = list(harness.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    t0 = time.time()
    reports = []
    for name in names:
        report = harness.run_suite(name, seed=args.seed, cases=args.cases)
        reports.append(report)
        status = "pass" if report.all_pass else "FAIL"
        if args.format == "text":
            print("suite %-10s %4d cases  %s  (%.1fs)"
                  % (name, len(report.cases), status, report.elapsed))
            for c in report.failures():
                print("  FAIL %s: %s != %s" % (c.case_id, c.lhs, c.rhs))
                if c.note:
                    print("    %s" % c.note)
        all_ok = all_ok and report.all_pass
    if args.format == "json":
        print(json.dumps({"reports": [r.to_json() for r in reports],
                          "all_pass": all_ok}, indent=2, sort_keys=True))
    else:
        print("total %.1fs: %s" % (time.time() - t0,
                                   "all-pass" if all_ok else "FAILURES"))
    if not all_ok:
        _write_failure_artifacts(reports, args)
        return 1
    return 0


def _write_failure_artifacts(reports, args):
    outdir = Path(args.artifacts)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"seed": args.seed,
               "failures": [c.to_json() for r in reports
                            for c in r.failures()]}
    path = outdir / ("failures-seed%d.json" % args.seed)
    serialize.dump_json(path, payload)
    print("witnesses written to %s" % path, file=sys.stderr)


def cmd_gen(args):
    if args.family == "hofin":
        cat = harness.gen_hofin_category(args.seed, args.max_objects,
                                         args.max_edges)
        relabeled, _omap, _amap = serialize.relabel(cat)
        print(json.dumps(serialize.cat_to_json(relabeled), indent=2,
                         sort_keys=True))
        return 0
    if args.family == "chain":
        cat = harness.gen_hofin_category(args.seed, args.max_objects,
                                         args.max_edges)
        dia, endo = harness.gen_chain_diagram(args.seed, cat)
        relabeled, omap, amap = serialize.relabel(cat)
        rd = diagrams.ChainDiagram(
            relabeled, {omap[o]: dia.cx(o) for o in cat.objects},
            {amap[a]: dia.map(a) for a in cat.arrows}, check=False)
        re = diagrams.NatEndo(rd, {omap[o]: endo.at(o) for o in cat.objects},
                              check=False)
        print(json.dumps(serialize.diagram_to_json(rd, re), indent=2,
                         sort_keys=True))
        return 0
    print("unknown family %r" % (args.family,), file=sys.stderr)
    return 2


def _int_at_least(lo, text):
    n = int(text)
    if n < lo:
        raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                         % (lo, n))
    return n


def positive_int(text):
    """argparse type: an integer of at least 1."""
    return _int_at_least(1, text)


def nonnegative_int(text):
    """argparse type: an integer of at least 0."""
    return _int_at_least(0, text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tracelin",
        description="exact trace computations for diagrams over finite "
                    "categories")
    ap.add_argument("--format", choices=["text", "json"], default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the category laws of a file")
    p.add_argument("category")

    p = sub.add_parser("classes", help="conjugacy classes of a category")
    p.add_argument("category")

    p = sub.add_parser("coeffs", help="coefficient vector of a shape")
    p.add_argument("--method", required=True,
                   help="hofin|group|groupoid|ei|desouza|leinster|table:<name>")
    p.add_argument("category")

    p = sub.add_parser("hocolim", help="homotopy colimit of a diagram")
    p.add_argument("--method", default="auto",
                   choices=["auto", "hofin", "groupoid", "ei"])
    p.add_argument("category")
    p.add_argument("diagram")

    p = sub.add_parser("trace", help="trace of the endo on the homotopy colimit")
    p.add_argument("--method", default="auto",
                   choices=["auto", "hofin", "groupoid", "ei"])
    p.add_argument("category")
    p.add_argument("diagram")

    p = sub.add_parser("bicat-trace",
                       help="componentwise trace through the module calculus")
    p.add_argument("category")
    p.add_argument("diagram")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(harness.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=positive_int, default=None)
    p.add_argument("--artifacts", default="tracelin-failures")

    p = sub.add_parser("gen", help="generate a seeded category or diagram")
    p.add_argument("--family", required=True, help="hofin|chain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-objects", type=positive_int, default=5)
    p.add_argument("--max-edges", type=nonnegative_int, default=8)
    return ap


# read on every call, so a command rebound after the parser was built
# (perfbench/tracing.py wraps them) is the one that runs
COMMANDS = {"validate": cmd_validate, "classes": cmd_classes,
            "coeffs": cmd_coeffs, "hocolim": cmd_hocolim, "trace": cmd_trace,
            "bicat-trace": cmd_bicat_trace, "verify": cmd_verify,
            "gen": cmd_gen}


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused: parsing
    keeps no state on it, and it prints help and usage to the streams
    current at the time of the call."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
