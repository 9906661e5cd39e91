"""Spans around the public functions of every tracelin layer.

``install`` replaces each public function of the eight layer modules, in
every module namespace and module-level dict that binds it, with a
wrapper that records a span (name, start, end, parent, probe data) while
the tracer is active.  The modules bind the exactalg names they use with
``from .exactalg import ...``, so wrapping only ``exactalg`` would miss
those calls.  The methods in ``METHODS`` are wrapped on their classes.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
figures and ``write_spans`` dumps them once the run is over.
"""

import importlib
import inspect
import json
from time import perf_counter

import oracles

LAYERS = ("exactalg", "fincat", "profcalc", "diagrams", "coeffs",
          "serialize", "harness", "cli")

# Methods that do work proportional to their data; accessors such as
# ChainComplex.dim are left bare, since a span costs more than they do.
METHODS = {
    "exactalg": {
        "Mat": ("__matmul__", "__add__", "__sub__", "__neg__", "__eq__",
                "smul", "transpose", "is_zero", "is_identity", "zeros",
                "identity", "from_cols"),
        "ChainComplex": ("violations", "__eq__"),
        "ChainMap": ("violations", "compose", "__add__", "smul", "__eq__"),
    },
    "fincat": {
        "FinCat": ("__init__", "generating_arrows"),
        "FinGroup": ("__init__", "violations"),
        "Functor": ("violations",),
    },
    "diagrams": {
        "VectDiagram": ("violations",),
        "ChainDiagram": ("violations",),
        "FinSetDiagram": ("violations",),
        "NatEndo": ("violations",),
        "HocolimResult": ("induce",),
        "ColimResult": ("cocone",),
    },
    "profcalc": {
        "Profunctor": ("violations",),
        "ShadowSpace": ("include",),
    },
    "coeffs": {
        "CoeffVector": ("__init__",),
        "Weighting": ("violations",),
    },
}

ELIM = ("exactalg.kernel_basis", "exactalg.cokernel", "exactalg.image_basis",
        "exactalg.rank", "exactalg.solve_linear")
HOCOLIMS = ("diagrams.hocolim_hofin", "diagrams.hocolim_EI",
            "diagrams.hocolim_groupoid")
PARSERS = tuple("serialize." + f for f in (
    "load_json", "cat_from_json", "diagram_from_json", "complex_from_json",
    "chain_map_from_json", "mat_from_json", "frac_from"))
CONSTRUCTORS = tuple("fincat." + f for f in (
    "delta_prime_op", "free_category_on_dag", "cyclic_group",
    "symmetric_group", "subgroup", "direct_product_group",
    "category_from_group_hom", "bg_category", "connected_groupoid",
    "disjoint_union", "parallel_arrows", "orbit_category", "opposite",
    "product"))
SUITES = ("linearity", "component", "burnside", "ei", "realiz", "sets",
          "leinster")


# ---------------------------------------------------------------------------
# probes: counts taken at the boundary, outside the span's own interval

def _nonzeros(m):
    return sum(1 for row in m.data for x in row if x)


def _pre_matmul(args, kwargs):
    a, b = args[0], args[1]
    return (a.rows * a.cols * b.cols, _nonzeros(a) + _nonzeros(b),
            a.rows * a.cols + b.rows * b.cols)


def _pre_shape(args, kwargs):
    m = args[0]
    return (m.rows, m.cols)


def _pre_solve(args, kwargs):
    a, b = args[0], args[1]
    return (a.rows, a.cols + b.cols)


def _pre_unknowns(args, kwargs):
    x = args[0]
    if hasattr(x, "dims") and not hasattr(x, "cx"):
        return sum(d * d for d in x.dims.values())
    return sum(x.cx(o).dim(n) ** 2 for o in x.base.objects
               for n in x.cx(o).dims)


def _pre_first(args, kwargs):
    return args[0]


def _post_kron(result):
    return result.rows * result.cols


def _post_lambda(result):
    return len(result[0].compose)


def _post_strings(result):
    return sum(len(level) for level in result)


def _post_gens(result):
    return len(result)


def _post_hocolim(result):
    if isinstance(result, tuple):
        result = result[0]
    return getattr(result, "complex", result).total_dim()


PRE = {
    "exactalg.Mat.__matmul__": _pre_matmul,
    "exactalg.kernel_basis": _pre_shape,
    "exactalg.cokernel": _pre_shape,
    "exactalg.image_basis": _pre_shape,
    "exactalg.rank": _pre_shape,
    "exactalg.solve_linear": _pre_solve,
    "diagrams.nat_endo_basis": _pre_unknowns,
    "profcalc.unit_shadow": _pre_first,
    "fincat.FinCat.generating_arrows": _pre_first,
}
POST = {
    "exactalg.kron": _post_kron,
    "fincat.lambda_cat": _post_lambda,
    "fincat.enumerate_strings": _post_strings,
    "fincat.FinCat.generating_arrows": _post_gens,
    "diagrams.hocolim_hofin": _post_hocolim,
    "diagrams.hocolim_EI": _post_hocolim,
    "diagrams.hocolim_groupoid": _post_hocolim,
}


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans = []      # [name, start, end, parent index, pre, post]
        self._stack = []

    def wrap(self, name, fn):
        pre = PRE.get(name)
        post = POST.get(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    pre(args, kwargs) if pre else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if post is not None:
                span[5] = post(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced


def install(tracer):
    """Wrap every binding of the layers' public functions and METHODS."""
    mods = {name: importlib.import_module("tracelin." + name)
            for name in LAYERS}
    wrapped = {}
    for lname, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap("%s.%s" % (lname, attr), obj)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif type(obj) is dict:
                for key, val in obj.items():
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]
    for lname, classes in METHODS.items():
        for cname, meths in classes.items():
            cls = getattr(mods[lname], cname)
            for meth in meths:
                raw = cls.__dict__[meth]
                name = "%s.%s.%s" % (lname, cname, meth)
                if isinstance(raw, staticmethod):
                    setattr(cls, meth,
                            staticmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(name, raw))


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

def _families():
    fam = {"matmul": ("exactalg.Mat.__matmul__",),
           "kron": ("exactalg.kron",),
           "elim": ELIM,
           "factor_through": ("exactalg.factor_through",),
           "bicat_trace": ("profcalc.bicat_trace",),
           "unit_shadow": ("profcalc.unit_shadow",),
           "lambda_cat": ("fincat.lambda_cat",),
           "generating_arrows": ("fincat.FinCat.generating_arrows",),
           "conjugacy_classes": ("fincat.conjugacy_classes",),
           "enumerate_strings": ("fincat.enumerate_strings",),
           "constructors": CONSTRUCTORS,
           "nat_endo_basis": ("diagrams.nat_endo_basis",),
           "chain_map_space": ("diagrams.chain_map_space",),
           "hocolim": HOCOLIMS,
           "induce": ("diagrams.HocolimResult.induce",),
           "linearize": ("diagrams.linearize",),
           "parse": PARSERS,
           "cli.main": ("cli.main",)}
    for h in HOCOLIMS:
        fam[h.split(".")[1]] = (h,)
    for c in ("coeff_EI", "coeff_EI_desouza", "coeff_hofin", "coeff_group"):
        fam[c] = ("coeffs." + c,)
    for s in SUITES:
        fam["suite." + s] = ("harness.suite_" + s,)
    return fam


def layer_metrics(spans):
    """Per-layer figures from the recorded spans.

    ``<family>`` times are inclusive times of the outermost span of the
    family, so recursion and nesting are counted once; ``self_s`` is each
    span's duration minus its children's, summed per layer.
    """
    fams = _families()
    bit = {f: 1 << i for i, f in enumerate(fams)}
    own_by_name = {}
    n = len(spans)
    inherited = [0] * n
    child_time = [0.0] * n
    own = [0] * n
    for i, (name, start, end, parent, _pre, _post) in enumerate(spans):
        mask = own_by_name.get(name)
        if mask is None:
            mask = 0
            for f, names in fams.items():
                if name in names:
                    mask |= bit[f]
            own_by_name[name] = mask
        own[i] = mask
        if parent >= 0:
            inherited[i] = inherited[parent] | own[parent]
            child_time[parent] += end - start

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {f: 0 for f in fams}
    secs = {f: 0.0 for f in fams}
    extra = {"mults": 0, "nz": 0, "entries": 0, "kron_entries": 0,
             "elim_cells": 0, "coend_dim": 0, "coend_rel": 0,
             "lambda_table": 0, "strings": 0, "unknowns": 0,
             "hocolim_dim": 0}
    shadow_cats = {}
    gens_of = {}
    for i, (name, start, end, parent, pre, post) in enumerate(spans):
        dur = end - start
        self_s[name.split(".", 1)[0]] += dur - child_time[i]
        mask = own[i]
        if not mask:
            continue
        outer = mask & ~inherited[i]
        for f, b in bit.items():
            if outer & b:
                calls[f] += 1
                secs[f] += dur
        if name == "exactalg.Mat.__matmul__":
            extra["mults"] += pre[0]
            extra["nz"] += pre[1]
            extra["entries"] += pre[2]
        elif name == "exactalg.kron":
            extra["kron_entries"] += post
        elif name in ELIM:
            if outer & bit["elim"]:
                extra["elim_cells"] += pre[0] * pre[1]
            if (name == "exactalg.cokernel" and parent >= 0
                    and spans[parent][0].startswith("profcalc.")):
                extra["coend_dim"] += pre[0]
                extra["coend_rel"] += pre[1]
        elif name == "fincat.lambda_cat":
            extra["lambda_table"] += post
        elif name == "fincat.enumerate_strings":
            extra["strings"] += post
        elif name == "diagrams.nat_endo_basis":
            extra["unknowns"] += pre
        elif name in HOCOLIMS and outer & bit["hocolim"]:
            extra["hocolim_dim"] += post
        elif name == "profcalc.unit_shadow":
            shadow_cats[id(pre)] = pre
        elif name == "fincat.FinCat.generating_arrows":
            gens_of[id(pre)] = (pre, post)

    gens = indec = 0
    for cat, n_gens in gens_of.values():
        k = oracles.indecomposable_count(
            {"arrows": cat.arrows, "src": cat.src, "dst": cat.dst,
             "compose": cat.compose, "identities": cat.identities})
        if k:
            gens += n_gens
            indec += k

    m = {}
    for layer in LAYERS[:6]:
        m[layer + ".self_s"] = self_s[layer]
    m.update({
        "exactalg.matmul.calls": calls["matmul"],
        "exactalg.matmul.s": secs["matmul"],
        "exactalg.matmul.mults": extra["mults"],
        "exactalg.matmul.density": (extra["nz"] / extra["entries"]
                                    if extra["entries"] else 0.0),
        "exactalg.kron.calls": calls["kron"],
        "exactalg.kron.s": secs["kron"],
        "exactalg.kron.entries": extra["kron_entries"],
        "exactalg.elim.calls": calls["elim"],
        "exactalg.elim.s": secs["elim"],
        "exactalg.elim.cells": extra["elim_cells"],
        "exactalg.factor_through.calls": calls["factor_through"],
        "exactalg.factor_through.s": secs["factor_through"],
        "profcalc.bicat_trace.calls": calls["bicat_trace"],
        "profcalc.bicat_trace.s": secs["bicat_trace"],
        "profcalc.unit_shadow.calls": calls["unit_shadow"],
        "profcalc.unit_shadow.s": secs["unit_shadow"],
        "profcalc.unit_shadow.repeat_ratio": (
            calls["unit_shadow"] / len(shadow_cats) if shadow_cats else 0.0),
        "profcalc.coend.dim": extra["coend_dim"],
        "profcalc.coend.relations": extra["coend_rel"],
        "fincat.lambda_cat.calls": calls["lambda_cat"],
        "fincat.lambda_cat.s": secs["lambda_cat"],
        "fincat.lambda_cat.table": extra["lambda_table"],
        "fincat.generating_arrows.s": secs["generating_arrows"],
        "fincat.gens_ratio": gens / indec if indec else 0.0,
        "fincat.conjugacy_classes.s": secs["conjugacy_classes"],
        "fincat.enumerate_strings.s": secs["enumerate_strings"],
        "fincat.enumerate_strings.strings": extra["strings"],
        "fincat.constructors.s": secs["constructors"],
        "diagrams.nat_endo_basis.calls": calls["nat_endo_basis"],
        "diagrams.nat_endo_basis.s": secs["nat_endo_basis"],
        "diagrams.nat_endo_basis.unknowns": extra["unknowns"],
        "diagrams.chain_map_space.s": secs["chain_map_space"],
        "diagrams.hocolim_hofin.s": secs["hocolim_hofin"],
        "diagrams.hocolim_EI.s": secs["hocolim_EI"],
        "diagrams.hocolim_groupoid.s": secs["hocolim_groupoid"],
        "diagrams.induce.s": secs["induce"],
        "diagrams.linearize.s": secs["linearize"],
        "diagrams.hocolim.total_dim": extra["hocolim_dim"],
        "coeffs.coeff_EI.s": secs["coeff_EI"],
        "coeffs.coeff_EI_desouza.s": secs["coeff_EI_desouza"],
        "coeffs.coeff_hofin.s": secs["coeff_hofin"],
        "coeffs.coeff_group.s": secs["coeff_group"],
        "serialize.parse.calls": calls["parse"],
        "serialize.parse.s": secs["parse"],
        "cli.main.calls": calls["cli.main"],
    })
    for s in SUITES:
        m["harness.suite.%s.s" % s] = secs["suite." + s]
    return m, sum(self_s.values())


def write_spans(spans, path):
    """One JSON object per span: name, start, end, parent index."""
    with open(path, "w") as fh:
        for name, start, end, parent, _pre, _post in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent}))
            fh.write("\n")
