"""JSON file formats for categories, diagrams, and coefficient vectors.

Rationals travel as strings like "3" or "-1/2"; matrices as row-major
arrays; complexes as {"degrees": {n: dim}, "d": {n: matrix}}.  Unknown
fields are rejected so that format drift fails loudly.
"""

import json
from fractions import Fraction

from . import diagrams, fincat
from .exactalg import ChainComplex, ChainMap, Mat


def frac_from(v):
    """A rational from JSON: an int (not a bool) or a string like "-1/2"."""
    if type(v) is int:
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            pass
    # a string keeps its quotes; other values are shown as JSON writes them
    raise ValueError("bad rational %s" % (repr(v) if isinstance(v, str)
                                          else json.dumps(v, default=repr)))


def _dim_from(v, what, degree):
    """A dimension read from JSON: a nonnegative int, not a bool."""
    if type(v) is not int or v < 0:
        raise ValueError("%s has dimension %s in degree %s, expected a "
                         "nonnegative integer" % (what, json.dumps(v), degree))
    return v


def frac_str(x):
    return str(x)


def mat_to_json(m):
    return [[frac_str(x) for x in row] for row in m.data]


def mat_from_json(rows, nrows, ncols):
    """Matrix from row-major JSON; a ValueError unless it is nrows x ncols."""
    if not (isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)):
        raise ValueError("matrix must be a list of rows")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows have lengths %s, expected %d x %d"
                         % ([len(row) for row in rows], nrows, ncols))
    shape = (len(rows), len(rows[0]) if rows else ncols)
    if shape != (nrows, ncols):
        raise ValueError("matrix is %d x %d, expected %d x %d"
                         % (shape + (nrows, ncols)))
    return Mat([[frac_from(x) for x in row] for row in rows], nrows, ncols)


def _check_fields(obj, required, what, optional=()):
    """Raise ValueError unless obj is a JSON object with every required
    field and no field outside required and optional."""
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % what)
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError("missing fields in %s: %s" % (what, missing))
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise ValueError("unknown fields in %s: %s" % (what, sorted(extra)))


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}


def _check_type(value, kind, field, *args):
    """Raise ValueError, naming the category field ``field % args``, unless
    value has the JSON type of ``kind`` (dict, list or str)."""
    if not isinstance(value, kind):
        raise ValueError("category field %s must be %s, not %s"
                         % (field % args, _JSON_TYPES[kind],
                            _JSON_TYPES.get(type(value), type(value).__name__)))


def _entry(obj, field, key):
    """obj[field][str(key)] of a diagram, or a ValueError naming it."""
    table = obj.get(field, {})
    if not isinstance(table, dict) or str(key) not in table:
        raise ValueError("diagram %s has no entry for %r" % (field, key))
    return table[str(key)]


def cat_to_json(cat):
    return {
        "objects": [str(o) for o in cat.objects],
        "arrows": [{"id": str(a), "src": str(cat.src[a]),
                    "dst": str(cat.dst[a])} for a in cat.arrows],
        "identities": {str(o): str(cat.idarr(o)) for o in cat.objects},
        "compose": [{"f": str(f), "g": str(g), "gf": str(h)}
                    for (f, g), h in sorted(cat.compose.items(),
                                            key=lambda kv: (str(kv[0])))],
    }


def cat_from_json(obj, name=None, check=True):
    """The category of a JSON object.  With ``check``, a table with a
    missing identity, an unknown endpoint or a missing or misplaced
    composite is a ValueError naming the first such violation."""
    _check_fields(obj, ["objects", "arrows", "identities", "compose"],
                  "category")
    _check_type(obj["objects"], list, "objects")
    for i, o in enumerate(obj["objects"]):
        _check_type(o, str, "objects[%d]", i)
    _check_type(obj["arrows"], list, "arrows")
    arrows = []
    for i, a in enumerate(obj["arrows"]):
        _check_fields(a, ["id", "src", "dst"], "arrow")
        for k in ("id", "src", "dst"):
            _check_type(a[k], str, "arrows[%d].%s", i, k)
        arrows.append((a["id"], a["src"], a["dst"]))
    _check_type(obj["identities"], dict, "identities")
    for o, a in obj["identities"].items():
        _check_type(a, str, "identities.%s", o)
    _check_type(obj["compose"], list, "compose")
    compose = {}
    for i, c in enumerate(obj["compose"]):
        _check_fields(c, ["f", "g", "gf"], "compose entry")
        for k in ("f", "g", "gf"):
            _check_type(c[k], str, "compose[%d].%s", i, k)
        compose[(c["f"], c["g"])] = c["gf"]
    cat = fincat.FinCat(obj["objects"], arrows, obj["identities"], compose,
                        name=name)
    if check:
        bad = fincat.table_violations(cat)
        if bad:
            raise ValueError("category %s is not a valid table: %s"
                             % (name or "(inline)", bad[0]))
    return cat


def relabel(cat, name=None):
    """Copy of a category with string object/arrow ids, plus the id maps.

    Generated categories use tuple ids internally; serialization needs
    plain strings.
    """
    omap = {o: "o%d" % i for i, o in enumerate(cat.objects)}
    amap = {a: "a%d" % i for i, a in enumerate(cat.arrows)}
    arrows = [(amap[a], omap[cat.src[a]], omap[cat.dst[a]]) for a in cat.arrows]
    identities = {omap[o]: amap[cat.idarr(o)] for o in cat.objects}
    compose = {(amap[f], amap[g]): amap[h] for (f, g), h in cat.compose.items()}
    out = fincat.FinCat([omap[o] for o in cat.objects], arrows, identities,
                        compose, name=name or cat.name)
    return out, omap, amap


def complex_to_json(c):
    return {"degrees": {str(n): c.dim(n) for n in c.degrees()},
            "d": {str(n): mat_to_json(m) for n, m in c.d.items()}}


def complex_from_json(obj, what):
    """The complex of a JSON object; ``what``, such as "object 'a'",
    names it in errors."""
    _check_fields(obj, ["degrees"], "complex", optional=["d"])
    dims = {int(n): _dim_from(d, what, n) for n, d in obj["degrees"].items()}
    d = {}
    for n, rows in obj.get("d", {}).items():
        n = int(n)
        d[n] = mat_from_json(rows, dims.get(n - 1, 0), dims.get(n, 0))
    return ChainComplex(dims, d)


def chain_map_to_json(f):
    return {str(n): mat_to_json(m) for n, m in sorted(f.mats.items())}


def chain_map_from_json(obj, src, dst):
    if not isinstance(obj, dict):
        raise ValueError("chain map must be a JSON object")
    mats = {}
    for n, rows in obj.items():
        n = int(n)
        mats[n] = mat_from_json(rows, dst.dim(n), src.dim(n))
    return ChainMap(src, dst, mats)


def diagram_to_json(dia, endo=None, category=None):
    """Chain diagram (and optional endomorphism) in the diagram format.

    ``category`` may be a corpus name to reference instead of inlining.
    """
    cat = dia.base
    out = {"category": category if category is not None else cat_to_json(cat)}
    out["objects"] = {str(o): complex_to_json(dia.cx(o)) for o in cat.objects}
    out["arrows"] = {str(a): chain_map_to_json(dia.map(a))
                     for a in cat.arrows if not cat.is_id(a)}
    if endo is not None:
        out["endo"] = {str(o): chain_map_to_json(endo.at(o))
                       for o in cat.objects}
    return out


def diagram_from_json(obj, resolve_category):
    """Load a chain diagram; ``resolve_category`` maps a name to a FinCat.

    Integer object values mean a space concentrated in degree zero, and
    plain matrix arrays mean degree-zero maps.
    """
    _check_fields(obj, ["category", "objects"], "diagram",
                  optional=["arrows", "endo"])
    spec = obj["category"]
    cat = resolve_category(spec) if isinstance(spec, str) \
        else cat_from_json(spec)
    complexes = {}
    for o in cat.objects:
        val = _entry(obj, "objects", o)
        what = "object %r" % (o,)
        if isinstance(val, int):
            val = _dim_from(val, what, 0)
            complexes[o] = ChainComplex({0: val} if val else {}, {})
        else:
            complexes[o] = complex_from_json(val, what)
    from .exactalg import identity_chain_map
    arrow_maps = {}
    for a in cat.arrows:
        if cat.is_id(a):
            arrow_maps[a] = identity_chain_map(complexes[cat.src[a]])
            continue
        val = _entry(obj, "arrows", a)
        src, dst = complexes[cat.src[a]], complexes[cat.dst[a]]
        if isinstance(val, list):
            arrow_maps[a] = ChainMap(src, dst,
                                     {0: mat_from_json(val, dst.dim(0),
                                                       src.dim(0))})
        else:
            arrow_maps[a] = chain_map_from_json(val, src, dst)
    dia = diagrams.ChainDiagram(cat, complexes, arrow_maps)
    endo = None
    if "endo" in obj:
        comps = {}
        for o in cat.objects:
            val = _entry(obj, "endo", o)
            c = complexes[o]
            if isinstance(val, list):
                comps[o] = ChainMap(c, c, {0: mat_from_json(val, c.dim(0),
                                                            c.dim(0))})
            else:
                comps[o] = chain_map_from_json(val, c, c)
        endo = diagrams.NatEndo(dia, comps)
    return dia, endo


def coeffs_to_json(cv):
    return {str(rep): frac_str(v) for rep, v in cv.items()}


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
