"""The four benchmark workloads.

Each workload has ``setup(seed, outdir)``, which loads or builds what every
round shares, and ``round_ops(state, r)``, which builds the inputs of round
``r`` and returns its ops.  A round is the same list of op kinds every
time; only the seeded contents differ.  An op's ``run(clock)`` passes each
library call that makes the result under test through ``clock``, which
times it; input building between those calls and the op's ``check`` run
outside the clock.  Checks compare with ``oracles`` or with a property the
paper's identity requires, never with stored output.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles
from tracelin import (cli, coeffs, diagrams, exactalg, fincat, harness,
                      profcalc, serialize)

DATA = Path(harness.__file__).resolve().parent / "data"


class Clock:
    """Total time of the library calls made through it; switches the
    tracer on only inside those calls."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0

    def __call__(self, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.elapsed += perf_counter() - t0
            if tracer is not None:
                tracer.active = False


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def round_rng(name, seed, r, *extra):
    return random.Random(":".join(str(p) for p in (name, seed, r) + extra))


def table_of(cat):
    return {"objects": cat.objects, "arrows": cat.arrows, "src": cat.src,
            "dst": cat.dst, "compose": cat.compose,
            "identities": cat.identities}


def load_corpus_cat(name):
    path = DATA / (name + ".json")
    return serialize.cat_from_json(serialize.load_json(path), name=name)


def to_mat(rows, nrows, ncols):
    return exactalg.Mat([[Fraction(x) for x in row] for row in rows],
                        nrows, ncols, coerce=False)


def random_yoneda_coefs(rng, table, summands, same_block=None):
    """Seeded coefficients for every arrow between summand objects; pairs
    rejected by ``same_block`` stay zero."""
    coefs = {}
    for j, aj in enumerate(summands):
        for i, ai in enumerate(summands):
            if same_block is not None and not same_block(i, j):
                continue
            coefs[(j, i)] = {h: rng.randint(-1, 1)
                             for h in oracles.hom(table, aj, ai)}
    return coefs


# ---------------------------------------------------------------------------
# chain diagrams: sums of representables placed in degree 0, in degree 1,
# or as a disk (degrees 1 and 0 joined by the identity)

class ChainSum:
    """A sum of representables as plain matrices, split by degree."""

    def __init__(self, table, summands):
        self.table = table
        self.summands = summands
        objs = [a for a, _ in summands]
        self.objs = objs
        self.basis = oracles.representable_basis(table, objs)
        full = oracles.representable_matrices(table, self.basis)
        self.pos = {}
        for c in table["objects"]:
            per = {}
            for k, (i, _u) in enumerate(self.basis[c]):
                kind = summands[i][1]
                for d in ((1, 0) if kind == "disk" else (kind,)):
                    per.setdefault(d, []).append(k)
            self.pos[c] = per
        self.mats = {g: self.restrict(full[g], table["dst"][g],
                                      table["src"][g])
                     for g in table["arrows"]}

    def restrict(self, m, row_obj, col_obj):
        """Per-degree blocks of a matrix on the full bases."""
        out = {}
        rp, cp = self.pos[row_obj], self.pos[col_obj]
        for d in set(rp) | set(cp):
            rows, cols = rp.get(d, []), cp.get(d, [])
            out[d] = [[m[r][c] for c in cols] for r in rows]
        return out

    def differential(self, c):
        """d_1 of the complex at c: a disk's degree-1 copy maps onto its
        degree-0 copy."""
        p1, p0 = self.pos[c].get(1, []), self.pos[c].get(0, [])
        at0 = {k: row for row, k in enumerate(p0)}
        m = [[0] * len(p1) for _ in p0]
        for col, k in enumerate(p1):
            if self.summands[self.basis[c][k][0]][1] == "disk":
                m[at0[k]][col] = 1
        return m

    def euler(self):
        """Lefschetz number of the identity on the homotopy colimit:
        each representable contributes (-1)^degree, each disk 0."""
        return sum((-1) ** kind for _a, kind in self.summands
                   if kind != "disk")

    def lefschetz(self, f, g):
        """L(f o X_g) for per-degree endo blocks f at the source of g."""
        total = Fraction(0)
        for d, xg in self.mats[g].items():
            if xg:
                total += (-1) ** d * oracles.trace(oracles.matmul(f[d], xg))
        return total

    def library_diagram(self, cat):
        cxs = {}
        for c in cat.objects:
            dims = {d: len(v) for d, v in self.pos[c].items()}
            d1 = self.differential(c)
            dd = {1: to_mat(d1, dims.get(0, 0), dims.get(1, 0))} \
                if dims.get(1) and dims.get(0) else {}
            cxs[c] = exactalg.ChainComplex(dims, dd, check=False)
        maps = {}
        for g in cat.arrows:
            s, t = cat.src[g], cat.dst[g]
            maps[g] = exactalg.ChainMap(
                cxs[s], cxs[t],
                {d: to_mat(m, cxs[t].dim(d), cxs[s].dim(d))
                 for d, m in self.mats[g].items()}, check=False)
        return diagrams.ChainDiagram(cat, cxs, maps, check=False)

    def yoneda_blocks(self, coefs):
        """Per-object, per-degree blocks of a Yoneda endomorphism."""
        full = oracles.yoneda_endo(self.table, self.objs, self.basis, coefs)
        return {c: self.restrict(full[c], c, c) for c in full}


# ---------------------------------------------------------------------------
# component: profcalc.bicat_trace against direct traces

COMPONENT_SLOTS = (
    # (corpus shape, representable summands, endomorphism); by cost, five
    # cheap slots, the three orbit_S3 slots in the middle, three dearer
    # ones and the two 12-dimensional BS3 slots on top
    ("orbit_S3", ("o0", "o1", "o1", "o2"), "seeded"),
    ("orbit_S3", ("o0", "o1", "o1", "o2"), "seeded"),
    ("delta2op", ("o2", "o2", "o1"), "seeded"),
    ("delta3op", ("o3",), "identity"),
    ("delta3op", ("o3", "o1"), "seeded"),
    ("BS3", ("x",), "identity"),
    ("BS3", ("x", "x"), "seeded"),
    ("BS3", ("x", "x"), "seeded"),
    ("orbit_S3", ("o0", "o1", "o1", "o2"), "seeded"),
    ("hom_C3_C3_id", ("o0", "o0"), "seeded"),
    ("gpd_conn_C2", ("o0", "o1", "o0"), "seeded"),
    ("orbit_C4", ("o0", "o0", "o1"), "seeded"),
    ("BC4", ("x", "x"), "seeded"),
)


def component_setup(seed, outdir):
    shapes = {}
    for name in sorted({s for s, _, _ in COMPONENT_SLOTS}):
        cat = load_corpus_cat(name)
        table = table_of(cat)
        shapes[name] = (cat, table, oracles.category_class_count(table))
    slots = []
    for name, summands, endo in COMPONENT_SLOTS:
        cat, table, n_classes = shapes[name]
        basis = oracles.representable_basis(table, summands)
        xs = oracles.representable_matrices(table, basis)
        dims = {c: len(basis[c]) for c in cat.objects}
        vd = diagrams.VectDiagram(
            cat, dims, {g: to_mat(xs[g], dims[cat.dst[g]], dims[cat.src[g]])
                        for g in cat.arrows}, check=False)
        slots.append({"name": name, "cat": cat, "table": table,
                      "summands": summands, "basis": basis, "xs": xs,
                      "dims": dims, "vd": vd, "endo": endo,
                      "n_classes": n_classes})
    return {"seed": seed, "slots": slots}


def _component_op(slot, rng):
    cat, table, dims = slot["cat"], slot["table"], slot["dims"]
    if slot["endo"] == "identity":
        f = {c: oracles.identity(dims[c]) for c in cat.objects}
    else:
        coefs = random_yoneda_coefs(rng, table, slot["summands"])
        f = oracles.yoneda_endo(table, slot["summands"], slot["basis"], coefs)
    fmats = {c: to_mat(f[c], dims[c], dims[c]) for c in cat.objects}

    def run(clock):
        prof = clock(profcalc.prof_from_diagram, slot["vd"])
        w = clock(profcalc.dual_of_pointwise, prof)
        return clock(profcalc.bicat_trace, w, fmats)

    def check(got):
        if len(got) != slot["n_classes"]:
            return False
        for rep, val in got.items():
            a = cat.src[rep]
            if val != oracles.trace(oracles.matmul(f[a], slot["xs"][rep])):
                return False
            if (slot["endo"] == "identity"
                    and val != oracles.fixed_points(table, slot["summands"],
                                                    rep)):
                return False
        return True

    return Op("component:" + slot["name"], run, check)


def component_round(state, r):
    return [_component_op(slot, round_rng("component", state["seed"], r, k))
            for k, slot in enumerate(state["slots"])]


# ---------------------------------------------------------------------------
# hocolim: nat_endo_basis, the homotopy colimit and its Lefschetz number

HOCOLIM_SLOTS = (
    # (shape, summands as (object, degree or "disk"), endomorphism, method);
    # by cost: nine cheap EI and groupoid slots, the three orbit_S3 slots
    # in the middle (identity endomorphisms, so their cost, and with it the
    # median, does not move with the seed), six dearer slots and the three
    # delta4 slots on top
    ("gpd_conn_C2", (("o0", 0), ("o1", 1)), "seeded", "groupoid"),
    ("gpd_conn_C2", (("o0", 1), ("o1", 1)), "identity", "groupoid"),
    ("gpd_C2_C3", (("o0", 0), ("o1", 1), ("o1", 0)), "seeded", "groupoid"),
    ("BC4", (("x", 0), ("x", 1)), "seeded", "groupoid"),
    ("hom_C3_C3_id", (("o0", 1), ("o1", 0)), "seeded", "ei"),
    ("hom_C2_C2_id", (("o0", 0), ("o0", 1), ("o1", 0)), "identity", "ei"),
    ("hom_C2_C2_id", (("o0", 1), ("o1", 1)), "seeded", "ei"),
    ("BS3", (("x", 1),), "seeded", "groupoid"),
    ("orbit_C4", (("o0", 0), ("o1", 1), ("o2", 0)), "seeded", "ei"),
    ("orbit_S3", (("o0", 0), ("o1", 0), ("o2", 1)), "identity", "ei"),
    ("orbit_S3", (("o0", 1), ("o1", 0), ("o2", 0)), "identity", "ei"),
    ("orbit_S3", (("o0", 0), ("o1", 1), ("o2", 0)), "identity", "ei"),
    ("delta3", (("[3]", 0), ("[2]", 1)), "seeded", "hofin"),
    ("delta3", (("[3]", 0), ("[1]", "disk")), "seeded", "hofin"),
    ("delta3", (("[3]", 1), ("[3]", 0)), "identity", "hofin"),
    ("dag", (("v0", 0), ("v1", 1)), "seeded", "hofin"),
    ("dag", (("v0", 1), ("v1", 0)), "seeded", "hofin"),
    ("dag", (("v0", 0), ("v1", 0)), "identity", "hofin"),
    ("delta4", (("[4]", 0),), "seeded", "hofin"),
    ("delta4", (("[4]", 1),), "seeded", "hofin"),
    ("delta4", (("[3]", 0), ("[4]", 1)), "seeded", "hofin"),
)
DAG_POOL = 8          # seeded DAG shapes per run; round r uses a rotation
DAG_NODES = 7
DAG_EDGES = 10
DAG_STRINGS = (100, 220)
DAG_UNKNOWNS = (220, 320)


def _dag_profile(nodes, edges):
    """(composable strings of nonidentity arrows in the free category,
    sum over objects of dim^2 for the representables at v0 and v1)."""
    paths = {v: {w: 0 for w in nodes} for v in nodes}
    for v in reversed(nodes):
        paths[v][v] = 1
        for (_e, s, t) in edges:
            if s == v:
                for w in nodes:
                    paths[v][w] += paths[t][w]
    # a string from v is empty, or a nonidentity path v -> w and a string
    # from w
    total = 0
    level = {v: 1 for v in nodes}
    while any(level.values()):
        total += sum(level.values())
        level = {v: sum(paths[v][w] * level[w] for w in nodes if w != v)
                 for v in nodes}
    unknowns = sum((paths["v0"][w] + paths["v1"][w]) ** 2 for w in nodes)
    return total, unknowns


def seeded_dag(rng):
    """Seeded acyclic graph on DAG_NODES nodes whose string count and
    natural-endomorphism unknowns fall in the DAG_* bands, so that the
    DAG ops of different seeds cost about the same."""
    nodes = ["v%d" % i for i in range(DAG_NODES)]
    while True:
        edges = []
        for k in range(DAG_EDGES):
            i = rng.randrange(0, DAG_NODES - 1) if k >= 3 else k % 2
            j = rng.randrange(i + 1, DAG_NODES)
            edges.append(("e%d" % k, nodes[i], nodes[j]))
        strings, unknowns = _dag_profile(nodes, edges)
        if (DAG_STRINGS[0] <= strings <= DAG_STRINGS[1]
                and DAG_UNKNOWNS[0] <= unknowns <= DAG_UNKNOWNS[1]):
            return nodes, edges


def hocolim_setup(seed, outdir):
    shapes = {"delta3": fincat.delta_prime_op(3),
              "delta4": fincat.delta_prime_op(4)}
    rng = round_rng("hocolim-dags", seed, 0)
    dags = []
    for _ in range(DAG_POOL):
        nodes, edges = seeded_dag(rng)
        dags.append(fincat.free_category_on_dag(nodes, edges))
    for name, _, _, _ in HOCOLIM_SLOTS:
        if name not in shapes and name != "dag":
            shapes[name] = load_corpus_cat(name)

    def build(cat, summands):
        cs = ChainSum(table_of(cat), summands)
        return {"cat": cat, "sum": cs, "dia": cs.library_diagram(cat)}

    slots = []
    for name, summands, endo, method in HOCOLIM_SLOTS:
        if name == "dag":
            variants = [build(d, summands) for d in dags]
        else:
            variants = [build(shapes[name], summands)]
        slots.append({"name": name, "variants": variants, "endo": endo,
                      "method": method})
    return {"seed": seed, "slots": slots, "phi": {}}


def _combine(basis, rng):
    coefs = [rng.randint(-1, 1) for _ in basis]
    if not any(coefs):
        coefs[0] = 1
    comps = {}
    for o in basis[0].components:
        acc = None
        for k, b in zip(coefs, basis):
            if k:
                term = b.at(o).smul(k)
                acc = term if acc is None else acc + term
        comps[o] = acc
    return diagrams.NatEndo(basis[0].diagram, comps, check=False)


def _coefficient_side(state, cat, method):
    key = (id(cat), method)
    if key not in state["phi"]:
        fn = {"hofin": coeffs.coeff_hofin, "ei": coeffs.coeff_EI,
              "groupoid": coeffs.coeff_groupoid}[method]
        state["phi"][key] = (cat, fn(cat))
    return state["phi"][key][1]


def _hocolim_op(state, slot, variant, rng):
    cat, cs, dia = variant["cat"], variant["sum"], variant["dia"]
    method = slot["method"]
    identity = slot["endo"] == "identity"

    def run(clock):
        basis = clock(diagrams.nat_endo_basis, dia)
        if identity:
            endo = diagrams.NatEndo(
                dia, {o: exactalg.identity_chain_map(dia.cx(o))
                      for o in cat.objects}, check=False)
        else:
            endo = _combine(basis, rng)
        if method == "hofin":
            res = clock(diagrams.hocolim_hofin, dia)
            induced = clock(res.induce, endo)
        elif method == "ei":
            _res, induced = clock(diagrams.hocolim_EI, dia, endo)
        else:
            _cx, induced, _parts = clock(diagrams.hocolim_groupoid, dia, endo)
        return clock(exactalg.lefschetz, induced), endo, len(basis)

    def check(out):
        value, endo, n_basis = out
        if n_basis < 1:
            return False
        phi = _coefficient_side(state, cat, method)
        rhs = Fraction(0)
        for rep, v in phi.items():
            if v:
                a = cat.src[rep]
                f = {d: endo.at(a).mat(d).data for d in cs.pos[a]}
                rhs += v * cs.lefschetz(f, rep)
        if value != rhs:
            return False
        return not identity or value == cs.euler()

    return Op("hocolim:" + slot["name"], run, check)


def hocolim_round(state, r):
    ops = []
    for k, slot in enumerate(state["slots"]):
        variants = slot["variants"]
        variant = variants[(r + k) % len(variants)]
        ops.append(_hocolim_op(state, slot, variant,
                               round_rng("hocolim", state["seed"], r, k)))
    return ops


# ---------------------------------------------------------------------------
# shapes: build a category, compute one combinatorial invariant

def _table_group(name, elements, mul):
    """FinGroup on 0..n-1 from a multiplication on arbitrary labels, so
    groups of one order cost the same to hash."""
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    table = {(index[a], index[b]): index[mul(a, b)]
             for a in elements for b in elements}
    ident = next(i for i in range(n)
                 if all(table[(i, j)] == j for j in range(n)))
    return fincat.FinGroup(list(range(n)), table, ident, name=name)


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _closure(elements_of, gens, mul, ident):
    els = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in els:
                els.add(y)
                frontier.append(y)
    return sorted(els, key=elements_of.index)


def _quaternion_mul(a, b):
    # elements (sign, unit) with unit in 1, i, j, k
    table = {("1", u): (1, u) for u in "1ijk"}
    table.update({(u, "1"): (1, u) for u in "1ijk"})
    table.update({("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
                  ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"),
                  ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
                  ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"),
                  ("i", "k"): (-1, "j")})
    s, u = table[(a[1], b[1])]
    return (a[0] * b[0] * s, u)


def _product_mul(n1, n2):
    return lambda a, b: ((a[0] + b[0]) % n1, (a[1] + b[1]) % n2)


def _groups(s3, d4):
    """Groups of order at most 8 on integer labels, and homomorphisms
    between some of them as (G, H, phi); s3 and d4 are permutation lists."""
    q8 = [(s, u) for s in (1, -1) for u in "1ijk"]
    c2c4 = [(a, b) for a in range(2) for b in range(4)]
    c2c2 = [(a, b) for a in range(2) for b in range(2)]
    c2c2c2 = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]

    def xor(a, b):
        return tuple(x ^ y for x, y in zip(a, b))

    small = {"C%d" % n: fincat.cyclic_group(n) for n in range(2, 8)}
    small["S3"] = _table_group("S3", s3, _perm_mul)
    small["C2xC2"] = _table_group("C2xC2", c2c2, xor)
    order8 = {"C8": fincat.cyclic_group(8),
              "D4": _table_group("D4", d4, _perm_mul),
              "Q8": _table_group("Q8", q8, _quaternion_mul),
              "C2xC4": _table_group("C2xC4", c2c4, _product_mul(2, 4)),
              "C2xC2xC2": _table_group("C2xC2xC2", c2c2c2, xor)}

    def sign(p):
        return sum(1 for i in range(3) for j in range(i + 1, 3)
                   if p[i] > p[j]) % 2

    homs = [("C6", "C3", {x: x % 3 for x in range(6)}),
            ("C4", "C2", {x: x % 2 for x in range(4)}),
            ("C6", "C2", {x: x % 2 for x in range(6)}),
            ("C5", "C5", {x: 2 * x % 5 for x in range(5)}),
            ("S3", "C2", {i: sign(p) for i, p in enumerate(s3)}),
            ("C2xC2", "C2", {i: p[0] for i, p in enumerate(c2c2)}),
            ("S3", "C3", {i: 0 for i in range(6)})]
    return small, order8, homs


def _perm_group(elements):
    mul = {(p, q): _perm_mul(p, q) for p in elements for q in elements}
    return fincat.FinGroup(elements, mul, tuple(range(len(elements[0]))))


def _subgroups_by_gens(group, gen_lists):
    els = list(group.elements)
    return [fincat.subgroup(group, _closure(els, gens, group.mul,
                                            group.identity))
            for gens in gen_lists]


# subgroup lists for orbit categories, by generators; lists in one tuple
# cost about the same
S4_LISTS = (
    ((), ((1, 0, 2, 3),), ((1, 2, 0, 3),), ((1, 0, 2, 3), (1, 2, 0, 3)),
     ((1, 2, 0, 3), (1, 0, 3, 2))),
    ((), ((1, 0, 3, 2),), ((1, 2, 3, 0),), ((1, 0, 3, 2), (2, 3, 0, 1)),
     ((1, 2, 3, 0), (1, 0, 3, 2))),
    ((), ((1, 0, 2, 3),), ((1, 0, 3, 2),), ((1, 2, 0, 3),),
     ((1, 2, 3, 0),)),
)
D4_LISTS = (
    ((), ((1, 0, 3, 2),), ((1, 2, 3, 0),), ((1, 2, 3, 0), (1, 0, 3, 2))),
    ((), ((2, 3, 0, 1),), ((1, 0, 3, 2), (2, 3, 0, 1)),
     ((1, 2, 3, 0), (1, 0, 3, 2))),
)
SMALL_ORBIT = (
    ("S3", ((), ((1, 0, 2),), ((1, 2, 0),), ((1, 0, 2), (1, 2, 0)))),
    ("C6", ((), (3,), (2,), (1,))),
    ("C4", ((), (2,), (1,))),
)


def shapes_setup(seed, outdir):
    s3 = sorted(itertools.permutations(range(3)))
    s4 = sorted(itertools.permutations(range(4)))
    d4 = _closure(s4, ((1, 2, 3, 0), (1, 0, 3, 2)), _perm_mul, (0, 1, 2, 3))
    small, order8, homs = _groups(s3, d4)
    s4, d4 = _perm_group(s4), _perm_group(d4)
    orbit_groups = {"S4": s4, "D4": d4, "S3": _perm_group(s3),
                    "C6": fincat.cyclic_group(6),
                    "C4": fincat.cyclic_group(4)}
    sub_lists = {
        "S4": [_subgroups_by_gens(s4, lst) for lst in S4_LISTS],
        "D4": [_subgroups_by_gens(d4, lst) for lst in D4_LISTS],
    }
    for gname, lst in SMALL_ORBIT:
        sub_lists[gname] = [_subgroups_by_gens(orbit_groups[gname], lst)]
    # subgroups of the small groups, for seeded G-sets
    gset_subs = {}
    for gname, g in list(small.items()) + list(order8.items()):
        els = list(g.elements)
        gset_subs[gname] = [fincat.subgroup(g, _closure(els, [x], g.mul,
                                                        g.identity))
                            for x in els]
    class_sizes = {gname: sorted(oracles.group_class_sizes(g.elements, g.mul))
                   for gname, g in list(small.items()) + list(order8.items())}
    return {"seed": seed, "small": small, "order8": order8, "homs": homs,
            "orbit_groups": orbit_groups, "sub_lists": sub_lists,
            "gset_subs": gset_subs, "class_sizes": class_sizes}


def _same_coeffs(a, b):
    return list(a.items()) == list(b.items())


def _seeded_gset(rng, group, subs):
    """Disjoint union of coset spaces G/H, acted on by left multiplication."""
    zset = []
    for piece in range(rng.randint(2, 4)):
        h = subs[rng.randrange(len(subs))]
        seen = []
        for x in group.elements:
            c = frozenset(group.mul(x, y) for y in h.elements)
            if c not in seen:
                seen.append(c)
        zset.extend((piece, c) for c in seen)

    def act(x, z):
        return (z[0], frozenset(group.mul(x, y) for y in z[1]))

    return zset, act


def shapes_round(state, r):
    seed = state["seed"]
    rng = round_rng("shapes", seed, r)
    small, order8 = state["small"], state["order8"]
    og, subl = state["orbit_groups"], state["sub_lists"]
    ops = []

    def ei_pair(kind, build, first, other):
        def run(clock):
            cat = clock(build)
            return cat, clock(first, cat)

        def check(out):
            cat, cv = out
            return _same_coeffs(cv, other(cat))
        ops.append(Op("shapes:" + kind, run, check))

    def orbit(gname):
        lst = subl[gname][rng.randrange(len(subl[gname]))]
        return lambda: fincat.orbit_category(og[gname], lst)

    ei_pair("orbit_S4_ei", orbit("S4"), coeffs.coeff_EI,
            coeffs.coeff_EI_desouza)
    ei_pair("orbit_S4_desouza", orbit("S4"), coeffs.coeff_EI_desouza,
            coeffs.coeff_EI)
    ei_pair("orbit_D4_ei", orbit("D4"), coeffs.coeff_EI,
            coeffs.coeff_EI_desouza)

    small_name = SMALL_ORBIT[rng.randrange(len(SMALL_ORBIT))][0]
    build_small = orbit(small_name)

    def run_classes(clock):
        cat = clock(build_small)
        return cat, clock(fincat.conjugacy_classes, cat)

    def check_classes(out):
        cat, cc = out
        table = table_of(cat)
        endos = sorted((a for a in cat.arrows if cat.src[a] == cat.dst[a]),
                       key=repr)
        members = sorted((a for c in cc.classes for a in c), key=repr)
        return (members == endos
                and len(cc) == oracles.category_class_count(table))
    ops.append(Op("shapes:orbit_small_classes", run_classes, check_classes))

    # two abelian groups of order 8 and one nonabelian per round: the two
    # kinds differ in lambda_cat cost, so each slot keeps to one kind.
    # These three dearest slots hold the 90th percentile near their middle.
    abelian8 = ("C8", "C2xC4", "C2xC2xC2")
    for names8 in (abelian8, ("D4", "Q8"), abelian8):
        gname = names8[rng.randrange(len(names8))]
        g = order8[gname]

        def run_lambda(clock, g=g):
            bg = clock(fincat.bg_category, g)
            _lc, comp = clock(fincat.lambda_cat, bg)
            return len(set(comp.values()))

        ops.append(Op("shapes:lambda_components", run_lambda,
                      lambda n, gname=gname:
                      n == len(state["class_sizes"][gname])))

    all_groups = dict(small, **order8)
    gnames = sorted(all_groups)
    # two cheap slots, to keep as many slots below the median's three
    # delta5_hofin slots as above them
    for _ in range(2):
        gname = gnames[rng.randrange(len(gnames))]
        g = all_groups[gname]

        def run_bg_classes(clock, g=g):
            bg = clock(fincat.bg_category, g)
            return clock(fincat.conjugacy_classes, bg)

        ops.append(Op("shapes:bg_classes", run_bg_classes,
                      lambda cc, gname=gname:
                      sorted(len(c) for c in cc.classes)
                      == state["class_sizes"][gname]))

    # coeff_EI on a one-object groupoid collapses to the group formula
    gname = gnames[rng.randrange(len(gnames))]
    g = all_groups[gname]
    ei_pair("bg_ei", lambda g=g: fincat.bg_category(g), coeffs.coeff_EI,
            lambda bg, g=g: coeffs.coeff_group(g, bg))

    gname = gnames[rng.randrange(len(gnames))]
    g = all_groups[gname]
    zset, act = _seeded_gset(rng, g, state["gset_subs"][gname])

    def run_coeff_group(clock, g=g):
        bg = clock(fincat.bg_category, g)
        return clock(coeffs.coeff_group, g, bg)

    def check_coeff_group(cv, zset=zset, act=act, g=g):
        total = Fraction(0)
        for rep, phi in cv.items():
            x = rep[1]
            total += phi * sum(1 for z in zset if act(x, z) == z)
        return total == oracles.orbit_count(zset, g.elements, act)
    ops.append(Op("shapes:coeff_group_orbits", run_coeff_group,
                  check_coeff_group))

    ei_pair("delta5_ei", lambda: fincat.delta_prime_op(5), coeffs.coeff_EI,
            coeffs.coeff_hofin)
    # three slots of one fixed op hold the median: eight cheaper slots lie
    # below them and eight dearer ones above
    for _ in range(3):
        ei_pair("delta5_hofin", lambda: fincat.delta_prime_op(5),
                coeffs.coeff_hofin, coeffs.coeff_EI)
    ei_pair("delta4_desouza", lambda: fincat.delta_prime_op(4),
            coeffs.coeff_EI_desouza, coeffs.coeff_EI)

    for kind, first, other in (("hom_ei", coeffs.coeff_EI,
                                coeffs.coeff_EI_desouza),
                               ("hom_desouza", coeffs.coeff_EI_desouza,
                                coeffs.coeff_EI)):
        gn, hn, phi = state["homs"][rng.randrange(len(state["homs"]))]
        gg, hh = all_groups[gn], all_groups[hn]
        ei_pair(kind, lambda gg=gg, hh=hh, phi=phi:
                fincat.category_from_group_hom(gg, hh, phi), first, other)

    gname = gnames[rng.randrange(len(gnames))]
    g = all_groups[gname]
    zset2, act2 = _seeded_gset(rng, g, state["gset_subs"][gname])

    def run_orbits(clock, g=g):
        return clock(coeffs.stabilizer_orbit_identity, g, zset2, act2,
                     list(g.elements))

    def check_orbits(out, g=g):
        lhs, rhs = out
        return lhs == rhs == oracles.orbit_count(zset2, g.elements, act2)
    ops.append(Op("shapes:orbit_count", run_orbits, check_orbits))
    return ops


# ---------------------------------------------------------------------------
# cli: in-process tracelin invocations on the bundled corpus and on
# diagram files written during setup

CLI_CLASSES = ("BS3", "orbit_S3", "delta3op", "orbit_C4", "hom_C3_C3_id",
               "gpd_C2_C3")
# The ten dearest calls of a round cost 30 ms and more, and a continuum of
# 10-25 ms calls lies below them; alone, the 90th percentile would sit on
# the edge between the two and jump from run to run.  So each round asks
# for the classes of every shape CLI_CLASS_ROUNDS times, and for the
# 24 ms trace of delta3_chain five times: the 90th percentile then falls
# inside that band of like calls.
CLI_CLASS_ROUNDS = 5
CLI_FILES = (
    # (file stem, corpus category, summands, commands)
    ("delta2_chain", "delta2op", (("o2", 0), ("o1", 1)), ("trace", "hocolim")),
    ("orbitC4_vect", "orbit_C4", (("o0", 0), ("o1", 0)),
     ("trace", "bicat-trace")),
    ("gpdC2_chain", "gpd_conn_C2", (("o0", 0), ("o1", 1)),
     ("trace", "hocolim")),
    ("BS3_vect", "BS3", (("x", 0),), ("trace", "bicat-trace")),
    ("delta3_vect", "delta3op", (("o3", 0),),
     ("bicat-trace", "hocolim", "trace")),
    ("delta3_chain", "delta3op", (("o3", 0), ("o2", 1)),
     ("trace",) * 5 + ("hocolim",)),
)
CLI_BUNDLED = (("pushout", "pushout_span", ("trace", "hocolim")),
               ("BC2", "BC2_regular", ("trace", "bicat-trace")),
               ("idem", "idem_diagram", ("bicat-trace",)))


def _rows_json(m):
    return [[str(x) for x in row] for row in m]


def _write_diagram(path, cat_name, table, summands, rng):
    cs = ChainSum(table, summands)
    coefs = random_yoneda_coefs(
        rng, table, cs.objs,
        same_block=lambda i, j: summands[i][1] == summands[j][1])
    endo = cs.yoneda_blocks(coefs)

    def blocks(per_deg):
        return {str(d): _rows_json(m) for d, m in per_deg.items()
                if m and m[0]}

    obj = {"category": cat_name,
           "objects": {c: {"degrees": {str(d): len(v)
                                       for d, v in cs.pos[c].items()},
                           "d": {}} for c in table["objects"]},
           "arrows": {g: blocks(cs.mats[g]) for g in table["arrows"]
                      if g not in table["identities"].values()},
           "endo": {c: blocks(endo[c]) for c in table["objects"]}}
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _table_from_json(obj):
    return {"objects": list(obj["objects"]),
            "arrows": [a["id"] for a in obj["arrows"]],
            "src": {a["id"]: a["src"] for a in obj["arrows"]},
            "dst": {a["id"]: a["dst"] for a in obj["arrows"]},
            "identities": dict(obj["identities"]),
            "compose": {(c["f"], c["g"]): c["gf"] for c in obj["compose"]}}


def _read_diagram(path, table):
    """Per-degree matrices of a diagram file, parsed without tracelin:
    {"dims": {c: {d: n}}, "arrows": {g: {d: rows}}, "endo": {c: {d: rows}}}."""
    with open(path) as fh:
        obj = json.load(fh)
    dims = {}
    for c in table["objects"]:
        val = obj["objects"][c]
        dims[c] = ({0: val} if val else {}) if isinstance(val, int) else \
            {int(d): n for d, n in val["degrees"].items() if n}

    def per_degree(val, rows_dim, cols_dim):
        if isinstance(val, list):
            val = {"0": val}
        out = {}
        for d in set(rows_dim) | set(cols_dim):
            rows = val.get(str(d))
            r, c = rows_dim.get(d, 0), cols_dim.get(d, 0)
            out[d] = ([[Fraction(x) for x in row] for row in rows]
                      if rows and r and c else [[0] * c for _ in range(r)])
        return out

    ids = set(table["identities"].values())
    arrows = {}
    for g in table["arrows"]:
        s, t = table["src"][g], table["dst"][g]
        if g in ids:
            arrows[g] = {d: oracles.identity(n) for d, n in dims[s].items()}
        else:
            arrows[g] = per_degree(obj["arrows"][g], dims[t], dims[s])
    if "endo" in obj:
        endo = {c: per_degree(obj["endo"][c], dims[c], dims[c])
                for c in table["objects"]}
    else:
        endo = {c: {d: oracles.identity(n) for d, n in dims[c].items()}
                for c in table["objects"]}
    return {"dims": dims, "arrows": arrows, "endo": endo}


def _lefschetz(dia, obj, g, endo=True):
    total = Fraction(0)
    for d, xg in dia["arrows"][g].items():
        if xg and xg[0]:
            f = dia["endo"][obj][d] if endo else oracles.identity(len(xg))
            total += (-1) ** d * oracles.trace(oracles.matmul(f, xg))
    return total


def cli_setup(seed, outdir):
    tags = harness.corpus()
    names = sorted(n for n in tags if (DATA / (n + ".json")).exists())
    tables = {}
    for n in names:
        with open(DATA / (n + ".json")) as fh:
            tables[n] = _table_from_json(json.load(fh))
    files = []
    rng = round_rng("cli-files", seed, 0)
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, cat_name, summands, cmds in CLI_FILES:
        path = outdir / (stem + ".json")
        _write_diagram(path, cat_name, tables[cat_name], summands, rng)
        files.append((cat_name, str(path), cmds))
    for cat_name, stem, cmds in CLI_BUNDLED:
        files.append((cat_name, str(DATA / (stem + ".json")), cmds))
    methods = [(n, m) for n in names for m in tags[n]["methods"]]
    methods += [(n, "desouza") for n in names if "ei" in tags[n]["methods"]]
    return {"seed": seed, "tables": tables, "files": files,
            "methods": methods, "outdir": outdir, "ref": {}, "dias": {}}


def _cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _reference_coeffs(state, name, method):
    key = (name, method)
    if key not in state["ref"]:
        cat = cli.load_category(name)
        fn = {"ei": coeffs.coeff_EI, "desouza": coeffs.coeff_EI_desouza,
              "hofin": coeffs.coeff_hofin, "groupoid": coeffs.coeff_groupoid}
        state["ref"][key] = serialize.coeffs_to_json(fn[method](cat))
    return state["ref"][key]


def _check_coeffs(state, name, method, out):
    code, text = out
    if code != 0:
        return False
    got = json.loads(text)
    table = state["tables"][name]
    if method == "leinster":
        objs = table["objects"]
        return all(sum(len(oracles.hom(table, a, b)) * Fraction(got[b])
                       for b in objs) == 1 for a in objs)
    if method == "ei":
        return got == _reference_coeffs(state, name, "desouza")
    return got == _reference_coeffs(state, name, "ei")


def _check_classes(state, name, out):
    code, text = out
    if code != 0:
        return False
    table = state["tables"][name]
    got = json.loads(text)["classes"]
    endos = sorted(a for a in table["arrows"]
                   if table["src"][a] == table["dst"][a])
    members = sorted(m for c in got for m in c["members"])
    return (members == endos
            and len(got) == oracles.category_class_count(table))


def _check_verify(out):
    code, text = out
    if code != 0:
        return False
    rep = json.loads(text)
    return rep["all_pass"] and all(
        r["all_pass"] and r["case_count"] > 0
        and all(c["equal"] for c in r["cases"]) for r in rep["reports"])


def _coefficient_trace(state, name, method, dia, table, endo=True):
    phi = _reference_coeffs(state, name, method)
    return sum((Fraction(v) * _lefschetz(dia, table["src"][rep], rep, endo)
                for rep, v in phi.items()), Fraction(0))


def _check_file_command(state, name, path, cmd, out):
    code, text = out
    if code != 0:
        return False
    key = (name, path)
    if key not in state["dias"]:
        state["dias"][key] = _read_diagram(path, state["tables"][name])
    dia = state["dias"][key]
    table = state["tables"][name]
    got = json.loads(text)
    if cmd == "bicat-trace":
        if len(got) != oracles.category_class_count(table):
            return False
        return all(Fraction(v) == _lefschetz(dia, table["src"][rep], rep)
                   for rep, v in got.items())
    method = got["method"]
    if cmd == "trace":
        return Fraction(got["trace"]) == _coefficient_trace(
            state, name, method, dia, table)
    # hocolim: d o d = 0, and the Euler characteristic is the Lefschetz
    # number of the identity, the coefficient side paired with X
    cx = got["complex"]
    dims = {int(d): n for d, n in cx["degrees"].items()}
    dmats = {int(n): [[Fraction(x) for x in row] for row in rows]
             for n, rows in cx["d"].items()}
    for n, m in dmats.items():
        below = dmats.get(n - 1)
        if below and m and below[0] and not oracles.is_zero(
                oracles.matmul(below, m)):
            return False
    euler = sum((-1) ** d * n for d, n in dims.items())
    return euler == _coefficient_trace(state, name, method, dia, table,
                                       endo=False)


def cli_round(state, r):
    rng = round_rng("cli", state["seed"], r)
    ops = []
    fails = str(state["outdir"] / "failures")
    # the component suite is left out: on about one seed in ten its
    # idempotent-shape generator draws a singular matrix and the run
    # exits 2 (see CHANGES.md); profcalc.bicat_trace has its own workload
    for suite in (s for s in harness.SUITES if s != "component"):
        argv = ["--format", "json", "verify", "--suite", suite, "--seed",
                str(rng.randrange(10 ** 6)), "--artifacts", fails]
        ops.append(Op("cli:verify:" + suite,
                      lambda clock, argv=argv: clock(_cli_call, argv),
                      _check_verify))
    for name in CLI_CLASSES * CLI_CLASS_ROUNDS:
        argv = ["--format", "json", "classes", name]
        ops.append(Op("cli:classes",
                      lambda clock, argv=argv: clock(_cli_call, argv),
                      lambda out, name=name: _check_classes(state, name, out)))
    for name, method in state["methods"]:
        argv = ["--format", "json", "coeffs", "--method", method, name]
        ops.append(Op("cli:coeffs:" + method,
                      lambda clock, argv=argv: clock(_cli_call, argv),
                      lambda out, name=name, method=method:
                      _check_coeffs(state, name, method, out)))
    for name, path, cmds in state["files"]:
        for cmd in cmds:
            argv = ["--format", "json", cmd, name, path]
            ops.append(Op("cli:" + cmd,
                          lambda clock, argv=argv: clock(_cli_call, argv),
                          lambda out, name=name, path=path, cmd=cmd:
                          _check_file_command(state, name, path, cmd, out)))
    return ops


WORKLOADS = {
    "cli": (cli_setup, cli_round),
    "component": (component_setup, component_round),
    "hocolim": (hocolim_setup, hocolim_round),
    "shapes": (shapes_setup, shapes_round),
}
