"""Deterministic generators and verification suites.

Every suite pits a coefficient formula against an independently computed
trace, compares exact rationals, and reports per-case results.  All
randomness flows from an explicit seed through ``random.Random``, so a
report is reproducible byte for byte from its seed.
"""

import hashlib
import random

from . import coeffs, diagrams, fincat, profcalc
from .exactalg import (
    F, ZERO, ChainComplex, ChainMap, SparseMat, block_diag, cone_endo,
    direct_sum, identity_chain_map, inverse, kron, lefschetz, rank,
    solve_linear, trace,
)


def seeded_rng(*parts):
    """Random generator with a process-independent seed from the parts.

    Tuple seeding would go through hash(), which is randomized for
    strings; hashing the repr keeps reports reproducible byte for byte.
    """
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


# ---------------------------------------------------------------------------
# named corpus

def span_category():
    return fincat.FinCat(
        ["a", "b", "c"],
        [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"),
         ("f", "a", "b"), ("g", "a", "c")],
        {"a": "a", "b": "b", "c": "c"},
        {("a", "a"): "a", ("b", "b"): "b", ("c", "c"): "c",
         ("a", "f"): "f", ("f", "b"): "f", ("a", "g"): "g", ("g", "c"): "g"},
        name="pushout")


def arrow_category():
    return fincat.FinCat(
        ["a", "b"],
        [("a", "a", "a"), ("b", "b", "b"), ("f", "a", "b")],
        {"a": "a", "b": "b"},
        {("a", "a"): "a", ("b", "b"): "b", ("a", "f"): "f", ("f", "b"): "f"},
        name="two")


def terminal_cat():
    return fincat.FinCat(["x"], [("x", "x", "x")], {"x": "x"},
                         {("x", "x"): "x"}, name="one")


def discrete_category(n):
    objs = ["o%d" % i for i in range(n)]
    return fincat.FinCat(objs, [(o, o, o) for o in objs],
                         {o: o for o in objs},
                         {(o, o): o for o in objs}, name="discrete%d" % n)


def idempotent_category():
    return fincat.FinCat(
        ["x"], [("x", "x", "x"), ("e", "x", "x")], {"x": "x"},
        {("x", "x"): "x", ("x", "e"): "e", ("e", "x"): "e", ("e", "e"): "e"},
        name="idem")


GROUPS = {
    "C2": fincat.cyclic_group(2),
    "C3": fincat.cyclic_group(3),
    "C4": fincat.cyclic_group(4),
    "S3": fincat.symmetric_group(3),
}


def _subgroups(gname):
    g = GROUPS[gname]
    if gname == "C2":
        return [fincat.subgroup(g, [0]), g]
    if gname == "C3":
        return [fincat.subgroup(g, [0]), g]
    if gname == "C4":
        return [fincat.subgroup(g, [0]), fincat.subgroup(g, [0, 2]), g]
    flip = (1, 0, 2)
    rot = (1, 2, 0)
    rot2 = (2, 0, 1)
    return [fincat.subgroup(g, [g.identity]),
            fincat.subgroup(g, [g.identity, flip]),
            fincat.subgroup(g, [g.identity, rot, rot2]),
            g]


def corpus():
    """Named categories tagged with the coefficient methods that apply."""
    out = {}

    def add(cat, methods):
        out[cat.name] = {"cat": cat, "methods": methods}

    add(terminal_cat(), ["hofin", "ei", "leinster"])
    add(arrow_category(), ["hofin", "ei", "leinster"])
    add(span_category(), ["hofin", "ei", "leinster"])
    add(discrete_category(2), ["hofin", "ei", "groupoid", "leinster"])
    add(discrete_category(3), ["hofin", "ei", "groupoid", "leinster"])
    add(idempotent_category(), ["leinster"])
    add(fincat.parallel_arrows(3, name="par3"), ["hofin", "ei"])
    for n in range(4):
        d = fincat.delta_prime_op(n)
        d.name = "delta%dop" % n
        add(d, ["hofin", "ei", "leinster"])
    for gname in ["C2", "C3", "C4", "S3"]:
        cat = fincat.bg_category(GROUPS[gname], name="B" + gname)
        add(cat, ["group", "groupoid", "ei", "leinster"])
    u = fincat.disjoint_union(fincat.bg_category(GROUPS["C2"]),
                              fincat.bg_category(GROUPS["C3"]),
                              name="gpd_C2_C3")
    add(u, ["groupoid", "ei"])
    cg = fincat.connected_groupoid(GROUPS["C2"], 2, name="gpd_conn_C2")
    add(cg, ["groupoid", "ei"])
    c2, c3 = GROUPS["C2"], GROUPS["C3"]
    add(fincat.category_from_group_hom(c2, c2, {0: 0, 1: 1},
                                       name="hom_C2_C2_id"), ["ei"])
    add(fincat.category_from_group_hom(c2, c2, {0: 0, 1: 0},
                                       name="hom_C2_C2_triv"), ["ei"])
    add(fincat.category_from_group_hom(c3, c3, {0: 0, 1: 1, 2: 2},
                                       name="hom_C3_C3_id"), ["ei"])
    add(fincat.orbit_category(GROUPS["C4"], _subgroups("C4"),
                              name="orbit_C4"), ["ei"])
    add(fincat.orbit_category(GROUPS["S3"],
                              [_subgroups("S3")[0], _subgroups("S3")[2],
                               _subgroups("S3")[3]],
                              name="orbit_S3"), ["ei"])
    return out


# ---------------------------------------------------------------------------
# representations over exact rationals

def _map_matrix(n, images):
    """The n x n matrix sending basis vector i to basis vector images[i]."""
    rows = [{} for _ in range(n)]
    for i in range(n):
        rows[images[i]][i] = 1
    return SparseMat(rows, n, n)


def _scalar(v):
    """The 1 x 1 matrix (v)."""
    return SparseMat([{0: v}], 1, 1)


def rep_trivial(group):
    return {g: SparseMat.identity(1) for g in group.elements}


def rep_regular(group):
    n = len(group)
    out = {}
    for g in group.elements:
        perm = [group.index[group.mul(g, h)] for h in group.elements]
        out[g] = _map_matrix(n, perm)
    return out


def rep_rotation(group):
    """Faithful two-dimensional representation of a cyclic group of order
    3 or 4, with integer matrices."""
    n = len(group)
    if n == 3:
        gen = SparseMat([{1: -1}, {0: 1, 1: -1}], 2, 2)
    elif n == 4:
        gen = SparseMat([{1: -1}, {0: 1}], 2, 2)
    else:
        raise ValueError("no integral rotation representation of order %d" % n)
    out = {}
    acc = SparseMat.identity(2)
    for k in range(n):
        out[k] = acc
        acc = gen @ acc
    return out


def rep_sign_s3(group):
    out = {}
    for p in group.elements:
        inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                         if p[i] > p[j])
        out[p] = _scalar(1 if inversions % 2 == 0 else -1)
    return out


def rep_standard_perm(group):
    """Permutation representation restricted to the sum-zero subspace."""
    n = len(group.elements[0])
    # column j is e_j - e_(j+1)
    basis = SparseMat([{j: v for j, v in ((i - 1, -1), (i, 1))
                        if 0 <= j < n - 1} for i in range(n)], n, n - 1)
    out = {}
    for p in group.elements:
        perm = _map_matrix(n, p)
        res = solve_linear(basis, perm @ basis)
        assert res is not None and res.unique
        out[p] = res.solution
    return out


def reps_for(gname):
    g = GROUPS[gname]
    if gname == "C2":
        return [rep_trivial(g), {0: _scalar(1), 1: _scalar(-1)},
                rep_regular(g)]
    if gname == "C3":
        return [rep_trivial(g), rep_rotation(g), rep_regular(g)]
    if gname == "C4":
        return [rep_trivial(g), {k: _scalar((-1) ** k) for k in g.elements},
                rep_rotation(g), rep_regular(g)]
    return [rep_trivial(g), rep_sign_s3(g), rep_standard_perm(g)]


# ---------------------------------------------------------------------------
# random generators

def gen_hofin_category(seed, max_objects=5, max_edges=8, max_strings=100):
    """Free category on a seeded random acyclic graph.

    Rejects and reseeds while the path or string count exceeds the caps,
    so downstream constructions stay small.
    """
    attempt = 0
    while True:
        rng = seeded_rng(seed, attempt)
        n = rng.randint(1, max_objects)
        nodes = ["v%d" % i for i in range(n)]
        m = rng.randint(0, max_edges)
        edges = []
        for k in range(m):
            if n < 2:
                break
            i = rng.randrange(0, n - 1)
            j = rng.randrange(i + 1, n)
            edges.append(("e%d" % k, nodes[i], nodes[j]))
        cat = fincat.free_category_on_dag(nodes, edges)
        total = sum(len(level) for level in fincat.enumerate_strings(cat))
        if len(cat.arrows) <= 200 and total <= max_strings:
            cat.name = "dag_%r" % (seed,)
            return cat
        attempt += 1


def random_complex(rng, max_dim=3, lo=0, hi=2):
    """Direct sum of spheres and disks within the degree window."""
    dims = {}
    d = {}
    pieces = rng.randint(0, 2)
    blocks = {}
    for _ in range(pieces):
        deg = rng.randint(lo, hi)
        if rng.random() < 0.5 or deg == lo:
            # sphere: one generator in a single degree
            dims[deg] = dims.get(deg, 0) + 1
        else:
            # disk: identity differential from deg to deg-1
            blocks.setdefault(deg, []).append((dims.get(deg, 0),
                                               dims.get(deg - 1, 0)))
            dims[deg] = dims.get(deg, 0) + 1
            dims[deg - 1] = dims.get(deg - 1, 0) + 1
    for deg in dims:
        if dims[deg] > max_dim:
            dims[deg] = max_dim
    for deg, pairs in blocks.items():
        rows, cols = dims.get(deg - 1, 0), dims.get(deg, 0)
        terms = [{} for _ in range(rows)]
        for (j, i) in pairs:
            if i < rows and j < cols:
                terms[i][j] = 1
        d[deg] = SparseMat(terms, rows, cols)
    return ChainComplex(dims, d)


def rand_combo_endo(rng, basis, lo=-2, hi=2):
    """Random rational combination of a natural-endomorphism basis."""
    if not basis:
        return None
    for _ in range(4):
        coefs = [F(rng.randint(lo, hi)) for _ in basis]
        if any(coefs):
            break
    acc = None
    for c, b in zip(coefs, basis):
        comps = {o: m.smul(c) for o, m in b.components.items()}
        if acc is None:
            acc = comps
        else:
            for o in acc:
                acc[o] = acc[o] + comps[o]
    return diagrams.NatEndo(basis[0].diagram, acc, check=False)


def random_endo(rng, dia):
    """Random combination of the natural-endomorphism basis of a
    vector-space or chain diagram, or its identity when the basis is
    empty."""
    endo = rand_combo_endo(rng, diagrams.nat_endo_basis(dia))
    return endo if endo is not None else diagrams.identity_endo(dia)


def random_chain_map(rng, src, dst):
    """Random integer combination of the basis of chain maps src -> dst,
    or the zero map when the basis is empty."""
    acc = ChainMap(src, dst, {}, check=False)
    for b in diagrams.chain_map_space(src, dst):
        acc = acc + b.smul(F(rng.randint(-2, 2)))
    return acc


def gen_chain_diagram(seed, cat, max_dim=3, lo=0, hi=2):
    """Seeded functorial chain diagram over a free-graph category.

    Complexes are random sums of spheres and disks; generator arrows get
    random elements of the exact chain-map space and paths compose them.
    Returns (diagram, natural endomorphism from the solution space).
    """
    rng = seeded_rng("chain", seed)
    complexes = {o: random_complex(rng, max_dim, lo, hi) for o in cat.objects}
    maps = {}
    for o in cat.objects:
        maps[cat.idarr(o)] = identity_chain_map(complexes[o])
    edge_maps = {}
    for arr in cat.arrows:
        if cat.is_id(arr) or arr[0] != "p" or len(arr[2]) != 1:
            continue
        edge_maps[arr[2][0]] = random_chain_map(
            rng, complexes[cat.src[arr]], complexes[cat.dst[arr]])
    for arr in cat.arrows:
        if cat.is_id(arr):
            continue
        acc = None
        for e in arr[2]:
            step = edge_maps[e]
            acc = step if acc is None else step.compose(acc)
        maps[arr] = acc
    dia = diagrams.ChainDiagram(cat, complexes, maps)
    return dia, random_endo(rng, dia)


def group_chain_diagram(seed, gname, max_pieces=2):
    """Seeded chain diagram over the one-object groupoid of a named group."""
    rng = seeded_rng("grp", seed, gname)
    g = GROUPS[gname]
    cat = fincat.bg_category(g, name="B" + gname)
    reps = reps_for(gname)
    # each piece a sphere, or a disk with the identity differential, of
    # a drawn representation in a drawn degree
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        rep = reps[rng.randrange(len(reps))]
        deg = rng.randint(0, 2)
        d0 = rep[g.identity].rows
        if rng.random() < 0.4:
            piece = ChainComplex({deg: d0, deg - 1: d0},
                                 {deg: SparseMat.identity(d0)})
        else:
            piece = ChainComplex({deg: d0}, {})
        pieces.append((rep, piece))
    cx, offsets = direct_sum([p for _rep, p in pieces])
    maps = {}
    for x in g.elements:
        blocks = {n: [] for n in cx.dims}
        for (rep, piece), off in zip(pieces, offsets):
            for n in piece.dims:
                blocks[n].append((off[n], off[n], rep[x]))
        maps[("g", x)] = ChainMap.from_blocks(cx, cx, blocks)
    dia = diagrams.ChainDiagram(cat, {"x": cx}, maps)
    return dia, random_endo(rng, dia)


def rep_set_diagram(cat, a0):
    """Arrows out of a fixed object, as a set diagram (a representable)."""
    sets = {b: list(cat.hom(a0, b)) for b in cat.objects}
    funcs = {}
    for arr in cat.arrows:
        s, t = cat.src[arr], cat.dst[arr]
        funcs[arr] = {u: cat.then(u, arr) for u in sets[s]}
    return diagrams.FinSetDiagram(cat, sets, funcs, check=False)


def coproduct_set_diagrams(cat, parts):
    sets = {b: [] for b in cat.objects}
    for i, part in enumerate(parts):
        for b in cat.objects:
            sets[b].extend((i, z) for z in part.sets[b])
    funcs = {}
    for arr in cat.arrows:
        s = cat.src[arr]
        funcs[arr] = {(i, z): (i, parts[i].funcs[arr][z])
                      for (i, z) in sets[s]}
    return diagrams.FinSetDiagram(cat, sets, funcs, check=False)


def random_vect_diagram(rng, cat, max_dim=4):
    """Random exact functor to rational spaces over a corpus category.

    Over one-object groupoids this samples direct sums of the known
    representations; elsewhere it sums linearized representables (with a
    conjugated idempotent thrown in over the idempotent shape).
    """
    name = cat.name or ""
    if name.startswith("B") and name[1:] in GROUPS:
        g = GROUPS[name[1:]]
        reps = [r for r in reps_for(name[1:])
                if r[g.identity].rows <= max_dim]
        pick = [reps[rng.randrange(len(reps))]]
        if pick[0][g.identity].rows * 2 <= max_dim and rng.random() < 0.5:
            pick.append(reps[rng.randrange(len(reps))])
        while sum(r[g.identity].rows for r in pick) > max_dim:
            pick.pop()
        dims = {"x": sum(r[g.identity].rows for r in pick)}
        mats = {("g", x): block_diag([r[x] for r in pick])
                for x in g.elements}
        return diagrams.VectDiagram(cat, dims, mats)
    if name == "idem" and rng.random() < 0.5:
        d = rng.randint(1, max_dim)
        r = rng.randint(0, d)
        p = None
        while p is None or rank(p) < d:    # redraw a singular p
            rows = [{i: 1} for i in range(d)]
            for _ in range(2):
                i = rng.randrange(d)
                j = rng.randrange(d)
                if i != j:
                    rows[i][j] = rng.randint(-1, 1)
            p = SparseMat([{j: v for j, v in row.items() if v}
                           for row in rows], d, d)
        proj = SparseMat([{i: 1} if i < r else {} for i in range(d)], d, d)
        e = p @ proj @ inverse(p)
        return diagrams.VectDiagram(cat, {"x": d},
                                    {"x": SparseMat.identity(d), "e": e})
    parts = []
    budget = max_dim
    objs = list(cat.objects)
    for _ in range(3):
        a0 = objs[rng.randrange(len(objs))]
        sizes = [len(cat.hom(a0, b)) for b in cat.objects]
        if max(sizes or [0]) <= budget and any(sizes):
            parts.append(rep_set_diagram(cat, a0))
            budget -= max(sizes)
        if budget <= 0:
            break
    if not parts:
        return diagrams.linearize(
            diagrams.FinSetDiagram(
                cat, {b: [] for b in cat.objects},
                {arr: {} for arr in cat.arrows}, check=False))
    return diagrams.linearize(coproduct_set_diagrams(cat, parts))


# ---------------------------------------------------------------------------
# reports

class CaseResult:
    def __init__(self, case_id, lhs, rhs, equal, note="", witness=None):
        self.case_id = case_id
        self.lhs = lhs
        self.rhs = rhs
        self.equal = equal
        self.note = note
        self.witness = witness

    def to_json(self):
        out = {"id": self.case_id, "lhs": str(self.lhs), "rhs": str(self.rhs),
               "equal": self.equal}
        if self.note:
            out["note"] = self.note
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class SuiteReport:
    def __init__(self, suite, seed, cases):
        self.suite = suite
        self.seed = seed
        self.cases = cases
        self.all_pass = all(c.equal for c in cases)
        # wall time, set by run_suite; kept out of the serialized report
        # so that identical seeds give identical bytes
        self.elapsed = None

    def to_json(self):
        return {"suite": self.suite, "seed": self.seed,
                "cases": [c.to_json() for c in self.cases],
                "case_count": len(self.cases), "all_pass": self.all_pass}

    def failures(self):
        return [c for c in self.cases if not c.equal]


def _case(case_id, lhs, rhs, note="", witness=None):
    """The result of comparing lhs with rhs; ``witness``, a callable of no
    arguments, builds the failure payload and is called only on a
    failure."""
    equal = lhs == rhs
    return CaseResult(case_id, lhs, rhs, equal, note,
                      witness=None if equal or witness is None else witness())


def _witness_payload(dia, endo):
    """Serialized category, diagram, and endomorphism for a failing case."""
    from . import serialize
    return {"diagram": serialize.diagram_to_json(dia, endo)}


# ---------------------------------------------------------------------------
# core comparisons

def linearity_rhs(coeff, dia, endo):
    """Sum over classes of coefficient times trace of endo o class action."""
    total = ZERO
    for rep, phi in coeff.items():
        if not phi:
            continue
        a = coeff.base.src[rep]
        total += phi * lefschetz(endo.at(a).compose(dia.map(rep)))
    return total


def verify_linearity_hofin(seed, case_no, max_objects=5, max_edges=8):
    cat = gen_hofin_category((seed, case_no), max_objects, max_edges)
    dia, endo = gen_chain_diagram((seed, case_no), cat)
    phi = coeffs.coeff_hofin(cat)
    res = diagrams.hocolim_hofin(dia)
    lhs = lefschetz(res.induce(endo))
    rhs = linearity_rhs(phi, dia, endo)
    return _case("linearity:hofin:%d:%d" % (seed, case_no), lhs, rhs,
                 note=cat.name, witness=lambda: _witness_payload(dia, endo))


def verify_linearity_group(seed, case_no, gname):
    dia, endo = group_chain_diagram((seed, case_no), gname)
    cat = dia.base
    g = GROUPS[gname]
    phi = coeffs.coeff_group(g, cat)
    _total, induced, _parts = diagrams.hocolim_groupoid(dia, endo)
    lhs = lefschetz(induced)
    rhs = linearity_rhs(phi, dia, endo)
    return _case("linearity:group:%s:%d:%d" % (gname, seed, case_no), lhs, rhs,
                 witness=lambda: _witness_payload(dia, endo))


def groupoid_chain_diagram(seed, name):
    """Seeded chain diagram over a corpus groupoid, from representations."""
    rng = seeded_rng("gpd", seed, name)
    corp = corpus()
    cat = corp[name]["cat"]
    if name == "gpd_conn_C2":
        g = GROUPS["C2"]
        reps = reps_for("C2")
        rep = reps[rng.randrange(len(reps))]
        deg = rng.randint(0, 1)
        d0 = rep[g.identity].rows
        cx = ChainComplex({deg: d0}, {})
        maps = {}
        for a in cat.arrows:
            (_tag, x, _i, _j) = a
            maps[a] = ChainMap(cx, cx, {deg: rep[x]}, check=False)
        dia = diagrams.ChainDiagram(cat, {o: cx for o in cat.objects}, maps)
    elif name == "gpd_C2_C3":
        pieces = {}
        for tag, gname in [(0, "C2"), (1, "C3")]:
            g = GROUPS[gname]
            reps = reps_for(gname)
            pieces[tag] = (g, reps[rng.randrange(len(reps))], rng.randint(0, 1))
        complexes = {}
        maps = {}
        for (tag, obj) in cat.objects:
            g, rep, deg = pieces[tag]
            complexes[(tag, obj)] = ChainComplex({deg: rep[g.identity].rows}, {})
        for a in cat.arrows:
            (tag, inner) = a
            x = inner[1]
            g, rep, deg = pieces[tag]
            cx = complexes[(tag, "x")]
            maps[a] = ChainMap(cx, cx, {deg: rep[x]}, check=False)
        dia = diagrams.ChainDiagram(cat, complexes, maps)
    else:
        raise ValueError("no groupoid diagram family for %r" % (name,))
    return dia, random_endo(rng, dia)


def verify_linearity_groupoid(seed, case_no, name):
    dia, endo = groupoid_chain_diagram((seed, case_no), name)
    phi = coeffs.coeff_groupoid(dia.base)
    _total, induced, _parts = diagrams.hocolim_groupoid(dia, endo)
    lhs = lefschetz(induced)
    rhs = linearity_rhs(phi, dia, endo)
    return _case("linearity:groupoid:%s:%d:%d" % (name, seed, case_no),
                 lhs, rhs, witness=lambda: _witness_payload(dia, endo))


def verify_linearity_ei(seed, case_no, name):
    corp = corpus()
    cat = corp[name]["cat"]
    rng = seeded_rng("ei", seed, name, case_no)
    dia, endo = _ei_chain_case(rng, cat)
    _res, induced = diagrams.hocolim_EI(dia, endo)
    lhs = lefschetz(induced)
    rhs = linearity_rhs(coeffs.coeff_EI(cat), dia, endo)
    return _case("ei:linearity:%s:%d" % (name, case_no), lhs, rhs,
                 witness=lambda: _witness_payload(dia, endo))


def verify_cofiber(seed, case_no):
    """Cone additivity for a random chain map with commuting endomorphisms."""
    cat = arrow_category()
    rng = seeded_rng("cof", seed, case_no)
    cx = random_complex(rng, 3, 0, 2)
    cy = random_complex(rng, 3, 0, 2)
    fmap = random_chain_map(rng, cx, cy)
    dia = diagrams.ChainDiagram(
        cat, {"a": cx, "b": cy},
        {"a": identity_chain_map(cx), "b": identity_chain_map(cy), "f": fmap})
    endo = random_endo(rng, dia)
    _cone_cx, cendo = cone_endo(fmap, endo.at("a"), endo.at("b"))
    lhs = lefschetz(cendo)
    rhs = lefschetz(endo.at("b")) - lefschetz(endo.at("a"))
    return _case("cofiber:%d:%d" % (seed, case_no), lhs, rhs,
                 witness=lambda: _witness_payload(dia, endo))


def verify_pushout_vs_cone(seed, case_no):
    """Homotopy pushout with one zero leg against the mapping cone."""
    rng = seeded_rng("pvc", seed, case_no)
    span = span_category()
    cx = random_complex(rng, 2, 0, 2)
    cy = random_complex(rng, 2, 0, 2)
    zero = ChainComplex({}, {})
    fmap = random_chain_map(rng, cx, cy)
    dia = diagrams.ChainDiagram(
        span, {"a": cx, "b": cy, "c": zero},
        {"a": identity_chain_map(cx), "b": identity_chain_map(cy),
         "c": identity_chain_map(zero), "f": fmap,
         "g": ChainMap(cx, zero, {}, check=False)})
    endo = random_endo(rng, dia)
    res = diagrams.hocolim_hofin(dia)
    lhs = lefschetz(res.induce(endo))
    _cone_cx, cendo = cone_endo(fmap, endo.at("a"), endo.at("b"))
    rhs = lefschetz(cendo)
    return _case("pushout_vs_cone:%d:%d" % (seed, case_no), lhs, rhs)


def _random_square(rng, n):
    """An n x n matrix of seeded entries in -3..3, drawn row by row."""
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return SparseMat([{j: v for j, v in enumerate(row) if v} for row in rows],
                     n, n)


def verify_multiplicativity(seed, case_no):
    rng = seeded_rng("mult", seed, case_no)
    n1 = rng.randint(1, 3)
    n2 = rng.randint(1, 3)
    a, b = _random_square(rng, n1), _random_square(rng, n2)
    return _case("mult:%d:%d" % (seed, case_no), trace(kron(a, b)),
                 trace(a) * trace(b))


def suite_linearity(seed=0, cases=100):
    """Strictly homotopy finite linearity, cone additivity, fixed values."""
    out = []
    span = span_category()
    phi = coeffs.coeff_hofin(span)
    out.append(_case("fixed:pushout-coeffs",
                     tuple(str(v) for _, v in phi.items()),
                     ("-1", "1", "1")))
    par = fincat.parallel_arrows(3)
    phi2 = coeffs.coeff_hofin(par)
    out.append(_case("fixed:parallel3-coeffs",
                     tuple(str(v) for _, v in phi2.items()),
                     ("-2", "1")))
    n_hofin = max(cases, 4)
    for i in range(n_hofin):
        out.append(verify_linearity_hofin(seed, i))
    for name in ["gpd_conn_C2", "gpd_C2_C3"]:
        for i in range(max(cases // 16, 2)):
            out.append(verify_linearity_groupoid(seed, i, name))
    for i in range(max(cases // 4, 2)):
        out.append(verify_pushout_vs_cone(seed, i))
    for i in range(cases):
        out.append(verify_cofiber(seed, i))
    for i in range(max(cases // 2, 50)):
        out.append(verify_multiplicativity(seed, i))
    return SuiteReport("linearity", seed, out)


COMPONENT_CORPUS = ["one", "two", "pushout", "discrete2", "discrete3",
                    "idem", "BC2", "BC3", "BC4", "BS3", "par3", "delta1op",
                    "delta2op", "gpd_conn_C2", "hom_C2_C2_id",
                    "hom_C2_C2_triv"]


def verify_component_lemma(rng, cat, case_id):
    """One componentwise comparison: the quotient-pipeline trace of a
    seeded endomorphism against the direct traces, class by class."""
    dia = random_vect_diagram(rng, cat, max_dim=4)
    endo = random_endo(rng, dia)
    prof = profcalc.prof_from_diagram(dia)
    w = profcalc.dual_of_pointwise(prof)
    got = profcalc.bicat_trace(w, {a: endo.at(a) for a in cat.objects})
    expected = {}
    for rep in got:
        a = cat.src[rep]
        expected[rep] = trace(endo.at(a) @ dia.mat(rep))
    return _case(case_id,
                 tuple(str(got[r]) for r in sorted(got, key=str)),
                 tuple(str(expected[r]) for r in sorted(expected, key=str)),
                 note=cat.name or "")


def suite_component(seed=0, cases=200):
    """Componentwise agreement of the quotient-pipeline trace with the
    direct traces, over the small-category corpus."""
    corp = corpus()
    out = []
    rng = seeded_rng("component", seed)
    for i in range(cases):
        name = COMPONENT_CORPUS[i % len(COMPONENT_CORPUS)]
        cat = corp[name]["cat"]
        out.append(verify_component_lemma(rng, cat,
                                          "component:%s:%d" % (name, i)))
    return SuiteReport("component", seed, out)


def suite_burnside(seed=0, cases=50):
    """Group coinvariants against averaged traces, and orbit counting on
    seeded finite group actions."""
    out = []
    i = 0
    per = max(cases // 8, 3)
    for gname in ["C2", "C3", "C4", "S3"]:
        for k in range(per):
            out.append(verify_linearity_group(seed, i, gname))
            i += 1
    for gname in ["C2", "C3", "C4", "S3"]:
        g = GROUPS[gname]
        subs = _subgroups(gname)
        for k in range(max(cases // 3, 13)):
            rng = seeded_rng("burn", seed, gname, k)
            zset, action = _random_gset(rng, g, subs)
            orbits = _orbit_count(g, zset, action)
            total = ZERO
            for x in g.elements:
                fixed = sum(1 for z in zset if action(x, z) == z)
                total += F(fixed, len(g))
            out.append(_case("burnside:%s:%d:%d" % (gname, seed, k),
                             F(orbits), total))
    return SuiteReport("burnside", seed, out)


def _random_gset(rng, g, subs):
    pieces = rng.randint(1, 3)
    zset = []
    for p in range(pieces):
        h = subs[rng.randrange(len(subs))]
        helems = set(h.elements)
        seen = []
        for x in g.elements:
            c = frozenset(g.mul(x, y) for y in helems)
            if c not in seen:
                seen.append(c)
        for c in seen:
            zset.append((p, c))

    def action(x, z):
        (p, c) = z
        return (p, frozenset(g.mul(x, y) for y in c))

    return zset, action


def _orbit_count(g, zset, action):
    uf = fincat.UnionFind(zset)
    for x in g.elements:
        for z in zset:
            uf.union(z, action(x, z))
    return len(uf.groups())


def suite_ei(seed=0):
    """Coefficient agreement and linearity over the curated EI corpus."""
    corp = corpus()
    out = []
    ei_names = ["hom_C2_C2_id", "hom_C2_C2_triv", "hom_C3_C3_id",
                "orbit_C4", "orbit_S3", "gpd_conn_C2", "BC4", "BS3"]
    for name in ei_names:
        cat = corp[name]["cat"]
        a = coeffs.coeff_EI(cat)
        b = coeffs.coeff_EI_desouza(cat)
        out.append(_case("ei:desouza:%s" % name,
                         tuple((str(k), str(v)) for k, v in a.items()),
                         tuple((str(k), str(v)) for k, v in b.items())))
    # collapse to the group formula on one-object groupoids
    for gname in ["C2", "C3", "C4", "S3"]:
        cat = corp["B" + gname]["cat"]
        a = coeffs.coeff_EI(cat)
        b = coeffs.coeff_group(GROUPS[gname], cat)
        out.append(_case("ei:collapse-group:%s" % gname,
                         tuple((str(k), str(v)) for k, v in a.items()),
                         tuple((str(k), str(v)) for k, v in b.items())))
    # collapse to the string-count formula on posets
    for name in ["two", "pushout", "delta2op"]:
        cat = corp[name]["cat"]
        a = coeffs.coeff_EI(cat)
        b = coeffs.coeff_hofin(cat)
        out.append(_case("ei:collapse-hofin:%s" % name,
                         tuple((str(k), str(v)) for k, v in a.items()),
                         tuple((str(k), str(v)) for k, v in b.items())))
    # linearity through the EI homotopy colimit
    for (name, n_cases) in [("hom_C2_C2_id", 4), ("hom_C2_C2_triv", 4),
                            ("hom_C3_C3_id", 3), ("orbit_C4", 3),
                            ("orbit_S3", 2), ("gpd_conn_C2", 3),
                            ("BC3", 3), ("BS3", 2), ("pushout", 3)]:
        cat = corp[name]["cat"]
        for k in range(n_cases):
            out.append(verify_linearity_ei(seed, k, name))
        # cross-pipeline agreement on groupoids
        if fincat.is_groupoid(cat):
            rng = seeded_rng("eig", seed, name)
            dia, endo = _ei_chain_case(rng, cat)
            res, induced = diagrams.hocolim_EI(dia, endo)
            _t, ind2, _parts = diagrams.hocolim_groupoid(dia, endo)
            out.append(_case("ei:vs-groupoid:%s" % name,
                             lefschetz(induced), lefschetz(ind2)))
    return SuiteReport("ei", seed, out)


def _ei_chain_case(rng, cat):
    """Chain diagram over an EI corpus category, from exact functors."""
    vd = random_vect_diagram(rng, cat, max_dim=4)
    deg = rng.randint(0, 1)
    dia = diagrams.vect_to_chain(vd, degree=deg)
    return dia, random_endo(rng, dia)


def suite_realiz(seed=0, cases=20):
    """Combinatorial identities: alternating face-string counts, pair
    components versus conjugacy classes, stabilizer/orbit sums."""
    out = []
    for n in range(6):
        total, expected = coeffs.realiz_coeff_check(n)
        out.append(_case("realiz:%d" % n, total, expected))
    for name, entry in corpus().items():
        cat = entry["cat"]
        _lc, comp = fincat.lambda_cat(cat)
        n_comp = len(set(comp.values()))
        n_classes = len(fincat.conjugacy_classes(cat))
        out.append(_case("pi0-pairs:%s" % name, n_comp, n_classes))
    for gname in ["C2", "C3", "C4", "S3"]:
        g = GROUPS[gname]
        subs = _subgroups(gname)
        for k in range(max(cases // 4, 5)):
            rng = seeded_rng("stab", seed, gname, k)
            zset, action = _random_gset(rng, g, subs)
            classes = fincat.group_conj_classes(g)
            chosen = [c for c in classes if rng.random() < 0.6]
            if not chosen:
                chosen = [classes[0]]
            subset = [x for c in chosen for x in c]
            lhs, rhs = coeffs.stabilizer_orbit_identity(g, zset, action, subset)
            out.append(_case("stab-orbit:%s:%d" % (gname, k), lhs, rhs))
    return SuiteReport("realiz", seed, out)


def verify_set_formulas(seed, case_no):
    """One set-pushout case: the fixed-point count of the induced map
    against the inclusion/exclusion formula, plus a linearized check."""
    span = span_category()
    rng = seeded_rng("sets", seed, case_no)
    nx = rng.randint(0, 3)
    ny = nx + rng.randint(0, 3)
    nz = nx + rng.randint(0, 3)
    xs = list(range(nx))
    ys = list(range(ny))
    zs = list(range(nz))
    u = {i: rng.randrange(nx) for i in xs} if nx else {}
    fy = dict(u)
    for i in range(nx, ny):
        fy[i] = rng.randrange(ny)
    gz = dict(u)
    for i in range(nx, nz):
        gz[i] = rng.randrange(nz)
    dia = diagrams.FinSetDiagram(
        span, {"a": xs, "b": ys, "c": zs},
        {"a": {i: i for i in xs}, "b": {i: i for i in ys},
         "c": {i: i for i in zs},
         "f": {i: i for i in xs}, "g": {i: i for i in xs}})
    _out, fixed = diagrams.induced_endo_fin_set(
        dia, {"a": u, "b": fy, "c": gz})
    fix_f = sum(1 for i in ys if fy[i] == i)
    fix_g = sum(1 for i in zs if gz[i] == i)
    fix_u = sum(1 for i in xs if u[i] == i)
    first = _case("sets:pushout-fix:%d" % case_no, fixed,
                  fix_f + fix_g - fix_u)
    # linearized cross-check: trace of the induced map on the colimit
    lin = diagrams.linearize(dia)
    endo_mats = {}
    for o, fn in (("a", u), ("b", fy), ("c", gz)):
        elems = dia.sets[o]
        endo_mats[o] = _map_matrix(len(elems),
                                   [elems.index(fn[z]) for z in elems])
    _res, ind = diagrams.induced_endo_colim(
        lin, diagrams.NatEndo(lin, endo_mats))
    second = _case("sets:linearized-fix:%d" % case_no, trace(ind), F(fixed))
    return [first, second]


def suite_sets(seed=0, cases=50):
    """Fixed-point count of an induced map on a set pushout of injections."""
    out = []
    for k in range(cases):
        out.extend(verify_set_formulas(seed, k))
    return SuiteReport("sets", seed, out)


LEINSTER_CORPUS = ["one", "two", "pushout", "discrete2", "discrete3",
                   "delta1op", "delta2op", "BC2", "BC3", "BS3", "idem"]


def verify_leinster(seed, case_no, name=None):
    """One weighting case: the hom-count pairing against the cardinality
    of the colimit of a seeded coproduct of representables."""
    corp = corpus()
    rng = seeded_rng("lein", seed, case_no)
    name = name or LEINSTER_CORPUS[case_no % len(LEINSTER_CORPUS)]
    cat = corp[name]["cat"]
    weighting = coeffs.leinster_weighting(cat)
    if isinstance(weighting, coeffs.NoWeighting):
        return _case("leinster:%s:%d" % (name, case_no), "no-weighting",
                     "weighting-expected")
    n_parts = rng.randint(1, 3)
    objs = list(cat.objects)
    parts = [rep_set_diagram(cat, objs[rng.randrange(len(objs))])
             for _ in range(n_parts)]
    dia = coproduct_set_diagrams(cat, parts)
    reps_count, _assign = diagrams.colim_fin_set(dia)
    weighted = sum((weighting[b] * len(dia.sets[b])
                    for b in cat.objects), ZERO)
    return _case("leinster:%s:%d" % (name, case_no), weighted,
                 F(len(reps_count)))


def suite_leinster(seed=0, cases=20):
    """Weighting formula on coproducts of representables, plus the
    idempotent-shape comparison of the two formulas."""
    corp = corpus()
    out = []
    for k in range(cases):
        out.append(verify_leinster(seed, k))
    # the idempotent shape: both formulas give the number of summands
    E = corp["idem"]["cat"]
    for n in range(1, 5):
        parts = [rep_set_diagram(E, "x") for _ in range(n)]
        dia = coproduct_set_diagrams(E, parts)
        lin = diagrams.linearize(dia)
        tr_idem = trace(lin.mat("e"))
        w = coeffs.leinster_weighting(E)
        weighted = w["x"] * len(dia.sets["x"])
        out.append(_case("leinster:idem-trace:%d" % n, tr_idem, F(n)))
        out.append(_case("leinster:idem-weighting:%d" % n, weighted, F(n)))
    return SuiteReport("leinster", seed, out)


SUITES = {
    "linearity": suite_linearity,
    "component": suite_component,
    "burnside": suite_burnside,
    "ei": suite_ei,
    "realiz": suite_realiz,
    "sets": suite_sets,
    "leinster": suite_leinster,
}


def run_suite(name, seed=0, cases=None):
    """Run one suite.  An exception raised inside it becomes a failed
    report with the single case ``<suite>:error``, whose note gives the
    exception type and message, so it is never taken for bad input."""
    import time
    fn = SUITES[name]
    kwargs = {"seed": seed}
    if cases is not None and name not in ("ei",):
        kwargs["cases"] = cases
    t0 = time.time()
    try:
        report = fn(**kwargs)
    except Exception as exc:
        kind = type(exc).__name__
        report = SuiteReport(name, seed, [CaseResult(
            "%s:error" % name, kind, "no exception", False,
            note="%s: %s" % (kind, exc))])
    report.elapsed = time.time() - t0
    return report
