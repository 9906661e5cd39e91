"""Finite categories as explicit composition tables.

A category is a finite table: objects, arrows with source/target,
identities, and a composition map on composable pairs.  No presentations
or word problems: every construction here is finite enumeration, and all
outputs are deterministically ordered by the stored arrow order.
"""

from itertools import product as iproduct


class FinCat:
    """Finite category given by explicit data.

    ``compose[(f, g)]`` is the composite "f then g" (g after f), defined
    exactly for pairs with dst(f) == src(g).  Instances are immutable by
    convention; all derived structure is precomputed.  ``src``, ``dst``,
    ``arrow_index``, the hom lists and the nonidentity arrows out of each
    object are filled in one pass over ``arrows``, in stored order; a
    repeated arrow keeps its last endpoints and index.
    """

    def __init__(self, objects, arrows, identities, compose, name=None):
        self.name = name
        self.objects = tuple(objects)
        self.identities = dict(identities)
        self.compose = dict(compose)
        self.obj_index = {o: i for i, o in enumerate(self.objects)}
        self._ids = ids = set(self.identities.values())
        names, src, dst, index, hom = [], {}, {}, {}, {}
        out = {o: [] for o in self.objects}
        for i, (a, s, t) in enumerate(arrows):
            names.append(a)
            src[a] = s
            dst[a] = t
            index[a] = i
            hom.setdefault((s, t), []).append(a)
            if a not in ids:
                # an unknown source is left to table_violations to report
                out.setdefault(s, []).append(a)
        if len(index) < len(names):
            # a repeated arrow is filed under its last endpoints
            hom, out = {}, {o: [] for o in self.objects}
            for a in names:
                hom.setdefault((src[a], dst[a]), []).append(a)
                if a not in ids:
                    out.setdefault(src[a], []).append(a)
        self.arrows = tuple(names)
        self.src, self.dst, self.arrow_index = src, dst, index
        self._hom, self._out = hom, out
        self._gens = None
        self._classes = None        # filled by conjugacy_classes
        self._unit_shadow = None    # filled by profcalc.unit_shadow
        self._paired_coends = {}    # filled by profcalc._paired_coend
        self._strings = None        # filled by diagrams._string_faces
        self._ei_chains = None      # filled by diagrams._ei_chain_data

    def __repr__(self):
        return "FinCat(%s: %d objects, %d arrows)" % (
            self.name or "?", len(self.objects), len(self.arrows))

    def idarr(self, obj):
        return self.identities[obj]

    def is_id(self, arr):
        return arr in self._ids

    def hom(self, a, b):
        return self._hom.get((a, b), [])

    def endos(self, a):
        return self.hom(a, a)

    def nonidentity(self):
        return [a for a in self.arrows if a not in self._ids]

    def out_nonid(self, obj):
        return self._out[obj]

    def then(self, f, g):
        """Composite of f: a->b followed by g: b->c."""
        return self.compose[(f, g)]

    def then_seq(self, seq):
        """Composite of a nonempty composable sequence, first arrow first."""
        acc = seq[0]
        for f in seq[1:]:
            acc = self.compose[(acc, f)]
        return acc

    def inv(self, f):
        """Inverse arrow if f is invertible, else None."""
        a, b = self.src[f], self.dst[f]
        for g in self.hom(b, a):
            if (self.compose.get((f, g)) == self.idarr(a)
                    and self.compose.get((g, f)) == self.idarr(b)):
                return g
        return None

    def generating_arrows(self):
        """A small set of nonidentity arrows whose composites give all arrows.

        Every indecomposable arrow (no composite of two nonidentity
        arrows) is kept.  Then greedy: walk the other arrows in stored
        order, keep any not yet in the composition closure of the kept
        ones.  The result is in stored order.
        """
        if self._gens is not None:
            return self._gens
        ids = self._ids
        composites = {h for (f, g), h in self.compose.items()
                      if f not in ids and g not in ids}
        gens = [a for a in self.arrows if a not in ids and a not in composites]
        closure = set(ids)
        self._close(closure, gens)
        for a in self.arrows:
            if a not in closure:
                gens.append(a)
                self._close(closure, [a])
        self._gens = tuple(sorted(gens, key=self.arrow_index.__getitem__))
        return self._gens

    def _close(self, closure, new):
        """Add new arrows to closure and close it under composition."""
        todo = [a for a in new if a not in closure]
        closure.update(todo)
        while todo:
            f = todo.pop()
            for g in list(closure):
                for c in (self.compose.get((f, g)), self.compose.get((g, f))):
                    if c is not None and c not in closure:
                        closure.add(c)
                        todo.append(c)


def table_violations(cat):
    """Violations of the table's shape, as readable strings.

    Checks that every object has an identity with the right endpoints,
    that every arrow has known endpoints, and that every composable pair
    has a known composite with the right endpoints.  Quadratic in the
    arrows; the unit and associativity laws are left to ``validate``.
    """
    src, dst, known = cat.src, cat.dst, cat.arrow_index
    out = []
    for o in cat.objects:
        i = cat.identities.get(o)
        if i is None:
            out.append("object %r has no identity" % (o,))
        elif src.get(i) != o or dst.get(i) != o:
            out.append("identity of %r has wrong endpoints" % (o,))
    by_src = {}
    for a in cat.arrows:
        if src[a] not in cat.obj_index or dst[a] not in cat.obj_index:
            out.append("arrow %r has unknown endpoint" % (a,))
        by_src.setdefault(src[a], []).append(a)
    seen = set()
    for (f, g), h in cat.compose.items():
        if f not in known or g not in known:
            out.append("composite entry (%r, %r) uses unknown arrows" % (f, g))
            continue
        if dst[f] != src[g]:
            out.append("composite entry (%r, %r) is not composable" % (f, g))
            continue
        if h not in known:
            out.append("composite of (%r, %r) is unknown arrow %r" % (f, g, h))
            continue
        if src[h] != src[f] or dst[h] != dst[g]:
            out.append("composite of (%r, %r) has wrong endpoints" % (f, g))
        seen.add((f, g))
    for f in cat.arrows:
        for g in by_src.get(dst[f], ()):
            if (f, g) not in seen:
                out.append("missing composite for (%r, %r)" % (f, g))
    return out


def validate(cat):
    """All category-law violations of the table, as readable strings."""
    out = table_violations(cat)
    if out:
        return out
    for f in cat.arrows:
        a, b = cat.src[f], cat.dst[f]
        if cat.then(cat.idarr(a), f) != f:
            out.append("left unit law fails at %r" % (f,))
        if cat.then(f, cat.idarr(b)) != f:
            out.append("right unit law fails at %r" % (f,))
    for f in cat.arrows:
        for g in cat.arrows:
            if cat.dst[f] != cat.src[g]:
                continue
            fg = cat.then(f, g)
            for h in cat.arrows:
                if cat.dst[g] != cat.src[h]:
                    continue
                if cat.then(fg, h) != cat.then(f, cat.then(g, h)):
                    out.append("associativity fails at (%r, %r, %r)" % (f, g, h))
    return out


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        """The root of x's set; every item on the way is relinked to it."""
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y):
        x, y = self.find(x), self.find(y)
        if x != y:
            self.parent[y] = x

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


class ConjClasses:
    """Partition of the endomorphism arrows under g o f ~ f o g."""

    def __init__(self, classes):
        self.classes = tuple(tuple(c) for c in classes)
        self.reps = tuple(c[0] for c in self.classes)
        self.class_of = {}
        for i, c in enumerate(self.classes):
            for a in c:
                self.class_of[a] = i

    def __len__(self):
        return len(self.classes)


def conjugacy_classes(cat):
    """Conjugacy classes of a finite category.

    Endomorphisms f o g and g o f are identified for every pair of arrows
    g: a->b, f: b->a; the partition is the generated equivalence, computed
    by union-find.  Representatives are least in stored arrow order.
    Computed once per category and kept on it.
    """
    if cat._classes is not None:
        return cat._classes
    endos = [a for a in cat.arrows if cat.src[a] == cat.dst[a]]
    uf = UnionFind(endos)
    for g in cat.arrows:
        a, b = cat.src[g], cat.dst[g]
        for f in cat.hom(b, a):
            uf.union(cat.then(g, f), cat.then(f, g))
    groups = uf.groups()
    idx = cat.arrow_index
    classes = sorted((sorted(v, key=idx.get) for v in groups.values()),
                     key=lambda c: idx[c[0]])
    cat._classes = ConjClasses(classes)
    return cat._classes


def opposite(cat):
    arrows = [(a, cat.dst[a], cat.src[a]) for a in cat.arrows]
    compose = {(g, f): h for (f, g), h in cat.compose.items()}
    return FinCat(cat.objects, arrows, cat.identities, compose,
                  name=("%s_op" % cat.name) if cat.name else None)


def product(c1, c2):
    objects = [(x, y) for x in c1.objects for y in c2.objects]
    arrows = [((f, g), (c1.src[f], c2.src[g]), (c1.dst[f], c2.dst[g]))
              for f in c1.arrows for g in c2.arrows]
    identities = {(x, y): (c1.idarr(x), c2.idarr(y)) for x, y in objects}
    compose = {}
    for (f1, g1), h1 in c1.compose.items():
        for (f2, g2), h2 in c2.compose.items():
            compose[((f1, f2), (g1, g2))] = (h1, h2)
    return FinCat(objects, arrows, identities, compose)


def lambda_cat(cat):
    """Category of arrow pairs composable in both orders.

    Objects are pairs (f: a->b, g: b->a); a morphism (x, z): (f, g) ->
    (f', g') is a pair x: a->a', z: b'->b with f = x then f' then z and
    g' = z then g then x.  Composition is (x, z) then (x', z') =
    (x then x', z' then z).  Returns the category together with the map
    from objects to connected-component indices, numbered in order of
    first sighting; the number of components equals the number of
    conjugacy classes.

    Only a generating set of morphisms is listed, and the composition
    table is not built: ``compose`` is empty.  A morphism (x, z) out of
    (f, g) factors as (x, id_b) then (id_a', z), through (f' then z,
    g then x); and (x1 then x2, id) is (x1, id) then (x2, id), likewise
    in z.  So the morphisms (x, id_b) for a generating arrow x out of a,
    and (id_a, z) for a generating arrow z into b, generate the rest, and
    union-find over them finds the components.  (x, id_b) leads to
    (f', g then x) for each f' in hom(a', b) with x then f' = f, and
    (id_a, z) to (f', z then g) for each f' in hom(a, b') with f' then
    z = f; each preimage table is built once per (x, b) or (z, a), on
    first use.  The morphisms are listed by source, each source's
    identity first, then its (x, id_b) by x, then its (id_a, z) by z, the
    generating arrows in stored order and the targets by f' in hom order.
    """
    table = cat.compose
    objs = []
    for f in cat.arrows:
        for g in cat.hom(cat.dst[f], cat.src[f]):
            objs.append((f, g))
    obj_index = {o: i for i, o in enumerate(objs)}
    gens_out = {o: [] for o in cat.objects}
    gens_in = {o: [] for o in cat.objects}
    for x in cat.generating_arrows():
        gens_out[cat.src[x]].append(x)
        gens_in[cat.dst[x]].append(x)
    after = {}      # (x, b) -> {x then f': [f', ...]}
    before = {}     # (z, a) -> {f' then z: [f', ...]}
    arrows = []
    identities = {}
    uf = UnionFind(range(len(objs)))
    for s, o in enumerate(objs):
        f, g = o
        a, b = cat.src[f], cat.dst[f]
        ida, idb = cat.idarr(a), cat.idarr(b)
        identities[o] = ident = (o, o, ida, idb)
        arrows.append((ident, o, o))
        for x in gens_out[a]:
            pre = after.get((x, b))
            if pre is None:
                pre = after[(x, b)] = {}
                for f2 in cat.hom(cat.dst[x], b):
                    pre.setdefault(table[(x, f2)], []).append(f2)
            g2 = table[(g, x)]
            for f2 in pre.get(f, ()):
                ti = obj_index[(f2, g2)]
                t = objs[ti]
                arrows.append(((o, t, x, idb), o, t))
                uf.union(s, ti)
        for z in gens_in[b]:
            pre = before.get((z, a))
            if pre is None:
                pre = before[(z, a)] = {}
                for f2 in cat.hom(a, cat.src[z]):
                    pre.setdefault(table[(f2, z)], []).append(f2)
            g2 = table[(z, g)]
            for f2 in pre.get(f, ()):
                ti = obj_index[(f2, g2)]
                t = objs[ti]
                arrows.append(((o, t, ida, z), o, t))
                uf.union(s, ti)
    lcat = FinCat(objs, arrows, identities, {},
                  name=("lambda(%s)" % cat.name) if cat.name else None)
    comp_index = {}
    comps = {}
    for s, o in enumerate(objs):
        r = uf.find(s)
        if r not in comps:
            comps[r] = len(comps)
        comp_index[o] = comps[r]
    return lcat, comp_index


def count_strings(cat, a, k):
    """Number of composable length-k strings of nonidentity arrows from a."""
    if k < 0:
        raise ValueError("negative length")
    counts = {o: 1 for o in cat.objects}
    for _ in range(k):
        nxt = {o: 0 for o in cat.objects}
        for o in cat.objects:
            for arr in cat.out_nonid(o):
                nxt[o] += counts[cat.dst[arr]]
        counts = nxt
    return counts[a]


def string_alternating_sum(cat, a, max_len=None):
    """Sum of (-1)^k over all nonidentity strings from a; needs termination."""
    if max_len is None:
        max_len = len(cat.objects)
    total = 0
    k = 0
    while True:
        c = count_strings(cat, a, k)
        if c == 0 and k > 0:
            break
        total += c if k % 2 == 0 else -c
        k += 1
        if k > max_len:
            raise ValueError("string enumeration did not terminate by length %d"
                             % max_len)
    return total


def enumerate_strings(cat, max_len=None):
    """All nonidentity strings grouped by length: [(start, arrows)...].

    Length 0 strings are the objects themselves.  Raises if enumeration
    exceeds max_len lengths (non-homotopy-finite input).
    """
    if max_len is None:
        max_len = len(cat.objects)
    levels = [[(o, ()) for o in cat.objects]]
    while True:
        prev = levels[-1]
        nxt = []
        for (o, arrs) in prev:
            tail = cat.dst[arrs[-1]] if arrs else o
            for arr in cat.out_nonid(tail):
                nxt.append((o, arrs + (arr,)))
        if not nxt:
            return levels
        levels.append(nxt)
        if len(levels) > max_len + 1:
            raise ValueError("string enumeration did not terminate")


def is_isomorphic_objects(cat, a, b):
    if a == b:
        return True
    for f in cat.hom(a, b):
        if cat.inv(f) is not None:
            return True
    return False


def is_skeletal(cat):
    for i, a in enumerate(cat.objects):
        for b in cat.objects[i + 1:]:
            if is_isomorphic_objects(cat, a, b):
                return False
    return True


def is_EI(cat):
    """True when every endomorphism is invertible."""
    for a in cat.objects:
        for f in cat.endos(a):
            if cat.inv(f) is None:
                return False
    return True


def is_strictly_homotopy_finite(cat):
    """Finite, skeletal, and with no nonidentity endomorphisms."""
    for a in cat.objects:
        if any(not cat.is_id(f) for f in cat.endos(a)):
            return False
    return is_skeletal(cat)


def is_groupoid(cat):
    return all(cat.inv(f) is not None for f in cat.arrows)


class SkelResult:
    """Full subcategory on iso-class representatives plus re-indexing data.

    ``obj_map`` sends each object to its representative; ``iso_to_rep``
    holds, for each object x, a chosen isomorphism rep(x) -> x (identity
    on representatives).
    """

    def __init__(self, cat, obj_map, iso_to_rep):
        self.cat = cat
        self.obj_map = obj_map
        self.iso_to_rep = iso_to_rep


def skeletalize(cat):
    reps = []
    obj_map = {}
    iso_to_rep = {}
    for a in cat.objects:
        hit = None
        for r in reps:
            if is_isomorphic_objects(cat, r, a):
                hit = r
                break
        if hit is None:
            reps.append(a)
            obj_map[a] = a
            iso_to_rep[a] = cat.idarr(a)
        else:
            obj_map[a] = hit
            for f in cat.hom(hit, a):
                if cat.inv(f) is not None:
                    iso_to_rep[a] = f
                    break
    keep = set(reps)
    arrows = [(a, cat.src[a], cat.dst[a]) for a in cat.arrows
              if cat.src[a] in keep and cat.dst[a] in keep]
    kept = {a for a, _, _ in arrows}
    identities = {o: cat.idarr(o) for o in reps}
    compose = {(f, g): h for (f, g), h in cat.compose.items()
               if f in kept and g in kept}
    sub = FinCat(reps, arrows, identities, compose,
                 name=("skel(%s)" % cat.name) if cat.name else None)
    return SkelResult(sub, obj_map, iso_to_rep)


def poset_reflection(cat):
    """Collapse each nonempty hom-set of a skeletal EI category to one arrow.

    Returns (poset category, arrow map).  The poset records a <= b iff
    some arrow a -> b exists; skeletal EI input makes this antisymmetric.
    """
    if not (is_EI(cat) and is_skeletal(cat)):
        raise ValueError("poset reflection needs a skeletal EI category")
    rel = sorted({(cat.src[a], cat.dst[a]) for a in cat.arrows},
                 key=lambda p: (cat.obj_index[p[0]], cat.obj_index[p[1]]))
    arrows = [(("le", a, b), a, b) for a, b in rel]
    identities = {o: ("le", o, o) for o in cat.objects}
    compose = {}
    for (f, a, b) in arrows:
        for (g, b2, c) in arrows:
            if b == b2 and (a, c) in {(x, y) for x, y in rel}:
                compose[(f, g)] = ("le", a, c)
    pos = FinCat(cat.objects, arrows, identities, compose,
                 name=("poset(%s)" % cat.name) if cat.name else None)
    arrow_map = {a: ("le", cat.src[a], cat.dst[a]) for a in cat.arrows}
    return pos, arrow_map


def delta_prime_op(n):
    """Opposite of the injections-only simplex fragment on [0..n].

    Objects "[0]".."[n]"; an arrow [k] -> [m] is a monotone injection
    [m] -> [k], recorded by its image tuple.  Strictly homotopy finite.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    objs = ["[%d]" % i for i in range(n + 1)]

    def injections(m, k):
        # monotone injections [m] -> [k], as value tuples
        from itertools import combinations
        return list(combinations(range(k + 1), m + 1))

    arrows = []
    for k in range(n + 1):
        for m in range(k + 1):
            for img in injections(m, k):
                arrows.append((("i", k, m, img), "[%d]" % k, "[%d]" % m))
    identities = {"[%d]" % k: ("i", k, k, tuple(range(k + 1)))
                  for k in range(n + 1)}
    by_src = {}
    for (g, gs, _gd) in arrows:
        by_src.setdefault(gs, []).append(g)
    compose = {}
    for (f, _fs, fd) in arrows:
        (_, k, _m, img1) = f
        for g in by_src[fd]:
            compose[(f, g)] = ("i", k, g[2], tuple(img1[i] for i in g[3]))
    return FinCat(objs, arrows, identities, compose, name="delta'%d_op" % n)


def free_category_on_dag(nodes, edges):
    """Free category on a DAG: arrows are paths, composition is concatenation.

    ``edges`` is a list of (name, src, dst).  Strictly homotopy finite by
    acyclicity; raises on a cyclic input.
    """
    nodes = list(nodes)
    adj = {v: [] for v in nodes}
    for (e, s, t) in edges:
        adj[s].append((e, t))
    paths = []

    def walk(v, acc, seen):
        for (e, t) in adj[v]:
            if t in seen:
                raise ValueError("input graph has a cycle through %r" % (t,))
            paths.append((acc + (e,), t))
            walk(t, acc + (e,), seen | {t})

    all_arrows = []
    for v in nodes:
        all_arrows.append((("id", v), v, v))
    start_of = {}
    for v in nodes:
        before = len(paths)
        walk(v, (), {v})
        for (p, t) in paths[before:]:
            all_arrows.append((("p", v, p), v, t))
    identities = {v: ("id", v) for v in nodes}
    compose = {}
    for (f, fs, fd) in all_arrows:
        for (g, gs, gd) in all_arrows:
            if fd != gs:
                continue
            if f[0] == "id":
                compose[(f, g)] = g
            elif g[0] == "id":
                compose[(f, g)] = f
            else:
                compose[(f, g)] = ("p", fs, f[2] + g[2])
    return FinCat(nodes, all_arrows, identities, compose, name="free_dag")


# ---------------------------------------------------------------------------
# finite groups

class FinGroup:
    """Finite group with an explicit multiplication table.

    mul(a, b) is the product a*b under the convention that a matrix
    representation satisfies rho(a*b) = rho(a) @ rho(b).
    """

    def __init__(self, elements, mul, identity, name=None):
        self.elements = tuple(elements)
        self.mul_table = dict(mul)
        self.identity = identity
        self.name = name
        self.inv_table = {}
        for a in self.elements:
            for b in self.elements:
                if (self.mul_table[(a, b)] == identity
                        and self.mul_table[(b, a)] == identity):
                    self.inv_table[a] = b
                    break
        self.index = {g: i for i, g in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "FinGroup(%s: order %d)" % (self.name or "?", len(self))

    def mul(self, a, b):
        return self.mul_table[(a, b)]

    def inv(self, a):
        return self.inv_table[a]

    def violations(self):
        out = []
        e = self.identity
        for a in self.elements:
            if self.mul(e, a) != a or self.mul(a, e) != a:
                out.append("identity law fails at %r" % (a,))
            if a not in self.inv_table:
                out.append("no inverse for %r" % (a,))
        for a in self.elements:
            for b in self.elements:
                if self.mul(a, b) not in self.index:
                    out.append("product (%r, %r) escapes the set" % (a, b))
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        return out + ["associativity fails at (%r,%r,%r)" % (a, b, c)]
        return out


def cyclic_group(n):
    els = list(range(n))
    mul = {(a, b): (a + b) % n for a in els for b in els}
    return FinGroup(els, mul, 0, name="C%d" % n)


def symmetric_group(n):
    els = sorted(set(iproduct(*[range(n)] * n)))
    els = [p for p in els if sorted(p) == list(range(n))]
    mul = {}
    for p in els:
        for q in els:
            mul[(p, q)] = tuple(p[q[i]] for i in range(n))
    ident = tuple(range(n))
    return FinGroup(els, mul, ident, name="S%d" % n)


def subgroup(group, elements):
    els = list(elements)
    mul = {(a, b): group.mul(a, b) for a in els for b in els}
    return FinGroup(els, mul, group.identity)


def group_conj_classes(group):
    """Conjugacy classes as tuples, ordered by first element position."""
    seen = set()
    classes = []
    for g in group.elements:
        if g in seen:
            continue
        cls = set()
        for x in group.elements:
            cls.add(group.mul(group.mul(x, g), group.inv(x)))
        cls = sorted(cls, key=group.index.get)
        classes.append(tuple(cls))
        seen.update(cls)
    return classes


def aut_group(cat, a):
    """Automorphism group of an object; mul(f, g) = f o g."""
    els = [f for f in cat.endos(a) if cat.inv(f) is not None]
    mul = {}
    for f in els:
        for g in els:
            mul[(f, g)] = cat.then(g, f)
    return FinGroup(els, mul, cat.idarr(a), name="Aut(%r)" % (a,))


def category_from_group_hom(g, h, phi, name=None):
    """Two-object EI category from a group homomorphism phi: G -> H.

    Objects "a", "b" with End(a) = G, End(b) = H, Hom(a, b) a copy of H
    acted on the left by H and on the right through phi; Hom(b, a) empty.
    """
    arrows = []
    for x in g.elements:
        arrows.append((("g", x), "a", "a"))
    for y in h.elements:
        arrows.append((("h", y), "b", "b"))
    for y in h.elements:
        arrows.append((("m", y), "a", "b"))
    identities = {"a": ("g", g.identity), "b": ("h", h.identity)}
    compose = {}
    for x1 in g.elements:
        for x2 in g.elements:
            # ("g", x1) then ("g", x2) = x2 * x1 under rho-composition order
            compose[(("g", x1), ("g", x2))] = ("g", g.mul(x2, x1))
    for y1 in h.elements:
        for y2 in h.elements:
            compose[(("h", y1), ("h", y2))] = ("h", h.mul(y2, y1))
    for x in g.elements:
        for y in h.elements:
            compose[(("g", x), ("m", y))] = ("m", h.mul(y, phi[x]))
    for y in h.elements:
        for z in h.elements:
            compose[(("m", y), ("h", z))] = ("m", h.mul(z, y))
    return FinCat(["a", "b"], arrows, identities, compose,
                  name=name or "homcat")


def bg_category(group, name=None):
    """One-object groupoid of a finite group.

    Arrow ("g", x) then ("g", y) composes to ("g", y*x), so diagrams over
    the result restrict to representations with rho(x*y) = rho(x) rho(y).
    """
    arrows = [(("g", x), "x", "x") for x in group.elements]
    compose = {}
    for a in group.elements:
        for b in group.elements:
            compose[(("g", a), ("g", b))] = ("g", group.mul(b, a))
    return FinCat(["x"], arrows, {"x": ("g", group.identity)}, compose,
                  name=name or ("B%s" % (group.name or "G")))


def connected_groupoid(group, n_objects, name=None):
    """Connected groupoid with n objects, all hom-sets a copy of the group."""
    objs = list(range(n_objects))
    arrows = [(("g", x, i, j), i, j) for i in objs for j in objs
              for x in group.elements]
    identities = {i: ("g", group.identity, i, i) for i in objs}
    compose = {}
    for i in objs:
        for j in objs:
            for k in objs:
                for x in group.elements:
                    for y in group.elements:
                        compose[(("g", x, i, j), ("g", y, j, k))] = \
                            ("g", group.mul(y, x), i, k)
    return FinCat(objs, arrows, identities, compose,
                  name=name or "connected_groupoid")


def disjoint_union(c1, c2, name=None):
    """Coproduct of two categories on tagged objects and arrows."""
    objs = [(0, o) for o in c1.objects] + [(1, o) for o in c2.objects]
    arrows = ([((0, a), (0, c1.src[a]), (0, c1.dst[a])) for a in c1.arrows]
              + [((1, a), (1, c2.src[a]), (1, c2.dst[a])) for a in c2.arrows])
    identities = {(0, o): (0, c1.idarr(o)) for o in c1.objects}
    identities.update({(1, o): (1, c2.idarr(o)) for o in c2.objects})
    compose = {((0, f), (0, g)): (0, h) for (f, g), h in c1.compose.items()}
    compose.update({((1, f), (1, g)): (1, h) for (f, g), h in c2.compose.items()})
    return FinCat(objs, arrows, identities, compose, name=name or "union")


def parallel_arrows(n, name=None):
    """Two objects with n parallel nonidentity arrows between them."""
    arrows = [(("id", "b1"), "b1", "b1"), (("id", "b2"), "b2", "b2")]
    arrows += [(("p", i), "b1", "b2") for i in range(n)]
    identities = {"b1": ("id", "b1"), "b2": ("id", "b2")}
    compose = {(("id", "b1"), ("id", "b1")): ("id", "b1"),
               (("id", "b2"), ("id", "b2")): ("id", "b2")}
    for i in range(n):
        compose[(("id", "b1"), ("p", i))] = ("p", i)
        compose[(("p", i), ("id", "b2"))] = ("p", i)
    return FinCat(["b1", "b2"], arrows, identities, compose,
                  name=name or ("parallel%d" % n))


def orbit_category(group, subgroups, name=None):
    """Transitive actions of a group on coset sets, with equivariant maps.

    ``subgroups`` is a list of FinGroups over subsets of the group's
    elements; one object per subgroup, and a ValueError if one is not a
    subgroup.  The cosets xH of each subgroup are numbered in order of
    their least element, in ``group.index`` order.  A map from cosets of
    H to cosets of K is right multiplication by g with g^-1 H g inside K,
    stored as the tuple of the coset indices it sends each coset to; maps
    are identified when the tuples agree, and a dict from (source,
    target, tuple) to the arrow finds identities and composites.
    """
    G = group
    members = [set(H.elements) for H in subgroups]
    for idx, H in enumerate(subgroups):
        hset = members[idx]
        bad = next((repr(x) + " is not in the group" for x in H.elements
                    if x not in G.index), None)
        if bad is None and G.identity not in hset:
            bad = "it lacks the identity"
        if bad is None:
            bad = next(("%r * %r is not in it" % (x, y) for x in H.elements
                        for y in H.elements if G.mul(x, y) not in hset), None)
        if bad is not None:
            raise ValueError("subgroup %d is not a subgroup of the group: %s"
                             % (idx, bad))
    coset_of = []       # per subgroup: element -> index of its coset
    reps = []           # per subgroup: the least element of each coset
    for H in subgroups:
        where, least = {}, []
        for x in G.elements:
            if x not in where:
                for h in H.elements:
                    where[G.mul(x, h)] = len(least)
                least.append(x)
        coset_of.append(where)
        reps.append(least)
    objs = list(range(len(subgroups)))
    arrows = []
    by_map = {}         # (i, j, map) -> arrow
    out = {i: [] for i in objs}     # i -> [(arrow, map)], in stored order
    for i in objs:
        conj = [(g, {G.mul(G.mul(G.inv(g), h), g) for h in members[i]})
                for g in G.elements]
        for j in objs:
            count = 0
            for g, hg in conj:
                if hg <= members[j]:
                    fn = tuple(coset_of[j][G.mul(x, g)] for x in reps[i])
                    if (i, j, fn) not in by_map:
                        aid = ("o", i, j, count)
                        count += 1
                        arrows.append((aid, i, j))
                        by_map[(i, j, fn)] = aid
                        out[i].append((aid, fn))
    identities = {i: by_map[(i, i, tuple(range(len(reps[i]))))]
                  for i in objs}
    compose = {}
    for i in objs:
        for f, mf in out[i]:
            for g, mg in out[f[2]]:
                compose[(f, g)] = by_map[(i, g[2],
                                          tuple(map(mg.__getitem__, mf)))]
    return FinCat(objs, arrows, identities, compose,
                  name=name or "orbit_category")


class Functor:
    """Explicit functor data between composition-table categories."""

    def __init__(self, src, dst, obj_map, arr_map):
        self.src = src
        self.dst = dst
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)

    def violations(self):
        out = []
        for o in self.src.objects:
            if self.arr_map[self.src.idarr(o)] != self.dst.idarr(self.obj_map[o]):
                out.append("identity of %r not preserved" % (o,))
        for a in self.src.arrows:
            fa = self.arr_map[a]
            if (self.dst.src[fa] != self.obj_map[self.src.src[a]]
                    or self.dst.dst[fa] != self.obj_map[self.src.dst[a]]):
                out.append("endpoints of %r not preserved" % (a,))
        if out:
            return out
        for (f, g), hcomp in self.src.compose.items():
            if (self.dst.compose.get((self.arr_map[f], self.arr_map[g]))
                    != self.arr_map[hcomp]):
                out.append("composition not preserved at (%r, %r)" % (f, g))
        return out


# ---------------------------------------------------------------------------
# isomorphism classes of arrow strings over a fixed object chain (EI case)

class StringClasses:
    """Orbits of arrow strings over a chain under pointwise automorphisms.

    The product of the automorphism groups of the chain objects acts by
    (g_0..g_n) . (f_1..f_n) = (g_1 f_1 g_0^-1, ..., g_n f_n g_{n-1}^-1).
    Each class records a representative, its stabilizer subgroup, and the
    orbit; ``locate`` returns (class index, group element moving the
    representative onto the given string).
    """

    def __init__(self, chain, classes, loc, group):
        self.chain = chain
        self.classes = classes
        self._loc = loc
        self.group = group

    def locate(self, s):
        return self._loc[s]


def string_iso_classes(cat, chain):
    """Iso classes of composable strings over a strictly increasing chain.

    ``chain`` is a tuple of objects (a_0, ..., a_n); strings are tuples of
    arrows a_{i-1} -> a_i.  Requires a skeletal EI category and distinct
    consecutive objects (so all string arrows are noninvertible).
    """
    n = len(chain) - 1
    for i in range(n):
        if chain[i] == chain[i + 1]:
            raise ValueError("chain must be strictly increasing")
        if not cat.hom(chain[i], chain[i + 1]):
            raise ValueError("chain has empty hom at step %d" % i)
    auts = [aut_group(cat, a) for a in chain]
    group_elems = list(iproduct(*[g.elements for g in auts]))
    inv_elem = {g: tuple(auts[i].inv(g[i]) for i in range(n + 1))
                for g in group_elems}

    def act(g, s):
        out = []
        for i in range(1, n + 1):
            # g_i o f_i o g_{i-1}^{-1}
            out.append(cat.then_seq([inv_elem[g][i - 1], s[i - 1], g[i]]))
        return tuple(out)

    strings = list(iproduct(*[cat.hom(chain[i], chain[i + 1])
                              for i in range(n)]))
    strings.sort(key=lambda s: tuple(cat.arrow_index[a] for a in s))
    loc = {}
    classes = []
    for s in strings:
        if s in loc:
            continue
        idx = len(classes)
        stab = []
        orbit = set()
        for g in group_elems:
            t = act(g, s)
            if t not in loc:
                loc[t] = (idx, g)
            orbit.add(t)
            if t == s:
                stab.append(g)
        ident = tuple(g.identity for g in auts)
        mul = {}
        for x in stab:
            for y in stab:
                # componentwise x_i o y_i
                mul[(x, y)] = tuple(cat.then(y[i], x[i]) for i in range(n + 1))
        aut = FinGroup(stab, mul, ident)
        classes.append({"rep": s, "aut": aut, "orbit_size": len(orbit)})
    return StringClasses(chain, classes, loc, group_elems)
