"""Closed-form coefficient vectors and the combinatorial identities behind them.

A coefficient vector assigns one exact rational to each conjugacy class
of a shape category; pairing it against the componentwise traces of a
natural endomorphism gives the trace of the induced endomorphism on the
(homotopy) colimit.  Each family of shapes has its own closed form here,
and the profunctor pipeline provides an independent oracle for all of
them.
"""

from . import fincat
from .exactalg import F, ONE, ZERO, SparseMat, solve_linear, kernel_basis


class CoeffVector:
    """One exact rational per conjugacy class of the base category."""

    def __init__(self, base, values):
        self.base = base
        self.classes = fincat.conjugacy_classes(base)
        self.values = {rep: values.get(rep, ZERO) for rep in self.classes.reps}
        unknown = set(values) - set(self.classes.reps)
        if unknown:
            raise ValueError("values keyed by non-representatives: %r" % (unknown,))

    def __getitem__(self, rep):
        return self.values[rep]

    def items(self):
        return [(rep, self.values[rep]) for rep in self.classes.reps]

    def __eq__(self, other):
        return (isinstance(other, CoeffVector)
                and self.base.arrows == other.base.arrows
                and self.values == other.values)

    def __repr__(self):
        return "CoeffVector(%r)" % ({str(k): str(v) for k, v in self.items()},)


class Weighting:
    """Per-object rationals k with sum over b of |hom(a,b)| k_b = 1 for all a."""

    def __init__(self, base, values, check=True):
        self.base = base
        self.values = dict(values)
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    def __getitem__(self, obj):
        return self.values[obj]

    def violations(self):
        out = []
        for a in self.base.objects:
            s = sum((F(len(self.base.hom(a, b))) * self.values[b]
                     for b in self.base.objects), ZERO)
            if s != 1:
                out.append("weighting equation fails at %r (got %s)" % (a, s))
        return out


class NoWeighting:
    """Certificate that the weighting system is unsolvable.

    ``certificate`` is a left null vector of the hom-count matrix whose
    pairing with the all-ones right side is nonzero.
    """

    def __init__(self, base, certificate):
        self.base = base
        self.certificate = certificate


def coeff_hofin(cat):
    """Coefficients for a strictly homotopy finite shape.

    The class at each object's identity gets the alternating count of
    composable nonidentity strings starting there.
    """
    if not fincat.is_strictly_homotopy_finite(cat):
        raise ValueError("category is not strictly homotopy finite")
    values = {}
    for a in cat.objects:
        values[cat.idarr(a)] = F(fincat.string_alternating_sum(cat, a))
    return CoeffVector(cat, values)


def coeff_group(group, bg_cat=None):
    """Coefficients for a one-object groupoid: class size over group order."""
    if bg_cat is None:
        bg_cat = fincat.bg_category(group)
    classes = fincat.conjugacy_classes(bg_cat)
    n = len(bg_cat.arrows)
    values = {rep: F(len(classes.classes[i]), n)
              for i, rep in enumerate(classes.reps)}
    return CoeffVector(bg_cat, values)


def coeff_groupoid(cat):
    """Coefficients for a finite groupoid, on its skeleton.

    Each class of an automorphism group of an object representative gets
    class size over the order of that automorphism group.
    """
    if not fincat.is_groupoid(cat):
        raise ValueError("category is not a groupoid")
    skel = fincat.skeletalize(cat).cat
    classes = fincat.conjugacy_classes(skel)
    values = {}
    for i, rep in enumerate(classes.reps):
        a = skel.src[rep]
        values[rep] = F(len(classes.classes[i]), len(fincat.aut_group(skel, a)))
    return CoeffVector(skel, values)


def _class_of_first_components(cat, a, aut_of_a_classes, conj_class):
    """Class index of the first components of a stabilizer conjugacy class.

    All first components must land in one class of the object's
    automorphism group; anything else is an inconsistent table (ValueError).
    """
    hits = set()
    for g in conj_class:
        g0 = g[0]
        for i, cls in enumerate(aut_of_a_classes):
            if g0 in cls:
                hits.add(i)
                break
    if len(hits) != 1:
        raise ValueError("class restriction at %r is not well defined" % (a,))
    return hits.pop()


def coeff_EI(cat):
    """Coefficients for a finite EI shape by orbit/stabilizer enumeration.

    For each strictly increasing chain from an object, each iso class of
    arrow strings over the chain contributes, per conjugacy class of its
    stabilizer restricting to the given class at the start, the class
    size over the stabilizer order, signed by chain length.

    Chains are extended depth-first, one arrow at a time.  A class over
    (a_0, ..., a_n) with stabilizer H extends to o above a_n by the
    orbits of H x Aut(o) on hom(a_n, o) under (h, g).f = h_n^-1 ; f ; g;
    each orbit is one class over (a_0, ..., a_n, o), whose stabilizer is
    the set of h + (g,) fixing its representative.  How a class extends
    depends only on its last object and its stabilizer, so classes with
    equal stabilizers over one chain are carried once, with their count.
    The conjugacy-class terms of each distinct (a_0, stabilizer) are
    computed once per call.
    """
    if not fincat.is_EI(cat):
        raise ValueError("category is not EI")
    skel = fincat.skeletalize(cat).cat
    classes = fincat.conjugacy_classes(skel)
    table = skel.compose
    auts = {a: fincat.aut_group(skel, a) for a in skel.objects}
    inv = {}
    for group in auts.values():
        inv.update(group.inv_table)
    aut_classes = {a: fincat.group_conj_classes(auts[a]) for a in skel.objects}
    above = {a: [b for b in skel.objects if b != a and skel.hom(a, b)]
             for a in skel.objects}
    # arrows both ways between two objects of an EI category make them
    # isomorphic; the walk below would then cycle between them forever
    for a in skel.objects:
        for b in above[a]:
            if a in above[b]:
                raise ValueError("skeleton is not skeletal: %r and %r are "
                                 "isomorphic" % (a, b))
    terms = {}      # (a_0, stabilizer) -> [(target class, class size)]
    nums = {}       # (target class, stabilizer order) -> signed size sum

    def stabilizer_terms(a, stab):
        ident = tuple(skel.idarr(skel.src[x]) for x in stab[0])
        mul = {(x, y): tuple(table[(yi, xi)] for xi, yi in zip(x, y))
               for x in stab for y in stab}
        out = []
        for cls in fincat.group_conj_classes(fincat.FinGroup(stab, mul, ident)):
            ci = _class_of_first_components(skel, a, aut_classes[a], cls)
            out.append((classes.class_of[aut_classes[a][ci][0]], len(cls)))
        return out

    for a in skel.objects:
        # (last object, signed class count, stabilizer of those classes)
        stack = [(a, 1, tuple((g,) for g in auts[a].elements))]
        while stack:
            last, count, stab = stack.pop()
            key = (a, stab)
            if key not in terms:
                terms[key] = stabilizer_terms(a, stab)
            for target, size in terms[key]:
                k = (target, len(stab))
                nums[k] = nums.get(k, 0) + count * size
            for o in above[last]:
                aut_o = auts[o].elements
                done = set()
                orbits = {}     # stabilizer -> orbits with it
                for f in skel.hom(last, o):
                    if f in done:
                        continue
                    new = []
                    for h in stab:
                        pre = table[(inv[h[-1]], f)]
                        for g in aut_o:
                            t = table[(pre, g)]
                            done.add(t)
                            if t == f:
                                new.append(h + (g,))
                    new = tuple(new)
                    orbits[new] = orbits.get(new, 0) + 1
                for new, n in orbits.items():
                    stack.append((o, -count * n, new))
    values = {rep: ZERO for rep in classes.reps}
    for (target, order), num in nums.items():
        values[classes.reps[target]] += F(num, order)
    return CoeffVector(skel, values)


def coeff_EI_desouza(cat):
    """Coefficients for a finite EI shape by fixed-arrow counting.

    Enumerates composable sequences of noninvertible arrows between
    chosen conjugacy-class representatives that intertwine them; each
    sequence contributes the signed product of class size over group
    order along its objects.  Provably equal to coeff_EI; computed by a
    different enumeration entirely.
    """
    if not fincat.is_EI(cat):
        raise ValueError("category is not EI")
    skel = fincat.skeletalize(cat).cat
    classes = fincat.conjugacy_classes(skel)
    auts = {a: fincat.aut_group(skel, a) for a in skel.objects}
    aut_classes = {a: fincat.group_conj_classes(auts[a]) for a in skel.objects}
    weights = {}
    node_of_rep = {}
    nodes = []
    for a in skel.objects:
        for cls in aut_classes[a]:
            h = cls[0]
            nodes.append((a, h))
            weights[(a, h)] = F(len(cls), len(auts[a]))
            node_of_rep[(a, h)] = classes.reps[classes.class_of[h]]
    # arrows of the skeleton of the endomorphism category, noninvertible only
    succ = {nd: [] for nd in nodes}
    for (a, h) in nodes:
        for (b, k) in nodes:
            if a == b:
                continue
            for alpha in skel.hom(a, b):
                # intertwining: alpha then k == h then alpha
                if skel.then(alpha, k) == skel.then(h, alpha):
                    succ[(a, h)].append((b, k))
    values = {rep: ZERO for rep in classes.reps}
    # iterative enumeration of all composable sequences from each start node
    for start in nodes:
        target = node_of_rep[start]
        stack = [(start, 1, weights[start])]
        while stack:
            (nd, sign, wt) = stack.pop()
            values[target] += sign * wt
            for nxt in succ[nd]:
                stack.append((nxt, -sign, wt * weights[nxt]))
    return CoeffVector(skel, values)


def stabilizer_orbit_identity(group, zset, action, subset):
    """Both sides of the stabilizer/orbit identity, computed independently.

    Left: sum over orbits of |stabilizer meet subset| / |stabilizer|.
    Right: sum over subset elements of fixed points over group order.
    ``subset`` must be closed under conjugation.
    """
    subset = set(subset)
    for g in subset:
        for x in group.elements:
            if group.mul(group.mul(x, g), group.inv(x)) not in subset:
                raise ValueError("subset is not closed under conjugation")
    uf = fincat.UnionFind(list(zset))
    for g in group.elements:
        for z in zset:
            uf.union(z, action(g, z))
    lhs = ZERO
    for rep, orbit in sorted(uf.groups().items(), key=lambda kv: zset.index(kv[0])):
        z = orbit[0]
        stab = [g for g in group.elements if action(g, z) == z]
        lhs += F(len([g for g in stab if g in subset]), len(stab))
    rhs = ZERO
    for g in subset:
        fixed = sum(1 for z in zset if action(g, z) == z)
        rhs += F(fixed, len(group))
    return lhs, rhs


def leinster_weighting(cat):
    """Exact solution of the hom-count weighting system, or a certificate.

    Returns a Weighting when the linear system has a solution (any
    solution; free variables are set to zero), else a NoWeighting whose
    certificate row annihilates the hom-count matrix but not the ones
    vector.
    """
    objs = list(cat.objects)
    n = len(objs)
    mat = SparseMat([{j: k for j, b in enumerate(objs)
                      if (k := len(cat.hom(a, b)))} for a in objs], n, n)
    res = solve_linear(mat, SparseMat([{0: 1} for _ in objs], n, 1))
    if res is None:
        # the left null vectors, as the rows of the transposed basis
        for vec in kernel_basis(mat.transpose()).transpose().terms:
            if sum(vec.values()):
                return NoWeighting(cat, [F(vec.get(i, 0)) for i in range(n)])
        raise AssertionError("inconsistent system without certificate")
    return Weighting(cat, {o: F(res.solution.terms[i].get(0, 0))
                           for i, o in enumerate(objs)})


# ---------------------------------------------------------------------------
# fixed small tables over their canonical shapes

def coeff_coproduct(cat):
    """All-ones coefficients over a discrete shape."""
    if cat.nonidentity():
        raise ValueError("coproduct table needs a discrete category")
    return CoeffVector(cat, {cat.idarr(a): ONE for a in cat.objects})


def coeff_initial(cat):
    if cat.objects:
        raise ValueError("initial table needs the empty category")
    return CoeffVector(cat, {})


def coeff_idempotent(cat):
    """(0 at the identity class, 1 at the idempotent class)."""
    classes = fincat.conjugacy_classes(cat)
    if len(cat.objects) != 1 or len(cat.arrows) != 2 or len(classes) != 2:
        raise ValueError("idempotent table needs the one-object "
                         "idempotent category")
    ident = cat.idarr(cat.objects[0])
    other = [a for a in cat.arrows if a != ident][0]
    return CoeffVector(cat, {ident: ZERO, other: ONE})


def coeff_cofiber(cat):
    """(-1 at the source identity, 1 at the target identity) over an arrow."""
    nonid = cat.nonidentity()
    if len(cat.objects) != 2 or len(nonid) != 1:
        raise ValueError("cofiber table needs the walking arrow")
    arr = nonid[0]
    return CoeffVector(cat, {cat.idarr(cat.src[arr]): -ONE,
                             cat.idarr(cat.dst[arr]): ONE})


def coeff_pushout(cat):
    """(1, 1, -1) over a two-legged span: legs get 1, the apex -1."""
    nonid = cat.nonidentity()
    if len(cat.objects) != 3 or len(nonid) != 2:
        raise ValueError("pushout table needs the two-legged span")
    srcs = {cat.src[a] for a in nonid}
    if len(srcs) != 1:
        raise ValueError("pushout table needs a common apex")
    apex = srcs.pop()
    values = {cat.idarr(o): (-ONE if o == apex else ONE) for o in cat.objects}
    return CoeffVector(cat, values)


def realiz_coeff_check(n):
    """Alternating string count from the top simplex; expected (-1)^n."""
    cat = fincat.delta_prime_op(n)
    total = F(fincat.string_alternating_sum(cat, "[%d]" % n,
                                            max_len=len(cat.objects)))
    expected = ONE if n % 2 == 0 else -ONE
    return total, expected
