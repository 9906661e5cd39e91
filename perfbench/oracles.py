"""Reference computations the benchmark checks the library against.

Plain Python over ``fractions.Fraction`` and the raw composition table;
nothing here imports tracelin, so a fault in its linear algebra or its
category code cannot hide in both sides of a check.

A composition table is given as plain data: ``objects`` (a sequence),
``src``/``dst`` (dicts arrow -> object), ``arrows`` (a sequence in stored
order) and ``compose`` (dict (f, g) -> the composite "f then g").
"""

from fractions import Fraction


# ---------------------------------------------------------------------------
# rational matrices as lists of rows

def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for arow in a:
        if len(arow) != inner:
            raise ValueError("shape mismatch in matmul")
        orow = [0] * cols
        for k, x in enumerate(arow):
            if x:
                brow = b[k]
                for j in range(cols):
                    y = brow[j]
                    if y:
                        orow[j] += x * y
        out.append(orow)
    return out


def trace(a):
    if any(len(row) != len(a) for row in a):
        raise ValueError("trace of a non-square matrix")
    return sum((Fraction(a[i][i]) for i in range(len(a))), Fraction(0))


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def is_zero(a):
    return all(not x for row in a for x in row)


# ---------------------------------------------------------------------------
# linearized coproducts of representables, read from the composition table

def hom(table, a, b):
    return [f for f in table["arrows"]
            if table["src"][f] == a and table["dst"][f] == b]


def representable_basis(table, summands):
    """Basis at each object c of the sum over i of Q[hom(summands[i], c)].

    Returns {c: [(i, u), ...]} in summand order, then stored arrow order.
    """
    return {c: [(i, u) for i, a in enumerate(summands)
                for u in hom(table, a, c)]
            for c in table["objects"]}


def representable_matrices(table, basis):
    """Matrix of each arrow g: c -> c', acting by u -> (u then g)."""
    mats = {}
    for g in table["arrows"]:
        c, c2 = table["src"][g], table["dst"][g]
        index = {v: k for k, v in enumerate(basis[c2])}
        m = [[0] * len(basis[c]) for _ in basis[c2]]
        for j, (i, u) in enumerate(basis[c]):
            m[index[(i, table["compose"][(u, g)])]][j] = 1
        mats[g] = m
    return mats


def yoneda_endo(table, summands, basis, coefs):
    """Natural endomorphism of a sum of representables, one matrix per object.

    ``coefs[(j, i)]`` maps arrows h: summands[j] -> summands[i] to
    rationals; the component at c sends u in summand i to the sum of
    coef * (h then u) in summand j.  Naturality holds by construction.
    """
    out = {}
    for c in table["objects"]:
        index = {v: k for k, v in enumerate(basis[c])}
        m = [[0] * len(basis[c]) for _ in basis[c]]
        for col, (i, u) in enumerate(basis[c]):
            for (j, i2), terms in coefs.items():
                if i2 != i:
                    continue
                for h, x in terms.items():
                    if x:
                        m[index[(j, table["compose"][(h, u)])]][col] += x
        out[c] = m
    return out


def fixed_points(table, summands, alpha):
    """Fixed points of an endomorphism alpha: a -> a acting on the sum of
    hom(summands[i], a) by postcomposition."""
    a = table["src"][alpha]
    return sum(1 for s in summands for u in hom(table, s, a)
               if table["compose"][(u, alpha)] == u)


# ---------------------------------------------------------------------------
# union-find counts

def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union_count(items, pairs):
    parent = {x: x for x in items}
    for x, y in pairs:
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[rx] = ry
    return len({_find(parent, x) for x in items})


def orbit_count(points, elements, act):
    """Number of orbits of a finite G-set, by union-find over all moves."""
    return _union_count(points, ((z, act(g, z)) for g in elements
                                 for z in points))


def category_class_count(table):
    """Conjugacy classes of a category: endomorphisms under fg ~ gf."""
    endos = [f for f in table["arrows"] if table["src"][f] == table["dst"][f]]
    comp = table["compose"]
    pairs = []
    for g in table["arrows"]:
        a, b = table["src"][g], table["dst"][g]
        for f in hom(table, b, a):
            pairs.append((comp[(g, f)], comp[(f, g)]))
    return _union_count(endos, pairs)


def group_class_sizes(elements, mul):
    """Sizes of the conjugacy classes of a group from its multiplication."""
    elements = list(elements)
    e = next(x for x in elements
             if all(mul(x, y) == y for y in elements))
    inv = {x: next(y for y in elements if mul(x, y) == e) for x in elements}
    seen = set()
    sizes = []
    for g in elements:
        if g in seen:
            continue
        cls = {mul(mul(x, g), inv[x]) for x in elements}
        seen |= cls
        sizes.append(len(cls))
    return sizes


def indecomposable_count(table):
    """Nonidentity arrows that are no composite of two nonidentity arrows."""
    ids = set(table["identities"].values())
    composites = {h for (f, g), h in table["compose"].items()
                  if f not in ids and g not in ids}
    return sum(1 for f in table["arrows"]
               if f not in ids and f not in composites)
