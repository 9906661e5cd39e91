"""Diagrams of rational spaces, finite sets, and chain complexes.

A diagram is a functor out of a composition-table category; natural
endomorphisms are per-object maps commuting with every arrow.  This
module computes strict and weighted colimits (as cokernels of one
relation writer, a strict colimit being the constant weight), homotopy
colimits (as total complexes of a semisimplicial level construction),
homotopy colimits over groupoids, a group's coinvariants among them (as
direct sums of images of averaging idempotents), and the reduction of a
finite EI shape to a strictly homotopy finite one.  Direct sums of
complexes and the maps induced on them are laid out by ``direct_sum``
and ``ChainMap.from_blocks`` of ``exactalg``.
"""

from . import fincat
from .exactalg import (
    F, SparseMat, ChainComplex, ChainMap, cokernel, direct_sum,
    factor_through, identity_chain_map, idempotent_image, kron,
)


class VectDiagram:
    """Functor from a finite category to rational vector spaces.

    Each value is kept as a SparseMat (a Mat given is converted once,
    here), which ``mat(a)`` returns and the checks run on.
    """

    def __init__(self, base, dims, mats, check=True):
        self.base = base
        self.dims = dict(dims)
        self.mats = {a: SparseMat.from_mat(m) for a, m in mats.items()}
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    def dim(self, obj):
        return self.dims[obj]

    def mat(self, arr):
        return self.mats[arr]

    def violations(self):
        cat = self.base
        out = ["no dimension for object %r" % (o,)
               for o in cat.objects if o not in self.dims]
        if out:
            return out
        for a in cat.arrows:
            m = self.mats.get(a)
            if m is None:
                out.append("no matrix for arrow %r" % (a,))
                continue
            if m.rows != self.dims[cat.dst[a]] or m.cols != self.dims[cat.src[a]]:
                out.append("matrix for %r has wrong shape" % (a,))
        if out:
            return out
        for o in cat.objects:
            if not self.mats[cat.idarr(o)].is_identity():
                out.append("identity of %r is not the identity matrix" % (o,))
        for (f, g), h in cat.compose.items():
            if self.mats[g] @ self.mats[f] != self.mats[h]:
                out.append("functoriality fails at (%r, %r)" % (f, g))
        return out


class ChainDiagram:
    """Functor from a finite category to bounded chain complexes."""

    def __init__(self, base, complexes, maps, check=True):
        self.base = base
        self.complexes = dict(complexes)
        self.maps = dict(maps)
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    def cx(self, obj):
        return self.complexes[obj]

    def map(self, arr):
        return self.maps[arr]

    def violations(self):
        out = []
        cat = self.base
        for a in cat.arrows:
            f = self.maps.get(a)
            if f is None:
                out.append("no chain map for arrow %r" % (a,))
                continue
            out.extend("arrow %r: %s" % (a, v) for v in f.violations())
        if out:
            return out
        for o in cat.objects:
            if not all(self.maps[cat.idarr(o)].sparse_mat(n).is_identity()
                       for n in self.complexes[o].dims):
                out.append("identity of %r is not the identity" % (o,))
        for (f, g), h in cat.compose.items():
            if self.maps[g].compose(self.maps[f]) != self.maps[h]:
                out.append("functoriality fails at (%r, %r)" % (f, g))
        return out


class FinSetDiagram:
    """Functor from a finite category to finite sets."""

    def __init__(self, base, sets, funcs, check=True):
        self.base = base
        self.sets = {o: list(v) for o, v in sets.items()}
        self.funcs = dict(funcs)
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    def violations(self):
        out = []
        cat = self.base
        for a in cat.arrows:
            fn = self.funcs.get(a)
            if fn is None:
                out.append("no function for arrow %r" % (a,))
                continue
            s, t = cat.src[a], cat.dst[a]
            if set(fn) != set(self.sets[s]) or any(v not in set(self.sets[t])
                                                   for v in fn.values()):
                out.append("function for %r has wrong domain/codomain" % (a,))
        if out:
            return out
        for o in cat.objects:
            if any(self.funcs[cat.idarr(o)][x] != x for x in self.sets[o]):
                out.append("identity of %r moves elements" % (o,))
        for (f, g), h in cat.compose.items():
            fg = {x: self.funcs[g][self.funcs[f][x]] for x in self.funcs[f]}
            if fg != self.funcs[h]:
                out.append("functoriality fails at (%r, %r)" % (f, g))
        return out


class NatEndo:
    """Natural endomorphism of a diagram: per-object matrix or chain map.

    Over a VectDiagram a component is kept as a SparseMat (a Mat given is
    converted once, here), which ``at(o)`` returns.
    """

    def __init__(self, diagram, components, check=True):
        self.diagram = diagram
        vect = isinstance(diagram, VectDiagram)
        self.components = {o: SparseMat.from_mat(m) if vect else m
                           for o, m in components.items()}
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    def at(self, obj):
        return self.components[obj]

    def violations(self):
        d = self.diagram
        cat = d.base
        out = ["no component for object %r" % (o,)
               for o in cat.objects if o not in self.components]
        if out:
            return out
        if isinstance(d, VectDiagram):
            for o in cat.objects:
                m, n = self.components[o], d.dim(o)
                if (m.rows, m.cols) != (n, n):
                    out.append("component at %r has shape %dx%d, expected %dx%d"
                               % (o, m.rows, m.cols, n, n))
            if out:
                return out
            for a in cat.arrows:
                s, t = cat.src[a], cat.dst[a]
                if d.mat(a) @ self.components[s] != self.components[t] @ d.mat(a):
                    out.append("naturality fails at arrow %r" % (a,))
        else:
            for a in cat.arrows:
                s, t = cat.src[a], cat.dst[a]
                lhs = d.map(a).compose(self.components[s])
                if lhs != self.components[t].compose(d.map(a)):
                    out.append("naturality fails at arrow %r" % (a,))
        return out


def identity_endo(x):
    """Identity natural endomorphism of a vector-space or chain diagram."""
    objs = x.base.objects
    if isinstance(x, VectDiagram):
        return NatEndo(x, {o: SparseMat.identity(x.dim(o)) for o in objs},
                       check=False)
    return NatEndo(x, {o: identity_chain_map(x.cx(o)) for o in objs},
                   check=False)


# ---------------------------------------------------------------------------
# linearization of set diagrams

def linearize(d):
    """Free rational space on each set; functions become 0/1 SparseMats.

    The trace of a linearized endofunction counts its fixed points.
    """
    cat = d.base
    dims = {o: len(d.sets[o]) for o in cat.objects}
    index = {o: {x: i for i, x in enumerate(d.sets[o])} for o in cat.objects}
    mats = {}
    for a in cat.arrows:
        s, t = cat.src[a], cat.dst[a]
        rows = [{} for _ in range(dims[t])]
        for x in d.sets[s]:
            rows[index[t][d.funcs[a][x]]][index[s][x]] = 1
        mats[a] = SparseMat(rows, dims[t], dims[s])
    return VectDiagram(cat, dims, mats, check=False)


def vect_to_chain(x, degree=0):
    """Degree-concentrated chain diagram from a vector-space diagram."""
    complexes = {o: ChainComplex({degree: x.dim(o)}, {}, check=False)
                 for o in x.base.objects}
    maps = {a: ChainMap(complexes[x.base.src[a]], complexes[x.base.dst[a]],
                        {degree: x.mat(a)}, check=False)
            for a in x.base.arrows}
    return ChainDiagram(x.base, complexes, maps, check=False)


# ---------------------------------------------------------------------------
# strict colimits of vector-space diagrams

class ColimResult:
    """A colimit as a cokernel: its dimension, the projection (a
    SparseMat) from the direct sum of the values onto it, and the block
    (offset, dimension) of each object in that sum."""

    def __init__(self, dim, proj, offsets):
        self.dim = dim
        self.proj = proj
        self.offsets = offsets

    def cocone(self, obj):
        """The projection restricted to the block of obj."""
        off, d = self.offsets[obj]
        return SparseMat([{j - off: v for j, v in terms.items()
                           if off <= j < off + d}
                          for terms in self.proj.terms], self.proj.rows, d)


def colim_vect(x):
    """Colimit of a vector-space diagram as an explicit cokernel: the
    weighted colimit of the constant weight Q (``_weighted_colim``).

    The relations identify v at source(arrow) with its image at the
    target.  The returned projection restricted to each object gives the
    cocone.
    """
    return _weighted_colim(x, lambda o: 1, lambda a: SparseMat.identity(1))


def induced_endo_colim(x, f):
    """Matrix induced by a natural endomorphism on the colimit cokernel."""
    return _induced_on_colim(colim_vect(x), lambda o: 1, f)


def weighted_colim_vect(weight, x):
    """Coend of a weight over the opposite base against a diagram.

    ``weight`` is a VectDiagram over opposite(x.base); the result is the
    cokernel of the two-sided action difference on the direct sum of
    pointwise tensor products.  Constant weight recovers colim_vect.
    """
    if not _same_objects_opposite(weight.base, x.base):
        raise ValueError("weight base must be the opposite category")
    return _weighted_colim(x, weight.dim, weight.mat)


def weighted_colim_endo(weight, x, f):
    return _induced_on_colim(weighted_colim_vect(weight, x), weight.dim, f)


def _weighted_colim(x, wdim, wmat):
    """The cokernel of the weighted-colimit relations, for the weight
    with dimension ``wdim(o)`` at each object and matrix ``wmat(a)`` (from
    the target to the source of a) at each arrow.

    Object o's block is weight(o) (x) x(o).  Each nonidentity arrow
    a : s -> t adds the columns of its mixed slot weight(t) (x) x(s):
    the weight action at s minus the diagram action at t.
    """
    cat = x.base
    offsets = {}
    total = 0
    for o in cat.objects:
        offsets[o] = (total, wdim(o) * x.dim(o))
        total += wdim(o) * x.dim(o)
    rel = [{} for _ in range(total)]
    j = 0
    for a in cat.nonidentity():
        s, t = cat.src[a], cat.dst[a]
        m1 = kron(wmat(a), SparseMat.identity(x.dim(s)))
        m2 = kron(SparseMat.identity(wdim(t)), x.mat(a))
        for m, off, sign in ((m1, offsets[s][0], 1), (m2, offsets[t][0], -1)):
            for i, terms in enumerate(m.terms, off):
                row = rel[i]
                for c, v in terms.items():
                    row[j + c] = row.get(j + c, 0) + sign * v
        j += m1.cols
    rel = [{c: v for c, v in row.items() if v} for row in rel]
    dim, proj = cokernel(SparseMat(rel, total, j))
    return ColimResult(dim, proj, offsets)


def _induced_on_colim(res, wdim, f):
    """(res, the matrix that id (x) f induces on the weighted colimit res)."""
    big = SparseMat.from_blocks(res.proj.cols, res.proj.cols, [
        (off, off, kron(SparseMat.identity(wdim(o)), f.at(o)))
        for o, (off, _d) in res.offsets.items()])
    return res, factor_through(res.proj, res.proj @ big)


def _same_objects_opposite(wcat, cat):
    if tuple(wcat.objects) != tuple(cat.objects):
        return False
    if set(wcat.arrows) != set(cat.arrows):
        return False
    return all(wcat.src[a] == cat.dst[a] and wcat.dst[a] == cat.src[a]
               for a in cat.arrows)


# ---------------------------------------------------------------------------
# natural endomorphism solution spaces

def _commuting_solutions(blocks, eqs):
    """Basis of the unknown matrices X with A X_p - X_q B = 0 for all eqs.

    ``blocks`` lists the unknowns as (key, rows, cols), each laid out
    row-major in that order; ``eqs`` lists (A, p, q, B) as SparseMats.  A
    side whose key is not a block drops out.  The system is written once,
    transposed, from the nonzeros of A and B: one row per unknown, one
    column per entry (i, j) of each A X_p - X_q B, where X_p[k, j] has
    A[i, k] and X_q[i, k] has -B[k, j]; when p = q, entries that cancel
    are deleted.  Returns one {key: SparseMat} per vector of the echelon
    kernel basis, which depends only on the row space and on the order of
    the blocks; those vectors are the rows of the cokernel projection of
    the transposed system.
    """
    offsets = {}
    total = 0
    for key, r, c in blocks:
        offsets[key] = total
        total += r * c
    system = [{} for _ in range(total)]
    rel = 0
    for a, p, q, b in eqs:
        ar, br, bc = a.rows, b.rows, b.cols
        if p in offsets:
            off = offsets[p]
            for i, terms in enumerate(a.terms):
                for k, v in terms.items():
                    u, c = off + k * bc, rel + i * bc
                    for j in range(bc):
                        system[u + j][c + j] = v
        if q in offsets:
            off = offsets[q]
            for k, terms in enumerate(b.terms):
                for j, v in terms.items():
                    for i in range(ar):
                        row = system[off + i * br + k]
                        c = rel + i * bc + j
                        w = row.get(c, 0) - v
                        if w:
                            row[c] = w
                        else:
                            del row[c]
        rel += ar * bc
    _dim, basis = cokernel(SparseMat(system, total, rel))
    where = [(k, i, j) for k, (_key, r, c) in enumerate(blocks)
             for i in range(r) for j in range(c)]
    out = []
    for vec in basis.terms:
        sol = [[{} for _ in range(r)] for _key, r, _c in blocks]
        for g, v in vec.items():
            k, i, j = where[g]
            sol[k][i][j] = v
        out.append({key: SparseMat(terms, r, c)
                    for (key, r, c), terms in zip(blocks, sol)})
    return out


def nat_endo_basis(x):
    """Basis of all natural endomorphisms, by exact linear solving.

    The unknowns are the per-object matrices of a vector-space diagram,
    or the per-object, per-degree matrices of a chain diagram (its
    degree-0 case is the vector one).  Each condition has the form
    A X - X B = 0: X_a f_s - f_t X_a = 0 on a generating set of arrows
    (composites follow) and, for chains, d f_n - f_(n-1) d = 0 on every
    object.  One sparse builder, ``_commuting_solutions``, writes and
    solves them all.
    """
    cat = x.base
    arrows = cat.generating_arrows()
    if isinstance(x, VectDiagram):
        blocks = [(o, x.dim(o), x.dim(o)) for o in cat.objects]
        eqs = [(x.mat(a), cat.src[a], cat.dst[a], x.mat(a)) for a in arrows]
        return [NatEndo(x, sol, check=False)
                for sol in _commuting_solutions(blocks, eqs)]
    cx = {o: x.cx(o) for o in cat.objects}
    blocks = [((o, n), cx[o].dim(n), cx[o].dim(n))
              for o in cat.objects for n in cx[o].dims]
    eqs = [(cx[o].sparse_diff(n), (o, n), (o, n - 1), cx[o].sparse_diff(n))
           for o in cat.objects for n in cx[o].dims]
    for a in arrows:
        s, t, m = cat.src[a], cat.dst[a], x.map(a)
        eqs += [(m.sparse_mat(n), (s, n), (t, n), m.sparse_mat(n))
                for n in cx[s].dims]
    out = []
    for sol in _commuting_solutions(blocks, eqs):
        comps = {o: ChainMap(cx[o], cx[o], {n: sol[(o, n)] for n in cx[o].dims},
                             check=False)
                 for o in cat.objects}
        out.append(NatEndo(x, comps, check=False))
    return out


def chain_map_space(src, dst):
    """Basis of all chain maps src -> dst, by exact linear solving."""
    blocks = [(n, dst.dim(n), src.dim(n))
              for n in sorted(set(src.dims) & set(dst.dims))]
    eqs = [(dst.sparse_diff(n), n, n - 1, src.sparse_diff(n))
           for n in src.dims]
    return [ChainMap(src, dst, sol, check=False)
            for sol in _commuting_solutions(blocks, eqs)]


# ---------------------------------------------------------------------------
# homotopy colimits over strictly homotopy finite shapes

class HocolimResult:
    """Total complex of the level construction, with its summand index.

    ``index`` maps (string, internal degree) -> (total degree, offset);
    a string is (start object, tuple of nonidentity arrows).
    """

    def __init__(self, complex_, index, strings, diagram):
        self.complex = complex_
        self.index = index
        self.strings = strings
        self.diagram = diagram

    def induce(self, f):
        """Block-diagonal chain endomorphism induced by a natural endo,
        one sparse block per (string, internal degree)."""
        cx = self.complex
        blocks = {n: [] for n in cx.dims}
        for (s, m), (n, off) in self.index.items():
            blocks[n].append((off, off, f.at(s[0]).sparse_mat(m)))
        return ChainMap.from_blocks(cx, cx, blocks)


def _string_faces(cat):
    """The strings of a strictly homotopy finite category, in level order,
    and per string its faces as (target string position, sign, first arrow
    or None): face 0 applies the first arrow, faces i > 0 are identities
    with sign (-1)^i.  A face whose target is no string is left out, and
    identity faces with one target (only a table that is not a category
    has them) are merged by adding their signs, so each entry of the
    differential is written once.  Kept on the category; a base that is
    not strictly homotopy finite raises a ValueError and stores nothing.
    """
    if cat._strings is not None:
        return cat._strings
    if not fincat.is_strictly_homotopy_finite(cat):
        raise ValueError("base category is not strictly homotopy finite")
    strings = [s for level in fincat.enumerate_strings(cat) for s in level]
    where = {s: p for p, s in enumerate(strings)}
    faces = []
    for start, arrs in strings:
        k = len(arrs)
        signs = {}      # identity faces: target position -> sign
        for i in range(1, k + 1):
            mid = (cat.then(arrs[i - 1], arrs[i]),) if i < k else ()
            t = where.get((start, arrs[:i - 1] + mid + arrs[i + 1:]))
            if t is not None:
                signs[t] = signs.get(t, 0) + (-1) ** i
        first = ([(where[(cat.dst[arrs[0]], arrs[1:])], 1, arrs[0])]
                 if k else [])
        faces.append(first + [(t, sign, None) for t, sign in signs.items()
                              if sign])
    cat._strings = (strings, faces)
    return cat._strings


def hocolim_hofin(x, check=True):
    """Homotopy colimit of a chain diagram over a strictly homotopy finite base.

    Level k is the direct sum of the first-object values over all
    length-k strings of nonidentity arrows; the level differential
    alternates face maps (apply the first arrow / compose adjacent
    arrows / drop the last), and the total differential adds the internal
    one with sign (-1)^k.  The strings and faces come from the base
    (``_string_faces``); each summand's rows are written at its offset,
    the identity faces as diagonals; with ``check`` the complex tests
    d o d = 0 on those rows.
    """
    strings, faces = _string_faces(x.base)
    index = {}
    dims = {}
    place = []      # per string: {internal degree: (total degree, offset)}
    for s in strings:
        at = {}
        for m, dm in x.cx(s[0]).dims.items():
            n = len(s[1]) + m
            off = dims.get(n, 0)
            at[m] = index[(s, m)] = (n, off)
            dims[n] = off + dm
        place.append(at)
    dims = {n: d for n, d in dims.items() if d}
    # d[n] as sparse rows; a block lands in d[n] only when its target
    # summand sits in degree n - 1, so dims[n - 1] > 0
    diff = {n: [{} for _ in range(dims[n - 1])] for n in dims if n - 1 in dims}
    blocks = {}    # (tag, object or arrow, degree, sign) -> signed rows

    def add_block(rows, roff, coff, key, read):
        terms = blocks.get(key)
        if terms is None:
            sign = key[3]
            terms = blocks[key] = [{j: v if sign > 0 else -v
                                    for j, v in t.items() if v}
                                   for t in read(key[2]).terms]
        for row, t in zip(rows[roff:roff + len(terms)], terms):
            for j, v in t.items():
                row[j + coff] = v

    for (start, arrs), at, fs in zip(strings, place, faces):
        cx0 = x.cx(start)
        for m, (n, off) in at.items():
            rows, dm = diff.get(n), cx0.dims[m]
            # internal differential with sign (-1)^k
            if m - 1 in at:
                add_block(rows, at[m - 1][1], off,
                          ("d", start, m, -1 if len(arrs) % 2 else 1),
                          cx0.sparse_diff)
            for t, sign, arr in fs:
                tgt = place[t].get(m)
                if tgt is None:
                    continue
                if arr is not None:
                    add_block(rows, tgt[1], off, ("f", arr, m, sign),
                              x.map(arr).sparse_mat)
                    continue
                for i, row in enumerate(rows[tgt[1]:tgt[1] + dm], off):
                    row[i] = sign

    total = ChainComplex(
        dims, {n: SparseMat(rows, dims[n - 1], dims[n])
               for n, rows in diff.items()}, check=check)
    return HocolimResult(total, index, list(strings), x)


# ---------------------------------------------------------------------------
# coinvariants of group actions

def group_action_idempotent(x, group_arrows):
    """Averaging idempotent (1/|G|) sum of the action chain maps."""
    total = None
    for g in group_arrows:
        m = x.map(g)
        total = m if total is None else total + m
    return total.smul(F(1, len(group_arrows)))


def chain_idempotent_image(e):
    """Split a degreewise idempotent chain endo: (subcomplex, incl, proj),
    all held as SparseMats."""
    cx = e.src
    incs = {}
    projs = {}
    dims = {}
    for n in cx.dims:
        i, p = idempotent_image(e.sparse_mat(n))
        if i.cols:
            incs[n] = i
            projs[n] = p
            dims[n] = i.cols
    d = {n: projs[n - 1] @ cx.sparse_diff(n) @ incs[n]
         for n in dims if n - 1 in dims}
    sub = ChainComplex(dims, d)
    inc = ChainMap(sub, cx, incs, check=False)
    proj = ChainMap(cx, sub, projs, check=False)
    return sub, inc, proj


def _coinvariant_sum(x, f, actions):
    """The direct sum of the coinvariants of each (object, group arrows)
    of ``actions``, each the image of its averaging idempotent, and the
    block-diagonal endo that f induces on it, proj o f(object) o inc per
    piece.  Returns (sum, endo, per-piece offsets, per-piece (subcomplex,
    inclusion, projection))."""
    pieces = [chain_idempotent_image(group_action_idempotent(x, arrows))
              for _o, arrows in actions]
    total, offs = direct_sum([p[0] for p in pieces])
    blocks = {n: [] for n in total.dims}
    for (o, _arrows), (sub, inc, proj), off in zip(actions, pieces, offs):
        endo = proj.compose(f.at(o)).compose(inc)
        for n in sub.dims:
            blocks[n].append((off[n], off[n], endo.sparse_mat(n)))
    return total, ChainMap.from_blocks(total, total, blocks), offs, pieces


def hocolim_groupoid(x, f):
    """Homotopy colimit over a finite groupoid: skeleton-wise coinvariants.

    Over a one-object groupoid (a group) this is the coinvariants of the
    action, the image of its averaging idempotent, whose rank per degree
    equals the dimension of the invariant subspace.

    Returns (complex, induced endo, list of (object, subcomplex)).
    """
    cat = x.base
    if not fincat.is_groupoid(cat):
        raise ValueError("base is not a groupoid")
    objs = fincat.skeletalize(cat).cat.objects
    total, induced, _offs, pieces = _coinvariant_sum(
        x, f, [(a, list(fincat.aut_group(cat, a).elements)) for a in objs])
    return total, induced, [(a, p[0]) for a, p in zip(objs, pieces)]


# ---------------------------------------------------------------------------
# homotopy colimits over finite EI shapes

def _chains_of_poset(pos):
    """All strictly increasing chains of a poset category, all lengths."""
    lt = {o: [] for o in pos.objects}
    for a in pos.nonidentity():
        lt[pos.src[a]].append(pos.dst[a])
    chains = [(o,) for o in pos.objects]
    frontier = list(chains)
    while frontier:
        nxt = []
        for c in frontier:
            for o in lt[c[-1]]:
                nxt.append(c + (o,))
        chains.extend(nxt)
        frontier = nxt
    return chains


def _chains_category(chains):
    """Category of chains and subchain selections (longer -> shorter).

    An arrow c -> c' is a strictly monotone position tuple with
    c[positions] == c'; composing selects positions of positions.  This
    category is strictly homotopy finite.
    """
    from itertools import combinations
    objs = list(chains)
    arrows = []
    for c in objs:
        n = len(c)
        for m in range(1, n + 1):
            for pos in combinations(range(n), m):
                sub = tuple(c[i] for i in pos)
                arrows.append(((c, pos), c, sub))
    identities = {c: (c, tuple(range(len(c)))) for c in objs}
    compose = {}
    by_src = {}
    for (a, s, t) in arrows:
        by_src.setdefault(s, []).append((a, t))
    for (a, s, t) in arrows:
        (_, pos1) = a
        for (b, t2) in by_src.get(t, []):
            (_, pos2) = b
            compose[(a, b)] = (s, tuple(pos1[i] for i in pos2))
    return fincat.FinCat(objs, arrows, identities, compose, name="chains")


def _ei_chain_data(cat):
    """(skeleton, its chains, their chain category, each chain's string
    classes) of a finite EI category, computed once and kept on it; a base
    that is not EI raises a ValueError and stores nothing."""
    if cat._ei_chains is None:
        if not fincat.is_EI(cat):
            raise ValueError("base category is not EI")
        scat = fincat.skeletalize(cat).cat
        chains = _chains_of_poset(fincat.poset_reflection(scat)[0])
        cat._ei_chains = (scat, chains, _chains_category(chains),
                          {c: fincat.string_iso_classes(scat, c)
                           for c in chains})
    return cat._ei_chains


def hocolim_EI(x, f, check=True):
    """Homotopy colimit over a finite EI category, with induced endo.

    Pipeline: restrict to a skeleton; form the poset of objects; for each
    strictly increasing chain take, per iso class of arrow strings over
    it, the coinvariants of the first object's value under the string
    stabilizer acting through first components; transport the subchain
    face maps along chosen orbit representatives; run the strictly
    homotopy finite construction over the chain category.  The category
    data is kept on the base by ``_ei_chain_data``.

    Returns (HocolimResult over the chain category, induced endo).
    """
    scat, chains, dcat, cls = _ei_chain_data(x.base)

    # per chain: the sum of the coinvariant pieces of its string classes,
    # each string stabilizer acting through first components, and the
    # endo induced on it
    complexes, endos, offsets, piece = {}, {}, {}, {}
    for c in chains:
        complexes[c], endos[c], offsets[c], piece[c] = _coinvariant_sum(
            x, f, [(c[0], [g[0] for g in k["aut"].elements])
                   for k in cls[c].classes])

    maps = {}
    for arr in dcat.arrows:
        (c, posn) = arr
        sub = tuple(c[i] for i in posn)
        maps[arr] = _ei_face_map(x, scat, cls, piece, offsets, complexes,
                                 c, posn, sub)
    dia = ChainDiagram(dcat, complexes, maps, check=check)
    nat = NatEndo(dia, endos, check=check)

    res = hocolim_hofin(dia, check=check)
    return res, res.induce(nat)


def _ei_face_map(x, scat, cls, piece, offsets, complexes, c, posn, sub):
    """Chain map between coinvariant sums along a subchain selection.

    For each class representative over c, compose its arrows between the
    selected positions, locate the resulting string's class over the
    subchain, and conjugate onto that class representative; the block map
    is projection o (value of the connecting arrow) o inclusion.
    """
    src_cx = complexes[c]
    dst_cx = complexes[sub]
    blocks = {n: [] for n in set(src_cx.dims) | set(dst_cx.dims)}
    src_cls = cls[c]
    dst_cls = cls[sub]
    for ci, k in enumerate(src_cls.classes):
        rep = k["rep"]
        # push the representative string along the selection
        pushed = []
        for i in range(1, len(posn)):
            seg = rep[posn[i - 1]:posn[i]]
            pushed.append(scat.then_seq(list(seg)))
        pushed = tuple(pushed)
        # connecting arrow from c[0] to sub[0]
        if posn[0] == 0:
            connect = scat.idarr(c[0])
        else:
            connect = scat.then_seq(list(rep[:posn[0]]))
        di, g = dst_cls.locate(pushed)
        # g moves the destination representative onto the pushed string;
        # conjugate back with its inverse, acting through first components
        aut0 = g[0]
        ginv0 = _component_inverse(scat, aut0)
        total_arrow = scat.then(connect, ginv0)
        (dsub, dinc, dproj) = piece[sub][di]
        (ssub, sinc, sproj) = piece[c][ci]
        block = dproj.compose(x.map(total_arrow)).compose(sinc)
        soff = offsets[c][ci]
        doff = offsets[sub][di]
        for n in ssub.dims:
            if n in dsub.dims:
                blocks[n].append((doff[n], soff[n], block.sparse_mat(n)))
    return ChainMap.from_blocks(src_cx, dst_cx, blocks)


def _component_inverse(cat, arrow):
    inv = cat.inv(arrow)
    if inv is None:
        raise ValueError("arrow %r is not invertible" % (arrow,))
    return inv


# ---------------------------------------------------------------------------
# set-level colimits

def colim_fin_set(d):
    """Colimit of a finite-set diagram: classes of the generated relation.

    Returns (list of class representatives, map (object, element) -> index).
    """
    cat = d.base
    items = [(o, z) for o in cat.objects for z in d.sets[o]]
    uf = fincat.UnionFind(items)
    for a in cat.nonidentity():
        s, t = cat.src[a], cat.dst[a]
        for z in d.sets[s]:
            uf.union((s, z), (t, d.funcs[a][z]))
    reps = []
    idx = {}
    for it in items:
        r = uf.find(it)
        if r not in idx:
            idx[r] = len(reps)
            reps.append(r)
    assign = {it: idx[uf.find(it)] for it in items}
    return reps, assign


def induced_endo_fin_set(d, endo_funcs):
    """Induced endofunction on the set colimit, plus its fixed-point count.

    ``endo_funcs`` maps each object to an endofunction dict; naturality is
    assumed (checked by NatEndo-style callers).
    """
    reps, assign = colim_fin_set(d)
    out = {}
    for (o, z), i in assign.items():
        j = assign[(o, endo_funcs[o][z])]
        if i in out and out[i] != j:
            raise ValueError("endomorphism does not descend to the colimit")
        out[i] = j
    fixed = sum(1 for i, j in out.items() if i == j)
    return out, fixed
