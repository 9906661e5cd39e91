"""Diagrams of rational spaces, finite sets, and chain complexes.

A diagram is a functor out of a composition-table category; natural
endomorphisms are per-object maps commuting with every arrow.  This
module computes strict and weighted colimits (as cokernels of one
relation writer, a strict colimit being the constant weight), homotopy
colimits over groupoids, a group's coinvariants among them (as direct
sums of images of averaging idempotents), and homotopy colimits over
strictly homotopy finite and finite EI shapes, both as total complexes
of one semisimplicial level-construction writer: its cells are the
strings of nonidentity arrows, or the chains of an EI skeleton's poset
holding their string stabilizers' coinvariants.  Direct sums of
complexes and the maps induced on them are laid out by ``direct_sum``
and ``ChainMap.from_blocks`` of ``exactalg``.
"""

from . import fincat
from .exactalg import (
    F, SparseMat, ChainComplex, ChainMap, cokernel, direct_sum,
    factor_through, identity_chain_map, idempotent_image, kernel_basis, kron,
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
        """Every failed check, as readable strings.  An identity arrow
        sent to the identity of its object's complex passes its own check
        and every unit law of the table without multiplying, so those
        are skipped; they would add no string."""
        out = []
        cat = self.base
        units = {i for o, i in cat.identities.items()
                 if _is_identity_of(self.maps.get(i), self.complexes.get(o))}
        for a in cat.arrows:
            f = self.maps.get(a)
            if f is None:
                out.append("no chain map for arrow %r" % (a,))
            elif a not in units:
                out.extend("arrow %r: %s" % (a, v) for v in f.violations())
        if out:
            return out
        for o in cat.objects:
            if not all(self.maps[cat.idarr(o)].sparse_mat(n).is_identity()
                       for n in self.complexes[o].dims):
                out.append("identity of %r is not the identity" % (o,))
        known = cat.arrow_index
        for (f, g), h in cat.compose.items():
            # every arrow of the category has passed its own check by now
            if (f in units and h == g and g in known
                    and self.maps[g].src is self.maps[f].dst
                    or g in units and h == f and f in known
                    and self.maps[f].dst is self.maps[g].src):
                continue
            if self.maps[g].compose(self.maps[f]) != self.maps[h]:
                out.append("functoriality fails at (%r, %r)" % (f, g))
        return out


def _is_identity_of(m, c):
    """True when the chain map m is the identity of the complex c: c is
    its source and target, its components are c's identity matrices and
    c's differentials have their shapes.  Then m commutes with d, and
    composing a checked map with m gives that map back."""
    return (m is not None and m.src is c and m.dst is c
            and all(c.sparse_diff(n).rows == c.dim(n - 1)
                    and c.sparse_diff(n).cols == c.dim(n) for n in c.dims)
            and m == identity_chain_map(c))


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
    side whose key is not a block drops out.  The system is written from
    the nonzeros of A and B, one row per entry (i, j) of each
    A X_p - X_q B that is not zero outright: X_p[k, j] has A[i, k] and
    X_q[i, k] has -B[k, j]; when p = q, entries that cancel are deleted.
    Returns one {key: SparseMat} per vector of its echelon kernel basis,
    which depends only on the row space and on the order of the blocks.
    """
    offsets = {}
    total = 0
    for key, r, c in blocks:
        offsets[key] = total
        total += r * c
    system = []
    for a, p, q, b in eqs:
        ar, br, bc = a.rows, b.rows, b.cols
        rows = [{} for _ in range(ar * bc)]
        if p in offsets:
            off = offsets[p]
            for i, terms in enumerate(a.terms):
                for k, v in terms.items():
                    u, c = off + k * bc, i * bc
                    for j in range(bc):
                        rows[c + j][u + j] = v
        if q in offsets:
            off = offsets[q]
            for k, terms in enumerate(b.terms):
                for j, v in terms.items():
                    for i in range(ar):
                        row = rows[i * bc + j]
                        u = off + i * br + k
                        w = row.get(u, 0) - v
                        if w:
                            row[u] = w
                        else:
                            del row[u]
        system += [row for row in rows if row]
    basis = kernel_basis(SparseMat(system, len(system), total))
    where = [(k, i, j) for k, (_key, r, c) in enumerate(blocks)
             for i in range(r) for j in range(c)]
    sols = [[[{} for _ in range(r)] for _key, r, _c in blocks]
            for _ in range(basis.cols)]
    for g, vec in enumerate(basis.terms):
        if vec:
            k, i, j = where[g]
            for s, v in vec.items():
                sols[s][k][i][j] = v
    return [{key: SparseMat(terms, r, c)
             for (key, r, c), terms in zip(blocks, sol)} for sol in sols]


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

    def __init__(self, complex_, index, strings):
        self.complex = complex_
        self.index = index
        self.strings = strings

    def induce(self, f):
        """Block-diagonal chain endomorphism induced by a natural endo,
        one sparse block per (string, internal degree)."""
        return _block_diagonal(self.complex, self.index, lambda s: f.at(s[0]))


def _block_diagonal(cx, index, at):
    """The chain endo of cx holding ``at(key)``'s degree-m block at the
    offset of each (key, m) -> (total degree, offset) of ``index``, which
    covers every row; each row is written once, at its offset."""
    rows = {n: [None] * dim for n, dim in cx.dims.items()}
    for (key, m), (n, off) in index.items():
        for i, t in enumerate(at(key).sparse_mat(m).terms, off):
            rows[n][i] = {j + off: v for j, v in t.items()}
    return ChainMap(cx, cx, {n: SparseMat(r, len(r), len(r))
                             for n, r in rows.items()}, check=False)


def _realize(cells, faces, cx, face_map, check):
    """Total complex of a semisimplicial level construction.

    A cell is (key, level k): the complex ``cx(key)``, each internal
    degree m placed in total degree k + m at the next free offset.  Per
    cell, ``faces`` lists (target cell position, sign, face key or None):
    the signed block of the chain map ``face_map(face key)``, or for None
    the signed identity, written as a diagonal.  The total differential
    adds the internal one with sign (-1)^k; each signed block is kept
    once, as its nonzero rows [(row, [(col, entry)])].  With ``check``
    the complex tests d o d = 0.  Returns (complex, per cell {internal
    degree: (total degree, offset)}).
    """
    dims = {}
    place = []
    kdims = {key: cx(key).dims for key in {key for key, _k in cells}}
    for key, k in cells:
        at = {}
        for m, dm in kdims[key].items():
            off = dims.get(k + m, 0)
            at[m] = (k + m, off)
            dims[k + m] = off + dm
        place.append(at)
    # d[n] as sparse rows; a block lands in d[n] only when its target
    # sits in degree n - 1, so dims[n - 1] > 0
    diff = {n: [{} for _ in range(dims[n - 1])] for n in dims if n - 1 in dims}
    blocks = {}    # (face key or None, key, degree, sign) -> signed rows

    def add_block(rows, roff, coff, bkey):
        terms = blocks.get(bkey)
        if terms is None:
            face, key, m, sign = bkey
            mat = (cx(key).sparse_diff(m) if face is None
                   else face_map(face).sparse_mat(m))
            terms = blocks[bkey] = [
                (i, [(j, v if sign > 0 else -v) for j, v in t.items() if v])
                for i, t in enumerate(mat.terms) if t]
        for i, t in terms:
            row = rows[roff + i]
            for j, v in t:
                row[j + coff] = v

    for (key, k), at, fs in zip(cells, place, faces):
        for m, (n, off) in at.items():
            rows = diff.get(n)
            # internal differential with sign (-1)^k
            if m - 1 in at:
                add_block(rows, at[m - 1][1], off,
                          (None, key, m, -1 if k % 2 else 1))
            for t, sign, face in fs:
                tgt = place[t].get(m)
                if tgt is None:
                    continue
                if face is not None:
                    add_block(rows, tgt[1], off, (face, None, m, sign))
                    continue
                shift = tgt[1] - off
                for i in range(off, off + kdims[key][m]):
                    rows[shift + i][i] = sign

    total = ChainComplex(
        dims, {n: SparseMat(rows, dims[n - 1], dims[n])
               for n, rows in diff.items()}, check=check)
    return total, place


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
    (``_string_faces``) and ``_realize`` writes the total complex; with
    ``check`` the complex tests d o d = 0.
    """
    strings, faces = _string_faces(x.base)
    total, place = _realize([(s[0], len(s[1])) for s in strings], faces,
                            x.cx, x.map, check)
    index = {(s, m): v for s, at in zip(strings, place) for m, v in at.items()}
    return HocolimResult(total, index, list(strings))


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


def _coinvariant_sum(x, f, actions, split):
    """The direct sum of the coinvariants of each (object, group arrows)
    of ``actions``, each the image of its averaging idempotent, and the
    block-diagonal endo that f induces on it, proj o f(object) o inc per
    piece.  ``split`` keeps each (object, set of group arrows) split, with
    its endo, across calls; the set suffices, since a list of group arrows
    is a group's image with every arrow listed equally often, so its
    average depends only on the set.  Returns (sum, endo, per-piece
    offsets, per-piece (subcomplex, inclusion, projection))."""
    done = []
    for o, arrows in actions:
        key = (o, frozenset(arrows))
        if key not in split:
            sub, inc, proj = chain_idempotent_image(
                group_action_idempotent(x, arrows))
            split[key] = (sub, inc, proj), proj.compose(f.at(o)).compose(inc)
        done.append(split[key])
    total, offs = direct_sum([piece[0] for piece, _endo in done])
    blocks = {n: [] for n in total.dims}
    for ((sub, _inc, _proj), endo), off in zip(done, offs):
        for n in sub.dims:
            blocks[n].append((off[n], off[n], endo.sparse_mat(n)))
    return (total, ChainMap.from_blocks(total, total, blocks), offs,
            [piece for piece, _endo in done])


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
        x, f, [(a, list(fincat.aut_group(cat, a).elements)) for a in objs],
        {})
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


def _ei_chain_data(cat):
    """(skeleton, the chains of its poset, per chain its codim-1 faces,
    each chain's string classes, the inverse of every automorphism of a
    skeleton object) of a finite EI category, computed once and kept on
    it.  Face i of a chain deletes its position i and has sign (-1)^i; it
    is listed as (target chain position, sign, (chain, i)).  A base that
    is not EI raises a ValueError and stores nothing."""
    if cat._ei_chains is None:
        if not fincat.is_EI(cat):
            raise ValueError("base category is not EI")
        scat = fincat.skeletalize(cat).cat
        chains = _chains_of_poset(fincat.poset_reflection(scat)[0])
        where = {c: p for p, c in enumerate(chains)}
        faces = [[(where[c[:i] + c[i + 1:]], (-1) ** i, (c, i))
                  for i in range(len(c)) if len(c) > 1] for c in chains]
        inv = {}
        for o in scat.objects:
            inv.update(fincat.aut_group(scat, o).inv_table)
        cat._ei_chains = (scat, chains, faces,
                          {c: fincat.string_iso_classes(scat, c)
                           for c in chains}, inv)
    return cat._ei_chains


def hocolim_EI(x, f, check=True):
    """Homotopy colimit over a finite EI category, with induced endo.

    Restrict to a skeleton and form the poset of its objects.  Each
    strictly increasing chain c sits at level len(c) - 1 and contributes,
    per iso class of arrow strings over it, the coinvariants of the first
    object's value under the string stabilizer acting through first
    components (each distinct (object, stabilizer) is split once).  The
    faces delete one position of the chain, with the face maps of
    ``_ei_face_map``, and ``_realize`` writes the total complex.  The
    category data is kept on the base by ``_ei_chain_data``.  The induced
    endo is the block diagonal of the per-chain endos; with ``check`` it
    is checked to be a chain map, and the complex to have d o d = 0.

    Returns (complex, induced endo).
    """
    scat, chains, faces, cls, inv = _ei_chain_data(x.base)
    split = {}
    sums = {c: _coinvariant_sum(
        x, f, [(c[0], [g[0] for g in k["aut"].elements])
               for k in cls[c].classes], split) for c in chains}
    maps = {face: _ei_face_map(x, scat, cls, inv, sums, *face)
            for fs in faces for _t, _sign, face in fs}
    total, place = _realize([(c, len(c) - 1) for c in chains], faces,
                            lambda c: sums[c][0], maps.__getitem__, check)
    induced = _block_diagonal(
        total, {(c, m): v for c, at in zip(chains, place)
                for m, v in at.items()}, lambda c: sums[c][1])
    bad = induced.violations() if check else []
    if bad:
        raise ValueError("; ".join(bad))
    return total, induced


def _ei_face_map(x, scat, cls, inv, sums, c, i):
    """Chain map between the coinvariant sums of chain c and of its face
    deleting position i.

    Each class representative over c gives a string over the face, as in
    ``_string_faces``: face 0 drops the first arrow, which then connects
    c[0] to the face's first object; an inner face composes the arrows
    into and out of c[i]; the last face drops the last arrow.  That
    string's class over the face is located and conjugated onto its
    representative; the block map is projection o (value of the
    connecting arrow) o inclusion.
    """
    sub = c[:i] + c[i + 1:]
    src_cx, _e, src_offs, src_pieces = sums[c]
    dst_cx, _e, dst_offs, dst_pieces = sums[sub]
    blocks = {n: [] for n in set(src_cx.dims) | set(dst_cx.dims)}
    for ci, k in enumerate(cls[c].classes):
        rep = k["rep"]
        mid = (scat.then(rep[i - 1], rep[i]),) if 0 < i < len(rep) else ()
        pushed = rep[1:] if i == 0 else rep[:i - 1] + mid + rep[i + 1:]
        connect = rep[0] if i == 0 else scat.idarr(c[0])
        di, g = cls[sub].locate(pushed)
        # g moves the face's representative onto the pushed string;
        # conjugate back with its inverse, acting through first components
        arrow = scat.then(connect, inv[g[0]])
        dsub, _inc, dproj = dst_pieces[di]
        ssub, sinc, _proj = src_pieces[ci]
        block = dproj.compose(x.map(arrow)).compose(sinc)
        for n in ssub.dims:
            if n in dsub.dims:
                blocks[n].append((dst_offs[di][n], src_offs[ci][n],
                                  block.sparse_mat(n)))
    return ChainMap.from_blocks(src_cx, dst_cx, blocks)


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
