"""Two-sided modules of rational spaces over finite categories.

A profunctor from S to T assigns a space to each (t, s) pair, with a
covariant S-action and a contravariant T-action that commute.  Composites
and shadows are coends, always presented as explicit cokernels with their
projections retained, so every structural map in a trace computation is a
literal matrix.  Matrices have one stored form: actions, witness
components, a unit shadow's class basis and the maps factored through
projections are all SparseMats, and a Mat given is converted once, where
it enters.  One routine writes the coend relations as a sparse matrix
straight from the rows of the action matrices or of their sparse
Kronecker products id (x) m and m (x) id, and the cokernel hands back a
sparse projection; maps induced on a coend are the projection times a
block diagonal of such products, the swap of tensor factors is a column
permutation of a projection, and factoring through a projection reads
its free columns.
Duality witnesses carry coevaluation and evaluation component matrices,
and their checks multiply reshapes of those components, and write each
evaluation times a Kronecker product of actions from the evaluation's
nonzeros; traces run through the genuine quotient spaces rather than
through any shortcut formula, so they can serve as an independent oracle
against direct trace computations.  A category keeps, for its lifetime,
each pair of coends its traces build, keyed by the variance, dimensions
and action entries; the checks of the endomorphism and of the witness
still run on every call.
"""

from . import fincat
from .exactalg import (
    F, SparseMat, block_diag, cokernel, factor_through, hstack,
    idempotent_image, inverse, kron, rank,
)


class Profunctor:
    """Functor T^op x S -> Vect, stored as explicit matrix actions.

    ``dims[(t, s)]`` is the value dimension; ``tact(beta, s)`` for
    beta: t -> t' is the contravariant map value(t', s) -> value(t, s);
    ``sact(t, alpha)`` for alpha: s -> s' maps value(t, s) -> value(t, s').
    The actions are kept, and returned, as SparseMats; a Mat given is
    converted once, here.
    """

    def __init__(self, src, tgt, dims, tacts, sacts, check=True):
        self.src = src
        self.tgt = tgt
        self.dims = dict(dims)
        self.tacts = {k: SparseMat.from_mat(m) for k, m in tacts.items()}
        self.sacts = {k: SparseMat.from_mat(m) for k, m in sacts.items()}
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("; ".join(bad))

    def dim(self, t, s):
        return self.dims[(t, s)]

    def tact(self, beta, s):
        return self.tacts[(beta, s)]

    def sact(self, t, alpha):
        return self.sacts[(t, alpha)]

    def violations(self):
        out = []
        S, T = self.src, self.tgt
        for t in T.objects:
            for s in S.objects:
                if (t, s) not in self.dims:
                    out.append("missing value at (%r, %r)" % (t, s))
        if out:
            return out
        for t in T.objects:
            if not all(self.sacts[(t, S.idarr(s))].is_identity()
                       for s in S.objects):
                out.append("identity action fails in the source slot at %r" % (t,))
        for s in S.objects:
            if not all(self.tacts[(T.idarr(t), s)].is_identity()
                       for t in T.objects):
                out.append("identity action fails in the target slot at %r" % (s,))
        for (f, g), h in S.compose.items():
            for t in T.objects:
                if self.sacts[(t, g)] @ self.sacts[(t, f)] != self.sacts[(t, h)]:
                    out.append("source functoriality fails at (%r, %r)" % (f, g))
                    break
        for (f, g), h in T.compose.items():
            for s in S.objects:
                if self.tacts[(f, s)] @ self.tacts[(g, s)] != self.tacts[(h, s)]:
                    out.append("target functoriality fails at (%r, %r)" % (f, g))
                    break
        for beta in T.generating_arrows():
            t1, t2 = self.tgt.src[beta], self.tgt.dst[beta]
            for alpha in S.generating_arrows():
                s1, s2 = self.src.src[alpha], self.src.dst[alpha]
                one = self.sact(t1, alpha) @ self.tact(beta, s1)
                two = self.tact(beta, s2) @ self.sact(t2, alpha)
                if one != two:
                    out.append("actions do not commute at (%r, %r)" % (beta, alpha))
        return out


def terminal_category():
    return fincat.FinCat(["*"], [("id*", "*", "*")], {"*": "id*"},
                         {("id*", "id*"): "id*"}, name="1")


def _hom_map(src_basis, dst_basis, fn):
    """The 0/1 SparseMat sending each u of ``src_basis`` to fn(u) in
    ``dst_basis``: an action by composition on free spaces of arrows, or,
    from a one-element basis, the unit column of one basis element."""
    idx = {u: i for i, u in enumerate(dst_basis)}
    rows = [{} for _ in dst_basis]
    for j, u in enumerate(src_basis):
        rows[idx[fn(u)]][j] = 1
    return SparseMat(rows, len(dst_basis), len(src_basis))


def unit_prof(cat):
    """Identity profunctor: free space on each hom-set, acting by composition."""
    dims = {(x, y): len(cat.hom(x, y)) for x in cat.objects for y in cat.objects}
    tacts = {}
    sacts = {}
    for beta in cat.arrows:
        x1, x2 = cat.src[beta], cat.dst[beta]
        for y in cat.objects:
            tacts[(beta, y)] = _hom_map(cat.hom(x2, y), cat.hom(x1, y),
                                        lambda w: cat.then(beta, w))
    for alpha in cat.arrows:
        y1, y2 = cat.src[alpha], cat.dst[alpha]
        for x in cat.objects:
            sacts[(x, alpha)] = _hom_map(cat.hom(x, y1), cat.hom(x, y2),
                                         lambda w: cat.then(w, alpha))
    return Profunctor(cat, cat, dims, tacts, sacts, check=False)


def prof_from_diagram(x):
    """Vector-space diagram as a profunctor into the terminal category."""
    one = terminal_category()
    cat = x.base
    dims = {("*", a): x.dim(a) for a in cat.objects}
    tacts = {("id*", a): SparseMat.identity(x.dim(a)) for a in cat.objects}
    sacts = {("*", alpha): x.mat(alpha) for alpha in cat.arrows}
    return Profunctor(cat, one, dims, tacts, sacts, check=False)


def prof_from_weight(w):
    """Diagram over the opposite category as a profunctor out of the
    terminal category (a weight)."""
    one = terminal_category()
    cat_op = w.base
    cat = fincat.opposite(cat_op)
    dims = {(a, "*"): w.dim(a) for a in cat.objects}
    tacts = {(beta, "*"): w.mat(beta) for beta in cat.arrows}
    sacts = {(a, "id*"): SparseMat.identity(w.dim(a)) for a in cat.objects}
    return Profunctor(one, cat, dims, tacts, sacts, check=False)


# ---------------------------------------------------------------------------
# coend presentations

class ShadowSpace:
    """Cokernel presentation of the coend of an endo-profunctor.

    ``sparse_proj`` maps the direct sum of diagonal values onto the
    shadow; for unit profunctors, ``class_matrix`` collects the images of
    the class representatives, forming a basis, and ``to_class`` converts
    shadow coordinates into conjugacy-class coordinates.
    """

    def __init__(self, offsets, sparse_proj, classes=None,
                 class_matrix=None, to_class=None):
        self.offsets = offsets
        self.sparse_proj = sparse_proj
        self.dim = sparse_proj.rows
        self.classes = classes
        self.class_matrix = class_matrix
        self.to_class = to_class

    def include(self, obj, vec_):
        """The SparseMat vec_, in the block of obj, projected onto the
        shadow, as a SparseMat."""
        p = self.sparse_proj
        return p @ SparseMat.from_blocks(p.cols, vec_.cols,
                                         [(self.offsets[obj][0], 0, vec_)])


def _coend(objs, dim_of, rels):
    """(offsets, projection) of the coend over objs of a two-sided module.

    The coend is the direct sum of the blocks ``dim_of(o)``, laid out in
    the order of objs, modulo one relation per column of the mixed space
    of each generating arrow.  ``rels`` lists (a, m_a, b, m_b): the two
    SparseMats map the mixed space into the blocks of a and of b, and the
    relations are the columns of m_a minus m_b, written from their rows.
    The relation matrix is a SparseMat, repeated entries summed and zeros
    dropped, and so is the projection ``cokernel`` returns for it.
    """
    offsets = {}
    total = 0
    for o in objs:
        offsets[o] = (total, dim_of(o))
        total += dim_of(o)
    rel = [{} for _ in range(total)]
    j = 0
    for a, m_a, b, m_b in rels:
        for i, terms in enumerate(m_a.terms, offsets[a][0]):
            rel[i].update({j + c: v for c, v in terms.items()})
        for i, terms in enumerate(m_b.terms, offsets[b][0]):
            row = rel[i]
            for c, v in terms.items():
                row[j + c] = row.get(j + c, 0) - v
        j += m_a.cols
    rel = [{c: v for c, v in row.items() if v} for row in rel]
    _dim, proj = cokernel(SparseMat(rel, total, j))
    return offsets, proj


def _tensor_rels(cat, du, u, dw, w, u_covariant):
    """Coend relations of U (x) W over cat, U first in the kron layout.

    One factor is covariant, the other contravariant: ``u(g)`` and
    ``w(g)`` are their action matrices at a generating arrow g: a -> b.
    The mixed space is U(a) (x) W(b) when U is covariant, U(b) (x) W(a)
    when it is contravariant.
    """
    rels = []
    for g in cat.generating_arrows():
        a, b = cat.src[g], cat.dst[g]
        if u_covariant:
            rels.append((a, kron(SparseMat.identity(du[a]), w(g)),
                         b, kron(u(g), SparseMat.identity(dw[b]))))
        else:
            rels.append((a, kron(u(g), SparseMat.identity(dw[a])),
                         b, kron(SparseMat.identity(du[b]), w(g))))
    return rels


def shadow(h):
    """Coend of an endo-profunctor over the diagonal, as a ShadowSpace."""
    cat = h.src
    if h.tgt is not cat and h.tgt.objects != cat.objects:
        raise ValueError("shadow needs an endo-profunctor")
    rels = [(cat.src[g], h.tact(g, cat.src[g]),
             cat.dst[g], h.sact(cat.dst[g], g))
            for g in cat.generating_arrows()]
    offsets, proj = _coend(cat.objects, lambda a: h.dim(a, a), rels)
    return ShadowSpace(offsets, proj)


def unit_shadow(cat):
    """Shadow of the identity profunctor, with its conjugacy-class basis.

    Computed once per category and kept on it, as the generating arrows
    are.
    """
    if cat._unit_shadow is not None:
        return cat._unit_shadow
    sh = shadow(unit_prof(cat))
    classes = fincat.conjugacy_classes(cat)
    if sh.dim != len(classes):
        raise AssertionError(
            "shadow dimension %d differs from class count %d"
            % (sh.dim, len(classes)))
    cols = []
    for rep in classes.reps:
        a = cat.src[rep]
        cols.append(sh.include(a, _hom_map([rep], cat.hom(a, a), lambda u: u)))
    class_matrix = hstack(sh.dim, cols)
    to_class = inverse(class_matrix)
    cat._unit_shadow = ShadowSpace(sh.offsets, sh.sparse_proj, classes,
                                   class_matrix, to_class)
    return cat._unit_shadow


class CompositeProf(Profunctor):
    """Composite profunctor with its coend projections retained, as
    SparseMats in ``sparse_projs``."""

    def __init__(self, src, tgt, dims, tacts, sacts, sparse_projs,
                 check=False):
        super().__init__(src, tgt, dims, tacts, sacts, check=check)
        self.sparse_projs = sparse_projs


def compose_prof(h, k):
    """Composite of h: A -/-> B and k: B -/-> C by coends over B.

    Every component (c, a) is the cokernel of the difference of the two
    middle actions on the blockwise tensor sum; the projections are kept
    so that maps through the composite stay concrete.
    """
    if h.tgt.objects != k.src.objects or set(h.tgt.arrows) != set(k.src.arrows):
        raise ValueError("middle categories do not match")
    A, B, C = h.src, h.tgt, k.tgt
    projs = {}
    dims = {}
    for c in C.objects:
        for a in A.objects:
            hd = {b: h.dim(b, a) for b in B.objects}
            kd = {b: k.dim(c, b) for b in B.objects}
            rels = _tensor_rels(B, hd, lambda g: h.tact(g, a),
                                kd, lambda g: k.sact(c, g), False)
            _offs, proj = _coend(B.objects, lambda b: hd[b] * kd[b], rels)
            projs[(c, a)] = proj
            dims[(c, a)] = proj.rows
    tacts = {}
    for beta in C.arrows:
        c1, c2 = C.src[beta], C.dst[beta]
        for a in A.objects:
            pre = projs[(c1, a)] @ block_diag([
                kron(SparseMat.identity(h.dim(b, a)), k.tact(beta, b))
                for b in B.objects])
            tacts[(beta, a)] = factor_through(projs[(c2, a)], pre)
    sacts = {}
    for alpha in A.arrows:
        a1, a2 = A.src[alpha], A.dst[alpha]
        for c in C.objects:
            pre = projs[(c, a2)] @ block_diag([
                kron(h.sact(b, alpha), SparseMat.identity(k.dim(c, b)))
                for b in B.objects])
            sacts[(c, alpha)] = factor_through(projs[(c, a1)], pre)
    return CompositeProf(A, C, dims, tacts, sacts, projs)


def restriction_prof(fun, h):
    """Restriction of h: B -/-> D along a functor into B, componentwise."""
    A, B = fun.src, fun.dst
    D = h.tgt
    fo, fa = fun.obj_map, fun.arr_map
    dims = {(d, a): h.dim(d, fo[a]) for d in D.objects for a in A.objects}
    tacts = {(gamma, a): h.tact(gamma, fo[a])
             for gamma in D.arrows for a in A.objects}
    sacts = {(d, alpha): h.sact(d, fa[alpha])
             for d in D.objects for alpha in A.arrows}
    return Profunctor(A, D, dims, tacts, sacts, check=False)


def restriction_comparison(fun, h):
    """Isomorphism from the composite against a corestriction module onto
    the plain restriction, verified componentwise and naturally.

    Returns (composite, restriction, iso components as SparseMats); raises
    when any component fails to be invertible or any comparison square
    fails to commute on generating arrows.
    """
    x, _y, _w = representable(fun)
    comp = compose_prof(x, h)
    restr = restriction_prof(fun, h)
    A, B, D = fun.src, fun.dst, h.tgt
    fo = fun.obj_map
    iso = {}
    for d in D.objects:
        for a in A.objects:
            # the coend block of b is x(b, a) (x) h(d, b), with x(b, a) the
            # free space on hom(b, f a): u (x) v goes to h(d, u) v
            pre = hstack(h.dim(d, fo[a]), [h.sact(d, u) for b in B.objects
                                           for u in B.hom(b, fo[a])])
            m = factor_through(comp.sparse_projs[(d, a)], pre)
            if m.rows != m.cols or rank(m) != m.rows:
                raise AssertionError("comparison is not invertible at (%r, %r)"
                                     % (d, a))
            iso[(d, a)] = m
    for gamma in D.generating_arrows():
        d1, d2 = D.src[gamma], D.dst[gamma]
        for a in A.objects:
            if iso[(d1, a)] @ comp.tact(gamma, a) \
                    != restr.tact(gamma, a) @ iso[(d2, a)]:
                raise AssertionError("comparison square fails at %r" % (gamma,))
    for alpha in A.generating_arrows():
        a1, a2 = A.src[alpha], A.dst[alpha]
        for d in D.objects:
            if iso[(d, a2)] @ comp.sact(d, alpha) \
                    != restr.sact(d, alpha) @ iso[(d, a1)]:
                raise AssertionError("comparison square fails at %r" % (alpha,))
    return comp, restr, iso


# ---------------------------------------------------------------------------
# duality witnesses

class DualityWitness:
    """Explicit dual pair (x right dualizable, y its right dual).

    ``eta[a]`` is the coevaluation at the identity of a, a column in the
    blockwise sum over target objects b of x(b, a) (x) y(a, b); the other
    coevaluation components follow by naturality.  ``eps[(a, bp, b)]`` is
    the evaluation component y(a, b) (x) x(bp, a) -> hom(bp, b), given
    before coend projection.  Both are kept as SparseMats; a Mat given is
    converted once, here.  Triangle identities are matrix identities
    computed through these components and their reshapes ``eta_blocks``.
    """

    def __init__(self, x, y, eta, eps, check=True):
        self.x = x
        self.y = y
        self.eta = {k: SparseMat.from_mat(m) for k, m in eta.items()}
        self.eps = {k: SparseMat.from_mat(m) for k, m in eps.items()}
        self._eta_blocks = None
        if check:
            verify_witness(self)

    @property
    def eta_blocks(self):
        """{(a, b): the coevaluation block at b reshaped to the SparseMat
        E (x(b, a) x y(a, b)) with vec(E) that block}."""
        if self._eta_blocks is None:
            x, y = self.x, self.y
            eta = {}
            for a in x.src.objects:
                col = self.eta[a].transpose().terms[0]
                off = 0
                for b in x.tgt.objects:
                    dx, dy = x.dim(b, a), y.dim(a, b)
                    end = off + dx * dy
                    eta[(a, b)] = _row_block({k - off: v for k, v in col.items()
                                              if off <= k < end}, dx, dy)
                    off = end
            self._eta_blocks = eta
        return self._eta_blocks


def verify_witness(w):
    """Check both triangle identities and that evaluation kills the coend
    relations and is natural; raises on failure."""
    x, y = w.x, w.y
    A, B = x.src, x.tgt
    for b in B.objects:
        for a in A.objects:
            t1 = _triangle_one(w, b, a)
            if not t1.is_identity():
                raise AssertionError("first triangle identity fails at (%r, %r)"
                                     % (b, a))
    for a in A.objects:
        for b in B.objects:
            t2 = _triangle_two(w, a, b)
            if not t2.is_identity():
                raise AssertionError("second triangle identity fails at (%r, %r)"
                                     % (a, b))
    _check_eps_descends(w)
    _check_eps_natural(w)


def _row_block(terms, rows, cols):
    """The rows x cols SparseMat whose row-major entries are the sparse
    row ``terms``: a vector of kron-layout coordinates as a matrix."""
    out = [{} for _ in range(rows)]
    for k, v in terms.items():
        i, j = divmod(k, cols)
        out[i][j] = v
    return SparseMat(out, rows, cols)


def _triangle_one(w, b, a):
    """x(b,a) -> x(b,a) through coevaluation then evaluation.

    With the coevaluation block at bp reshaped to E (x(bp,a) x y(a,bp))
    and the evaluation row of u to R (y(a,bp) x x(b,a)), the map
    (id (x) ev_u)(eta (x) id) is the product E R, here a SparseMat.
    """
    x = w.x
    eta, eps = w.eta_blocks, w.eps
    B = x.tgt
    dx = x.dim(b, a)
    total = SparseMat.zeros(dx, dx)
    for bp in B.objects:
        e = eta[(a, bp)]
        if not any(e.terms):
            continue
        ev = eps[(a, b, bp)]
        for k, u in enumerate(B.hom(b, bp)):
            total = total + x.tact(u, a) @ (
                e @ _row_block(ev.terms[k], e.cols, dx))
    return total


def _triangle_two(w, a, b, pre=None):
    """y(a,b) -> y(a,b) through coevaluation then evaluation.

    With the evaluation row of u reshaped to R (y(a,b) x x(bp,a)), the map
    (ev_u (x) id)(id (x) eta) is the transpose of R E, here a SparseMat.
    With ``pre``, a matrix per object bp of B, each coevaluation block E
    is replaced by pre[bp] E.
    """
    y = w.y
    eta, eps = w.eta_blocks, w.eps
    B = w.x.tgt
    dy = y.dim(a, b)
    total = SparseMat.zeros(dy, dy)
    for bp in B.objects:
        e = eta[(a, bp)]
        if pre is not None:
            e = pre[bp] @ e
        if not any(e.terms):
            continue
        ev = eps[(a, bp, b)]
        for k, u in enumerate(B.hom(bp, b)):
            mid = (_row_block(ev.terms[k], dy, e.rows) @ e).transpose()
            total = total + y.sact(a, u) @ mid
    return total


def _times_kron(m, t, s):
    """m @ kron(t, s) as a SparseMat, written from the nonzeros of m and
    the rows of t and s that each one picks, without building kron(t, s).
    """
    sc = s.cols
    out = []
    for terms in m.terms:
        acc = {}
        for k, v in terms.items():
            i, j = divmod(k, s.rows)
            srow = s.terms[j].items()
            for c1, v1 in t.terms[i].items():
                base, vv = c1 * sc, v * v1
                for c2, v2 in srow:
                    acc[base + c2] = acc.get(base + c2, 0) + vv * v2
        out.append({c: v for c, v in acc.items() if v})
    return SparseMat(out, m.rows, t.cols * sc)


def _check_eps_descends(w):
    """Evaluation must agree on the two routes of every coend relation:
    ev (T (x) id) = ev (id (x) S), T and S the actions of the arrow."""
    x, y = w.x, w.y
    A, B = x.src, x.tgt
    eps = w.eps
    for g in A.generating_arrows():
        a1, a2 = A.src[g], A.dst[g]
        for bp in B.objects:
            s = x.sact(bp, g)
            for b in B.objects:
                lhs = _times_kron(eps[(a1, bp, b)], y.tact(g, b),
                                  SparseMat.identity(x.dim(bp, a1)))
                rhs = _times_kron(eps[(a2, bp, b)],
                                  SparseMat.identity(y.dim(a2, b)), s)
                if lhs != rhs:
                    raise AssertionError(
                        "evaluation does not kill the coend relation at %r" % (g,))


def _check_eps_natural(w):
    """Evaluation must be natural in both target-category slots."""
    x, y = w.x, w.y
    A, B = x.src, x.tgt
    unit = unit_prof(B)
    eps = w.eps
    for g in B.generating_arrows():
        b1, b2 = B.src[g], B.dst[g]
        for a in A.objects:
            xg = x.tact(g, a)
            yg = y.sact(a, g)
            for b in B.objects:
                # contravariant slot: precompose with g on x and on homs
                lhs = unit.tact(g, b) @ eps[(a, b2, b)]
                rhs = _times_kron(eps[(a, b1, b)],
                                  SparseMat.identity(y.dim(a, b)), xg)
                if lhs != rhs:
                    raise AssertionError(
                        "evaluation not natural (contravariant) at %r" % (g,))
                # covariant slot: postcompose with g on y and on homs
                lhs = unit.sact(b, g) @ eps[(a, b, b1)]
                rhs = _times_kron(eps[(a, b, b2)], yg,
                                  SparseMat.identity(x.dim(b, a)))
                if lhs != rhs:
                    raise AssertionError(
                        "evaluation not natural (covariant) at %r" % (g,))


def dual_of_pointwise(x):
    """Dual of a diagram-shaped profunctor into the terminal category.

    The dual has the transposed contravariant action; coevaluation at an
    identity is the flattened identity matrix and evaluation is the
    canonical pairing.  Triangle failure here is a construction bug, so
    verification always runs and raises.
    """
    one = x.tgt
    A = x.src
    dims = {(a, "*"): x.dim("*", a) for a in A.objects}
    tacts = {(beta, "*"): x.sact("*", beta).transpose() for beta in A.arrows}
    sacts = {(a, "id*"): SparseMat.identity(x.dim("*", a)) for a in A.objects}
    y = Profunctor(one, A, dims, tacts, sacts, check=False)
    eta = {}
    eps = {}
    for a in A.objects:
        d = x.dim("*", a)
        # the identity flattened row-major, as a row and as a column
        eps[(a, "*", "*")] = SparseMat([{i * (d + 1): 1 for i in range(d)}],
                                       1, d * d)
        eta[a] = eps[(a, "*", "*")].transpose()
    return DualityWitness(x, y, eta, eps)


def representable(fun):
    """Base-change dual pair of a functor: restriction and corestriction.

    Returns (x, y, witness) with x built from hom-sets into functor
    images, y from hom-sets out of them; evaluation is composition and
    coevaluation is the functor's action on arrows.
    """
    A, B = fun.src, fun.dst
    bad = fun.violations()
    if bad:
        raise ValueError("; ".join(bad))
    fo, fa = fun.obj_map, fun.arr_map
    # x = hom(b, f a), contravariant by precomposition, covariant via f
    xdims = {(b, a): len(B.hom(b, fo[a])) for b in B.objects for a in A.objects}
    xt = {}
    for beta in B.arrows:
        b1, b2 = B.src[beta], B.dst[beta]
        for a in A.objects:
            xt[(beta, a)] = _hom_map(B.hom(b2, fo[a]), B.hom(b1, fo[a]),
                                     lambda u: B.then(beta, u))
    xs = {}
    for alpha in A.arrows:
        a1, a2 = A.src[alpha], A.dst[alpha]
        for b in B.objects:
            xs[(b, alpha)] = _hom_map(B.hom(b, fo[a1]), B.hom(b, fo[a2]),
                                      lambda u: B.then(u, fa[alpha]))
    x = Profunctor(A, B, xdims, xt, xs, check=False)
    # y = hom(f a, b), contravariant via f, covariant by postcomposition
    ydims = {(a, b): len(B.hom(fo[a], b)) for a in A.objects for b in B.objects}
    yt = {}
    for alpha in A.arrows:
        a1, a2 = A.src[alpha], A.dst[alpha]
        for b in B.objects:
            yt[(alpha, b)] = _hom_map(B.hom(fo[a2], b), B.hom(fo[a1], b),
                                      lambda u: B.then(fa[alpha], u))
    ys = {}
    for beta in B.arrows:
        b1, b2 = B.src[beta], B.dst[beta]
        for a in A.objects:
            ys[(a, beta)] = _hom_map(B.hom(fo[a], b1), B.hom(fo[a], b2),
                                     lambda u: B.then(u, beta))
    y = Profunctor(B, A, ydims, yt, ys, check=False)
    # coevaluation at a: id (x) id in the block of f a, the blocks over b
    # of x(b, a) (x) y(a, b) laid out as triples (b, v, u)
    eta = {}
    for a in A.objects:
        basis = [(b, v, u) for b in B.objects for v in B.hom(b, fo[a])
                 for u in B.hom(fo[a], b)]
        ida = B.idarr(fo[a])
        eta[a] = _hom_map([ida], basis, lambda u: (fo[a], u, u))
    # evaluation composes: u (x) v in y(a, b) (x) x(bp, a) goes to v;u
    eps = {}
    for a in A.objects:
        for bp in B.objects:
            for b in B.objects:
                pairs = [(u, v) for u in B.hom(fo[a], b) for v in B.hom(bp, fo[a])]
                eps[(a, bp, b)] = _hom_map(pairs, B.hom(bp, b),
                                           lambda uv: B.then(uv[1], uv[0]))
    w = DualityWitness(x, y, eta, eps)
    return x, y, w


def dual_via_retract(w, r, s):
    """Witness for a retract of a dualizable profunctor out of the
    terminal category.

    ``r`` and ``s`` are per-object matrices with r o s = id on the
    retract; the dual is the split of the mate idempotent, and the new
    coevaluation/evaluation are the transported components.
    """
    x, y = w.x, w.y
    A = x.tgt
    if x.src.objects != ("*",):
        raise ValueError("retract transport implemented for weights only")
    r = {a: SparseMat.from_mat(m) for a, m in r.items()}
    s = {a: SparseMat.from_mat(m) for a, m in s.items()}
    for a in A.objects:
        if not (r[a] @ s[a]).is_identity():
            raise ValueError("r o s is not the identity at %r" % (a,))
    e = {a: s[a] @ r[a] for a in A.objects}
    # the mate of e on the dual, componentwise
    ehat = {a: _triangle_two(w, "*", a, pre=e) for a in A.objects}
    for a in A.objects:
        if not (ehat[a] @ ehat[a] == ehat[a]):
            raise AssertionError("mate of the retract idempotent is not idempotent")
    splits = {a: idempotent_image(ehat[a]) for a in A.objects}
    # retract weight z with transported actions
    zdims = {(a, "*"): r[a].rows for a in A.objects}
    ztacts = {}
    for beta in A.arrows:
        a1, a2 = A.src[beta], A.dst[beta]
        ztacts[(beta, "*")] = r[a1] @ x.tact(beta, "*") @ s[a2]
    zsacts = {(a, "id*"): SparseMat.identity(r[a].rows) for a in A.objects}
    z = Profunctor(x.src, A, zdims, ztacts, zsacts, check=False)
    # dual of the retract: split the mate
    zddims = {("*", a): splits[a][0].cols for a in A.objects}
    zdtacts = {("id*", a): SparseMat.identity(splits[a][0].cols)
               for a in A.objects}
    zdsacts = {}
    for alpha in A.arrows:
        a1, a2 = A.src[alpha], A.dst[alpha]
        i1, _p1 = splits[a1]
        _i2, p2 = splits[a2]
        zdsacts[("*", alpha)] = p2 @ y.sact("*", alpha) @ i1
    zd = Profunctor(A, x.src, zddims, zdtacts, zdsacts, check=False)
    rp = block_diag([kron(r[a], splits[a][1]) for a in A.objects])
    eta = {ast: rp @ w.eta[ast] for ast in x.src.objects}
    eps = {}
    for ap in A.objects:
        for a in A.objects:
            eps[("*", ap, a)] = w.eps[("*", ap, a)] @ kron(splits[a][0], s[ap])
    return DualityWitness(z, zd, eta, eps)


# ---------------------------------------------------------------------------
# traces through the genuine quotient pipeline

def _paired_coend(cat, d1, act1, d2, act2, first_covariant):
    """The coends over cat of M1 (x) M2 and of M2 (x) M1, and the swap.

    One module is covariant, the other contravariant; ``act1(g)`` and
    ``act2(g)`` are their action matrices at a generating arrow g, and
    ``d1``, ``d2`` their dimensions per object.  Returns (offsets, p1,
    p2, swap): both coends have the same block offsets, and swap is the
    map on coends induced by M1 (x) M2 -> M2 (x) M1, found by factoring
    p2, its columns permuted into the M1 (x) M2 layout, through p1.  The
    projections are SparseMats.

    The result depends only on ``first_covariant``, the dimensions and
    the nonzero entries of both actions at every generating arrow, so it
    is kept on cat, keyed by exactly those values, for as long as cat
    lives: a later call with equal values returns the kept tuple and
    builds neither coend.
    """
    objs = cat.objects
    key = (first_covariant, tuple(d1[a] for a in objs),
           tuple(d2[a] for a in objs),
           tuple(_entries(act(g)) for g in cat.generating_arrows()
                 for act in (act1, act2)))
    got = cat._paired_coends.get(key)
    if got is not None:
        return got
    offsets, p1 = _coend(objs, lambda a: d1[a] * d2[a],
                         _tensor_rels(cat, d1, act1, d2, act2, first_covariant))
    _offsets, p2 = _coend(objs, lambda a: d2[a] * d1[a],
                          _tensor_rels(cat, d2, act2, d1, act1,
                                       not first_covariant))
    # column k of p2 (M2 (x) M1 at (j, i)) lands in column to[k] (at (i, j))
    to = [offsets[a][0] + i * d2[a] + j
          for a in objs for j in range(d2[a]) for i in range(d1[a])]
    swapped = SparseMat([{to[k]: v for k, v in terms.items()}
                         for terms in p2.terms], p2.rows, p2.cols)
    got = cat._paired_coends[key] = (offsets, p1, p2,
                                     factor_through(p1, swapped))
    return got


def _entries(m):
    """The nonzero entries of the SparseMat m, row by row, each row sorted
    by column: a hashable form that ignores dict insertion order."""
    return tuple(tuple(sorted(terms.items())) for terms in m.terms)


def bicat_trace(w, f):
    """Trace of an endomorphism of a dualizable diagram-shaped profunctor.

    The composite runs coevaluation into the coend of x (x) dual, applies
    the endomorphism, transposes the tensor factors, and evaluates, all
    through the actual cokernel presentations; the result is expressed in
    the conjugacy-class basis of the unit shadow.  The map f (x) id is the
    projection times a block diagonal of sparse Kronecker products, and
    the factor swap a column permutation of a projection, never a
    permutation matrix.  The component at a class equals the direct
    trace of (endo at a) o (value of the class representative); that
    equality is the point of the construction and is asserted by callers,
    not assumed here.
    """
    x, y = w.x, w.y
    A = x.src
    if x.tgt.objects != ("*",):
        raise ValueError("trace pipeline expects a diagram-shaped profunctor")
    sf = {a: SparseMat.from_mat(m) for a, m in f.items()}
    _check_endo_natural(x, sf)
    su = unit_shadow(A)

    dx = {a: x.dim("*", a) for a in A.objects}
    dy = {a: y.dim(a, "*") for a in A.objects}
    off, p1, p2, h3 = _paired_coend(A, dx, lambda g: x.sact("*", g),
                                    dy, lambda g: y.tact(g, "*"),
                                    True)

    # shadow of the coevaluation, checked on both naturality routes:
    # (x(alpha) (x) id) eta and (id (x) y(alpha)) eta, as S E and E T^t
    # for eta = vec(E), flattened into the block of p1 at a; equal
    # products have equal images, so only the nonzero differences
    # S E - E T^t go through p1, where they must vanish
    eta = w.eta_blocks
    cols, diffs = [], []
    for a in A.objects:
        e = eta[(a, "*")]
        for alpha in A.endos(a):
            se = x.sact("*", alpha) @ e
            et = e @ y.tact(alpha, "*").transpose()
            cols.append(_flat(se, off[a][0]))
            if se != et:
                diffs.append((alpha, _flat(se + et.smul(-1), off[a][0])))
    if diffs:
        seen = p1 @ SparseMat([d for _, d in diffs], len(diffs),
                              p1.cols).transpose()
        bad = {c for terms in seen.terms for c in terms}
        if bad:
            raise AssertionError("coevaluation is not natural at endomorphism"
                                 " %r" % (diffs[min(bad)][0],))
    pre = p1 @ SparseMat(cols, len(cols), p1.cols).transpose()
    h1 = factor_through(su.sparse_proj, pre)

    h2 = factor_through(p1, p1 @ block_diag(
        [kron(sf[a], SparseMat.identity(dy[a])) for a in A.objects]))

    ev = hstack(1, [w.eps[(a, "*", "*")] for a in A.objects])
    h4 = factor_through(p2, ev)

    row = (h4 @ h3 @ h2 @ h1 @ su.class_matrix).terms[0]
    return {rep: F(row.get(i, 0)) for i, rep in enumerate(su.classes.reps)}


def _flat(m, off):
    """The entries of the SparseMat m, row-major, as a sparse vector whose
    coordinates start at ``off``: the inverse of ``_row_block``."""
    return {off + i * m.cols + j: v
            for i, terms in enumerate(m.terms) for j, v in terms.items()}


def _check_endo_natural(x, sf):
    """x(g) f_s = f_t x(g) on every generating arrow g: s -> t, as
    sparse products of the actions and the SparseMats ``sf``."""
    A = x.src
    for g in A.generating_arrows():
        act = x.sact("*", g)
        if act @ sf[A.src[g]] != sf[A.dst[g]] @ act:
            raise ValueError("endomorphism is not natural at %r" % (g,))


def coeff_vector_direct(w, endo=None):
    """Trace of an endomorphism of a dualizable weight, in class coordinates.

    With the default identity endomorphism this is the coefficient vector
    of the weight: one exact rational per conjugacy class of the shape.
    The endomorphism and the factor swap act on the coend projections as
    in ``bicat_trace``.
    """
    x, y = w.x, w.y
    A = x.tgt
    if x.src.objects != ("*",):
        raise ValueError("coefficient pipeline expects a weight-shaped profunctor")
    su = unit_shadow(A)
    dx = {a: x.dim(a, "*") for a in A.objects}
    dy = {a: y.dim("*", a) for a in A.objects}
    if endo is None:
        endo = {a: SparseMat.identity(dx[a]) for a in A.objects}
    _off, p1, p2, u2 = _paired_coend(A, dx, lambda g: x.tact(g, "*"),
                                     dy, lambda g: y.sact("*", g),
                                     False)

    u1 = factor_through(p1, p1 @ block_diag(
        [kron(endo[a], SparseMat.identity(dy[a])) for a in A.objects]))
    u1 = u1 @ (p1 @ w.eta["*"])
    # the evaluation at each (a, a) lands in the unit shadow's block of
    # hom(a, a)
    u3 = factor_through(p2, su.sparse_proj @ block_diag(
        [w.eps[("*", a, a)] for a in A.objects]))
    vec_ = su.to_class @ (u3 @ u2 @ u1)
    return {rep: F(terms.get(0, 0))
            for terms, rep in zip(vec_.terms, su.classes.reps)}
