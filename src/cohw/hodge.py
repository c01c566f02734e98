"""Mixed Hodge data on unipotent groups and the double-coset torsor
classification.

The "real" model is a nilpotent Lie algebra L over the rationals; its
"complex" points are its Gaussian-rational points, computed exactly on the
realified algebra ``M.Lreal`` (L as a rational algebra of twice the
dimension, coordinates (re_0, im_0, re_1, im_1, ...)), where conjugation
negates the odd coordinates.  All statements used are algebraic in the
filtrations and conjugation, so the rational/Gaussian pair is an exact
stand-in for R/C.  A mixed Hodge structure is an ascending weight
filtration by ideals together with a descending, bracket-multiplicative
Hodge filtration over the Gaussian field satisfying the degreewise
direct-sum condition on each pure-weight layer; each level is kept as an
``Echelon``, a Hodge level as that of its realified complex span.
Gaussian vectors appear only at the boundary: the spanning families of
the Hodge levels, the points classified, and their normal forms.

Torsor classes are double cosets W0U(R) \\ U(C) / F0U(C).  The
stabilizer descent of ``nilpotent``, run on w^-1 u f over (f, w) in
F0U(C) x W0U(R), gives each class one canonical normal form, so two
points are equivalent exactly when their normal forms agree.  The
cosimplicial group cogenerated by the pattern F0U(C) x W0U(R) => U(C)
has the same classes as its pi^1, and carries the exact sequence of a
central extension; an ``MHSGroup`` builds the two subgroups and that
object on first read, once.
"""

import functools
from fractions import Fraction

from .exactla import (
    Echelon, complex_span, identity_matrix, mat_vec, realify_vector,
    transpose, unrealify_vector, vec_is_zero, vec_neg,
)
from .cosimpl import (
    LinearHom, SemiCosimplicialGroup, StructuredHom, UnipotentCarrier,
    _product_object, cogenerate, cogenerate_morphism, les_central_unipotent,
)
from .nilpotent import LieMorphism, NilpotentLieAlgebra, _descend

def realify_algebra(L):
    """Restriction of scalars: the rational Lie algebra of dimension 2d
    underlying the Gaussian points, with coordinates interleaved
    (re_0, im_0, re_1, im_1, ...) to match ``realify_vector``."""
    structure = {}
    for (i, j), row in L.structure.items():
        re_row = {2 * k: Fraction(c) for k, c in row.items()}
        im_row = {2 * k + 1: Fraction(c) for k, c in row.items()}
        # [re_i, re_j] = sum c re_k,  [re_i, im_j] = [im_i, re_j] = im part,
        # [im_i, im_j] = -(real part), since [ix, iy] = -[x, y]
        structure[(2 * i, 2 * j)] = dict(re_row)
        structure[(2 * i, 2 * j + 1)] = dict(im_row)
        structure[(2 * i + 1, 2 * j)] = dict(im_row)
        structure[(2 * i + 1, 2 * j + 1)] = {k: -c for k, c in re_row.items()}
    return NilpotentLieAlgebra(2 * L.dim, structure, name=L.name + "_R")


def realify_matrix(A, rows, cols):
    """Realification of a rational matrix acting on Gaussian coordinates.
    Read as a list of rows b_k, its rows 2k and 2k + 1 are the realified
    b_k and i b_k: a basis of their complex span whose coordinates are the
    realified complex coordinates."""
    out = [[Fraction(0)] * (2 * cols) for _ in range(2 * rows)]
    for r in range(rows):
        for c in range(cols):
            a = Fraction(A[r][c])
            out[2 * r][2 * c] = a
            out[2 * r + 1][2 * c + 1] = a
    return out


def subalgebra_on_basis(L, vectors, name="sub"):
    """Abstract Lie algebra on the span of a bracket-closed family, whose
    basis is the ``rows`` of the span's :class:`Echelon`.  Returns
    (algebra, echelon, inclusion morphism)."""
    span = Echelon(vectors)
    basis = span.rows
    structure = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            coords = span.coords(L.bracket(basis[i], basis[j]))
            if coords is None:
                raise ValueError("family is not bracket-closed")
            row = {k: c for k, c in enumerate(coords) if c}
            if row:
                structure[(i, j)] = row
    alg = NilpotentLieAlgebra(len(basis), structure, name=name)
    mat = [[basis[c][r] for c in range(len(basis))] for r in range(L.dim)]
    return alg, span, LieMorphism(alg, L, mat, check=True)


# ---------------------------------------------------------------------------
# the filtered group

class MHSGroup:
    """A unipotent group over the rationals with a weight filtration W
    (ascending, by ideals) and a Hodge filtration F (descending, over the
    Gaussian field, bracket-multiplicative).

    ``weights`` maps an integer m to the :class:`Echelon` of W_m
    (cumulative, given by rational vectors); ``hodge`` maps an integer p
    to the ``complex_span`` of F^p (given by Gaussian or rational vectors),
    realified, of twice the complex dimension.  In ``w_basis`` and
    ``f_basis`` unstored indices take the value at the largest stored
    index below them (empty below all stored W indices, full below all
    stored F indices).  The weights must be negative: W_-1 is the whole
    algebra, which ``validate_mhs`` checks with the other invariants.
    Immutable after construction; deciders are reentrant.
    """

    def __init__(self, L, weights, hodge, name="M", check=True):
        self.L = L
        self.name = name
        self.weights = {int(m): Echelon(basis)
                        for m, basis in weights.items()}
        self.hodge = {int(p): complex_span(basis)
                      for p, basis in hodge.items()}
        self.Lreal = realify_algebra(L)
        self.report = validate_mhs(self)
        if check and not self.report["ok"]:
            bad = next(c for c in self.report["checks"] if not c["ok"])
            raise ValueError("invalid filtrations of %s: %s (%s)"
                             % (name, bad["name"], bad["detail"] or "failed"))

    def w_basis(self, m):
        stored = [i for i in self.weights if i <= m]
        return self.weights[max(stored)] if stored else Echelon([])

    def f_basis(self, p):
        stored = [i for i in self.hodge if i <= p]
        if not stored:
            return Echelon(identity_matrix(2 * self.L.dim))
        return self.hodge[max(stored)]

    def w0(self):
        return self.w_basis(0)

    def f0(self):
        return self.f_basis(0)

    def real_fixed(self):
        """Rational basis of F0 /\\ W0 real points (the fixed subgroup of
        the double-coset pattern).  The realified W0 lies in the real
        coordinate plane, so its meet with F0 is the realified answer, a
        reduced echelon basis that stays one without its zero imaginary
        columns."""
        inter = self.f0().meet(
            Echelon([realify_vector(w) for w in self.w0().rows]))
        return [list(v[0::2]) for v in inter.rows]

    @functools.cached_property
    def w0_f0_subgroups(self):
        """The two materialized subgroups: W0 over the rationals and F0
        over the Gaussian field, both realized as subalgebras of the
        realified Lie algebra (with the group structure through BCH), and
        the acting group F0U(C) x W0U(R), their direct sum with factors
        (F0, W0)."""
        LR = self.Lreal
        w_real = [realify_vector(w) for w in self.w0().rows]
        walg, wb, wincl = subalgebra_on_basis(LR, w_real,
                                              name=self.name + "_W0")
        falg, fb, fincl = subalgebra_on_basis(LR, self.f0().rows,
                                              self.name + "_F0")
        return {"w0_basis": self.w0(), "f0_basis": self.f0(),
                "w0_real": wb, "f0_real": fb,
                "w0_algebra": walg, "f0_algebra": falg,
                "w0_inclusion": wincl, "f0_inclusion": fincl,
                "group": _product_object([UnipotentCarrier(falg),
                                          UnipotentCarrier(walg)]),
                "real_fixed": self.real_fixed()}

    @functools.cached_property
    def coset_cosimplicial(self):
        """Cogenerate the pattern F0U(C) x W0U(R) => U(C) (d^0 = the Hodge
        inclusion, d^1 = the real form) up to level 2, so that pi^0 is the
        real fixed subgroup and pi^1 is the set of double cosets."""
        sub = self.w0_f0_subgroups
        LR = self.Lreal
        X0 = sub["group"]
        X1 = UnipotentCarrier(LR)
        nf, nw = sub["f0_algebra"].dim, sub["w0_algebra"].dim
        d0 = [row + [Fraction(0)] * nw for row in sub["f0_inclusion"].matrix]
        d1 = [[Fraction(0)] * nf + row for row in sub["w0_inclusion"].matrix]
        # both cofaces are Lie morphisms (subalgebra inclusions)
        LieMorphism(X0.L, LR, d0, check=True)
        LieMorphism(X0.L, LR, d1, check=True)
        X = SemiCosimplicialGroup([X0, X1], {1: [LinearHom(X0, X1, d0),
                                                 LinearHom(X0, X1, d1)]},
                                  check=True)
        return cogenerate(X, 2)

    def __repr__(self):
        return "MHSGroup(%s, dim=%d)" % (self.name, self.L.dim)


def _conj(v):
    """Complex conjugation in realified coordinates."""
    return [-x if k % 2 else x for k, x in enumerate(v)]


def _graded_piece(M, m):
    """(dim Gr_m W, gr_part) for a nonzero graded piece, else None;
    gr_part(p) is F^p /\\ W_m in Gr_m W, realified, as vectors reduced
    modulo W_m-1 (``Echelon.reduce``).  Conjugation preserves the complex
    span of a rational space and its pivot columns, so it commutes with
    the reduction.  Computed once for each stored level of F, as p and
    m + 1 - p revisit them."""
    Wm, Wm1 = M.weights[m], M.w_basis(m - 1)
    grdim = len(Echelon([Wm1.reduce(v) for v in Wm.rows]))
    if not grdim:
        return None
    WmC, Wm1C = complex_span(Wm.rows), complex_span(Wm1.rows)
    parts = {}

    def gr_part(p):
        key = max((i for i in M.hodge if i <= p), default=None)
        if key not in parts:
            parts[key] = Echelon([Wm1C.reduce(x)
                                  for x in M.f_basis(p).meet(WmC).rows])
        return parts[key]
    return grdim, gr_part


def validate_mhs(M):
    """Check every filtration invariant exactly; report graded weights.
    Failures are named ("non-ideal W level", "non-multiplicative F",
    "failed Hodge decomposition")."""
    checks = []

    def add(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    L, LR = M.L, M.Lreal
    d = L.dim
    widx = sorted(M.weights)
    fidx = sorted(M.hodge)

    # W nested ascending
    add("W nested", all(M.weights[b].contains(v)
                        for a, b in zip(widx, widx[1:])
                        for v in M.weights[a].rows))

    # W levels are ideals
    for m in widx:
        lvl = M.weights[m]
        ideal = all(lvl.contains(L.bracket(L.basis_vector(i), w))
                    for i in range(d) for w in lvl.rows)
        add("W_%d is an ideal" % m, ideal,
            "" if ideal else "non-ideal W level")

    neg = widx and max(widx) <= -1 and len(M.w_basis(-1)) == d
    add("negative weights: W_-1 is everything", neg)

    # F nested descending
    add("F nested", all(M.hodge[a].contains(v)
                        for a, b in zip(fidx, fidx[1:])
                        for v in M.hodge[b].rows))

    # F bracket-multiplicative: the bracket is real bilinear, so real
    # bases of the levels suffice
    for a in fidx:
        for b in fidx:
            target = M.f_basis(a + b)
            good = all(target.contains(LR.bracket(u, v))
                       for u in M.hodge[a].rows for v in M.hodge[b].rows)
            add("[F^%d, F^%d] in F^%d" % (a, b, a + b), good,
                "" if good else "non-multiplicative F")

    # Hodge decomposition on each pure-weight graded piece.  F^p is full
    # below pmin and F^pmax above pmax, so the pairs (F^p, conj F^(m+1-p))
    # repeat outside [min(pmin, m+1-pmax) - 1, max(pmax, m+1-pmin) + 1];
    # the p of that range outside [pmin, pmax + 1] are checked last
    pmin = min(fidx) if fidx else 0
    pmax = max(fidx) if fidx else 0
    pieces = {}

    def decomposition(m, p):
        grdim, gr_part = pieces[m]
        A = gr_part(p).rows
        B = [_conj(v) for v in gr_part(m + 1 - p).rows]
        direct = (len(A) + len(B) == 2 * grdim
                  and len(Echelon([*A, *B])) == 2 * grdim)
        add("Hodge decomposition at weight %d, p=%d" % (m, p), direct,
            "" if direct else "failed Hodge decomposition")

    for m in widx:
        piece = _graded_piece(M, m)
        if piece is not None:
            pieces[m] = piece
            for p in range(pmin, pmax + 2):
                decomposition(m, p)
    for m in pieces:
        for p in range(min(pmin, m + 1 - pmax) - 1,
                       max(pmax, m + 1 - pmin) + 2):
            if not pmin <= p <= pmax + 1:
                decomposition(m, p)
    graded = {m: grdim for m, (grdim, _) in pieces.items()}
    return {"ok": all(c["ok"] for c in checks), "checks": checks,
            "graded_weights": graded}


# ---------------------------------------------------------------------------
# the double-coset cosimplicial group and its deciders

# ---------------------------------------------------------------------------
# classification

class MHSTorsorClass:
    """Canonical normal form of a double coset: the representative
    w^-1 u f, equal for two points exactly when they are equivalent, the
    reduced value of each layer of the realified central series, and the
    witnesses w and f as points of the realified Lie algebra."""

    def __init__(self, mhs, representative, layer_coords, left_witness,
                 right_witness):
        self.mhs = mhs
        self.representative = representative
        self.layer_coords = layer_coords
        self.left_witness = left_witness
        self.right_witness = right_witness

    def is_base(self):
        return vec_is_zero(self.representative)

    def normal_coords(self):
        return [x for layer in self.layer_coords for x in layer]

    def __eq__(self, other):
        return (isinstance(other, MHSTorsorClass)
                and self.representative == other.representative)

    def __repr__(self):
        return "MHSTorsorClass(%s)" % (self.representative,)


def classify_torsor(M, u):
    """The normal form of the double coset of u, by stabilizer descent of
    act(f, w) = w^-1 u f over the acting group F0U(C) x W0U(R)."""
    sub = M.w0_f0_subgroups
    LR, group = M.Lreal, sub["group"]
    nf = group.offsets[1]
    ur = realify_vector(u)

    def witnesses(g):
        return (sub["w0_inclusion"].apply(g[nf:]),
                sub["f0_inclusion"].apply(g[:nf]))

    def act(g):
        w, f = witnesses(g)
        return LR.bch(LR.bch(vec_neg(w), ur), f)

    g, layers, _ = _descend(LR, act, group)
    w, f = witnesses(g)
    return MHSTorsorClass(M, unrealify_vector(act(g)),
                          [reduced for _, reduced in layers], w, f)


def equivalent(M, u, uprime):
    """Does some (w, f) in W0U(R) x F0U(C) satisfy w^-1 u f = u'?  Exactly
    when the normal forms of u and u' are equal."""
    return classify_torsor(M, u) == classify_torsor(M, uprime)


def h1_dimension(M):
    """dim_R U(C) - dim_R F0U(C) - dim_R U(R), the dimension of the
    double-coset space (dim_R F0U(C) is the length of the realified F0
    basis), for valid filtrations with negative weights, else ValueError.
    The action (w, f) . u = w^-1 u f is then free: Ad(u^-1) w = f moves w
    only by deeper weight, so the leading graded part of a stabilizing w,
    a real vector, lies in F^0 Gr_m /\\ conj F^0 Gr_m, which is 0 because
    the Hodge decomposition holds at p = 0 and m < 0."""
    if not M.report["ok"]:
        raise ValueError("the dimension formula needs valid filtrations "
                         "with negative weights")
    d = M.L.dim
    return 2 * d - len(M.f0()) - d


# ---------------------------------------------------------------------------
# the exact sequence of a central extension

def mhs_les(MZ, MU, MQ, incl, proj):
    """For a central extension 1 -> Z -> U -> Q -> 1 of filtered groups
    with strictly compatible filtrations: the sequence

        1 -> fix(Z) -> fix(U) -> fix(Q) -> H1(Z) ~> H1(U) -> H1(Q) -> 1

    where fix = F0W0(R) real fixed points and H1 = double-coset classes,
    realized on the cogenerated coset cosimplicial groups, whose clauses
    ``les_central_unipotent`` decides or derives.  Filtrations that are
    invalid or not strictly compatible raise ValueError; a failed
    cross-check of pi^0 or of H1(Z) raises RuntimeError."""
    dU, dQ = MU.L.dim, MQ.L.dim
    for M in (MZ, MU, MQ):
        if not M.report["ok"]:
            raise ValueError("filtrations of %s are not valid with "
                             "negative weights" % M.name)

    # strict compatibility of the filtrations
    inclR = realify_matrix(incl.matrix, dU, MZ.L.dim)
    projR = realify_matrix(proj.matrix, dQ, dU)
    if Echelon([mat_vec(projR, f) for f in MU.f0().rows]) != MQ.f0():
        raise ValueError("non-strict filtration data: "
                         "proj(F0 U) != F0 Q")
    if Echelon([mat_vec(inclR, f) for f in MZ.f0().rows]) != \
            MU.f0().meet(Echelon(transpose(inclR))):
        raise ValueError("non-strict filtration data: "
                         "F0 U /\\ Z != incl(F0 Z)")
    for m in sorted(set(MZ.weights) | set(MU.weights) | set(MQ.weights)):
        wU, wQ = MU.w_basis(m), MQ.w_basis(m)
        if not (all(wU.contains(mat_vec(incl.matrix, w))
                    for w in MZ.w_basis(m).rows)
                and all(wQ.contains(mat_vec(proj.matrix, w))
                        for w in wU.rows)):
            raise ValueError("non-strict filtration data: "
                             "weight level escapes")

    # cosimplicial realization and levelwise maps
    GZ, GU, GQ = (M.coset_cosimplicial for M in (MZ, MU, MQ))

    def factor_maps(Ma, Mb, mor):
        suba, subb = Ma.w0_f0_subgroups, Mb.w0_f0_subgroups
        real = realify_matrix(mor.matrix, Mb.L.dim, Ma.L.dim)

        def block(kind):
            """The matrix of the map on one factor, in the subalgebra
            bases."""
            bb = subb[kind]
            cols = [bb.coords(mat_vec(real, v)) for v in suba[kind].rows]
            if None in cols:
                raise RuntimeError("filtration map does not restrict")
            return [[co[r] for co in cols] for r in range(len(bb))]
        Ga = Ma.coset_cosimplicial
        Gb = Mb.coset_cosimplicial
        Xa, Xb = suba["group"], subb["group"]
        h0 = StructuredHom(Xa, Xb, [
            (k, LinearHom(Xa.factors[k], Xb.factors[k], block(kind)))
            for k, kind in enumerate(("f0_real", "w0_real"))])
        h1 = LinearHom(Ga.semi.objects[1], Gb.semi.objects[1], real)
        return [h0, h1]

    maps_zu = cogenerate_morphism(GZ, GU, factor_maps(MZ, MU, incl))
    maps_uq = cogenerate_morphism(GU, GQ, factor_maps(MU, MQ, proj))

    les = les_central_unipotent(GZ, GU, GQ, maps_zu, maps_uq)

    # cross-check pi^0 of the cosimplicial realization against the
    # conjugation-fixed computation
    for M, G, eq in zip((MZ, MU, MQ), (GZ, GU, GQ), les["pi0"]):
        d1 = G.semi.cofaces[1][1].matrix
        img = Echelon([mat_vec(d1, v) for v in eq])
        direct = Echelon([realify_vector(v) for v in M.real_fixed()])
        if img != direct:
            raise RuntimeError("pi0 disagrees with the fixed-point basis")
    if les["h1_z_dim"] != h1_dimension(MZ):
        raise RuntimeError("H1(Z) disagrees with the dimension formula")

    clauses = les["clauses"]
    h1Q = h1_dimension(MQ)
    # pi0(Q) = 0: it matched the real fixed points, none in weights < 0
    middle_bijective = les["middle_injective"] and h1Q == 0

    return {"report": les["report"], "clauses": clauses,
            "provenance": les["provenance"],
            "middle_bijective": middle_bijective,
            "h1_z_dim": les["h1_z_dim"], "h1_q_dim": h1Q,
            "cosimplicial": (GZ, GU, GQ),
            "level_maps": (maps_zu, maps_uq)}


# ---------------------------------------------------------------------------
# twisting

def twist_mhs(M, alpha):
    """Replace F by its image under the adjoint action of the group
    element alpha^-1 (weights unchanged); torsor classes correspond under
    right multiplication by alpha.  Re-validation must succeed (the
    graded pieces are untouched by a unipotent adjoint)."""
    LR = M.Lreal
    g = LR.inverse(realify_vector(alpha))
    hodge = {p: [unrealify_vector(LR.Ad(g, f)) for f in level.rows]
             for p, level in M.hodge.items()}
    return MHSGroup(M.L, {m: w.rows for m, w in M.weights.items()}, hodge,
                    name=M.name + "_tw", check=True)
