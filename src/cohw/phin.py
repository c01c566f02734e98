"""Frobenius-monodromy data on unipotent groups and the cohomotopy of
their quotient patterns.

A PhiNGroup is a nilpotent Lie algebra with a Frobenius automorphism phi
and a monodromy derivation N satisfying N phi = p phi N.  Its quotient
patterns ("f/e" and "g/e") are cosimplicial unipotent groups: the
diagonal of the double cogeneration (``cosimpl.diagonal_cogenerate``)
of the two-object Frobenius pattern (D with d^0 = phi, d^1 = id) crossed
with the square-zero epsilon-variable pattern that denormalizes the
two-term complex D --N--> D.  All structure maps are produced by that
one construction and re-verified: cosimplicial identities exactly, and
multiplicativity (Lie-morphism property) of every structure map, block
by block.
"""

from fractions import Fraction

from . import exactla
from .exactla import (
    Echelon, kernel_basis, mat_eq, mat_mul, mat_vec, rank, transpose,
    vec_add, vec_sub, zero_matrix,
)
from .cosimpl import (
    BiSemiCosimplicial, CosimplicialGroup, LinearHom, StructuredHom,
    UnipotentCarrier, _product_object, certificate_report,
    complex_cohomology_dims, diagonal_cogenerate,
    les_central_unipotent, pi0, pi1_unipotent_deciders, pi_abelian_all,
)
from .nilpotent import (
    LieMorphism, NilpotentLieAlgebra, abelian_lie_algebra, direct_sum,
    solve_graded_affine,
)


# ---------------------------------------------------------------------------
# the basic datum

class PhiNGroup:
    """Nilpotent Lie algebra L with a Frobenius automorphism phi (a Lie
    algebra automorphism matrix), a monodromy N (a bracket derivation
    matrix), and a formal prime weight p > 1, subject to N phi = p phi N."""

    def __init__(self, L, phi, N=None, p=2):
        self.L = L
        self.phi = [list(row) for row in phi]
        if N is None:
            N = zero_matrix(L.dim, L.dim)
        self.N = [list(row) for row in N]
        self.p = Fraction(p)
        self.validate()

    def validate(self):
        """Raise ValueError naming the first axiom the data breaks."""
        L = self.L
        if self.p <= 1:
            raise ValueError("weight p must exceed 1")
        phi_m = LieMorphism(L, L, self.phi, check=False)
        bad = phi_m.bracket_defect()
        if bad is not None:
            raise ValueError("phi is not a Lie algebra morphism at (%d,%d)"
                             % bad)
        if not phi_m.is_automorphism():
            raise ValueError("phi is not invertible")
        # N is a bracket derivation, N[x, y] = [Nx, y] + [x, Ny], exactly
        # when x |-> x + eps Nx is a Lie morphism into L[eps]
        bad = LieMorphism(L, epsilon_lie_algebra(L, 1),
                          exactla.identity_matrix(L.dim) + self.N,
                          check=False).bracket_defect()
        if bad is not None:
            raise ValueError("N is not a derivation at (%d,%d)" % bad)
        lhs = mat_mul(self.N, self.phi)
        rhs = [[self.p * v for v in row] for row in mat_mul(self.phi, self.N)]
        if not mat_eq(lhs, rhs):
            raise ValueError("N phi != p phi N")

    @property
    def dim(self):
        return self.L.dim

    def is_abelian(self):
        return self.L.is_abelian()

    def __repr__(self):
        return "PhiNGroup(%r, p=%s)" % (self.L, self.p)


# ---------------------------------------------------------------------------
# epsilon-variable carriers

def epsilon_lie_algebra(L, n):
    """L tensor Q[eps_1..eps_n]/(eps_i eps_j = 0): block 0 carries the
    main part, blocks 1..n the epsilon coefficients.  Brackets pair main
    with main (into main) and main with epsilon (into the same epsilon
    block); epsilon-epsilon brackets vanish.  Jacobi holds because it
    holds on L, so it is not checked again; the lower central series is
    computed from the brackets, as for any algebra."""
    d = L.dim
    structure = {}
    for (i, j), row in L.structure.items():
        structure[(i, j)] = dict(row)
        for b in range(1, n + 1):
            off = b * d
            structure[(i, j + off)] = {k + off: c for k, c in row.items()}
            structure[(j, i + off)] = {k + off: -c for k, c in row.items()}
    return NilpotentLieAlgebra(d * (n + 1), structure,
                               name="%s[eps^%d]" % (L.name, n),
                               validate=False)


# ---------------------------------------------------------------------------
# quotient patterns

def selmer_quotient_cosimplicial(X, variant="g/e", N=3):
    """Cosimplicial unipotent group of the quotient pattern: the diagonal
    of the double cogeneration (``diagonal_cogenerate``) of the
    bi-semi-cosimplicial space with every entry D.  Horizontally it is
    the Frobenius pattern, d^0 = phi on column 0 and p phi on column 1,
    d^1 = id; vertically the epsilon pattern, the embedding of the complex
    D --N--> D (d^0 = 0, d^1 = -N).  Each row of a level, one copy of D
    per epi [n] ->> [b], is the epsilon carrier on L with one epsilon per
    b = 1.  The "f/e" variant has column 0 only (no epsilon direction, so
    N plays no role)."""
    if variant not in ("f/e", "g/e"):
        raise ValueError("variant must be 'f/e' or 'g/e', not %r"
                         % (variant,))
    L, phi, p = X.L, X.phi, X.p
    D = UnipotentCarrier(abelian_lie_algebra(L.dim))
    columns, vertical = [phi], None
    if variant == "g/e":
        columns.append([[p * v for v in row] for row in phi])
        vertical = [LinearHom(D, D, M) for M in (
            zero_matrix(L.dim, L.dim), [[-v for v in row] for row in X.N])]
    A = BiSemiCosimplicial([[D] * len(columns)] * 2,
                           [None, [[LinearHom(D, D, M), D.identity_hom]
                                   for M in columns]],
                           [[None, vertical]] * 2)
    diag = diagonal_cogenerate(A, N)

    objects = []
    for G in diag.objects:
        # the epsilon carrier is, as a vector space, the row's sum of
        # copies of D: main part first, then one epsilon coefficient each
        row = G.factors[0]
        U = UnipotentCarrier(epsilon_lie_algebra(L, len(row.factors) - 1))
        U.factors, U.offsets, U._at = row.factors, row.offsets, row._at
        objects.append(_product_object([U] * len(G.factors)))
    cofaces = {n: [StructuredHom(objects[n - 1], objects[n], h.parts)
                   for h in hs] for n, hs in diag.cofaces.items()}
    codegens = {n: [StructuredHom(objects[n + 1], objects[n], h.parts)
                    for h in hs] for n, hs in diag.codegens.items()}
    S = CosimplicialGroup(objects, cofaces, codegens, check=True)
    # multiplicativity: every structure map must be a Lie morphism.  A
    # level is the direct sum of its rows, all the same epsilon algebra,
    # and a structure map feeds target row t from one source row through
    # its part; brackets across rows vanish, so the map is a Lie morphism
    # exactly when each part is one between the row algebras.
    rows = [G.factors[0].L for G in objects]
    for maps, step in ((cofaces, -1), (codegens, 1)):
        for n, hs in maps.items():
            for h in hs:
                for _, part in h.parts:
                    LieMorphism(rows[n + step], rows[n], part.matrix)
    return S


def d_phi1(X):
    """Echelon basis of {u in L : phi(u) = u, N(u) = 0}; a Lie
    subalgebra (fixed points of an automorphism meet kernel of a
    derivation)."""
    d = X.dim
    eye = exactla.identity_matrix(d)
    rows = exactla.mat_sub(X.phi, eye) + [list(r) for r in X.N]
    basis = kernel_basis(rows, d)
    span = Echelon(basis)
    for a in basis:
        for b in basis:
            if not span.contains(X.L.bracket(a, b)):
                raise RuntimeError("fixed points not closed under bracket")
    return basis


def _total_complex_dims(X):
    """Cohomology dims of the total complex D -> D + D -> D with maps
    u |-> ((phi-1)u, Nu) and (y, z) |-> (p phi - 1)z - Ny: the
    independent abelian oracle for the g/e pattern."""
    d = X.dim
    eye = exactla.identity_matrix(d)
    A = exactla.mat_sub(X.phi, eye)
    d0 = [list(A[r]) for r in range(d)] + [list(X.N[r]) for r in range(d)]
    pphi = [[X.p * v for v in row] for row in X.phi]
    B = exactla.mat_sub(pphi, eye)
    d1 = [[-X.N[r][c] for c in range(d)] + list(B[r]) for r in range(d)]
    return complex_cohomology_dims([d, 2 * d, d], [d0, d1])


def _pi2_dual_dim(X):
    """dim pi^2 of the g/e pattern by the dual formula: the fixed vectors
    of weight p for the transposed Frobenius, killed by the transposed
    monodromy."""
    d = X.dim
    pphit = [[X.p * v for v in row] for row in transpose(X.phi)]
    rows = exactla.mat_sub(pphit, exactla.identity_matrix(d)) + transpose(X.N)
    return len(kernel_basis(rows, d))


def h1_quotient(X, variant="g/e"):
    """Deciders for the first cohomotopy of the quotient pattern, cut at
    level 3, plus full Moore dimensions (with independent cross-checks)
    when the underlying algebra is abelian."""
    S = selmer_quotient_cosimplicial(X, variant, 3)
    out = {"cosimplicial": S, "deciders": pi1_unipotent_deciders(S),
           "pi0_basis": pi0(S)}
    if Echelon(out["pi0_basis"]) != Echelon(d_phi1(X)):
        raise RuntimeError("pi0 of the quotient pattern disagrees with the "
                           "direct computation")
    if X.is_abelian():
        dims = pi_abelian_all(S)[:3]
        out["moore_dims"] = dims
        if variant == "g/e":
            if dims != _total_complex_dims(X):
                raise RuntimeError("Moore dims disagree with the "
                                   "total-complex oracle")
            if dims[2] != _pi2_dual_dim(X):
                raise RuntimeError("pi^2 disagrees with the dual formula")
        elif dims[2] != 0:
            raise RuntimeError("f/e pattern must vanish above degree 1")
    return out


# ---------------------------------------------------------------------------
# twisted conjugation

def twisted_conj_residual(L, phi, w, wprime):
    """Residual of u^-1 w phi(u) = w' as a function of u (group words in
    log coordinates)."""
    def residual(u):
        val = L.bch(L.bch(L.inverse(list(u)), list(w)),
                    mat_vec(phi, list(u)))
        return L.bch(val, L.inverse(list(wprime)))
    return residual


def twisted_conj_equivalent(L, phi, w, wprime):
    """Decide u^-1 w phi(u) = w' by stabilizer descent.  Returns (witness
    or None)."""
    residual = twisted_conj_residual(L, phi, w, wprime)
    sol, _ = solve_graded_affine(L, residual, UnipotentCarrier(L))
    return sol


def twisted_conj_classify(L, phi):
    """Classify the twisted conjugation action u . w = u^-1 w phi(u) of
    the unipotent group on itself: the stabilizer of the identity, and
    transitivity, decided exactly by rank(phi - 1) == dim L.  The fibres
    of u -> u^-1 phi(u) are cosets of the fixed group exp(Fix phi), so a
    nonzero stabilizer leaves an image of lower dimension, which is not
    the whole group; with a trivial one, phi - 1 is invertible on every
    layer of the central series and the descent reaches any target.

    The basis vectors are solved as targets too, and kept as
    certificates labelled ``sampled``: a transitive action must reach
    each of them, while an intransitive one may reach them all, so they
    certify nothing beyond the rank."""
    d = L.dim
    eye = exactla.identity_matrix(d)
    stab = kernel_basis(exactla.mat_sub(phi, eye), d)
    transitive = rank(exactla.mat_sub(phi, eye)) == d
    if transitive != (len(stab) == 0):
        raise RuntimeError("transitivity must match triviality of the "
                           "stabilizer")
    certificates = []
    for w in eye:
        witness = twisted_conj_equivalent(L, phi, w, L.zero())
        certificates.append({"target": list(w), "solvable": witness is not None,
                             "witness": witness, "provenance": "sampled"})
        if transitive and witness is None:
            raise RuntimeError("transitive action failed to reach a sample "
                               "target")
    return {"stabilizer_basis": stab, "transitive": transitive,
            "certificates": certificates}


# ---------------------------------------------------------------------------
# torsors

class PhiNTorsor:
    """Torsor under the unipotent group of a PhiNGroup, presented by a
    Frobenius translation datum w (log coordinates) and a monodromy
    vector nu at the base point.  For abelian carriers the compatibility
    (p phi - 1) nu = N w is enforced; it is gauge-invariant thanks to
    N phi = p phi N."""

    def __init__(self, X, frobenius, monodromy=None):
        self.X = X
        self.frobenius = list(frobenius)
        self.monodromy = list(monodromy) if monodromy is not None \
            else X.L.zero()
        if len(self.frobenius) != X.dim or len(self.monodromy) != X.dim:
            raise ValueError("torsor data must have length %d" % X.dim)
        if X.is_abelian():
            d = X.dim
            pphi = [[X.p * v for v in row] for row in X.phi]
            lhs = mat_vec(exactla.mat_sub(pphi, exactla.identity_matrix(d)),
                          self.monodromy)
            rhs = mat_vec(X.N, self.frobenius)
            if lhs != rhs:
                raise ValueError("(p phi - 1) nu != N w")

    def gauge(self, u):
        """Transport along the gauge transformation by the group element
        exp(u): w |-> u^-1 w phi(u), nu |-> Ad(u^-1) nu + dlog_N(u)."""
        X = self.X
        L = X.L
        u = list(u)
        w = L.bch(L.bch(L.inverse(u), self.frobenius), mat_vec(X.phi, u))
        nu = vec_add(L.Ad(L.inverse(u), self.monodromy),
                     L.dexp(u, mat_vec(X.N, u)))
        return PhiNTorsor(X, w, nu)


def phin_torsor_equivalent(T1, T2):
    """Decide whether a single gauge transformation carries T1 to T2, by
    stabilizer descent on the doubled algebra.  Returns (bool, witness or
    None)."""
    if T1.X is not T2.X:
        raise ValueError("torsors under different groups")
    L = T1.X.L

    def residual(u):
        G = T1.gauge(list(u))
        rw = L.bch(G.frobenius, L.inverse(T2.frobenius))
        rn = vec_sub(G.monodromy, T2.monodromy)
        return list(rw) + list(rn)

    sol, _ = solve_graded_affine(direct_sum(L, L), residual,
                                 UnipotentCarrier(L))
    return sol is not None, sol


# ---------------------------------------------------------------------------
# long exact sequence of quotient patterns

def quotient_les(XZ, XU, XQ, incl, proj):
    """Verified long exact sequence of quotient-pattern cohomotopy for a
    central extension of Frobenius-monodromy groups:

      1 -> pi0(Z) -> pi0(U) -> pi0(Q) -> pi1(Z) -> pi1(U) -> pi1(Q)
        -> pi2(Z)

    (all for the "g/e" pattern), with an abelian continuation through
    pi2(U) -> pi2(Q) -> 1 when the whole extension is abelian.  The
    clauses of the sequence are decided by ``les_central_unipotent`` on
    the quotient patterns (three of them derived from its checks); the
    dual formula for pi2(Z) and the Euler characteristic of the
    continuation are checked here.  ``middle_bijective`` (pi1(Z) ->
    pi1(U)) is False when the engine finds the map not injective; an
    injective map is decided when the report holds and U is abelian, or
    when pi0(Q) and H^1(Q) vanish (H^1(Q) is the Moore H^1 of the
    quotient pattern, computed here when it is abelian); otherwise it is
    None, undecided.  Data that does not commute with p, phi and N raises
    ValueError.

    Z is truncated at level 3 (for pi2); U and Q only need levels up to
    2, which keeps the construction fast for nonabelian carriers."""
    p = XZ.p
    inclM, projM0 = incl.matrix, proj.matrix
    if not (XU.p == p == XQ.p
            and mat_eq(mat_mul(XU.phi, inclM), mat_mul(inclM, XZ.phi))
            and mat_eq(mat_mul(XU.N, inclM), mat_mul(inclM, XZ.N))
            and mat_eq(mat_mul(XQ.phi, projM0), mat_mul(projM0, XU.phi))
            and mat_eq(mat_mul(XQ.N, projM0), mat_mul(projM0, XU.N))):
        raise ValueError("the extension does not commute with p, phi "
                         "and N")

    SZ = selmer_quotient_cosimplicial(XZ, "g/e", 3)
    SU = selmer_quotient_cosimplicial(XU, "g/e", 2)
    SQ = selmer_quotient_cosimplicial(XQ, "g/e", 2)

    def level_maps(S_src, S_dst, f):
        # f on every copy of D in every row of the diagonal (dims from f:
        # a map into 0 has no rows)
        h = LinearHom(UnipotentCarrier(abelian_lie_algebra(f.source.dim)),
                      UnipotentCarrier(abelian_lie_algebra(f.target.dim)),
                      f.matrix)
        out = []
        for G, H in zip(S_src.objects[:3], S_dst.objects[:3]):
            row = StructuredHom(G.factors[0], H.factors[0], [
                (j, h) for j in range(len(H.factors[0].factors))])
            out.append(StructuredHom(G, H, [(t, row) for t in
                                            range(len(H.factors))]))
        return out

    maps = (level_maps(SZ, SU, incl), level_maps(SU, SQ, proj))
    les = les_central_unipotent(SZ, SU, SQ, *maps)
    clauses, provenance = les["clauses"], les["provenance"]
    p0Z, p0U, p0Q = (len(b) for b in les["pi0"])
    dimsZ = les["z_dims"]

    clauses["pi2(Z) dual formula"] = dimsZ[2] == _pi2_dual_dim(XZ)
    provenance["pi2(Z) dual formula"] = "exact"

    # abelian continuation
    if XU.is_abelian() and XQ.is_abelian():
        # pi^2 read off a truncation-top level is inflated, so take the
        # degreewise dims from the independent total-complex oracle
        dimsU = _total_complex_dims(XU)
        dimsQ = _total_complex_dims(XQ)
        euler = (p0Z - p0U + p0Q - dimsZ[1] + dimsU[1] - dimsQ[1]
                 + dimsZ[2] - dimsU[2] + dimsQ[2])
        name = "abelian continuation (Euler characteristic)"
        clauses[name] = euler == 0
        provenance[name] = "exact"

    middle_bijective = None
    if not les["middle_injective"]:
        middle_bijective = False
    elif XU.is_abelian() and all(clauses.values()):
        # a linear map; exactness up to pi1(Z) makes its kernel, the image
        # of pi0(Q), of dimension p0Q - (p0U - p0Z)
        middle_bijective = (p0Z - p0U + p0Q == 0
                            and dimsZ[1] == pi_abelian_all(SU)[1])
    elif p0Q == 0 and all(G.is_abelian() for G in SQ.objects) \
            and pi_abelian_all(SQ)[1] == 0:
        # pi1(Q) vanishes, so exactness at pi1(U) makes the map onto
        middle_bijective = clauses["exact at pi1(U)"]

    return {"report": certificate_report(clauses),
            "middle_bijective": middle_bijective,
            "h1_z_dim": les["h1_z_dim"], "clauses": clauses,
            "provenance": provenance, "cosimplicial": (SZ, SU, SQ),
            "level_maps": maps}
