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
multiplicativity (Lie-morphism property) up to a size cap.
"""

from fractions import Fraction

from . import exactla
from .exactla import (
    in_span, kernel_basis, mat_eq, mat_mul, mat_vec, rank, solve_affine,
    span_echelon, subspace_intersect, transpose, vec_add, vec_is_zero,
    vec_sub, zero_matrix, zero_vec,
)
from .cosimpl import (
    BiSemiCosimplicial, CosimplicialGroup, LinearHom, StructuredHom,
    UnipotentCarrier, VectorGroup, _product_object, certificate_report,
    check_cosimplicial_map, cogenerate, cogenerate_morphism,
    complex_cohomology_dims, complex_embedding, diagonal_cogenerate,
    moore_differentials, pi0, pi1_unipotent_deciders, pi_abelian_all,
    twisted_conj,
)
from .nilpotent import (
    LieMorphism, NilpotentLieAlgebra, abelian_lie_algebra, direct_sum,
    solve_graded_affine,
)

LIE_CHECK_CAP = 16


# ---------------------------------------------------------------------------
# the basic datum

class PhiNGroup:
    """Nilpotent Lie algebra L with a Frobenius automorphism phi (a Lie
    algebra automorphism matrix), a monodromy N (a bracket derivation
    matrix), and a formal prime weight p > 1, subject to N phi = p phi N."""

    def __init__(self, L, phi, N=None, p=2, check=True):
        self.L = L
        self.phi = [list(row) for row in phi]
        if N is None:
            N = zero_matrix(L.dim, L.dim)
        self.N = [list(row) for row in N]
        self.p = Fraction(p)
        assert self.p > 1, "weight p must exceed 1"
        if check:
            self.validate()

    def validate(self):
        L = self.L
        phi_m = LieMorphism(L, L, self.phi, check=True)
        assert phi_m.is_automorphism(), "phi is not invertible"
        # N is a bracket derivation: N[x, y] = [Nx, y] + [x, Ny]
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                lhs = mat_vec(self.N, L.bracket_basis(i, j))
                rhs = vec_add(
                    L.bracket(mat_vec(self.N, L.basis_vector(i)),
                              L.basis_vector(j)),
                    L.bracket(L.basis_vector(i),
                              mat_vec(self.N, L.basis_vector(j))))
                assert lhs == rhs, "N is not a derivation at (%d,%d)" % (i, j)
        lhs = mat_mul(self.N, self.phi)
        rhs = [[self.p * v for v in row] for row in mat_mul(self.phi, self.N)]
        assert mat_eq(lhs, rhs), "N phi != p phi N"

    @property
    def dim(self):
        return self.L.dim

    def is_abelian(self):
        return self.L.is_abelian()

    def __repr__(self):
        return "PhiNGroup(%r, p=%s)" % (self.L, self.p)


# ---------------------------------------------------------------------------
# epsilon-variable carriers

class EpsilonPoint:
    """Element of U(R[eps_1..eps_n]) with eps_i eps_j = 0: a main part in
    L plus one L-valued coefficient per epsilon variable, in log
    coordinates."""

    def __init__(self, L, main, eps_parts):
        self.L = L
        self.main = list(main)
        self.eps_parts = [list(v) for v in eps_parts]
        assert len(self.main) == L.dim
        assert all(len(v) == L.dim for v in self.eps_parts)

    @property
    def n(self):
        return len(self.eps_parts)

    def coords(self):
        out = list(self.main)
        for v in self.eps_parts:
            out.extend(v)
        return tuple(out)

    @classmethod
    def from_coords(cls, L, n, coords):
        d = L.dim
        assert len(coords) == d * (n + 1)
        return cls(L, coords[:d],
                   [coords[d * (i + 1):d * (i + 2)] for i in range(n)])

    def mul(self, other):
        assert self.n == other.n
        A = epsilon_lie_algebra(self.L, self.n)
        out = A.bch(list(self.coords()), list(other.coords()))
        return EpsilonPoint.from_coords(self.L, self.n, out)


def epsilon_lie_algebra(L, n, name=None):
    """L tensor Q[eps_1..eps_n]/(eps_i eps_j = 0): block 0 carries the
    main part, blocks 1..n the epsilon coefficients.  Brackets pair main
    with main (into main) and main with epsilon (into the same epsilon
    block); epsilon-epsilon brackets vanish."""
    d = L.dim
    structure = {}
    for (i, j), row in L.structure.items():
        structure[(i, j)] = dict(row)
        for b in range(1, n + 1):
            off = b * d
            structure[(i, j + off)] = {k + off: c for k, c in row.items()}
            structure[(j, i + off)] = {k + off: -c for k, c in row.items()}
    return NilpotentLieAlgebra(d * (n + 1), structure,
                               name=name or ("%s[eps^%d]" % (L.name, n)))


def epsilon_denormalize(p, n, nu=0):
    """The epsilon-variable pattern R[eps_1..eps_n] for a one-dimensional
    base with formal monodromy nu: the cosimplicial module denormalizing
    the complex R --nu--> R, with Frobenius 1 on the unit and p on every
    epsilon coordinate.  The structure maps are produced by cogeneration
    (so the cosimplicial identities are machine-verified) and the
    cohomotopy is cross-checked against the cohomology of the two-term
    complex."""
    p = Fraction(p)
    nu = Fraction(nu)
    E = cogenerate(complex_embedding([1, 1], [[[nu]]]), N=n + 1)
    dims = pi_abelian_all(E)
    h = 1 if nu == 0 else 0
    expected = [h, h] + [0] * (n - 1)
    assert dims[:n + 1] == expected[:n + 1], \
        "denormalized cohomotopy disagrees with the complex: %r" % (dims,)
    cofaces = {m: [E.d(m, i).matrix for i in range(m + 1)]
               for m in range(1, n + 1)}
    codegens = {m: [E.s(m, i).matrix for i in range(m + 1)]
                for m in range(n)}
    unit = VectorGroup(1)
    frobenius = [h.matrix for h in cogenerate_morphism(
        E, E, [LinearHom(unit, unit, [[Fraction(1)]]),
               LinearHom(unit, unit, [[p]])])[:n + 1]]
    return {"levels": n, "p": p, "nu": nu, "cofaces": cofaces,
            "codegens": codegens, "frobenius": frobenius,
            "carrier_dims": [m + 1 for m in range(n + 1)],
            "cosimplicial": E, "cohomotopy": dims[:n + 1]}


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
    assert variant in ("f/e", "g/e")
    L, phi, p = X.L, X.phi, X.p
    D = VectorGroup(L.dim)
    eye = exactla.identity_matrix(L.dim)
    columns = [phi]
    vertical = None
    if variant == "g/e":
        columns.append([[p * v for v in row] for row in phi])
        eps = complex_embedding([L.dim, L.dim], [X.N])
        vertical = [eps.d(1, i).matrix for i in range(2)]
    A = BiSemiCosimplicial([[D] * len(columns)] * 2,
                           [None, [[M, eye] for M in columns]],
                           [[None, vertical]] * 2)
    diag = diagonal_cogenerate(A, N)

    objects = []
    for G in diag.objects:
        # the epsilon carrier is, as a vector space, the row's sum of
        # copies of D: main part first, then one epsilon coefficient each
        row = G.factors[0]
        U = UnipotentCarrier(epsilon_lie_algebra(L, len(row.factors) - 1))
        U.factors, U.offsets = row.factors, row.offsets
        objects.append(_product_object([U] * len(G.factors), True))
    algs = [G.L for G in objects]
    cofaces = {n: [StructuredHom(objects[n - 1], objects[n], h.parts)
                   for h in hs] for n, hs in diag.cofaces.items()}
    codegens = {n: [StructuredHom(objects[n + 1], objects[n], h.parts)
                    for h in hs] for n, hs in diag.codegens.items()}
    S = CosimplicialGroup(objects, cofaces, codegens, check=True)
    # multiplicativity: every structure map must be a Lie morphism (checked
    # up to a source-dimension cap; the epsilon-module maps and the low
    # levels are always covered)
    for n in range(1, N + 1):
        if algs[n - 1].dim <= LIE_CHECK_CAP or n <= 2:
            for i in range(n + 1):
                LieMorphism(algs[n - 1], algs[n], S.d(n, i).matrix,
                            check=True)
    for n in range(N):
        if algs[n + 1].dim <= LIE_CHECK_CAP:
            for i in range(n + 1):
                LieMorphism(algs[n + 1], algs[n], S.s(n, i).matrix,
                            check=True)
    S.phin = X
    S.variant = variant
    S.level_algebras = algs
    return S


def d_phi1(X):
    """Echelon basis of {u in L : phi(u) = u, N(u) = 0}; a Lie
    subalgebra (fixed points of an automorphism meet kernel of a
    derivation)."""
    d = X.dim
    eye = exactla.identity_matrix(d)
    rows = exactla.mat_sub(X.phi, eye) + [list(r) for r in X.N]
    basis = kernel_basis(rows, d)
    for a in basis:
        for b in basis:
            assert in_span(basis, X.L.bracket(list(a), list(b))), \
                "fixed points not closed under bracket (bug)"
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


def h1_quotient(X, variant="g/e", N=3):
    """Deciders for the first cohomotopy of the quotient pattern, plus
    full Moore dimensions (with independent cross-checks) when the
    underlying algebra is abelian."""
    S = selmer_quotient_cosimplicial(X, variant, N)
    out = {"cosimplicial": S, "deciders": pi1_unipotent_deciders(S),
           "pi0_basis": pi0(S)}
    assert span_echelon([list(v) for v in out["pi0_basis"]]) == \
        span_echelon([list(v) for v in d_phi1(X)]), \
        "pi0 of the quotient pattern disagrees with the direct computation"
    if X.is_abelian():
        dims = pi_abelian_all(S)[:3]
        out["moore_dims"] = dims
        if variant == "g/e":
            assert dims == _total_complex_dims(X), \
                "Moore dims disagree with the total-complex oracle"
            # dual description of pi^2: fixed vectors of weight p for the
            # transposed Frobenius, killed by the transposed monodromy
            d = X.dim
            pphit = [[X.p * v for v in row] for row in transpose(X.phi)]
            rows = exactla.mat_sub(pphit, exactla.identity_matrix(d)) + \
                transpose(X.N)
            assert dims[2] == len(kernel_basis(rows, d)), \
                "pi^2 disagrees with the dual formula"
        else:
            assert dims[2] == 0, "f/e pattern must vanish above degree 1"
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


def twisted_conj_classify(L, phi, extra_targets=()):
    """Classify the twisted conjugation action u . w = u^-1 w phi(u) of
    the unipotent group on itself: stabilizer of the identity, and
    transitivity decided layer by layer (phi - 1 invertible on every
    central-series layer), cross-checked by explicit solving on basis
    targets."""
    d = L.dim
    eye = exactla.identity_matrix(d)
    stab = kernel_basis(exactla.mat_sub(phi, eye), d)
    transitive = rank(exactla.mat_sub(phi, eye)) == d
    assert transitive == (len(stab) == 0), \
        "transitivity must match triviality of the stabilizer"
    certificates = []
    targets = [list(v) for v in eye] + [list(t) for t in extra_targets]
    for w in targets:
        witness = twisted_conj_equivalent(L, phi, w, L.zero())
        certificates.append({"target": list(w), "solvable": witness is not None,
                             "witness": witness})
        if transitive:
            assert witness is not None, \
                "transitive action failed to reach a sample target"
    if not transitive:
        assert any(not c["solvable"] for c in certificates), \
            "intransitive action with no unreachable sample target"
    return {"stabilizer_basis": stab, "transitive": transitive,
            "certificates": certificates}


# ---------------------------------------------------------------------------
# torsors

def _left_log_derivative(L, u, v):
    """d/dt log(exp(u)^-1 exp(u + t v)) at t = 0, by the exact series
    sum_k (-ad_u)^k / (k+1)!  applied to v."""
    A = L.ad_matrix(list(u))
    negA = [[-x for x in row] for row in A]
    out = list(v)
    term = list(v)
    fact = 1
    for k in range(1, L.nilpotency_class + 1):
        term = mat_vec(negA, term)
        fact = fact * (k + 1)
        out = vec_add(out, [x / fact for x in term])
    return out


class PhiNTorsor:
    """Torsor under the unipotent group of a PhiNGroup, presented by a
    Frobenius translation datum w (log coordinates) and a monodromy
    vector nu at the base point.  For abelian carriers the compatibility
    (p phi - 1) nu = N w is enforced; it is gauge-invariant thanks to
    N phi = p phi N."""

    def __init__(self, X, frobenius, monodromy=None, check=True):
        self.X = X
        self.frobenius = list(frobenius)
        self.monodromy = list(monodromy) if monodromy is not None \
            else X.L.zero()
        assert len(self.frobenius) == X.dim
        assert len(self.monodromy) == X.dim
        if check and X.is_abelian():
            d = X.dim
            pphi = [[X.p * v for v in row] for row in X.phi]
            lhs = mat_vec(exactla.mat_sub(pphi, exactla.identity_matrix(d)),
                          self.monodromy)
            rhs = mat_vec(X.N, self.frobenius)
            assert lhs == rhs, "(p phi - 1) nu != N w"

    def gauge(self, u):
        """Transport along the gauge transformation by the group element
        exp(u): w |-> u^-1 w phi(u), nu |-> Ad(u^-1) nu + dlog_N(u)."""
        X = self.X
        L = X.L
        u = list(u)
        w = L.bch(L.bch(L.inverse(u), self.frobenius), mat_vec(X.phi, u))
        nu = vec_add(mat_vec(L.Ad_matrix(L.inverse(u)), self.monodromy),
                     _left_log_derivative(L, u, mat_vec(X.N, u)))
        return PhiNTorsor(X, w, nu)


def phin_torsor_equivalent(T1, T2):
    """Decide whether a single gauge transformation carries T1 to T2, by
    stabilizer descent on the doubled algebra.  Returns (bool, witness or
    None)."""
    assert T1.X is T2.X
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

def _lin_combo(rng, basis):
    out = zero_vec(len(basis[0]))
    for v in basis:
        out = vec_add(out, [Fraction(rng.randint(-2, 2)) * x for x in v])
    return out


def _twist_witness(S, c):
    """Witness u0 with d^1(u0)^-1 c d^0(u0) = identity, or None."""
    L1 = S.objects[1].L

    def residual(u0):
        return list(twisted_conj(S, tuple(u0), tuple(c)))

    sol, _ = solve_graded_affine(L1, residual, S.objects[0])
    return sol


def quotient_les(XZ, XU, XQ, incl, proj, N=3, rng=None):
    """Verified long exact sequence of quotient-pattern cohomotopy for a
    central extension of Frobenius-monodromy groups:

      1 -> pi0(Z) -> pi0(U) -> pi0(Q) -> pi1(Z) -> pi1(U) -> pi1(Q)
        -> pi2(Z)

    (all for the "g/e" pattern), with an abelian continuation through
    pi2(U) -> pi2(Q) -> 1 when the whole extension is abelian.  The
    linear clauses are verified exactly; the unipotent clauses by exact
    solving on basis and sampled elements.

    Z is truncated at level 3 (for pi2); U and Q only need levels up to
    2, which keeps the construction fast for nonabelian carriers."""
    import random
    rng = rng or random.Random(0)
    LZ, LU, LQ = XZ.L, XU.L, XQ.L
    p = XZ.p
    assert XU.p == p and XQ.p == p
    inclM, projM0 = incl.matrix, proj.matrix
    # compatibility with phi and N
    assert mat_eq(mat_mul(XU.phi, inclM), mat_mul(inclM, XZ.phi))
    assert mat_eq(mat_mul(XU.N, inclM), mat_mul(inclM, XZ.N))
    assert mat_eq(mat_mul(XQ.phi, projM0), mat_mul(projM0, XU.phi))
    assert mat_eq(mat_mul(XQ.N, projM0), mat_mul(projM0, XU.N))
    # short exactness and centrality
    assert rank(inclM) == LZ.dim, "Z -> U not injective"
    assert rank(projM0) == LQ.dim, "U -> Q not surjective"
    im_incl = [mat_vec(inclM, e) for e in LZ.basis()]
    assert span_echelon(im_incl) == \
        span_echelon(kernel_basis(projM0, LU.dim)), "not exact at U"
    for z in im_incl:
        for e in LU.basis():
            assert vec_is_zero(LU.bracket(z, e)), "Z not central in U"
    assert LZ.is_abelian()

    SZ = selmer_quotient_cosimplicial(XZ, "g/e", max(N, 3))
    SU = selmer_quotient_cosimplicial(XU, "g/e", 2)
    SQ = selmer_quotient_cosimplicial(XQ, "g/e", 2)

    def level_maps(S_src, S_dst, M):
        # M on every copy of D in every row of the diagonal
        h = LinearHom(VectorGroup(len(M[0])), VectorGroup(len(M)), M)
        out = []
        for G, H in zip(S_src.objects[:3], S_dst.objects[:3]):
            row = StructuredHom(G.factors[0], H.factors[0], [
                (j, h) for j in range(len(H.factors[0].factors))])
            out.append(StructuredHom(G, H, [(t, row) for t in
                                            range(len(H.factors))]))
        return out

    inclL = level_maps(SZ, SU, inclM)
    projL = level_maps(SU, SQ, projM0)
    # the levelwise maps must commute with every coface and codegeneracy
    if not (check_cosimplicial_map(SZ, SU, inclL)
            and check_cosimplicial_map(SU, SQ, projL)):
        raise AssertionError("levelwise maps of the extension do not "
                             "commute with the structure maps")
    # levelwise exactness and centrality upstairs
    for n in range(3):
        imn = [mat_vec(inclL[n].matrix, list(e))
               for e in exactla.identity_matrix(SZ.objects[n].dim)]
        assert span_echelon(imn) == span_echelon(
            kernel_basis(projL[n].matrix, SU.objects[n].dim))
        A = SU.objects[n].L
        for z in imn:
            for e in A.basis():
                assert vec_is_zero(A.bracket(list(z), e))

    clauses = {}
    p0Z = [list(v) for v in pi0(SZ)]
    p0U = [list(v) for v in pi0(SU)]
    p0Q = [list(v) for v in pi0(SQ)]
    decU = pi1_unipotent_deciders(SU)
    decQ = pi1_unipotent_deciders(SQ)

    MZ = moore_differentials(SZ)
    dimsZ = pi_abelian_all(SZ)
    dZ1 = SZ.objects[1].dim
    z1Z = kernel_basis(MZ[1], dZ1)
    b1Z = span_echelon([list(col) for col in transpose(MZ[0])])
    h1reps = []
    acc = [list(v) for v in b1Z]
    for v in z1Z:
        if not in_span(acc, list(v)):
            h1reps.append(list(v))
            acc.append(list(v))
    h1_z_dim = dimsZ[1]
    assert len(h1reps) == h1_z_dim

    def z_is_cocycle(z):
        return vec_is_zero(mat_vec(MZ[1], list(z)))

    def z_trivial(z):
        assert z_is_cocycle(z)
        return in_span(b1Z, list(z))

    # exactness at pi0(U): linear
    im0 = span_echelon([mat_vec(inclL[0].matrix, z) for z in p0Z]) \
        if p0Z else []
    ker0 = subspace_intersect(p0U, kernel_basis(projL[0].matrix,
                                                SU.objects[0].dim)) \
        if p0U else []
    clauses["exact at pi0(U)"] = span_echelon([list(v) for v in im0]) == \
        span_echelon([list(v) for v in ker0])

    def delta0(q0):
        u0, _ = solve_affine(projL[0].matrix, list(q0))
        assert u0 is not None
        G1 = SU.objects[1]
        w = G1.mul(SU.d(1, 1).apply(tuple(u0)),
                   G1.inv(SU.d(1, 0).apply(tuple(u0))))
        z, _ = solve_affine(inclL[1].matrix, list(w))
        assert z is not None, "connecting cocycle not in Z (bug)"
        assert z_is_cocycle(z)
        return z

    # exactness at pi0(Q): preimage exists iff the connecting class dies
    ok = True
    samples0 = [list(q) for q in p0Q]
    if len(p0Q) > 1:
        samples0.append(_lin_combo(rng, p0Q))
    for q in samples0:
        if vec_is_zero(q):
            continue
        if p0U:
            A = transpose([mat_vec(projL[0].matrix, list(u)) for u in p0U])
            sol, _ = solve_affine(A, list(q))
            has_pre = sol is not None
        else:
            has_pre = False
        ok = ok and (has_pre == z_trivial(delta0(q)))
    clauses["exact at pi0(Q)"] = ok

    # image of delta0 inside H^1(Z)
    delta0_img = [delta0(q) for q in samples0 if not vec_is_zero(q)]

    # exactness at pi1(Z)
    ok = True
    samplesh = [list(h) for h in h1reps]
    if len(h1reps) > 1:
        samplesh.append(_lin_combo(rng, h1reps))
    for h in samplesh:
        cu = tuple(mat_vec(inclL[1].matrix, h))
        dies = decU["is_trivial"](cu)
        if dies:
            u0 = _twist_witness(SU, cu)
            ok = ok and u0 is not None
            if u0 is not None:
                q0 = mat_vec(projL[0].matrix, list(u0))
                fixed = SQ.d(1, 0).apply(tuple(q0)) == \
                    SQ.d(1, 1).apply(tuple(q0))
                ok = ok and fixed
                ok = ok and z_trivial(vec_sub(delta0(q0), h))
        else:
            ok = ok and not in_span(b1Z + delta0_img, h)
    clauses["exact at pi1(Z)"] = ok

    # exactness at pi1(U): fibers of the projection are H^1(Z)-orbits
    LU1 = SU.objects[1].L
    nz = len(z1Z)
    n0 = SU.objects[0].dim
    # incl(Z) is central, so (z, u0) acts as incl(z) (u0 . c): a right
    # action of the direct product of Z^1(Z)-coefficients and U^0
    acting = UnipotentCarrier(direct_sum(abelian_lie_algebra(nz),
                                         SU.objects[0].L))
    ok = True
    base_cocycles = [SU.objects[1].identity()]
    for h in h1reps:
        base_cocycles.append(tuple(mat_vec(inclL[1].matrix, list(h))))
    pairs = []
    for c in base_cocycles:
        u0 = tuple(Fraction(rng.randint(-1, 1)) for _ in range(n0))
        pairs.append((c, twisted_conj(SU, u0, c)))
    for (c1, c2) in pairs:
        assert decQ["equivalent"](
            tuple(mat_vec(projL[1].matrix, list(c1))),
            tuple(mat_vec(projL[1].matrix, list(c2))))

        def residual(t):
            zc = zero_vec(dZ1)
            for s, v in zip(t[:nz], z1Z):
                zc = vec_add(zc, [s * x for x in v])
            u0 = t[nz:]
            val = SU.objects[1].mul(
                tuple(mat_vec(inclL[1].matrix, zc)),
                twisted_conj(SU, tuple(u0), tuple(c1)))
            return list(SU.objects[1].mul(val, SU.objects[1].inv(c2)))

        sol, _ = solve_graded_affine(LU1, residual, acting)
        ok = ok and sol is not None
    clauses["exact at pi1(U)"] = ok

    # exactness at pi1(Q) and the connecting map to pi2(Z)
    pi2Z = dimsZ[2]
    b2Z = span_echelon([list(col) for col in transpose(MZ[1])])
    if LQ.is_abelian():
        MQ = moore_differentials(SQ)
        z1Q = kernel_basis(MQ[1], SQ.objects[1].dim)
        kerp1 = kernel_basis(projL[1].matrix, SU.objects[1].dim)
        LU2 = SU.objects[2].L
        ok = True
        samplesq = [list(q) for q in z1Q]
        if len(z1Q) > 1:
            samplesq.append(_lin_combo(rng, z1Q))
        for q in samplesq:
            u1, _ = solve_affine(projL[1].matrix, list(q))
            assert u1 is not None
            G2 = SU.objects[2]
            z2 = G2.mul(G2.inv(SU.d(2, 2).apply(tuple(u1))),
                        G2.mul(SU.d(2, 1).apply(tuple(u1)),
                               G2.inv(SU.d(2, 0).apply(tuple(u1)))))
            zz, _ = solve_affine(inclL[2].matrix, list(z2))
            assert zz is not None
            triv2 = in_span(b2Z, list(zz))

            def residual(t):
                u = list(u1)
                for s, v in zip(t, kerp1):
                    u = vec_add(u, [s * x for x in v])
                G2 = SU.objects[2]
                lhs = SU.d(2, 1).apply(tuple(u))
                rhs = G2.mul(SU.d(2, 2).apply(tuple(u)),
                             SU.d(2, 0).apply(tuple(u)))
                return list(G2.mul(lhs, G2.inv(rhs)))

            # ker(proj) is central, so the lift residual is affine in t
            sol, _ = solve_graded_affine(LU2, residual,
                                         VectorGroup(len(kerp1)))
            liftable = sol is not None
            ok = ok and (triv2 == liftable)
        clauses["exact at pi1(Q)"] = ok
        h1_q_dim = pi_abelian_all(SQ)[1]
    else:
        h1_q_dim = None

    # dual formula for pi2(Z)
    dz = XZ.dim
    pphit = [[p * v for v in row] for row in transpose(XZ.phi)]
    rows = exactla.mat_sub(pphit, exactla.identity_matrix(dz)) + \
        transpose(XZ.N)
    clauses["pi2(Z) dual formula"] = pi2Z == len(kernel_basis(rows, dz))

    # abelian continuation
    if LU.is_abelian() and LQ.is_abelian():
        # pi^2 read off a truncation-top level is inflated, so take the
        # degreewise dims from the independent total-complex oracle
        dimsU = _total_complex_dims(XU)
        dimsQ = _total_complex_dims(XQ)
        euler = (len(p0Z) - len(p0U) + len(p0Q) - dimsZ[1] + dimsU[1]
                 - dimsQ[1] + dimsZ[2] - dimsU[2] + dimsQ[2])
        clauses["abelian continuation (Euler characteristic)"] = euler == 0

    middle_bijective = None
    if len(p0Q) == 0 and h1_q_dim == 0:
        inj = all(not decU["is_trivial"](tuple(mat_vec(inclL[1].matrix, h)))
                  for h in h1reps)
        # surjectivity: endpoints vanish, so the orbit clause at pi1(U)
        # already identifies every sampled cocycle with one from Z
        middle_bijective = inj and clauses["exact at pi1(U)"]

    return {"report": certificate_report(clauses),
            "middle_bijective": middle_bijective,
            "h1_z_dim": h1_z_dim, "clauses": clauses,
            "cosimplicial": (SZ, SU, SQ)}
