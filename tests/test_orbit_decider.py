"""The stabilizer-descent orbit decider against an independent sympy
reference (``nilpotent.solve_symbolic`` on the same numeric residual),
and the exact linearizations of the group law (``Ad``, ``dexp`` and the
tangent dimensions built on them) against sympy derivatives."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from cohw import exactla
from cohw.cosimpl import (
    LinearHom, UnipotentCarrier, cyclic_group, pi1_unipotent_deciders,
    twisted_conj,
)
from cohw.exactla import (
    kernel_basis, mat_mul, mat_vec, vec_add, vec_is_zero, vec_sub,
)
from cohw.gcohom import GroupAction, cochain_cosimplicial
from cohw.nilpotent import (
    NilpotentLieAlgebra, abelian_lie_algebra, direct_sum, heisenberg,
    solve_graded_affine, solve_symbolic,
)
from cohw.phin import (
    PhiNGroup, PhiNTorsor, phin_torsor_equivalent,
    selmer_quotient_cosimplicial, twisted_conj_equivalent,
    twisted_conj_residual,
)

F = Fraction
SCALARS = [F(1), F(1), F(2), F(-1), F(1, 2), F(3)]


def _fil3():
    return NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                               name="fil3")


def _graded_diag(name, rng):
    """Diagonal of a graded automorphism of the named algebra."""
    a, b, c, d = (rng.choice(SCALARS) for _ in range(4))
    return {"heis": [a, b, a * b], "fil3": [a, b, a * b, a * a * b],
            "H+A": [a, b, a * b, c],
            "H+H": [a, b, a * b, c, d, c * d]}[name]


def _algebras():
    return {"heis": heisenberg(), "fil3": _fil3(),
            "H+A": direct_sum(heisenberg(), abelian_lie_algebra(1)),
            "H+H": direct_sum(heisenberg(), heisenberg())}


def _rand_vec(rng, n, lo=-2, hi=2):
    return [F(rng.randint(lo, hi)) for _ in range(n)]


def _graded_times_unipotent(L, diag, rng):
    """phi = D Ad_g: a graded automorphism after an inner one, so phi is
    not graded in the standard basis."""
    D = [[diag[i] if i == j else F(0) for j in range(L.dim)]
         for i in range(L.dim)]
    return mat_mul(D, L.Ad_matrix(_rand_vec(rng, L.dim, -1, 1)))


def _check_against_reference(L, residual, nvars, witness):
    """The descent's ``witness`` (None for an obstruction) against the
    sympy reference on the same residual.  A witness must make the
    residual exactly zero.  An obstruction must leave the system with no
    solution at all, not even a complex one: the descent runs the same
    over C, since each layer is affine in the unknowns it adds.  Returns
    whether the reference found a rational witness too."""
    ref = solve_symbolic(L, residual, nvars)
    if witness is not None:
        assert vec_is_zero(residual(witness))
        return ref is not None
    assert ref is None
    xs = sympy.symbols("t0:%d" % nvars)
    eqs = [sympy.expand(e) for e in residual(list(xs))]
    assert sympy.solve([e for e in eqs if e != 0], list(xs), dict=True) == []
    return False


def test_twisted_conjugation_matches_symbolic_reference():
    rng = random.Random(20260418)
    algebras = _algebras()
    solvable = reference_missed = 0
    for k in range(40):
        name = ["heis", "fil3", "H+A", "H+H"][k % 4]
        L = algebras[name]
        phi = _graded_times_unipotent(L, _graded_diag(name, rng), rng)
        w = _rand_vec(rng, L.dim)
        if k % 2:
            # a target in the orbit of w
            u = _rand_vec(rng, L.dim)
            wprime = L.bch(L.bch(L.inverse(u), w), mat_vec(phi, u))
        else:
            wprime = _rand_vec(rng, L.dim)
        residual = twisted_conj_residual(L, phi, w, wprime)
        got = twisted_conj_equivalent(L, phi, w, wprime)
        found = _check_against_reference(L, residual, L.dim, got)
        solvable += got is not None
        reference_missed += got is not None and not found
    # both verdicts occur, and the orbit targets are all reached; where
    # the reference's parametric solution has no rational point at
    # parameter 0 (seen here), the exact witness settles the case
    assert 20 <= solvable < 40
    assert reference_missed < solvable


def _selmer_patterns(rng):
    """Selmer quotient patterns of Heisenberg (phi, N)-data whose phi is
    graded times unipotent, with N = 0."""
    H = heisenberg()
    out = []
    for diag in ([F(1, 2), F(1), F(1, 2)], [F(2), F(-1), F(-2)],
                 [F(1), F(1), F(1)], [F(1, 2), F(1, 2), F(1, 4)]):
        X = PhiNGroup(H, _graded_times_unipotent(H, diag, rng), p=2)
        out.append(selmer_quotient_cosimplicial(X, "g/e", 2))
    return out


def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _central_cocycles(S):
    """Cocycles in the centre of the level-1 algebra: there the cocycle
    condition d^1 c = d^2 c + d^0 c is linear."""
    A = S.objects[1].L
    n = A.dim
    ads = [row for e in A.basis() for row in exactla.transpose(
        [A.bracket(e, f) for f in A.basis()])]
    centre = kernel_basis(ads, n)
    if not centre:
        return []
    C = exactla.transpose(centre)
    lin = exactla.mat_sub(S.d(2, 1).matrix, _mat_add(
        S.d(2, 2).matrix, S.d(2, 0).matrix))
    return [mat_vec(C, k) for k in kernel_basis(mat_mul(lin, C),
                                               len(centre))]


def _cocycle_pairs(S, rng):
    G0, G1 = S.objects[0], S.objects[1]
    base = [list(G1.identity())] + _central_cocycles(S)
    pairs = []
    for c in base:
        u0 = tuple(_rand_vec(rng, G0.dim, -1, 1))
        pairs.append((tuple(c), twisted_conj(S, u0, tuple(c))))
        for d in base:
            pairs.append((tuple(c), tuple(d)))
    return pairs


def test_pi1_selmer_pairs_match_symbolic_reference():
    rng = random.Random(7)
    verdicts = set()
    for S in _selmer_patterns(rng):
        dec = pi1_unipotent_deciders(S)
        G0, G1 = S.objects[0], S.objects[1]
        for c, cprime in _cocycle_pairs(S, rng)[:6]:
            assert dec["is_cocycle"](c) and dec["is_cocycle"](cprime)

            def residual(u0):
                lhs = twisted_conj(S, tuple(u0), c)
                return list(G1.mul(lhs, G1.inv(cprime)))

            witness, _ = solve_graded_affine(G1.L, residual, G0)
            _check_against_reference(G1.L, residual, G0.dim, witness)
            got = dec["equivalent"](c, cprime)
            assert got == (witness is not None)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_phin_torsor_pairs_match_symbolic_reference():
    rng = random.Random(11)
    H = heisenberg()
    L2 = direct_sum(H, H)
    verdicts = set()
    for k in range(8):
        diag = [[F(2), F(3), F(6)], [F(1), F(2), F(2)],
                [F(1, 2), F(1), F(1, 2)]][k % 3]
        phi = _graded_times_unipotent(H, diag, rng)
        X = PhiNGroup(H, phi, p=2)
        T1 = PhiNTorsor(X, _rand_vec(rng, 3), _rand_vec(rng, 3))
        T2 = T1.gauge(_rand_vec(rng, 3)) if k % 2 else \
            PhiNTorsor(X, _rand_vec(rng, 3), _rand_vec(rng, 3))

        def residual(u):
            G = T1.gauge(list(u))
            rw = H.bch(G.frobenius, H.inverse(T2.frobenius))
            return list(rw) + [a - b for a, b in
                               zip(G.monodromy, T2.monodromy)]

        ok, witness = phin_torsor_equivalent(T1, T2)
        assert ok == (witness is not None)
        _check_against_reference(L2, residual, H.dim, witness)
        verdicts.add(ok)
    assert verdicts == {True, False}


def _sympy_jacobian(F_map, point):
    """Jacobian of F_map at ``point`` by sympy differentiation."""
    xs = sympy.symbols("x0:%d" % len(point))
    vals = F_map(tuple(p + x for p, x in zip(point, xs)))
    return sympy.Matrix([sympy.expand(v) for v in vals]).jacobian(
        sympy.Matrix(xs)).subs({x: 0 for x in xs})


def _tangent_dimension_by_sympy(S, c):
    """dim Z^1 at the cocycle c minus the orbit rank, both from sympy
    Jacobians of the cocycle and orbit maps."""
    G0, G1, G2 = S.objects[0], S.objects[1], S.objects[2]

    def cocycle_map(u):
        prod = G2.mul(S.d(2, 2).apply(u), S.d(2, 0).apply(u))
        return [a - b for a, b in zip(S.d(2, 1).apply(u), prod)]

    def orbit_map(u0):
        return twisted_conj(S, u0, c)

    return (G1.dim - _sympy_jacobian(cocycle_map, c).rank()
            - _sympy_jacobian(orbit_map, G0.identity()).rank())


def test_tangent_dimensions_match_sympy_jacobian():
    rng = random.Random(5)
    checked = 0
    for S in _selmer_patterns(rng):
        dec = pi1_unipotent_deciders(S)
        points = []
        for pair in _cocycle_pairs(S, rng):
            points += [c for c in pair if c not in points]
        for c in points[:4]:
            assert dec["tangent_dimension_at"](c) == \
                _tangent_dimension_by_sympy(S, c)
            checked += 1
    assert checked >= 12


def test_group_cohomology_tangent_dimensions_match_sympy_jacobian():
    # the cochain object of C2 acting on the Heisenberg algebra by an
    # involution sigma, at cocycles other than the base point: f(1) = a
    # with sigma(a) = -a is a cocycle, and so is each twisted conjugate
    rng = random.Random(13)
    H = heisenberg()
    D = UnipotentCarrier(H)
    seen = set()
    for sigma, anti in (
            ([[F(-1), 0, 0], [0, F(1), 0], [0, 0, F(-1)]],
             lambda s, t: [s, F(0), t]),
            ([[0, F(1), 0], [F(1), 0, 0], [0, 0, F(-1)]],
             lambda s, t: [s, -s, t])):
        act = GroupAction.from_generator_images(
            cyclic_group(2), D, {1: LinearHom(D, D, sigma)})
        S = cochain_cosimplicial(act)
        dec = pi1_unipotent_deciders(S)
        G0, G1 = S.objects[0], S.objects[1]
        block = S.tuple_index[1][(1,)] * H.dim
        for k in range(4):
            c = [F(0)] * G1.dim
            c[block:block + H.dim] = anti(F(rng.randint(1, 3)),
                                          F(rng.randint(-2, 2)))
            c = tuple(c)
            if k % 2:
                c = twisted_conj(S, tuple(_rand_vec(rng, G0.dim)), c)
            assert c != G1.identity() and dec["is_cocycle"](c)
            got = dec["tangent_dimension_at"](c)
            assert got == _tangent_dimension_by_sympy(S, c)
            seen.add(got)
    # H^1 of a finite group in a unipotent group over Q is one point, so
    # the orbit map is onto the tangent space of Z^1 at every cocycle
    assert seen == {0}


def _sym(x):
    return sympy.Rational(x.numerator, x.denominator)


def _columns(J):
    return [[F(int(J[r, c].p), int(J[r, c].q)) for r in range(J.rows)]
            for c in range(J.cols)]


def _forward_difference_jacobian(F_map, point, degree):
    """Columns of the Jacobian at ``point`` of a map that is a polynomial
    of degree at most ``degree`` along each coordinate axis: Newton
    forward differences at t = 0..degree give the derivative exactly."""
    cols = []
    for i in range(len(point)):
        diffs = [list(F_map(tuple(x + t if k == i else x
                                  for k, x in enumerate(point))))
                 for t in range(degree + 1)]
        col = [F(0)] * len(diffs[0])
        for j in range(1, degree + 1):
            diffs = [vec_sub(b, a) for a, b in zip(diffs, diffs[1:])]
            col = vec_add(col, [F((-1) ** (j + 1), j) * x
                                for x in diffs[0]])
        cols.append(col)
    return cols


def test_forward_difference_jacobian_matches_sympy():
    # twisted conjugation u -> u^-1 w phi(u) at a random point: of degree
    # up to the nilpotency class along each coordinate axis (class 3 on
    # fil3), so forward differences give its Jacobian exactly.  Both it
    # and the sympy Jacobian obey the chain rule the tangent dimensions
    # are built on: with z = u^-1 w phi(u) and y = w phi(u), a column J e
    # has dexp_z(J e) = Ad_{-y} dexp_{-u}(-e) + dexp_{phi u}(phi e)
    rng = random.Random(3)
    for name, L in _algebras().items():
        phi = _graded_times_unipotent(L, _graded_diag(name, rng), rng)
        w = _rand_vec(rng, L.dim)
        F_map = twisted_conj_residual(L, phi, w, L.zero())
        point = tuple(_rand_vec(rng, L.dim))
        cols = _forward_difference_jacobian(F_map, point,
                                            max(L.nilpotency_class, 1))
        assert cols == _columns(_sympy_jacobian(F_map, point))
        u = list(point)
        z = F_map(point)
        y = L.bch(w, mat_vec(phi, u))
        for e, col in zip(L.basis(), cols):
            chain = vec_add(
                L.Ad(L.inverse(y), L.dexp(L.inverse(u), L.inverse(e))),
                L.dexp(mat_vec(phi, u), mat_vec(phi, e)))
            assert L.dexp(z, col) == chain


def test_ad_and_dexp_match_sympy_and_conjugation():
    # dexp(u, v) is the t-derivative at 0 of bch(-u, u + t v), computed by
    # sympy on the BCH product, and Ad(g, v) is the conjugate of v by g,
    # at random points of each algebra
    rng = random.Random(3)
    t = sympy.Symbol("t")
    cases = []
    for L in _algebras().values():
        cases += [(L, _rand_vec(rng, L.dim), _rand_vec(rng, L.dim))
                  for _ in range(3)]
    for L, u, v in cases:
        curve = L.bch([-_sym(x) for x in u],
                      [_sym(a) + t * _sym(b) for a, b in zip(u, v)])
        expect = [sympy.diff(sympy.expand(c), t).subs({t: 0})
                  for c in curve]
        assert [_sym(x) for x in L.dexp(u, v)] == expect
        assert L.Ad(u, v) == L.conjugate(u, v)
