import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cohw import exactla
from cohw.cosimpl import UnipotentCarrier
from cohw.nilpotent import (
    MAX_BCH_CLASS, LieMorphism, NilpotentLieAlgebra, UnipotentTorsor,
    abelian_lie_algebra, central_extension, direct_sum, heisenberg,
    solve_graded_affine, torsor_pushout,
)
from cohw.phin import epsilon_lie_algebra

F = Fraction


def test_heisenberg_product():
    H = heisenberg()
    x = [F(1), F(0), F(0)]
    y = [F(0), F(1), F(0)]
    assert H.bch(x, y) == [F(1), F(1), F(1, 2)]
    assert H.bch(y, x) == [F(1), F(1), -F(1, 2)]
    assert H.bch(x, H.inverse(x)) == H.zero()


@pytest.mark.parametrize("L,x,y,expect", [
    (abelian_lie_algebra(2), [1, 2], [3, 4], [4, 6]),
    (heisenberg(), [1, 0, 0], [0, 1, 0], [1, 1, F(1, 2)]),
    (heisenberg(), [1, 2, 3], [2, 4, 5], [3, 6, 8]),
])
def test_bch_of_int_vectors_has_fraction_entries(L, x, y, expect):
    got = L.bch(x, y)
    assert got == expect
    assert all(type(c) is Fraction for c in got), got


def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _nilpotent_mat_exp(A):
    n = len(A)
    out = exactla.identity_matrix(n)
    term = exactla.identity_matrix(n)
    for k in range(1, n):
        term = exactla.mat_mul(term, A)
        term2 = [[x / 1 for x in row] for row in term]
        term = term2
        scaled = [[x * F(1, __import__("math").factorial(k)) for x in row]
                  for row in term]
        out = _mat_add(out, scaled)
    return out


def _nilpotent_mat_log(M):
    n = len(M)
    A = exactla.mat_sub(M, exactla.identity_matrix(n))
    out = exactla.zero_matrix(n, n)
    power = exactla.identity_matrix(n)
    for m in range(1, n):
        power = exactla.mat_mul(power, A)
        scaled = [[x * F((-1) ** (m + 1), m) for x in row] for row in power]
        out = _mat_add(out, scaled)
    return out


def _strict_upper_algebra(n):
    """Lie algebra of strictly upper triangular n x n matrices, with the
    basis E_ij ordered lexicographically, plus the matrix basis itself."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = []
    for (i, j) in pairs:
        M = exactla.zero_matrix(n, n)
        M[i][j] = F(1)
        mats.append(M)

    def mat_bracket(A, B):
        return exactla.mat_sub(exactla.mat_mul(A, B), exactla.mat_mul(B, A))

    structure = {}
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            C = mat_bracket(mats[a], mats[b])
            row = {}
            for k, (i, j) in enumerate(pairs):
                if C[i][j]:
                    row[k] = C[i][j]
            if row:
                structure[(a, b)] = row
    L = NilpotentLieAlgebra(len(pairs), structure, name="n%d" % n)
    return L, pairs, mats


def _coords_to_matrix(x, pairs, n):
    M = exactla.zero_matrix(n, n)
    for c, (i, j) in zip(x, pairs):
        M[i][j] = c
    return M


@pytest.mark.parametrize("n", range(3, MAX_BCH_CLASS + 2))
def test_bch_matches_matrix_logarithm(n):
    # independent oracle: in strictly upper triangular matrices,
    # bch(a, b) must equal log(exp(A) exp(B)) computed with exact series
    L, pairs, mats = _strict_upper_algebra(n)
    assert L.nilpotency_class == n - 1
    samples = [
        [F(k % 3 - 1, 1 + (k * 7 + s) % 4) for k in range(L.dim)]
        for s in range(4)
    ]
    # at class 6 the patterned samples all miss the K_4 term of the
    # recursion, ad_(a+b)^4 [a, b]; seeded random ones reach it
    rng = random.Random(n)
    samples += [[F(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(L.dim)] for _ in range(2)]
    for a in samples:
        for b in samples:
            A = _coords_to_matrix(a, pairs, n)
            B = _coords_to_matrix(b, pairs, n)
            M = exactla.mat_mul(_nilpotent_mat_exp(A), _nilpotent_mat_exp(B))
            expect = _nilpotent_mat_log(M)
            got = _coords_to_matrix(L.bch(a, b), pairs, n)
            assert exactla.mat_eq(got, expect)


def test_non_nilpotent_rejected():
    # sl2: [h,e]=2e, [h,f]=-2f, [e,f]=h with basis order (e, f, h)
    with pytest.raises(ValueError):
        NilpotentLieAlgebra(3, {
            (0, 1): {2: 1},        # [e,f]=h
            (0, 2): {0: -2},       # [e,h]=-2e
            (1, 2): {1: 2},        # [f,h]=2f
        })


def test_jacobi_violation_rejected():
    # [e0,e1]=e2 and [e1,e2]=e1 give cyclic sum [e0,[e1,e2]] = e2 != 0
    with pytest.raises(ValueError, match=r"Jacobi identity fails on basis "
                                         r"\(0,1,2\)"):
        NilpotentLieAlgebra(3, {
            (0, 1): {2: 1},
            (1, 2): {1: 1},
        })


def _first_jacobi_failure_dense(L):
    """The first basis triple a < b < c where the cyclic Jacobi sum of
    dense brackets is nonzero, or None."""
    for a in range(L.dim):
        for b in range(a + 1, L.dim):
            for c in range(b + 1, L.dim):
                e = [L.basis_vector(t) for t in (a, b, c)]
                s = [sum(v) for v in zip(*(
                    L.bracket(e[x], L.bracket(e[y], e[z]))
                    for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1))))]
                if any(s):
                    return (a, b, c)
    return None


def test_sparse_jacobi_check_matches_all_triples(monkeypatch):
    # random structure constants, most of them not Lie algebras: the sparse
    # check fails exactly when the dense one does, at the same first triple
    rng = random.Random(11)
    seen = set()
    for _ in range(150):
        d = rng.randint(3, 6)
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        structure = {p: {rng.randrange(d): rng.randint(-1, 1)}
                     for p in rng.sample(pairs, rng.randint(1, 3))}
        # most of these are not nilpotent: build them with no series
        with monkeypatch.context() as m:
            m.setattr(NilpotentLieAlgebra, "_lower_central_series",
                      lambda self: (exactla.Echelon([]),))
            L = NilpotentLieAlgebra(d, structure, validate=False)
        bad = _first_jacobi_failure_dense(L)
        seen.add(bad is None)
        if bad is None:
            L.validate()
        else:
            with pytest.raises(ValueError, match=r"basis \(%d,%d,%d\)$"
                               % bad):
                L.validate()
    assert seen == {True, False}
    # one bracket in dimension 100: only the 98 triples that hold it are
    # evaluated, three sparse double brackets each
    L = NilpotentLieAlgebra(100, {(0, 1): {2: 1}}, validate=False)
    calls = []
    original = NilpotentLieAlgebra._bracket_sparse
    monkeypatch.setattr(NilpotentLieAlgebra, "_bracket_sparse",
                        lambda self, i, v: calls.append(i) or
                        original(self, i, v))
    L.validate()
    assert len(calls) == 98 * 6


def test_lower_central_series_heisenberg():
    H = heisenberg()
    assert type(H.lcs) is tuple
    assert all(type(g) is exactla.Echelon for g in H.lcs)
    assert [len(g) for g in H.lcs] == [3, 1, 0]
    assert H.lcs[1].rows == ((0, 0, 1),)
    assert H.nilpotency_class == 2
    _, layers = H.adapted_coordinates
    assert [len(l) for l in layers] == [2, 1]


def test_whole_space_is_the_echelon_of_the_identity_rows():
    # built from its known reduced rows, with no elimination: equal to
    # the eliminated space, with its pivots, free columns and containment
    from cohw.nilpotent import _whole_space
    for n in range(13):
        W = _whole_space(n)
        E = exactla.Echelon([[int(i == j) for j in range(n)]
                             for i in range(n)])
        assert W == E and W.pivots == E.pivots == tuple(range(n))
        assert W.rows == E.rows and len(W) == n
        assert W.contains([F(j, 3) for j in range(n)])
    assert _whole_space(5) is _whole_space(5)


def _reference_series(L):
    """The lower central series by dense brackets of every basis vector
    with every row of the term before, each term as its reduced echelon
    rows: the reference for ``lcs``."""
    series = [exactla.span_echelon(L.basis())]
    while series[-1]:
        nxt = exactla.span_echelon([L.bracket(e, v) for e in L.basis()
                                    for v in series[-1]])
        if len(nxt) == len(series[-1]):
            raise ValueError("Lie algebra is not nilpotent")
        series.append(nxt)
    return series


def _reference_adapted_coordinates(L):
    """(change, layers) from the reference series: the standard basis when
    every term is a coordinate subspace; otherwise layer m takes, one by
    one, each reduced row of gamma_{m+1} outside the span of gamma_{m+2}
    and of the rows taken before it, and ``change`` inverts the matrix
    whose columns are the rows taken."""
    series = _reference_series(L)
    layers = [[] for _ in series[1:]]
    if all(sum(1 for x in row if x) == 1 for g in series for row in g):
        for i, d in enumerate(_reference_depths(L)):
            layers[d].append(i)
        return None, layers
    basis = []
    for m, (g, g_next) in enumerate(zip(series, series[1:])):
        layer = []
        for v in g:
            if not exactla.in_span(g_next + layer, v):
                layer.append(v)
        layers[m] = [len(basis) + k for k in range(len(layer))]
        basis += layer
    columns = [exactla.coords_in_basis(basis, e) for e in L.basis()]
    return exactla.transpose(columns), layers


def _reference_depths(L):
    """The largest m with e_i in gamma_{m+1}, by a span test."""
    series = _reference_series(L)
    return [max(m for m, g in enumerate(series)
                if exactla.in_span(g, L.basis_vector(i)))
            for i in range(L.dim)]


def _assert_series_matches_the_reference(L):
    ref = _reference_series(L)
    assert type(L.lcs) is tuple
    assert all(type(g) is exactla.Echelon for g in L.lcs)
    assert [g.rows for g in L.lcs] == [tuple(map(tuple, g)) for g in ref]
    assert L.nilpotency_class == len(ref) - 1
    assert list(L.depth_of_coordinate) == _reference_depths(L)
    change, layers = L.adapted_coordinates
    assert (change and list(map(list, change)), list(map(list, layers))) \
        == _reference_adapted_coordinates(L)


def _unimodular(rng, n):
    """A seeded integer matrix of determinant 1: a product of elementary
    row additions."""
    P = exactla.identity_matrix(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
    return P


def _in_basis(L, P):
    """L in the basis given by the columns of the invertible P."""
    cols = exactla.transpose(P)
    structure = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            row = exactla.coords_in_basis(cols, L.bracket(cols[i], cols[j]))
            structure[(i, j)] = {k: c for k, c in enumerate(row) if c}
    return NilpotentLieAlgebra(L.dim, structure)


FIL3 = NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}, name="fil3")
FIL4 = NilpotentLieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1},
                               (0, 3): {4: 1}}, name="fil4")


def test_direct_sum_inherits_the_lower_central_series():
    """Term m of the series of a direct sum is the sum of the summands'
    terms m, shifted to their blocks; it matches the dense reference, as
    do the adapted coordinates and depths."""
    skew = NilpotentLieAlgebra(4, {(0, 1): {2: 1, 3: 1}}, name="skew")
    H, A, point = heisenberg(), abelian_lie_algebra(2), abelian_lie_algebra(0)
    for summands in [(H, A), (A, H, FIL3), (FIL3, FIL3), (point,),
                     (point, H), (skew, H, skew), (), (FIL4, skew)]:
        S = direct_sum(*summands)
        _assert_series_matches_the_reference(S)
        for m, g in enumerate(S.lcs):
            rows, offset = [], 0
            for a in summands:
                for row in (a.lcs[m].int_rows if m < len(a.lcs) else ()):
                    rows.append([0] * offset + list(row)
                                + [0] * (S.dim - offset - a.dim))
                offset += a.dim
            assert g == exactla.Echelon(rows), (summands, m)


def test_series_and_adapted_coordinates_match_the_dense_reference():
    """In seeded unimodular bases of heis, fil3, fil4, heis + A^2 and the
    class-3 extension of heis, most of them not adapted to the series,
    the series, depths, class and adapted coordinates are those of the
    dense reference."""
    rng = random.Random(26)
    algebras = [heisenberg(), FIL3, FIL4,
                direct_sum(heisenberg(), abelian_lie_algebra(2)),
                central_extension(heisenberg(), 1, {(0, 2): [F(1)]})]
    moved = 0
    for k in range(50):
        L = _in_basis(algebras[k % 5], _unimodular(rng, algebras[k % 5].dim))
        _assert_series_matches_the_reference(L)
        moved += L.adapted_coordinates[0] is not None
    assert moved >= 45


def test_is_central_matches_brackets_with_the_basis():
    rng = random.Random(5)
    fil3 = NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    skew = NilpotentLieAlgebra(4, {(0, 1): {2: 1, 3: 1}})
    # [e0, e1] = [e1, e2] = e3: e0 + e2 is central by cancellation
    twin = NilpotentLieAlgebra(4, {(0, 1): {3: 1}, (1, 2): {3: 1}})
    assert twin.is_central([F(1), 0, F(1), 0])
    verdicts = set()
    for L in (heisenberg(), fil3, skew, twin, direct_sum(heisenberg(), skew)):
        for _ in range(100):
            z = [F(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(L.dim)]
            central = all(exactla.vec_is_zero(L.bracket(z, e))
                          for e in L.basis())
            assert L.is_central(z) == central, (L, z)
            verdicts.add(central)
    assert verdicts == {True, False}


def heisenberg_from_symplectic():
    """The Heisenberg algebra as the central extension of the abelian plane
    by the standard symplectic form."""
    Q = abelian_lie_algebra(2)
    return central_extension(Q, 1, {(0, 1): [Fraction(1)]}, name="heis")


def test_central_extension_gives_heisenberg():
    H = heisenberg_from_symplectic()
    assert H.dim == 3 and H.nilpotency_class == 2
    assert H.bracket(H.basis_vector(0), H.basis_vector(1)) == \
        [F(0), F(0), F(1)]


def test_class_three_extension():
    # extend Heisenberg by a line with omega(x, z) = w: class 3, dim 4
    H = heisenberg()
    L = central_extension(H, 1, {(0, 2): [F(1)]})
    assert L.dim == 4
    assert L.nilpotency_class == 3
    assert [len(g) for g in L.lcs] == [4, 2, 1, 0]


def test_depth_of_coordinate_is_one_immutable_tuple():
    L = central_extension(heisenberg(), 1, {(0, 2): [F(1)]})
    fresh = tuple(max(m for m, g in enumerate(L.lcs)
                      if g.contains(L.basis_vector(i)))
                  for i in range(L.dim))
    assert fresh == (0, 0, 1, 2)
    first = L.depth_of_coordinate
    assert type(first) is tuple and first == fresh
    assert L.depth_of_coordinate is first
    change, layers = L.adapted_coordinates
    assert L.adapted_coordinates[1] is layers
    assert type(layers) is tuple and all(type(l) is tuple for l in layers)


def test_adapted_coordinates_read_the_central_series():
    H = heisenberg()
    assert H.adapted_coordinates == (None, ((0, 1), (2,)))
    # [e0, e1] = e2 + e3: Gamma_2 is not a coordinate subspace
    L = NilpotentLieAlgebra(4, {(0, 1): {2: 1, 3: 1}})
    assert L.depth_of_coordinate == (0, 0, 0, 0)
    change, layers = L.adapted_coordinates
    assert layers == ((0, 1, 2), (3,))
    centre = exactla.mat_vec(change, [F(0), F(0), F(1), F(1)])
    assert centre[:3] == [0, 0, 0] and centre[3] != 0
    # the adapted coordinates are a change of basis
    assert exactla.rank(change) == 4


def test_torsor_auto_conjugator_in_a_basis_not_adapted_to_the_series():
    # the class-3 filiform algebra in the basis f_i = e_{i-1} + e_i, where
    # Ad is quadratic in the conjugator and no coordinate is central
    fil3 = NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    f = [[F(int(k in (i - 1, i))) for k in range(4)] for i in range(4)]
    structure = {}
    for i in range(4):
        for j in range(i + 1, 4):
            row = exactla.coords_in_basis(f, fil3.bracket(f[i], f[j]))
            structure[(i, j)] = {k: c for k, c in enumerate(row) if c}
    L = NilpotentLieAlgebra(4, structure)
    assert L.nilpotency_class == 3 and L.adapted_coordinates[0] is not None
    rng = random.Random(2)
    for _ in range(4):
        c = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
        theta = LieMorphism(L, L, L.Ad_matrix(c))
        _, cert = UnipotentTorsor(L, auto=theta).trivialize()
        assert exactla.mat_eq(L.Ad_matrix(cert["conjugator"]), theta.matrix)


def test_morphism_checks_brackets():
    H = heisenberg()
    A = abelian_lie_algebra(2)
    # projection to the abelianization is a morphism
    proj = LieMorphism(H, A, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    assert proj.apply([F(1), F(2), F(5)]) == [F(1), F(2)]
    # swapping x and z is not (it kills the bracket relation)
    with pytest.raises(ValueError, match=r"not a Lie algebra morphism"):
        LieMorphism(H, H, [[F(0), F(0), F(1)],
                           [F(0), F(1), F(0)],
                           [F(1), F(0), F(0)]])


def test_Ad_matrix_is_group_conjugation():
    H = heisenberg()
    g = [F(1), F(-2), F(1, 3)]
    x = [F(2), F(1), F(0)]
    lhs = exactla.mat_vec(H.Ad_matrix(g), x)
    assert lhs == H.conjugate(g, x)


def test_solve_graded_affine_conjugacy():
    # find g with g a g^-1 = b for conjugate elements of the Heisenberg group
    H = heisenberg()
    a = [F(1), F(0), F(0)]
    g0 = [F(0), F(1), F(0)]
    b = H.conjugate(g0, a)

    def residual(g):
        return exactla.vec_sub(H.conjugate(g, a), b)

    sol, cert = solve_graded_affine(H, residual, UnipotentCarrier(H))
    assert cert["status"] == "solved"
    assert H.conjugate(sol, a) == b


def test_solve_graded_affine_obstruction_names_layer():
    # center coordinates are conjugation invariant: distinct central parts
    # are never conjugate and the obstruction sits in layer 1
    H = heisenberg()
    a = [F(0), F(0), F(0)]
    b = [F(0), F(0), F(1)]

    def residual(g):
        return exactla.vec_sub(H.conjugate(g, a), b)

    sol, cert = solve_graded_affine(H, residual, UnipotentCarrier(H))
    assert sol is None
    assert cert["status"] == "obstructed"
    assert cert["layer"] == 1


def test_solve_graded_affine_raises_when_preconditions_break():
    # u0^2 + 1 = 0 is no orbit equation: the layer solve "succeeds" on its
    # probed affine part, and the left-over residual must raise rather
    # than be reported as an obstruction
    H = heisenberg()

    def residual(u):
        return [u[0] * u[0] + 1, F(0), F(0)]

    with pytest.raises(ValueError, match="preconditions"):
        solve_graded_affine(H, residual, UnipotentCarrier(H))


def test_torsor_transition_trivialization():
    H = heisenberg()
    t = [F(1), F(1), F(0)]
    T = UnipotentTorsor(H, transitions={0: H.zero(), 1: t})
    g, cert = T.trivialize()
    assert cert["status"] == "trivialized"
    assert g == H.inverse(t)


def test_torsor_trivial_transitions():
    H = heisenberg()
    T = UnipotentTorsor(H, transitions={0: H.zero(), 1: H.zero()})
    g, _ = T.trivialize()
    assert g == H.zero()


def test_torsor_auto_conjugator_recovery():
    H = heisenberg()
    c = [F(1), F(2), F(0)]
    theta = LieMorphism(H, H, H.Ad_matrix(c))
    T = UnipotentTorsor(H, auto=theta)
    g, cert = T.trivialize()
    assert g == H.zero()
    conj = cert.get("conjugator")
    assert conj is not None
    assert exactla.mat_eq(H.Ad_matrix(conj), theta.matrix)


def test_torsor_auto_conjugator_found_for_every_inner_automorphism():
    # seeded Ad_c on class-2 and class-3 algebras, where a per-coordinate
    # greedy layer solve misses some; an outer unipotent automorphism of
    # the Heisenberg algebra (x -> x + y) has no conjugator
    rng = random.Random(1)
    fil3 = NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    for L in (heisenberg(), fil3,
              direct_sum(heisenberg(), abelian_lie_algebra(1)),
              direct_sum(heisenberg(), heisenberg())):
        for _ in range(5):
            c = [F(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(L.dim)]
            theta = LieMorphism(L, L, L.Ad_matrix(c))
            _, cert = UnipotentTorsor(L, auto=theta).trivialize()
            assert exactla.mat_eq(L.Ad_matrix(cert["conjugator"]),
                                  theta.matrix)
    H = heisenberg()
    outer = LieMorphism(H, H, [[F(1), 0, 0], [F(1), F(1), 0], [0, 0, F(1)]])
    _, cert = UnipotentTorsor(H, auto=outer).trivialize()
    assert "conjugator" not in cert


def test_torsor_pushout_projection():
    H = heisenberg()
    A = abelian_lie_algebra(2)
    proj = LieMorphism(H, A, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    T = UnipotentTorsor(H, transitions={0: H.zero(), 1: [F(1), F(0), F(5)]})
    P = torsor_pushout(T, proj)
    assert P.transitions[1] == [F(1), F(0)]


coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=50, deadline=None)
@given(st.lists(coord, min_size=3, max_size=3),
       st.lists(coord, min_size=3, max_size=3),
       st.lists(coord, min_size=3, max_size=3))
def test_heisenberg_group_axioms(a, b, c):
    H = heisenberg()
    assert H.bch(H.bch(a, b), c) == H.bch(a, H.bch(b, c))
    assert H.bch(a, H.zero()) == a
    assert H.bch(H.zero(), a) == a
    assert H.bch(a, H.inverse(a)) == H.zero()


@settings(max_examples=15, deadline=None)
@given(st.lists(coord, min_size=4, max_size=4),
       st.lists(coord, min_size=4, max_size=4),
       st.lists(coord, min_size=4, max_size=4))
def test_class_three_group_axioms(a, b, c):
    H = heisenberg()
    L = central_extension(H, 1, {(0, 2): [F(1)]})
    assert L.bch(L.bch(a, b), c) == L.bch(a, L.bch(b, c))
    assert L.bch(a, L.inverse(a)) == L.zero()


def test_check_bracket_checks_every_pair():
    # brackets [x, y] = z and [x, z] = w; diag(a, b, ab, c) respects the
    # first and respects the second only if c = a^2 b
    L = central_extension(heisenberg(), 1, {(0, 2): [F(1)]})

    def diag(*entries):
        return [[F(e) if i == j else F(0) for j in range(4)]
                for i, e in enumerate(entries)]

    LieMorphism(L, L, diag(2, 3, 6, 12))
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        LieMorphism(L, L, diag(2, 3, 5, 10))
    with pytest.raises(ValueError, match=r"\(0,2\)"):
        LieMorphism(L, L, diag(2, 3, 6, 11))


def _first_bracket_failure_dense(f):
    """The first pair (i, j), i < j, where f[e_i, e_j] != [f e_i, f e_j],
    by dense brackets: the reference for the sparse check."""
    basis = f.source.basis()
    images = [f.apply(e) for e in basis]
    for i in range(f.source.dim):
        for j in range(i + 1, f.source.dim):
            if f.apply(f.source.bracket(basis[i], basis[j])) != \
                    f.target.bracket(images[i], images[j]):
                return i, j
    return None


def test_sparse_bracket_defect_matches_dense_brackets():
    # inclusions, projections and identities between direct sums and
    # epsilon algebras, with a few entries changed, and sparse random
    # matrices: the sparse check returns the pair the dense rule does
    rng = random.Random(23)
    H = heisenberg()
    fil3 = central_extension(H, 1, {(0, 2): [F(1)]})
    skew = NilpotentLieAlgebra(4, {(0, 1): {2: 1, 3: 1}})
    HH, Heps = direct_sum(H, H), epsilon_lie_algebra(H, 2)
    pairs = [(H, H), (fil3, fil3), (skew, skew), (HH, HH), (Heps, Heps),
             (H, HH), (HH, H), (H, Heps), (Heps, H), (fil3, HH),
             (epsilon_lie_algebra(fil3, 1), direct_sum(fil3, skew))]
    seen = set()
    for A, B in pairs:
        for _ in range(40):
            if rng.random() < 0.8:
                M = [[F(int(r == c)) for c in range(A.dim)]
                     for r in range(B.dim)]
                for _ in range(rng.randint(0, 2)):
                    M[rng.randrange(B.dim)][rng.randrange(A.dim)] = \
                        rng.choice([F(0), F(1), F(-1), F(2), F(1, 2)])
            else:
                M = [[F(rng.choice([0, 0, 0, 1, -1])) for _ in range(A.dim)]
                     for _ in range(B.dim)]
            f = LieMorphism(A, B, M, check=False)
            bad = _first_bracket_failure_dense(f)
            assert f.bracket_defect() == bad, (A, B, M)
            seen.add(bad)
    assert None in seen and len(seen) > 8, seen


def test_check_bracket_raises_under_optimization():
    # swapping x and z of the Heisenberg algebra is refused under
    # python -O too
    root = pathlib.Path(__file__).resolve().parent.parent
    child = ("from fractions import Fraction as F\n"
             "from cohw.nilpotent import LieMorphism, heisenberg\n"
             "H = heisenberg()\n"
             "try:\n"
             "    LieMorphism(H, H, [[0, 0, F(1)], [0, F(1), 0], "
             "[F(1), 0, 0]])\n"
             "except ValueError as e:\n"
             "    print(e)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "not a Lie algebra morphism at (0,1)\n"
