import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cohw
from cohw import cosimpl, exactla, phin
from cohw.cli import load_description, parse_description
from cohw.cosimpl import (
    CosimplicialGroup, LinearHom, StructuredHom, UnipotentCarrier,
    _gamma_epis, _product_object, cogenerate, cogenerate_morphism,
    complex_embedding, compose_monotone, delta_map, epi_mono_factor, epis,
    pi0, pi_abelian_all, sigma_map,
)
from cohw.exactla import (
    Echelon, coords_in_basis, identity_matrix, kernel_basis, mat_mul,
    mat_vec, span_echelon, transpose, vec_add, vec_is_zero,
)
from cohw.nilpotent import (
    LieMorphism, NilpotentLieAlgebra, abelian_lie_algebra, direct_sum,
    heisenberg,
)
from cohw.phin import (
    PhiNGroup, PhiNTorsor, d_phi1, epsilon_lie_algebra, h1_quotient,
    phin_torsor_equivalent, quotient_les, selmer_quotient_cosimplicial,
    twisted_conj_classify, twisted_conj_equivalent, twisted_conj_residual,
)
from test_nilpotent import _assert_series_matches_the_reference

F = Fraction
CORPUS = pathlib.Path(cohw.__file__).parent / "corpus"


def _q_one():
    """One-dimensional carrier with Frobenius weight -1: phi = 1/p."""
    return PhiNGroup(abelian_lie_algebra(1), [[F(1, 2)]], p=2)


def _st_curve():
    """Nonsplit two-dimensional (phi, N)-datum: phi = diag(1, 2),
    N = e2 -> e1, satisfying N phi = 2 phi N."""
    return PhiNGroup(abelian_lie_algebra(2), [[F(1), 0], [0, F(2)]],
                     N=[[0, F(1)], [0, 0]], p=2)


def test_validation():
    # Heisenberg with the weight-compatible diagonal Frobenius
    H = heisenberg()
    X = PhiNGroup(H, [[F(2), 0, 0], [0, F(3), 0], [0, 0, F(6)]], p=2)
    assert X.dim == 3
    # non-multiplicative phi rejected: diag(2, 3, 5) breaks [x, y] = z
    with pytest.raises(ValueError):
        PhiNGroup(H, [[F(2), 0, 0], [0, F(3), 0], [0, 0, F(5)]], p=2)
    # N phi = p phi N enforced: phi = 1, N = 1 fails for any p > 1
    with pytest.raises(ValueError):
        PhiNGroup(abelian_lie_algebra(1), [[F(1)]], N=[[F(1)]], p=2)
    # N = 1 on the second of two Heisenberg summands doubles its bracket:
    # the derivation rule first fails there, as the pair-by-pair rule says
    with pytest.raises(ValueError,
                       match=r"^N is not a derivation at \(3,4\)$"):
        PhiNGroup(direct_sum(H, H), identity_matrix(6),
                  N=_diag([0, 0, 0, 1, 1, 1]), p=2)
    _st_curve()  # valid


def test_epsilon_lie_algebra_and_points():
    H = heisenberg()
    A = epsilon_lie_algebra(H, 2)
    assert A.dim == 9
    assert A.nilpotency_class == 2
    # [x, eps_1 y] = eps_1 z; eps-eps brackets vanish
    x = A.basis_vector(0)
    ey = A.basis_vector(3 + 1)
    assert A.bracket(x, ey) == A.basis_vector(3 + 2)
    assert exactla.vec_is_zero(A.bracket(A.basis_vector(3), A.basis_vector(7)))
    # the group law of U(L[eps]) in log coordinates: main parts multiply
    # by BCH, epsilon parts of central elements add
    A1 = epsilon_lie_algebra(H, 1)
    ab = A1.bch([F(1), 0, 0, 0, 0, F(1)], [0, F(1), 0, 0, 0, F(2)])
    assert ab[:3] == H.bch([F(1), 0, 0], [0, F(1), 0])
    assert ab[5] == F(3)


def test_epsilon_lie_algebra_inherits_jacobi_and_series():
    """L tensor Q[eps] skips the Jacobi check, which a check confirms.
    Each term of its lower central series is that of L in every block,
    and the series, depths and adapted coordinates match the dense
    reference."""
    fil3 = NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    skew = NilpotentLieAlgebra(4, {(0, 1): {2: 1, 3: 1}})
    for L in (heisenberg(), fil3, abelian_lie_algebra(2), skew):
        for n in range(3):
            A = epsilon_lie_algebra(L, n)
            A.validate()
            _assert_series_matches_the_reference(A)
            assert A.lcs == direct_sum(*[L] * (n + 1)).lcs


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
    if dims[:n + 1] != expected[:n + 1]:
        raise RuntimeError("denormalized cohomotopy disagrees with the "
                           "complex: %r" % (dims,))
    cofaces = {m: [E.d(m, i).matrix for i in range(m + 1)]
               for m in range(1, n + 1)}
    codegens = {m: [E.s(m, i).matrix for i in range(m + 1)]
                for m in range(n)}
    unit = UnipotentCarrier(abelian_lie_algebra(1))
    frobenius = [h.matrix for h in cogenerate_morphism(
        E, E, [LinearHom(unit, unit, [[Fraction(1)]]),
               LinearHom(unit, unit, [[p]])])[:n + 1]]
    return {"levels": n, "p": p, "nu": nu, "cofaces": cofaces,
            "codegens": codegens, "frobenius": frobenius,
            "carrier_dims": [m + 1 for m in range(n + 1)],
            "cosimplicial": E, "cohomotopy": dims[:n + 1]}


def test_epsilon_denormalize():
    pat = epsilon_denormalize(2, 2)
    assert pat["carrier_dims"] == [1, 2, 3]
    assert pat["frobenius"][2] == [[F(1), 0, 0], [0, F(2), 0], [0, 0, F(2)]]
    # abelian oracle: cohomotopy = cohomology of R --nu--> R
    assert pat["cohomotopy"] == [1, 1, 0]
    assert epsilon_denormalize(2, 2, nu=1)["cohomotopy"] == [0, 0, 0]
    assert epsilon_denormalize(3, 1)["frobenius"][1] == [[F(1), 0], [0, F(3)]]


def test_selmer_dims():
    X = _q_one()
    S = selmer_quotient_cosimplicial(X, "g/e", N=3)
    # one epsilon-carrier copy per cogeneration factor: (n+1)^2 per level
    assert [o.dim for o in S.objects] == [1, 4, 9, 16]
    Sf = selmer_quotient_cosimplicial(X, "f/e", N=3)
    assert [o.dim for o in Sf.objects] == [1, 2, 3, 4]


def _reference_selmer(X, variant, N):
    """Structure-map matrices and level algebras of the quotient pattern
    from a hand-built assembly: an epsilon module E cogenerated from
    D --N--> D, its Frobenius block map (phi on main parts, p phi on
    epsilon parts), and one copy of E per epi [n] ->> [k], k <= 1, wired
    by epi-mono factorization with the mono [0] -> [1] hitting 1 acting
    as the Frobenius after E's coface."""
    L, phi, p = X.L, X.phi, X.p
    d = L.dim
    E = cogenerate(complex_embedding([d], []) if variant == "f/e"
                   else complex_embedding([d, d], [X.N]), N=N)
    D = UnipotentCarrier(abelian_lie_algebra(d))
    frobenius = cogenerate_morphism(E, E, [
        LinearHom(D, D, phi),
        LinearHom(D, D, [[p * v for v in row] for row in phi])])
    factors = [[(k, g) for k in (0, 1) for g in epis(n, k)]
               for n in range(N + 1)]
    objects = [_product_object([E.objects[n]] * len(factors[n]))
               for n in range(N + 1)]

    def wire(f, np, n, factor_map):
        src_idx = {e: t for t, e in enumerate(factors[np])}
        parts = []
        for (k, g) in factors[n]:
            epi, image = epi_mono_factor(compose_monotone(g, f), k)
            parts.append((src_idx[(len(image) - 1, epi)], factor_map(image)))
        return StructuredHom(objects[np], objects[n], parts).matrix

    cofaces = {}
    for n in range(1, N + 1):
        for i in range(n + 1):
            e_map = E.d(n, i)
            frob_map = frobenius[n].compose(e_map)
            cofaces[n, i] = wire(delta_map(n, i), n - 1, n,
                                 lambda image: frob_map if image == [1]
                                 else e_map)
    codegens = {(n, i): wire(sigma_map(n, i), n + 1, n,
                             lambda image: E.s(n, i))
                for n in range(N) for i in range(n + 1)}
    n_eps = [sum(1 for (k, _) in _gamma_epis(n, E.semi.N) if k == 1)
             for n in range(N + 1)]
    algs = [_product_object([UnipotentCarrier(epsilon_lie_algebra(L, e))]
                            * len(factors[n])).L
            for n, e in enumerate(n_eps)]
    return cofaces, codegens, algs


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("variant", ["g/e", "f/e"])
def test_selmer_structure_maps_match_reference_assembly(variant, N):
    df = load_description(str(CORPUS / "heisenberg_isocrystal.alg"))
    for X in (PhiNGroup(df.L, df.phi, p=df.p), _st_curve(), _q_one()):
        S = selmer_quotient_cosimplicial(X, variant, N)
        cofaces, codegens, algs = _reference_selmer(X, variant, N)
        # repr tells an int entry from a Fraction one
        for (n, i), M in cofaces.items():
            assert repr(S.d(n, i).matrix) == repr(M), (n, i)
        for (n, i), M in codegens.items():
            assert repr(S.s(n, i).matrix) == repr(M), (n, i)
        assert len(S.cofaces) == N and len(S.codegens) == N
        for A, B in zip([G.L for G in S.objects], algs):
            assert (A.dim, A.name, A.structure) == (B.dim, B.name, B.structure)


def test_every_selmer_structure_map_is_checked_block_by_block(monkeypatch):
    # one row block of the codegeneracy U^2 -> U^1 (dim 27 -> 12) of the
    # corpus extension gets its main bracket coordinate doubled; with the
    # cosimplicial identities (which would catch it too) not checked, the
    # Lie-morphism check of that block refuses it
    df = load_description(str(CORPUS / "heisenberg_isocrystal.alg"))
    XU = PhiNGroup(df.L, df.phi, p=df.p)
    S = selmer_quotient_cosimplicial(XU, "g/e", 2)
    assert (S.objects[2].dim, S.objects[1].dim) == (27, 12)
    original = phin.diagonal_cogenerate

    def corrupted(A, N):
        diag = original(A, N)
        parts = diag.codegens[1][0].parts
        i, part = parts[-1]
        M = [list(row) for row in part.matrix]
        M[2] = [2 * x for x in M[2]]
        parts[-1] = (i, LinearHom(part.source, part.target, M))
        return diag

    monkeypatch.setattr(phin, "diagonal_cogenerate", corrupted)
    monkeypatch.setattr(CosimplicialGroup, "check_identities",
                        lambda self: None)
    with pytest.raises(ValueError, match="not a Lie algebra morphism"):
        selmer_quotient_cosimplicial(XU, "g/e", 2)


def test_pi0_equals_d_phi1():
    for X in (_q_one(), _st_curve(),
              PhiNGroup(heisenberg(),
                        [[F(2), 0, 0], [0, F(3), 0], [0, 0, F(6)]], p=2)):
        direct = span_echelon([list(v) for v in d_phi1(X)])
        S = selmer_quotient_cosimplicial(X, "g/e", N=2)
        assert span_echelon([list(v) for v in pi0(S)]) == direct
    assert d_phi1(_q_one()) == []
    # the nonsplit datum fixes exactly e1
    assert d_phi1(_st_curve()) == [[F(1), F(0)]]


def test_h1_quotient_weight_minus_one():
    # phi = 1/2, N = 0: cohomotopy (0, 1, 1), the pi^2 coming entirely
    # from p phi - 1 = 0; cross-checked internally against the
    # total-complex oracle and the dual formula
    res = h1_quotient(_q_one(), "g/e")
    assert res["moore_dims"] == [0, 1, 1]
    dec = res["deciders"]
    S = res["cosimplicial"]
    assert dec["is_trivial"](S.objects[1].identity())


def test_h1_quotient_frobenius_without_fixed_vectors():
    # companion matrix of x^2 - x + 2: no fixed vectors at any level
    V = PhiNGroup(abelian_lie_algebra(2), [[F(0), F(-2)], [F(1), F(1)]], p=2)
    assert h1_quotient(V, "g/e")["moore_dims"] == [0, 0, 0]


def test_h1_quotient_identity_frobenius():
    X = PhiNGroup(abelian_lie_algebra(3), identity_matrix(3), p=2)
    assert h1_quotient(X, "g/e")["moore_dims"] == [3, 3, 0]


def test_h1_quotient_nonsplit_monodromy():
    # the epsilon direction couples phi and N: dims (1, 1, 0)
    assert h1_quotient(_st_curve(), "g/e")["moore_dims"] == [1, 1, 0]


def test_f_e_variant_vanishes_above_degree_one():
    assert h1_quotient(_q_one(), "f/e")["moore_dims"] == [0, 0, 0]
    X = PhiNGroup(abelian_lie_algebra(2), identity_matrix(2), p=2)
    assert h1_quotient(X, "f/e")["moore_dims"] == [2, 2, 0]


def test_a_bogus_variant_is_refused_also_under_optimization():
    # python -O strips assert statements; the variant check is not one
    child = ("from fractions import Fraction as F\n"
             "from cohw.nilpotent import heisenberg\n"
             "from cohw.phin import PhiNGroup, selmer_quotient_cosimplicial\n"
             "X = PhiNGroup(heisenberg(), [[F(2), 0, 0], [0, F(3), 0],\n"
             "                             [0, 0, F(6)]], p=2)\n"
             "try:\n"
             "    selmer_quotient_cosimplicial(X, 'bogus', N=2)\n"
             "except ValueError as e:\n"
             "    print(e)\n")
    root = pathlib.Path(__file__).resolve().parents[1]
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable] + flags + ["-c", child],
                              cwd=root, env=dict(os.environ,
                                                 PYTHONPATH=str(root / "src")),
                              capture_output=True, text=True, timeout=600)
        assert proc.stdout == \
            "variant must be 'f/e' or 'g/e', not 'bogus'\n", proc.stderr


def test_twisted_conjugation_classification():
    L1 = abelian_lie_algebra(1)
    res = twisted_conj_classify(L1, [[F(2)]])
    assert res["transitive"] and res["stabilizer_basis"] == []
    res = twisted_conj_classify(L1, [[F(1)]])
    assert not res["transitive"] and len(res["stabilizer_basis"]) == 1
    assert any(not c["solvable"] for c in res["certificates"])
    H = heisenberg()
    res = twisted_conj_classify(H, [[F(2), 0, 0], [0, F(3), 0],
                                    [0, 0, F(6)]])
    assert res["transitive"]
    # explicit witness for a nontrivial target
    w = twisted_conj_equivalent(H, [[F(2), 0, 0], [0, F(3), 0],
                                    [0, 0, F(6)]],
                                [F(1), F(1), F(1)], H.zero())
    assert w is not None


def test_twisted_conjugation_random_battery():
    rng = random.Random(11)
    H = heisenberg()
    for _ in range(10):
        a, b, c = (F(rng.choice([1, 2, 3, 5, 1, 2])) for _ in range(3))
        phi = [[a, 0, 0], [0, b, 0], [0, 0, a * b]]
        res = twisted_conj_classify(H, phi)
        assert res["transitive"] == (a != 1 and b != 1 and a * b != 1)


def test_corpus_isocrystal_basis_targets_are_reached(monkeypatch):
    # a greedy per-coordinate layer solve found no witness for these three
    # targets; the descent must, without sympy
    monkeypatch.setitem(sys.modules, "sympy", None)
    df = load_description(str(CORPUS / "heisenberg_isocrystal.alg"))
    res = twisted_conj_classify(df.L, df.phi)
    assert res["transitive"]
    assert len(res["certificates"]) == 3
    for cert in res["certificates"]:
        assert cert["solvable"]
        residual = twisted_conj_residual(df.L, df.phi, cert["target"],
                                         df.L.zero())
        assert vec_is_zero(residual(cert["witness"]))


def _diag(entries):
    n = len(entries)
    return [[F(entries[i]) if i == j else F(0) for j in range(n)]
            for i in range(n)]


def test_twisted_conjugation_in_a_basis_not_adapted_to_the_series(
        monkeypatch):
    # [e0, e1] = e2 + e3: Gamma_2 contains neither e2 nor e3, so every
    # coordinate has depth 0 and the layers must be read in adapted
    # coordinates.  u = (1, 1, 0, 0) carries 0 to u^-1 phi(u), whose
    # Gamma_2 part comes from u0 u1 alone.
    monkeypatch.setitem(sys.modules, "sympy", None)
    L = parse_description("[lie_algebra]\ndim 4\nbracket 0 1 2 1\n"
                          "bracket 0 1 3 1\n").L
    u = [F(1), F(1), F(0), F(0)]
    targets = []
    for entries in ([2, F(1, 2), 1, 1], [2, 3, 6, 6]):
        phi = _diag(entries)
        target = L.bch(L.inverse(u), mat_vec(phi, u))
        witness = twisted_conj_equivalent(L, phi, L.zero(), target)
        assert witness is not None
        residual = twisted_conj_residual(L, phi, L.zero(), target)
        assert vec_is_zero(residual(witness))
        targets.append(target)
    assert targets == [[F(1), F(-1, 2), F(3, 4), F(3, 4)],
                       [F(1), F(2), F(-1, 2), F(-1, 2)]]
    # e2 is off the orbit of 0 under diag(2, 1/2, 1, 1): an obstruction
    assert twisted_conj_equivalent(L, _diag([2, F(1, 2), 1, 1]), L.zero(),
                                   [F(0), F(0), F(1), F(0)]) is None


def _change_basis(L, P):
    """L in the basis given by the columns of the invertible P, with the
    map taking old coordinates to new ones."""
    cols = exactla.transpose(P)
    structure = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            row = coords_in_basis(cols, L.bracket(cols[i], cols[j]))
            structure[(i, j)] = {k: c for k, c in enumerate(row) if c}
    Pinv = exactla.transpose([coords_in_basis(cols, e) for e in L.basis()])
    return NilpotentLieAlgebra(L.dim, structure), Pinv


# Heisenberg with phi = diag(2, 1/2, 1) at p = 2, written in the standard
# basis and in v1 = e0, v2 = e1, v3 = e0 + e1 - 3/2 e2, where
# e2 = 2/3 (v1 + v2 - v3).  The orbit of 0, {u^-1 phi(u)} = {(x, -y/2,
# 3xy/4)} in e-coordinates, holds v1, v2 and v3.
HEIS_DIAG_PHI = {
    "standard": "bracket 0 1 2 1\n"
                "[phi]\nrow 2 0 0\nrow 0 1/2 0\nrow 0 0 1\n",
    "orbit points": "bracket 0 1 0 2/3\nbracket 0 1 1 2/3\n"
                    "bracket 0 1 2 -2/3\nbracket 0 2 0 2/3\n"
                    "bracket 0 2 1 2/3\nbracket 0 2 2 -2/3\n"
                    "bracket 1 2 0 -2/3\nbracket 1 2 1 -2/3\n"
                    "bracket 1 2 2 2/3\n"
                    "[phi]\nrow 2 0 1\nrow 0 1/2 -1/2\nrow 0 0 1\n",
}


def test_phin_classify_verdicts_do_not_depend_on_the_basis(tmp_path):
    """An intransitive action may reach every basis target, so its
    verdict rests on rank(phi - 1) alone: both files exit 1 with the same
    basis-free lines, also under python -O."""
    files = []
    for name, body in sorted(HEIS_DIAG_PHI.items()):
        f = tmp_path / (name.replace(" ", "_") + ".alg")
        f.write_text("field rational\np 2\n[lie_algebra]\ndim 3\n" + body)
        files.append(str(f))
    child = ("import json, sys\n"
             "from cohw import cli\n"
             "for f in sys.argv[1:]:\n"
             "    cli.main(['phin-classify', f, '--format', 'json'])\n")
    root = pathlib.Path(__file__).resolve().parent.parent
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable] + flags + ["-c", child]
                              + files, cwd=root,
                              env=dict(os.environ,
                                       PYTHONPATH=str(root / "src")),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        reports = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(reports) == 2
        for report in reports:
            assert report["exit"] == 1, report
            assert report["lines"][2:] == ["transitive: no",
                                           "stabilizer dim: 1"], report


def test_intransitive_classification_keeps_sampled_certificates():
    """In the orbit-point basis every basis target is reached, yet the
    action is intransitive; each certificate is labelled as a sample."""
    df = parse_description("field rational\np 2\n[lie_algebra]\ndim 3\n"
                           + HEIS_DIAG_PHI["orbit points"])
    res = twisted_conj_classify(df.L, df.phi)
    assert not res["transitive"] and len(res["stabilizer_basis"]) == 1
    assert [c["solvable"] for c in res["certificates"]] == [True] * 3
    assert {c["provenance"] for c in res["certificates"]} == {"sampled"}
    for cert in res["certificates"]:
        residual = twisted_conj_residual(df.L, df.phi, cert["target"],
                                         df.L.zero())
        assert vec_is_zero(residual(cert["witness"]))


def test_twisted_conjugation_verdicts_do_not_depend_on_the_basis():
    rng = random.Random(23)
    fil3 = NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    cases = [(heisenberg(), lambda a, b: [a, b, a * b]),
             (fil3, lambda a, b: [a, b, a * b, a * a * b]),
             (direct_sum(heisenberg(), heisenberg()),
              lambda a, b: [a, b, a * b, b, a, a * b])]
    verdicts = []
    for k in range(24):
        L, grading = cases[k % 3]
        n = L.dim
        a, b = (F(rng.choice([1, 2, -1, 3])) for _ in range(2))
        phi = mat_mul(_diag(grading(a, b)), L.Ad_matrix(
            [F(rng.randint(-1, 1)) for _ in range(n)]))
        w = [F(rng.randint(-2, 2)) for _ in range(n)]
        wprime = [F(rng.randint(-2, 2)) for _ in range(n)]
        if k % 2:
            u = [F(rng.randint(-2, 2)) for _ in range(n)]
            wprime = L.bch(L.bch(L.inverse(u), w), mat_vec(phi, u))
        P = [[F(rng.randint(-2, 2)) + int(i == j) * 5 for j in range(n)]
             for i in range(n)]
        M, Pinv = _change_basis(L, P)
        assert M.adapted_coordinates[0] is not None
        phiM = mat_mul(Pinv, mat_mul(phi, P))
        got = twisted_conj_equivalent(L, phi, w, wprime)
        moved = twisted_conj_equivalent(M, phiM, mat_vec(Pinv, w),
                                        mat_vec(Pinv, wprime))
        assert (got is None) == (moved is None)
        if moved is not None:
            residual = twisted_conj_residual(M, phiM, mat_vec(Pinv, w),
                                             mat_vec(Pinv, wprime))
            assert vec_is_zero(residual(moved))
        verdicts.append(got is not None)
    assert set(verdicts) == {True, False}


def test_quotient_les_heisenberg_isocrystal():
    # central extension of the standard symplectic plane isocrystal with
    # Frobenius slopes summing to 1: phi_V = companion of
    # x^2 - x/2 + 1/2, phi on the center = det phi_V = 1/2
    H = heisenberg()
    phiU = [[F(0), F(-1, 2), 0], [F(1), F(1, 2), 0], [0, 0, F(1, 2)]]
    XU = PhiNGroup(H, phiU, p=2)
    XZ = _q_one()
    XQ = PhiNGroup(abelian_lie_algebra(2),
                   [[F(0), F(-1, 2)], [F(1), F(1, 2)]], p=2)
    incl = LieMorphism(XZ.L, H, [[0], [0], [F(1)]])
    proj = LieMorphism(H, XQ.L, [[F(1), 0, 0], [0, F(1), 0]])
    res = quotient_les(XZ, XU, XQ, incl, proj)
    assert res["report"]["ok"], res["report"]
    assert res["middle_bijective"] is True
    assert res["h1_z_dim"] == 1


def test_quotient_les_abelian_continuation():
    XZ = PhiNGroup(abelian_lie_algebra(1), [[F(1)]], p=2)
    XU = _st_curve()
    XQ = PhiNGroup(abelian_lie_algebra(1), [[F(2)]], p=2)
    incl = LieMorphism(XZ.L, XU.L, [[F(1)], [0]])
    proj = LieMorphism(XU.L, XQ.L, [[0, F(1)]])
    res = quotient_les(XZ, XU, XQ, incl, proj)
    assert res["report"]["ok"], res["report"]
    assert res["clauses"]["abelian continuation (Euler characteristic)"]


def _fixed_point_extension(phi):
    """Z = e0 -> U = the plane with Frobenius phi -> Q = e1, N = 0."""
    A2 = abelian_lie_algebra(2)
    XZ = PhiNGroup(abelian_lie_algebra(1), [[phi[0][0]]], p=2)
    XQ = PhiNGroup(abelian_lie_algebra(1), [[phi[1][1]]], p=2)
    return (XZ, PhiNGroup(A2, phi, p=2), XQ,
            LieMorphism(XZ.L, A2, [[F(1)], [0]]),
            LieMorphism(A2, XQ.L, [[0, F(1)]]))


def _failed(res):
    return {name for name, ok in res["clauses"].items() if not ok}


def test_quotient_les_connecting_class_of_a_fixed_point():
    # phi = [[1, 1], [0, 1]] on the plane: the fixed line of Q lifts to
    # no fixed point of U, so its connecting class is the class of Z
    # that dies in U; the fixed-point and pi1(Z) clauses run through it
    res = quotient_les(*_fixed_point_extension([[F(1), F(1)], [0, F(1)]]))
    assert res["report"]["ok"], res["report"]
    assert res["h1_z_dim"] == 1
    assert res["provenance"]["exact at pi0(Q)"] == "exact"
    # the connecting class is nonzero, so pi1(Z) -> pi1(U) is not injective
    assert res["middle_bijective"] is False


def test_quotient_les_on_seeded_extensions_matches_the_witnesses():
    """Every clause holds on seeded extensions: Heisenberg over a plane
    with phi = (M, det M), and the plane with an upper triangular phi.
    On each basis cocycle of Z and three seeded combinations, a class of
    Z dies in U (the stabilizer of the exact decision) exactly when the
    descent of pi1(U) finds a witness of its death.  With U abelian, the
    middle map is bijective exactly when no class dies and H^1(Z) and
    H^1(U) have one dimension."""
    rng = random.Random(7)
    H = heisenberg()
    seen = dict.fromkeys(("pi0(Q) != 0", "a class dies", "bijective",
                          "not bijective"), 0)
    for k in range(24):
        if k % 2:
            a, c = (rng.choice([F(1), F(2), F(1, 2)]) for _ in range(2))
            ext = _fixed_point_extension([[a, F(rng.randint(-1, 1))],
                                          [0, c]])
        else:
            M = [[0, 0], [0, 0]]
            while M[0][0] * M[1][1] == M[0][1] * M[1][0]:
                M = [[F(rng.randint(-2, 2)) for _ in range(2)]
                     for _ in range(2)]
            det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
            XQ = PhiNGroup(abelian_lie_algebra(2), M, p=2)
            XZ = PhiNGroup(abelian_lie_algebra(1), [[det]], p=2)
            ext = (XZ, PhiNGroup(H, [M[0] + [0], M[1] + [0], [0, 0, det]],
                                 p=2), XQ,
                   LieMorphism(XZ.L, H, [[0], [0], [F(1)]]),
                   LieMorphism(H, XQ.L, [[F(1), 0, 0], [0, F(1), 0]]))
        res = quotient_les(*ext)
        assert res["report"]["ok"], res["report"]
        assert set(res["provenance"].values()) == {"exact", "derived"}
        SZ, SU, SQ = res["cosimplicial"]
        les = cosimpl.les_central_unipotent(SZ, SU, SQ, *res["level_maps"])
        MZ = cosimpl.moore_differentials(SZ)
        z1 = kernel_basis(MZ[1], SZ.objects[1].dim)
        cocycles = [list(z) for z in z1]
        for _ in range(3 if z1 else 0):
            coeffs = [F(rng.randint(-2, 2)) for _ in z1]
            cocycles.append([sum(a * z[i] for a, z in zip(coeffs, z1))
                             for i in range(len(z1[0]))])
        dies = les["dies_in_u"]
        witness = cosimpl.pi1_unipotent_deciders(SU)["witness"]
        incl1 = res["level_maps"][0][1]
        for z in cocycles:
            assert dies.contains(z) == (
                witness(incl1.apply(z)) is not None), (k, z)
        seen["pi0(Q) != 0"] += bool(les["pi0"][2])
        injective = len(dies) == len(span_echelon(transpose(MZ[0])))
        assert les["middle_injective"] is injective, k
        seen["a class dies"] += not injective
        if not injective:
            assert res["middle_bijective"] is False, k
        if k % 2:
            # U is abelian: the verdict from the pi0 dims agrees with the
            # stabilizer's (injective) and the Moore H^1 dims (onto)
            bijective = injective and \
                res["h1_z_dim"] == pi_abelian_all(SU)[1]
            assert res["middle_bijective"] is bijective, k
            seen["bijective" if bijective else "not bijective"] += 1
    assert min(seen.values()) > 0, seen


def _seeded_extension(rng, k):
    """Every third one the plane with an upper triangular phi, else
    Heisenberg over a plane with phi = (M, det M); p in {2, 3}."""
    p = rng.choice([2, 3])
    A1, A2 = abelian_lie_algebra(1), abelian_lie_algebra(2)
    if k % 3 == 0:
        a, c = (rng.choice([F(1), F(2), F(3), F(1, 2), F(1, 3)])
                for _ in range(2))
        return (PhiNGroup(A1, [[a]], p=p),
                PhiNGroup(A2, [[a, F(rng.randint(-1, 1))], [0, c]], p=p),
                PhiNGroup(A1, [[c]], p=p),
                LieMorphism(A1, A2, [[F(1)], [0]]),
                LieMorphism(A2, A1, [[0, F(1)]]))
    M = [[0, 0], [0, 0]]
    while M[0][0] * M[1][1] == M[0][1] * M[1][0]:
        M = [[rng.choice([F(-1), F(0), F(1), F(2), F(3), F(1, 2)])
              for _ in range(2)] for _ in range(2)]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    H = heisenberg()
    return (PhiNGroup(A1, [[det]], p=p),
            PhiNGroup(H, [M[0] + [0], M[1] + [0], [0, 0, det]], p=p),
            PhiNGroup(A2, M, p=p), LieMorphism(A1, H, [[0], [0], [F(1)]]),
            LieMorphism(H, A2, [[F(1), 0, 0], [0, F(1), 0]]))


def test_the_middle_map_verdict_needs_no_pi0_condition(monkeypatch):
    """Where a decided branch of the middle-map verdict runs, the pi^0
    condition it once also asked for holds: with U abelian, injectivity
    and exactness give dim pi0(Z) - dim pi0(U) + dim pi0(Q) = 0; with Q
    abelian, H^1(Q) = 0 gives pi0(Q) = 0 (Euler characteristic 0)."""
    engine, seen = phin.les_central_unipotent, []
    monkeypatch.setattr(phin, "les_central_unipotent",
                        lambda *a: seen.append(engine(*a)) or seen[-1])
    rng = random.Random(11)
    ran = {"U abelian": 0, "H^1(Q) = 0": 0, "undecided": 0}
    for k in range(60):
        XZ, XU, XQ, incl, proj = _seeded_extension(rng, k)
        res = quotient_les(XZ, XU, XQ, incl, proj)
        les = seen[-1]
        p0Z, p0U, p0Q = (len(b) for b in les["pi0"])
        SQ = res["cosimplicial"][2]
        if not les["middle_injective"]:
            assert res["middle_bijective"] is False, k
        elif XU.is_abelian() and all(res["clauses"].values()):
            assert p0Z - p0U + p0Q == 0, k
            ran["U abelian"] += 1
        elif all(G.is_abelian() for G in SQ.objects) \
                and pi_abelian_all(SQ)[1] == 0:
            assert p0Q == 0, k
            ran["H^1(Q) = 0"] += 1
        else:
            assert res["middle_bijective"] is None, k
            ran["undecided"] += 1
    assert min(ran.values()) > 0, ran


def test_an_empty_stabilizer_fails_exactly_the_pi1_z_clauses(monkeypatch):
    """A stabilizer descent that returned the trivial group would say no
    class of Z dies in U; where one does, exactly the two clauses it
    decides fail."""
    descend = cosimpl._descend

    def empty(L, act, group):
        g, layers, _ = descend(L, act, group)
        return g, layers, []
    ext = _fixed_point_extension([[F(1), F(1)], [0, F(1)]])
    assert quotient_les(*ext)["report"]["ok"]
    monkeypatch.setattr(cosimpl, "_descend", empty)
    assert _failed(quotient_les(*ext)) == {
        "exact at pi1(Z)", "fibers at pi1(Z) are connecting orbits"}


def test_a_cut_pi0_fails_exactness_at_pi0_q(monkeypatch):
    """On the split plane with phi = 1 every pi0 is the whole level; cut
    to its first basis vector, pi0(U) no longer reaches pi0(Q), and the
    fixed-point clause and the Euler characteristic fail."""
    full = cosimpl.pi0
    ext = _fixed_point_extension([[F(1), 0], [0, F(1)]])
    assert quotient_les(*ext)["report"]["ok"]
    monkeypatch.setattr(cosimpl, "pi0", lambda U: full(U)[:1])
    assert _failed(quotient_les(*ext)) == {
        "exact at pi0(Q)", "abelian continuation (Euler characteristic)"}


def test_quotient_les_rejects_a_noncentral_kernel():
    # span(e0, e2) is an abelian ideal of the Heisenberg algebra with
    # quotient span(e1), but e0 is not central: no central extension
    H = heisenberg()
    XU = PhiNGroup(H, [[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]], p=2)
    XZ = PhiNGroup(abelian_lie_algebra(2), [[F(1), 0], [0, F(1)]], p=2)
    XQ = PhiNGroup(abelian_lie_algebra(1), [[F(1)]], p=2)
    incl = LieMorphism(XZ.L, H, [[F(1), 0], [0, 0], [0, F(1)]])
    proj = LieMorphism(H, XQ.L, [[0, F(1), 0]])
    with pytest.raises(ValueError, match="not a central extension"):
        quotient_les(XZ, XU, XQ, incl, proj)


def test_quotient_les_refuses_maps_that_do_not_commute_with_p_and_phi():
    # the fixed-point extension of the plane, with phi on Z, phi on Q or
    # the weight p of Q changed
    XZ, XU, XQ, incl, proj = _fixed_point_extension([[F(1), F(1)],
                                                     [0, F(1)]])
    A1 = abelian_lie_algebra(1)
    for Z, Q in [(PhiNGroup(A1, [[F(2)]], p=2), XQ),
                 (XZ, PhiNGroup(A1, [[F(3)]], p=2)),
                 (XZ, PhiNGroup(A1, [[F(1)]], p=3))]:
        with pytest.raises(ValueError, match="does not commute with p"):
            quotient_les(Z, XU, Q, incl, proj)


def test_torsor_compatibility_constraint():
    X = _st_curve()
    # (p phi - 1) nu = N w: with w = e1 the right side vanishes, so nu
    # must be killed by diag(1, 3)
    PhiNTorsor(X, [F(1), 0], [0, 0])
    with pytest.raises(ValueError, match="nu != N w"):
        PhiNTorsor(X, [F(1), 0], [0, F(1)])
    # gauge transport preserves the constraint (constructor re-checks)
    T = PhiNTorsor(X, [F(1), F(2)], [F(2), 0])
    T.gauge([F(1), F(-1)])


def test_torsor_equivalence():
    X = _q_one()
    T0 = PhiNTorsor(X, [F(0)])
    # Frobenius translations are absorbed (phi - 1 is invertible) ...
    assert phin_torsor_equivalent(T0, PhiNTorsor(X, [F(5)]))[0]
    # ... but the monodromy coordinate is rigid: p phi - 1 = 0 and N = 0
    # leave a one-dimensional obstruction, matching h1 dim 1
    assert not phin_torsor_equivalent(T0, PhiNTorsor(X, [F(0)], [F(1)]))[0]


def test_torsor_equivalence_relation():
    rng = random.Random(3)
    H = heisenberg()
    X = PhiNGroup(H, [[F(2), 0, 0], [0, F(3), 0], [0, 0, F(6)]], p=2)
    for _ in range(3):
        w = [F(rng.randint(-2, 2)) for _ in range(3)]
        T1 = PhiNTorsor(X, w)
        T2 = T1.gauge([F(rng.randint(-2, 2)) for _ in range(3)])
        T3 = T2.gauge([F(rng.randint(-2, 2)) for _ in range(3)])
        assert phin_torsor_equivalent(T1, T2)[0]
        assert phin_torsor_equivalent(T2, T1)[0]
        assert phin_torsor_equivalent(T1, T3)[0]
        assert phin_torsor_equivalent(T1, T1)[0]


def test_left_log_derivative_matches_symbolic():
    import sympy
    H = heisenberg()
    # derivation x -> z on the Heisenberg algebra
    Nmat = [[0, 0, 0], [0, 0, 0], [F(1), 0, 0]]
    u = [F(1), F(2), F(-1)]
    v = mat_vec(Nmat, u)
    t = sympy.Symbol("t")
    curve = H.bch([-sympy.Rational(x.numerator, x.denominator) for x in u],
                  [sympy.Rational(a.numerator, a.denominator)
                   + t * sympy.Rational(b.numerator, b.denominator)
                   for a, b in zip(u, v)])
    expect = [sympy.diff(sympy.expand(c), t).subs({t: 0}) for c in curve]
    got = H.dexp(u, v)
    assert [sympy.Rational(g.numerator, g.denominator) for g in got] == expect
