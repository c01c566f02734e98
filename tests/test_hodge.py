import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cohw.exactla import Echelon, Gaussian, complex_span, coords_in_basis, \
    kernel_basis, mat_vec, rank, realify_vector, span_echelon, \
    unrealify_vector, vec_add, vec_neg, vec_scale
from cohw.cli import derive_mhs_extension, load_description
from cohw.cosimpl import check_cosimplicial_map, pi0, pi1_unipotent_deciders
from cohw.hodge import (
    MHSGroup, classify_torsor, equivalent, h1_dimension, mhs_les, twist_mhs,
    validate_mhs,
)
from cohw.nilpotent import (
    LieMorphism, NilpotentLieAlgebra, abelian_lie_algebra, heisenberg,
)
from test_exactla import subspace_intersect

F = Fraction
I = Gaussian(0, 1)
CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "cohw" / "corpus"


def _r1():
    """One-dimensional carrier in weight -2 with F^0 = 0: the class space
    is C/R, classified by the imaginary part."""
    return MHSGroup(abelian_lie_algebra(1), {-2: [[1]]},
                    {-1: [[1]], 0: []}, name="R1")


def _v():
    """Two-dimensional pure weight -1 with F^0 = span(e1 + i e2)."""
    return MHSGroup(abelian_lie_algebra(2), {-1: [[1, 0], [0, 1]]},
                    {-1: [[1, 0], [0, 1]], 0: [[Gaussian(1), I]], 1: []},
                    name="V")


def _heis():
    """Heisenberg with center in weight -2 and F^0 = span(e1 + i e2)."""
    return MHSGroup(heisenberg(),
                    {-2: [[0, 0, 1]], -1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                    {-1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     0: [[Gaussian(1), I, Gaussian(0)]], 1: []},
                    name="heisHodge")


def _heis_skew():
    """The Heisenberg MHS of ``_heis`` in the basis b0 = e0, b1 = e1,
    b2 = e1 + e2, which is not adapted to the central series: the center
    is spanned by b2 - b1, so no basis vector lies in it."""
    L = NilpotentLieAlgebra(3, {(0, 1): {1: -1, 2: 1}, (0, 2): {1: -1, 2: 1}},
                            name="heis_skew")
    full = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return MHSGroup(L, {-2: [[0, -1, 1]], -1: full},
                    {-1: full, 0: [[Gaussian(1), I, Gaussian(0)]], 1: []},
                    name="heisSkewHodge")


def _heis_class(x, y, z):
    """The double coset of exp(x e0 + y e1 + z e2) in the Heisenberg MHS,
    computed by hand: the right factor exp(t (e0 + i e1)), t = Im y +
    i Im x, leaves the real plane point (a, b); moving that point off on
    the left leaves a central point whose imaginary part is the class."""
    a, b = x.re - y.im, y.re + x.im
    return z.im + (b * x.im - a * y.im) / 2


def _random_point(rng, d, bound=3):
    return [Gaussian(rng.randint(-bound, bound), rng.randint(-bound, bound))
            for _ in range(d)]


def _move(M, rng, u):
    """w^-1 u f for random w in W0U(R) and f in F0U(C), as a complex
    point."""
    LR = M.Lreal
    sub = M.w0_f0_subgroups
    w = LR.zero()
    for g in sub["w0_real"].rows:
        w = vec_add(w, vec_scale(F(rng.randint(-3, 3)), g))
    f = LR.zero()
    for g in sub["f0_real"].rows:
        f = vec_add(f, vec_scale(F(rng.randint(-3, 3)), g))
    return unrealify_vector(LR.bch(LR.bch(vec_neg(w), realify_vector(u)), f))


def test_validate_examples():
    assert _r1().report["ok"]
    assert _r1().report["graded_weights"] == {-2: 1}
    assert _v().report["ok"]
    assert _heis().report["graded_weights"] == {-2: 1, -1: 2}
    # real F^0 in pure weight -1 meets its conjugate: rejected
    bad = MHSGroup(abelian_lie_algebra(2), {-1: [[1, 0], [0, 1]]},
                   {-1: [[1, 0], [0, 1]], 0: [[1, 0]], 1: []}, check=False)
    assert not bad.report["ok"]
    details = [c["detail"] for c in bad.report["checks"] if not c["ok"]]
    assert "failed Hodge decomposition" in details
    # and its F^0 /\ W_0 has the real point e1
    assert bad.real_fixed() == [[1, 0]]


def test_validate_named_violations():
    # span(e1) is not an ideal of the Heisenberg algebra
    bad_w = MHSGroup(heisenberg(),
                     {-2: [[1, 0, 0]],
                      -1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                     {-1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0: []},
                     check=False)
    details = [c["detail"] for c in bad_w.report["checks"] if not c["ok"]]
    assert "non-ideal W level" in details
    # [F^0, F^0] = center, but F^0 does not contain it
    bad_f = MHSGroup(heisenberg(),
                     {-2: [[0, 0, 1]],
                      -1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                     {-1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                      0: [[1, 0, 0], [0, 1, 0]], 1: []}, check=False)
    details = [c["detail"] for c in bad_f.report["checks"] if not c["ok"]]
    assert "non-multiplicative F" in details
    with pytest.raises(ValueError, match="W_-2 is an ideal"):
        MHSGroup(heisenberg(),
                 {-2: [[1, 0, 0]], -1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                 {-1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0: []})


def test_invalid_filtrations_are_refused_under_optimization():
    # python -O strips assert statements; the check=True refusal is not one
    code = ("from cohw.hodge import MHSGroup\n"
            "from cohw.nilpotent import heisenberg\n"
            "full = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
            "try:\n"
            "    MHSGroup(heisenberg(), {-2: [[1, 0, 0]], -1: full},\n"
            "             {-1: full, 0: []})\n"
            "except ValueError as e:\n"
            "    print(e)\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == ("invalid filtrations of M: W_-2 is an ideal "
                           "(non-ideal W level)\n"), proc.stderr


def test_w0_f0_subgroups():
    r1 = _r1().w0_f0_subgroups
    assert len(r1["w0_basis"]) == 1 and len(r1["f0_basis"]) == 0
    assert r1["real_fixed"] == []
    v = _v().w0_f0_subgroups
    # F^0 is one complex dimension: two real ones, abelian
    assert v["f0_algebra"].dim == 2 and v["f0_algebra"].is_abelian()
    h = _heis().w0_f0_subgroups
    # [v, v] = 0 makes the Hodge subgroup abelian inside the Heisenberg
    assert h["f0_algebra"].dim == 2 and h["f0_algebra"].is_abelian()
    assert h["w0_algebra"].dim == 3
    assert h["real_fixed"] == []


def test_fixed_points_match_cosimplicial():
    for M in (_r1(), _v(), _heis()):
        G = M.coset_cosimplicial
        # pi^0 of the coset pattern = conjugation-fixed F^0 /\ W0 points
        assert len(pi0(G)) == len(M.real_fixed())


def test_classify_imaginary_part_invariant():
    M = _r1()
    assert classify_torsor(M, [Gaussian(0)]).is_base()
    c = classify_torsor(M, [Gaussian(3, 5)])
    assert c.representative == [Gaussian(0, 5)]
    assert equivalent(M, [Gaussian(7, 5)], [Gaussian(-2, 5)])
    assert not equivalent(M, [Gaussian(0, 5)], [Gaussian(0, 4)])


def test_classify_pure_weight_single_class():
    M = _v()
    rng = random.Random(2)
    for _ in range(5):
        u = [Gaussian(rng.randint(-4, 4), rng.randint(-4, 4))
             for _ in range(2)]
        assert classify_torsor(M, u).is_base()


def test_classify_heisenberg():
    M = _heis()
    c = classify_torsor(M, [Gaussian(0), Gaussian(0), Gaussian(1, 2)])
    assert c.representative == [Gaussian(0), Gaussian(0), Gaussian(0, 2)]
    # layer 0 (the weight -1 part) reduces completely; layer 1 keeps the
    # imaginary part of the center
    assert c.layer_coords[1] == [F(0), F(2)]
    assert classify_torsor(M, [Gaussian(2, 1), Gaussian(1, 1),
                               Gaussian(5)]).layer_coords[0] == [0, 0, 0, 0]


def test_equivalent_constructed_pairs():
    M = _heis()
    rng = random.Random(5)
    LR = M.Lreal
    sub = M.w0_f0_subgroups
    for _ in range(10):
        u = [Gaussian(rng.randint(-2, 2), rng.randint(-2, 2))
             for _ in range(3)]
        w = LR.zero()
        for g in sub["w0_real"].rows:
            w = vec_add(w, vec_scale(F(rng.randint(-2, 2)), g))
        f = LR.zero()
        for g in sub["f0_real"].rows:
            f = vec_add(f, vec_scale(F(rng.randint(-2, 2)), g))
        v = unrealify_vector(LR.bch(LR.bch(vec_neg(w), realify_vector(u)), f))
        assert equivalent(M, u, v)
        assert equivalent(M, v, u)
        assert equivalent(M, u, u)


def test_normal_form_constant_on_classes():
    """260 random (u, w, f): the normal form of w^-1 u f equals the normal
    form of u, also in a basis not adapted to the central series."""
    rng = random.Random(17)
    cases = [(_heis(), 140), (_r1(), 60), (_heis_skew(), 60)]
    for M, count in cases:
        for _ in range(count):
            u = _random_point(rng, M.L.dim)
            assert classify_torsor(M, _move(M, rng, u)).representative \
                == classify_torsor(M, u).representative


def test_normal_form_carries_the_class_invariant():
    # the same classes in two bases: b = (x, y - z, z) is exp(x e0 + y e1
    # + z e2), and the normal form keeps the hand-computed class
    rng = random.Random(29)
    adapted, skew = _heis(), _heis_skew()
    for _ in range(20):
        x, y, z = _random_point(rng, 3, bound=9)
        c = _heis_class(x, y, z)
        r = classify_torsor(adapted, [x, y, z]).representative
        assert r == [Gaussian(0), Gaussian(0), Gaussian(0, c)]
        r = classify_torsor(skew, [x, y - z, z]).representative
        assert r == [Gaussian(0), Gaussian(0, -c), Gaussian(0, c)]


def test_equivalent_matches_the_cosimplicial_decider():
    """Seeded pairs, equivalent by construction or not: equality of
    normal forms agrees with pi^1 of the cogenerated coset cosimplicial
    group, decided on its level-1 cochains."""
    rng = random.Random(31)
    for M in (_heis(), _heis_skew()):
        G = M.coset_cosimplicial
        dec = pi1_unipotent_deciders(G)
        # the level-1 factor indexed by the identity epi [1] ->> [1]
        k = [i for i, (n, _) in enumerate(G.level_epis[1]) if n == 1][0]
        off = G.objects[1].offsets

        def embed(u):
            c = [F(0)] * off[-1]
            c[off[k]:off[k + 1]] = realify_vector(u)
            return tuple(c)

        verdicts = []
        for trial in range(12):
            u = _random_point(rng, M.L.dim)
            v = _move(M, rng, u) if trial % 2 else \
                _random_point(rng, M.L.dim)
            got = equivalent(M, u, v)
            assert got == dec["equivalent"](embed(u), embed(v)), (u, v)
            verdicts.append(got)
        assert True in verdicts and False in verdicts


def test_h1_dimensions():
    assert h1_dimension(_r1()) == 1      # 2 - 0 - 1
    assert h1_dimension(_v()) == 0       # 4 - 2 - 2
    assert h1_dimension(_heis()) == 1    # 6 - 2 - 3


def test_validate_checks_every_p_and_h1_dimension_needs_a_valid_mhs():
    # a line pure of weight -1 with F^1 = 0 stored alone: F^0 is then
    # full, so the decomposition fails at p = 0, below the stored levels
    # (no Hodge structure of odd weight has dimension 1); the dimension
    # formula, whose freeness rests on a valid MHS, refuses it
    M = MHSGroup(abelian_lie_algebra(1), {-1: [[1]]}, {1: []}, check=False)
    assert [c["name"] for c in M.report["checks"] if not c["ok"]] == [
        "Hodge decomposition at weight -1, p=0"]
    with pytest.raises(ValueError, match="valid filtrations"):
        h1_dimension(M)
    # a line of weight 0 (type (0, 0)) is a valid Hodge structure, but the
    # weights must be negative: the formula refuses it too
    M = MHSGroup(abelian_lie_algebra(1), {0: [[1]]}, {1: []}, check=False)
    assert [c["name"] for c in M.report["checks"] if not c["ok"]] == [
        "negative weights: W_-1 is everything"]
    with pytest.raises(ValueError, match="negative weights"):
        h1_dimension(M)


def freeness_check(M, samples):
    """Stabilizer of each given point under (w, f) . u = w^-1 u f: the
    linear system Ad(u^-1) w in F0 over the real form must have only the
    zero solution.  A reference that ``h1_dimension`` does not need.
    Properness is out of scope; freeness only."""
    LR = M.Lreal
    sub = M.w0_f0_subgroups
    wgens = sub["w0_real"].rows
    fgens = sub["f0_real"].rows
    dims = []
    for u in samples:
        ur = realify_vector(u)
        g = LR.inverse(ur)
        cols = [LR.Ad(g, w) for w in wgens] + [vec_neg(f) for f in fgens]
        A = [[cols[c][r] for c in range(len(cols))] for r in range(LR.dim)]
        ker = kernel_basis(A, len(cols)) if cols else []
        wpart = [k[:len(wgens)] for k in ker]
        dims.append(rank(wpart) if wpart else 0)
    return {"points": len(samples), "stabilizer_dims": dims,
            "all_trivial": all(x == 0 for x in dims)}


def test_freeness():
    M = _heis()
    rng = random.Random(23)
    pts = [[Gaussian(rng.randint(-5, 5), rng.randint(-5, 5))
            for _ in range(3)] for _ in range(50)]
    cert = freeness_check(M, pts)
    assert cert["all_trivial"] and cert["points"] == 50
    assert freeness_check(_r1(), [[Gaussian(0)]])["all_trivial"]
    assert freeness_check(_v(), [[Gaussian(0)] * 2]
                          + [u[:2] for u in pts[:4]])["all_trivial"]


def test_mhs_les_heisenberg():
    MZ, MU, MQ = _r1(), _heis(), _v()
    incl = LieMorphism(MZ.L, MU.L, [[0], [0], [F(1)]])
    proj = LieMorphism(MU.L, MQ.L, [[F(1), 0, 0], [0, F(1), 0]])
    res = mhs_les(MZ, MU, MQ, incl, proj)
    assert res["report"]["ok"], res["report"]
    # the quotient has no fixed points and a one-point class space, so
    # the center classes biject onto the middle classes
    assert res["middle_bijective"] is True
    assert res["h1_z_dim"] == 1 and res["h1_q_dim"] == 0
    # the levelwise block maps commute with every coface and codegeneracy
    GZ, GU, GQ = res["cosimplicial"]
    maps_zu, maps_uq = res["level_maps"]
    assert check_cosimplicial_map(GZ, GU, maps_zu)
    assert check_cosimplicial_map(GU, GQ, maps_uq)


def test_mhs_les_degenerate_and_split():
    A = _r1()
    A2 = _r1()
    pt = MHSGroup(abelian_lie_algebra(0), {-1: []}, {0: []}, name="pt")
    res = mhs_les(A, A2, pt, LieMorphism(A.L, A2.L, [[F(1)]]),
                  LieMorphism(A2.L, pt.L, []))
    assert res["report"]["ok"] and res["middle_bijective"]
    # split product: everything decomposes coordinatewise
    LU = abelian_lie_algebra(3)
    MU = MHSGroup(LU, {-2: [[1, 0, 0]],
                       -1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                  {-1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   0: [[Gaussian(0), Gaussian(1), I]], 1: []}, name="split")
    res = mhs_les(A, MU, _v(), LieMorphism(A.L, LU, [[F(1)], [0], [0]]),
                  LieMorphism(LU, _v().L, [[0, F(1), 0], [0, 0, F(1)]]))
    assert res["report"]["ok"]
    assert res["h1_z_dim"] == 1 == h1_dimension(MU)


def test_mhs_les_rejects_nonstrict_data():
    # quotient filtration not the image of the total one
    MZ, MU = _r1(), _heis()
    MQ = MHSGroup(abelian_lie_algebra(2), {-1: [[1, 0], [0, 1]]},
                  {-1: [[1, 0], [0, 1]], 0: [[Gaussian(1), -I]], 1: []},
                  name="Vflip")
    with pytest.raises(ValueError, match="non-strict filtration data"):
        mhs_les(MZ, MU, MQ, LieMorphism(MZ.L, MU.L, [[0], [0], [F(1)]]),
                LieMorphism(MU.L, MQ.L, [[F(1), 0, 0], [0, F(1), 0]]))


def test_twist():
    M = _heis()
    ident = twist_mhs(M, [Gaussian(0)] * 3)
    assert ident.hodge[0] == M.hodge[0]
    # central twist: the adjoint is trivial on what F sees
    assert twist_mhs(M, [Gaussian(0), Gaussian(0),
                         Gaussian(2, 1)]).hodge[0] == M.hodge[0]
    alpha = [Gaussian(1, 1), Gaussian(2), Gaussian(0, 1)]
    tw = twist_mhs(M, alpha)
    assert tw.report["ok"] and tw.hodge[0] != M.hodge[0]
    assert h1_dimension(tw) == h1_dimension(M) == 1
    # classes correspond under right multiplication by alpha
    LR = M.Lreal

    def times_alpha(u):
        return unrealify_vector(LR.bch(realify_vector(u),
                                       realify_vector(alpha)))
    rng = random.Random(9)
    for _ in range(4):
        u = [Gaussian(rng.randint(-1, 1), rng.randint(-1, 1))
             for _ in range(3)]
        v = [Gaussian(rng.randint(-1, 1), rng.randint(-1, 1))
             for _ in range(3)]
        assert equivalent(M, u, v) == equivalent(
            tw, times_alpha(u), times_alpha(v))


def _pinned_mhs():
    """Every mixed Hodge structure built in the tests and from the corpus
    (the corpus MHS and the Z and Q of its extension), valid or not."""
    full3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    heis = _heis()
    out = {"R1": _r1(), "V": _v(), "heis": heis, "heis_skew": _heis_skew()}
    out["real_F0"] = MHSGroup(abelian_lie_algebra(2), {-1: [[1, 0], [0, 1]]},
                              {-1: [[1, 0], [0, 1]], 0: [[1, 0]], 1: []},
                              check=False)
    out["non_ideal_W"] = MHSGroup(heisenberg(), {-2: [[1, 0, 0]], -1: full3},
                                  {-1: full3, 0: []}, check=False)
    out["non_multiplicative_F"] = MHSGroup(
        heisenberg(), {-2: [[0, 0, 1]], -1: full3},
        {-1: full3, 0: [[1, 0, 0], [0, 1, 0]], 1: []}, check=False)
    out["point"] = MHSGroup(abelian_lie_algebra(0), {-1: []}, {0: []})
    out["split"] = MHSGroup(abelian_lie_algebra(3),
                            {-2: [[1, 0, 0]], -1: full3},
                            {-1: full3, 0: [[Gaussian(0), Gaussian(1), I]],
                             1: []})
    out["V_flip"] = MHSGroup(abelian_lie_algebra(2), {-1: [[1, 0], [0, 1]]},
                             {-1: [[1, 0], [0, 1]], 0: [[Gaussian(1), -I]],
                              1: []})
    out["heis_twisted"] = twist_mhs(heis, [Gaussian(1, 1), Gaussian(2), I])
    out["heis_twisted_central"] = twist_mhs(heis, [0, 0, Gaussian(2, 1)])
    df = load_description(str(CORPUS / "heisenberg_mhs.alg"))
    MZ, MU, MQ, _, _ = derive_mhs_extension(df)
    out.update({"corpus": MU, "corpus_Z": MZ, "corpus_Q": MQ})
    return out


def test_validate_reports_are_pinned():
    """Each check of ``validate_mhs`` (name, verdict, detail) and the
    graded weights, on every MHS of ``_pinned_mhs``, equal the reports
    recorded in validate_mhs_reports.json by the version that eliminated
    the Hodge levels over Q(i) instead of on realified coordinates."""
    expected = json.loads(
        pathlib.Path(__file__).with_name("validate_mhs_reports.json")
        .read_text())
    got = {}
    for name, M in _pinned_mhs().items():
        report = validate_mhs(M)
        got[name] = {
            "graded_weights": {str(m): k for m, k
                               in report["graded_weights"].items()},
            "checks": [[c["name"], c["ok"], c["detail"]]
                       for c in report["checks"]]}
    assert got == expected


SHEARED_EXTENSION = """\
# Heisenberg plus a central plane, [e0, e1] = e2, written in the basis
# b0 = e0, b1 = e1, b2 = e0 + e2, b3 = e1 + e3, b4 = e2 - e3 + e4.  W_-2
# is span(e2), F^0 is spanned by e0 + i e1 and e3 + i e4, and Z is the
# centre span(e2, e3, e4), given by incl vectors that are neither
# coordinate vectors nor an echelon basis.  W_-2 and F^0 meet Z in
# proper subspaces, so Z's coordinates show in its filtrations.
field gaussian

[lie_algebra]
dim 5
bracket 0 1 0 -1
bracket 0 1 2 1
bracket 0 3 0 -1
bracket 0 3 2 1
bracket 1 2 0 1
bracket 1 2 2 -1
bracket 2 3 0 -1
bracket 2 3 2 1

[filtration_W]
level -2
vector -1 0 1 0 0
level -1
vector 1 0 0 0 0
vector 0 1 0 0 0
vector -1 0 1 0 0
vector 0 -1 0 1 0
vector 1 -1 -1 1 1

[filtration_F]
level -1
vector 1 0 0 0 0
vector 0 1 0 0 0
vector -1 0 1 0 0
vector 0 -1 0 1 0
vector 1 -1 -1 1 1
level 0
vector 1 i 0 0 0
vector i -1-i -i 1+i i
level 1

[extension]
incl -1 -1 1 1 0
incl -1 0 1 0 -1
incl 2 -2 -2 2 2
proj 1 0 1 0 0
proj 0 1 0 1 0
"""


def test_extension_with_a_sheared_centre(tmp_path):
    """derive_mhs_extension reads Z's coordinates at the pivots of its
    echelon basis; they agree with solving in that basis, and Q's levels
    are the images of U's."""
    path = tmp_path / "sheared.alg"
    path.write_text(SHEARED_EXTENSION)
    df = load_description(str(path))
    MZ, MU, MQ, incl, proj = derive_mhs_extension(df)
    zb = span_echelon(df.extension["incl"])
    zbR = [realify_vector(w) for z in zb for w in (z, [I * x for x in z])]
    for m, lvl in MU.weights.items():
        meet = subspace_intersect(lvl.rows, zb)
        assert MZ.weights[m] == Echelon([coords_in_basis(zb, v)
                                         for v in meet])
        assert MQ.weights[m] == Echelon([mat_vec(df.extension["proj"], v)
                                         for v in lvl.rows])
    for p, lvl in MU.hodge.items():
        meet = subspace_intersect(lvl.rows, zbR)
        assert MZ.hodge[p] == complex_span(
            [unrealify_vector(coords_in_basis(zbR, v)) for v in meet])
    assert [len(MZ.weights[m]) for m in (-2, -1)] == [1, 3]
    assert [len(MZ.hodge[p]) for p in (-1, 0, 1)] == [6, 2, 0]
    res = mhs_les(MZ, MU, MQ, incl, proj)
    assert res["report"]["ok"]
    assert (res["h1_z_dim"], h1_dimension(MU), res["h1_q_dim"]) == (1, 1, 0)


def test_validate_is_idempotent_and_reentrant():
    M = _heis()
    assert validate_mhs(M)["ok"] and validate_mhs(M)["ok"]
