import collections
import functools
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cohw import cli, exactla, hopf
from cohw.hopf import (
    TruncatedEnvelope, graded_trivialization_check, symmetrization_check,
    symmetrize,
)
from cohw.nilpotent import (
    NilpotentLieAlgebra, abelian_lie_algebra, central_extension, heisenberg,
)

F = Fraction


def weighted_filtration_levels(env):
    """Commutative monomials grouped by total weight, where the weight of
    variable i is ``env.weights[i]``, 1 + its lower-central-series depth."""
    levels = {}
    for m in env.monomials:
        levels.setdefault(env.wdeg(m), []).append(m)
    return levels


class _WordReference:
    """The envelope's former product, kept as a reference: words in the
    basis of L normal ordered by rewriting, memoized per word."""

    def __init__(self, env):
        self.L, self.order, self.weights = env.L, env.order, env.weights
        self.add, self.scale = env.add, env.scale
        self._no_cache = {}

    def _word_wdeg(self, word):
        return sum(self.weights[i] for i in word)

    def _word_to_monomial(self, word):
        e = [0] * self.L.dim
        for i in word:
            e[i] += 1
        return tuple(e)

    def normal_order(self, word):
        """Word (tuple of basis indices) -> element, rewriting x_a x_b with
        a > b into x_b x_a + [x_a, x_b] until ascending.  Memoized."""
        if self._word_wdeg(word) > self.order:
            return {}
        if word in self._no_cache:
            return self._no_cache[word]
        k = None
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                k = t
                break
        if k is None:
            out = {self._word_to_monomial(word): Fraction(1)}
        else:
            a, b = word[k], word[k + 1]
            swapped = word[:k] + (b, a) + word[k + 2:]
            out = dict(self.normal_order(swapped))
            br = self.L.bracket(self.L.basis_vector(a),
                                self.L.basis_vector(b))
            for i, c in enumerate(br):
                if c:
                    shorter = word[:k] + (i,) + word[k + 2:]
                    out = self.add(out, self.scale(c, self.normal_order(shorter)))
        self._no_cache[word] = out
        return out

    def _monomial_word(self, m):
        word = []
        for i, e in enumerate(m):
            word.extend([i] * e)
        return tuple(word)

    def mul(self, a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                out = self.add(out, self.scale(c1 * c2, self.normal_order(
                    self._monomial_word(m1) + self._monomial_word(m2))))
        return out


def _class_three():
    return central_extension(heisenberg(), 1, {(0, 2): [F(1)]})


def _half_heisenberg():
    # a structure constant that is not integral: [x, y] = z / 2
    return NilpotentLieAlgebra(3, {(0, 1): {2: F(1, 2)}}, name="half")


# the algebras, with their orders, that the envelope is compared on
# against the word reference
REFERENCE_ALGEBRAS = [(heisenberg(), 3), (_class_three(), 4),
                      (_half_heisenberg(), 3), (abelian_lie_algebra(3), 2)]


def test_monomial_count():
    env = TruncatedEnvelope(heisenberg(), order=2)
    # weights (1, 1, 2): monomials 1, x, y, z, x^2, xy, y^2
    assert len(env.monomials) == 7
    env3 = TruncatedEnvelope(heisenberg(), order=3)
    # adds x^3, x^2 y, x y^2, y^3, xz, yz
    assert len(env3.monomials) == 13


def test_basis_cap(monkeypatch):
    monkeypatch.setattr(hopf, "MAX_BASIS", 6)
    with pytest.raises(ValueError):
        TruncatedEnvelope(heisenberg(), order=2)
    # the cap is inclusive: the 7 monomials fit a cap of 7
    monkeypatch.setattr(hopf, "MAX_BASIS", 7)
    assert len(TruncatedEnvelope(heisenberg(), order=2).monomials) == 7


def test_basis_cap_holds_under_optimization():
    # python -O strips assert statements; the cap is not one
    code = ("from cohw import hopf\n"
            "from cohw.nilpotent import heisenberg\n"
            "hopf.MAX_BASIS = 5\n"
            "try:\n"
            "    hopf.TruncatedEnvelope(heisenberg(), order=3)\n"
            "except ValueError:\n"
            "    print('capped')\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "capped\n", proc.stderr


def test_normal_order_heisenberg():
    env = TruncatedEnvelope(heisenberg(), order=2)
    x, y = env.gen(0), env.gen(1)
    xy = env.mul(x, y)
    yx = env.mul(y, x)
    comm = env.sub(xy, yx)
    # x y - y x = z = [x, y]
    assert comm == env.gen(2)
    # y x normal orders to x y - z
    assert yx == {(1, 1, 0): F(1), (0, 0, 1): F(-1)}


def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def test_associativity_against_matrix_model():
    # independent oracle: words of generators agree with 3x3 strictly upper
    # triangular matrix products under x -> E12, y -> E23, z -> E13
    env = TruncatedEnvelope(heisenberg(), order=2)
    ref = _WordReference(env)
    E = {0: (0, 1), 1: (1, 2), 2: (0, 2)}

    def word_matrix(word):
        M = exactla.identity_matrix(3)
        for i in word:
            N = exactla.zero_matrix(3, 3)
            N[E[i][0]][E[i][1]] = F(1)
            M = exactla.mat_mul(M, N)
        return M

    # compare the image of xy and of its normal-ordered form under the rep:
    # the rep factors through U so normal ordering must not change the image
    for word in [(1, 0), (1, 2), (2, 1), (1, 1), (0, 1)]:
        direct = word_matrix(word)
        no = ref.normal_order(word)
        # the envelope's product of the letters is the normal-ordered word
        assert functools.reduce(env.mul, [env.gen(i) for i in word]) == no
        img = exactla.zero_matrix(3, 3)
        for m, c in no.items():
            w = ref._monomial_word(m)
            img = _mat_add(img, [[c * e for e in row]
                                 for row in word_matrix(w)])
        # compare only the strictly-upper part reachable at degree <= 2
        assert exactla.mat_eq(direct, img)


def test_coproduct_primitive_generators():
    env = TruncatedEnvelope(heisenberg(), order=3)
    for i in range(3):
        assert env.is_primitive(env.gen(i))
    assert not env.is_primitive(env.one())
    assert not env.is_primitive(env.mul(env.gen(0), env.gen(0)))


def _tensor_mul(env, A, B):
    # (a (x) b)(c (x) d) = ac (x) bd on tensor dicts {(mono, mono): coeff},
    # truncated at combined degree
    out = {}
    for (l1, r1), c1 in A.items():
        for (l2, r2), c2 in B.items():
            left = env.mul({l1: F(1)}, {l2: F(1)})
            right = env.mul({r1: F(1)}, {r2: F(1)})
            for lm, lc in left.items():
                for rm, rc in right.items():
                    if env.wdeg(lm) + env.wdeg(rm) <= env.order:
                        key = (lm, rm)
                        out[key] = out.get(key, 0) + c1 * c2 * lc * rc
    return {k: x for k, x in out.items() if x}


def test_coproduct_multiplicative():
    env = TruncatedEnvelope(heisenberg(), order=3)
    a = env.add(env.gen(0), env.scale(F(2), env.gen(2)))
    b = env.sub(env.gen(1), env.one())
    lhs = env.coproduct(env.mul(a, b))
    rhs = _tensor_mul(env, env.coproduct(a), env.coproduct(b))
    assert lhs == rhs


def test_exp_log_round_trip():
    env = TruncatedEnvelope(heisenberg(), order=3)
    q = [F(1), F(-2), F(1, 3)]
    g = env.exp_coords(q)
    assert env.is_grouplike(g)
    assert env.log_coords(g) == q


def test_grouplike_iff_exponential_of_primitive():
    env = TruncatedEnvelope(heisenberg(), order=3)
    # a non-grouplike counit-one element
    u = env.add(env.one(), env.mul(env.gen(0), env.gen(1)))
    assert not env.is_grouplike(u)


def test_exp_is_group_hom_to_bch():
    # exp(a) exp(b) = exp(bch(a, b)) in the truncated envelope
    H = heisenberg()
    env = TruncatedEnvelope(H, order=3)
    a = [F(1), F(0), F(0)]
    b = [F(0), F(1), F(0)]
    lhs = env.mul(env.exp_coords(a), env.exp_coords(b))
    rhs = env.exp_coords(H.bch(a, b))
    assert env.eq(lhs, rhs)


def test_j_filtration_heisenberg():
    env = TruncatedEnvelope(heisenberg(), order=2)
    powers = _j_powers(env)
    # z = xy - yx lies in J^2: J = (x, y, z, x^2, xy, y^2), J^2 = (z, deg 2)
    assert [len(p) for p in powers] == [7, 6, 4, 0]
    dual = env.j_filtration_dual_dims()
    # level-1 quotient U/J^2 has dimension 3: span(1, x, y), z being in J^2
    assert dual == [1, 3, 7]


def test_j_filtration_abelian():
    env = TruncatedEnvelope(abelian_lie_algebra(2), order=2)
    # no brackets: J^m is exactly the monomials of degree >= m
    assert [len(p) for p in _j_powers(env)] == [6, 5, 3, 0]
    assert env.j_filtration_dual_dims() == [1, 3, 6]


def test_symmetrize_basic():
    env = TruncatedEnvelope(heisenberg(), order=2)
    # sigma(xy) = (xy + yx)/2 = xy - z/2
    s = symmetrize(env, (1, 1, 0))
    assert s == {(1, 1, 0): F(1), (0, 0, 1): F(-1, 2)}


def test_symmetrization_check_abelian():
    env = TruncatedEnvelope(abelian_lie_algebra(3), order=3)
    report = symmetrization_check(env)
    assert report["ok"], report


def test_symmetrization_check_heisenberg():
    env = TruncatedEnvelope(heisenberg(), order=3)
    report = symmetrization_check(env)
    assert report["ok"], report
    # the weighted filtration is essential: level 2 contains z linearly
    dims = {e["level"]: e["j_dim"] for e in report["levels"]}
    assert dims[2] == len(_j_powers(env)[2])


def test_symmetrization_check_class_three():
    L = central_extension(heisenberg(), 1, {(0, 2): [F(1)]})
    env = TruncatedEnvelope(L, order=4)
    report = symmetrization_check(env)
    assert report["ok"], report


def test_envelope_needs_a_basis_adapted_to_the_series():
    # [e0, e1] = e2 + e3: no basis vector spans the center, so no vector
    # has a PBW weight; the envelope refuses instead of a false report
    L = NilpotentLieAlgebra(4, {(0, 1): {2: 1, 3: 1}}, name="skew")
    with pytest.raises(ValueError, match="skew is not adapted"):
        TruncatedEnvelope(L, 3)
    # the same algebra in the adapted basis e0, e1, e2 + e3, e3
    L = NilpotentLieAlgebra(4, {(0, 1): {2: 1}}, name="adapted")
    assert symmetrization_check(TruncatedEnvelope(L, 3))["ok"]


def test_weighted_levels_group_by_the_envelope_weights():
    L = central_extension(heisenberg(), 1, {(0, 2): [F(1)]})
    env = TruncatedEnvelope(L, order=4)
    assert env.weights == [1, 1, 2, 3]
    levels = weighted_filtration_levels(env)
    assert sorted(m for monos in levels.values() for m in monos) \
        == sorted(env.monomials)
    for w, monos in levels.items():
        assert all(sum(e * wt for e, wt in zip(m, env.weights)) == w
                   for m in monos)
    assert levels[3] == [m for m in env.monomials if env.wdeg(m) == 3]


def test_graded_trivialization():
    env = TruncatedEnvelope(heisenberg(), order=3)
    for q in ([F(1), F(2), F(-1)], [F(0), F(0), F(0)], [F(-2), F(1, 3), F(5)]):
        assert graded_trivialization_check(env, q)


def test_graded_basis_spans_each_level_modulo_the_next():
    L = central_extension(heisenberg(), 1, {(0, 2): [F(1)]})
    env = TruncatedEnvelope(L, order=4)
    powers = env.j_echelons
    levels = env._graded_j_basis
    assert len(levels) == env.order + 1
    for m, level in enumerate(levels):
        rows = [list(b) for b in level]
        assert all(powers[m].contains(v) for v in rows)
        together = exactla.span_echelon(rows + list(powers[m + 1].rows))
        assert len(together) == len(powers[m].rows)
        assert len(rows) == len(powers[m].rows) - len(powers[m + 1].rows)


def test_trivialization_certificate_refuses_a_non_grouplike(monkeypatch):
    # g with counit 2: (g - 1) 1 = g - 1 is not in J
    env = TruncatedEnvelope(heisenberg(), order=3)
    exp_coords = env.exp_coords
    monkeypatch.setattr(env, "exp_coords",
                        lambda q: env.add(exp_coords(q), env.one()))
    assert env.counit(env.exp_coords([F(1), F(0), F(0)])) == 2
    assert not graded_trivialization_check(env, [F(1), F(0), F(0)])
    assert not graded_trivialization_check(env, [F(0), F(0), F(0)])


def test_trivialization_certificate_refuses_a_too_small_j_power():
    # J^2 without its x^2 row: (g - 1) x holds q_0 x^2, which leaves it
    env = TruncatedEnvelope(heisenberg(), order=3)
    powers = list(env.j_echelons)
    x2 = env.index[(2, 0, 0)]
    rows = [row for row in powers[2].rows if row[x2] == 0]
    assert len(rows) == len(powers[2].rows) - 1
    powers[2] = exactla.Echelon(rows)
    assert all(env.j_echelons[2].contains(v) for v in powers[2].rows)
    env.j_echelons = tuple(powers)
    assert not graded_trivialization_check(env, [F(1), F(0), F(0)])
    # the same q passes on an envelope with the true J^2
    assert graded_trivialization_check(TruncatedEnvelope(heisenberg(), 3),
                                       [F(1), F(0), F(0)])


def test_exp_needs_counit_zero():
    env = TruncatedEnvelope(heisenberg(), order=3)
    with pytest.raises(ValueError, match="augmentation-zero"):
        env.exp(env.add(env.one(), env.gen(0)))


def test_log_needs_counit_one():
    env = TruncatedEnvelope(heisenberg(), order=3)
    with pytest.raises(ValueError, match="counit-one"):
        env.log(env.gen(0))


def test_log_coords_refuses_a_non_primitive_logarithm():
    env = TruncatedEnvelope(heisenberg(), order=3)
    u = env.add(env.one(), env.mul(env.gen(0), env.gen(1)))
    with pytest.raises(RuntimeError, match="not primitive"):
        env.log_coords(u)


def test_hopf_checks_hold_under_optimization():
    # python -O strips assert statements; these checks are not asserts
    code = ("from cohw.hopf import TruncatedEnvelope\n"
            "from cohw.nilpotent import heisenberg\n"
            "env = TruncatedEnvelope(heisenberg(), order=3)\n"
            "u = env.add(env.one(), env.mul(env.gen(0), env.gen(1)))\n"
            "for f, a, e in ((env.exp, env.one(), ValueError),\n"
            "                (env.log, env.gen(0), ValueError),\n"
            "                (env.log_coords, u, RuntimeError)):\n"
            "    try:\n"
            "        f(a)\n"
            "    except e:\n"
            "        print('refused')\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "refused\n" * 3, proc.stderr


@pytest.mark.parametrize("L, order", REFERENCE_ALGEBRAS)
def test_compiled_table_matches_normal_order(L, order):
    env = TruncatedEnvelope(L, order=order)
    ref = _WordReference(env)
    for m1 in env.monomials:
        for m2 in env.monomials:
            want = ref.normal_order(ref._monomial_word(m1)
                                    + ref._monomial_word(m2))
            got = env.mul({m1: F(1)}, {m2: F(1)})
            assert got == want
            assert all(type(c) is F for c in got.values())
            if env.wdeg(m1) + env.wdeg(m2) > order:
                assert got == {}


@pytest.mark.parametrize("L, order", REFERENCE_ALGEBRAS)
def test_right_multiplications_match_normal_order(L, order):
    # compiled from the bracket, not from words: den times m x_i in integers
    env = TruncatedEnvelope(L, order=order)
    ref = _WordReference(env)
    den, ops = env._right_multiplications
    assert type(den) is int and den >= 1
    for k, m in enumerate(env.monomials):
        for i in range(L.dim):
            want = ref.normal_order(ref._monomial_word(m) + (i,))
            assert all(type(c) is int and c for _, c in ops[i][k])
            assert {env.monomials[j]: F(c, den)
                    for j, c in ops[i][k]} == want


def test_compiled_product_is_associative_on_basis_triples():
    env = TruncatedEnvelope(_class_three(), order=4)
    basis = [{m: F(1)} for m in env.monomials]
    for a in basis:
        for b in basis:
            ab = env.mul(a, b)
            for c in basis:
                assert env.mul(ab, c) == env.mul(a, env.mul(b, c))


def _reference_coproduct(env, a):
    # Delta(x_i) = x_i (x) 1 + 1 (x) x_i, extended multiplicatively on
    # words through the word reference alone
    ref = _WordReference(env)
    one = env.unit_monomial()
    out = {}
    for m, c in a.items():
        acc = {(one, one): F(1)}
        for i in ref._monomial_word(m):
            e = ref._word_to_monomial((i,))
            nxt = {}
            for (l1, r1), c1 in acc.items():
                for l2, r2 in ((e, one), (one, e)):
                    left = ref.normal_order(ref._monomial_word(l1)
                                            + ref._monomial_word(l2))
                    right = ref.normal_order(ref._monomial_word(r1)
                                             + ref._monomial_word(r2))
                    for lm, lc in left.items():
                        for rm, rc in right.items():
                            if env.wdeg(lm) + env.wdeg(rm) <= env.order:
                                k = (lm, rm)
                                nxt[k] = nxt.get(k, 0) + c1 * lc * rc
            acc = nxt
        for k, x in acc.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def test_coproduct_of_a_grouplike_is_unchanged():
    for L, order, q in ((heisenberg(), 3, [F(1), F(-2), F(1, 3)]),
                        (_class_three(), 4, [F(1), F(1, 2), F(-1), F(2)])):
        env = TruncatedEnvelope(L, order=order)
        g = env.exp_coords(q)
        delta = env.coproduct(g)
        assert delta == _reference_coproduct(env, g)
        assert all(type(c) is F for c in delta.values())
        # and it is g (x) g, truncated
        want = {}
        for m1, c1 in g.items():
            for m2, c2 in g.items():
                if env.wdeg(m1) + env.wdeg(m2) <= order:
                    want[(m1, m2)] = c1 * c2
        assert delta == want


@pytest.mark.parametrize("L, order", REFERENCE_ALGEBRAS)
def test_coproduct_of_random_elements_matches_the_words(L, order):
    env = TruncatedEnvelope(L, order=order)
    rng = random.Random(order * 10 + L.dim)
    for _ in range(15):
        a = {m: F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
             for m in rng.sample(env.monomials, rng.randint(1, 5))}
        assert not env.is_grouplike(a) or a == env.one()
        delta = env.coproduct(a)
        assert delta == _reference_coproduct(env, a)
        assert all(type(c) is F for c in delta.values())


def _j_powers(env):
    """The J-powers of the envelope as lists of ``Fraction`` rows."""
    return [[list(row) for row in e.rows] for e in env.j_echelons]


def _ideal_powers(env):
    # J^m as J^{m-1} J with J spanned by every monomial of positive degree,
    # multiplied by the word reference
    vec = env.to_vector
    mul = _WordReference(env).mul
    j1 = [{m: F(1)} for m in env.monomials if sum(m) >= 1]
    powers = [exactla.span_echelon([vec({m: F(1)}) for m in env.monomials]),
              exactla.span_echelon([vec(a) for a in j1])]
    for _ in range(2, env.order + 1):
        current = [env.from_vector(v) for v in powers[-1]]
        powers.append(exactla.span_echelon(
            [vec(mul(a, b)) for a in current for b in j1]))
    return powers + [[]]


def _reference_symmetrization_report(env):
    # symmetrize by averaging every normal-ordered ordering of the word,
    # and compare with the J-powers of the word reference in Fractions
    ref = _WordReference(env)
    powers = _ideal_powers(env)

    def sym(e):
        words = list(itertools.permutations(ref._monomial_word(e)))
        acc = {}
        for w in words:
            acc = env.add(acc, ref.normal_order(w))
        return env.to_vector(env.scale(F(1, len(words)), acc))
    report = {"ok": True, "levels": []}
    for m in range(env.order + 1):
        vectors = [sym(e) for e in env.monomials if env.wdeg(e) >= m]
        contained = all(exactla.in_span(powers[m], v) for v in vectors)
        sym_dim = len(exactla.span_echelon(vectors))
        report["levels"].append({"level": m, "sym_dim": sym_dim,
                                 "j_dim": len(powers[m]),
                                 "contained": contained})
        if not contained or sym_dim != len(powers[m]):
            report["ok"] = False
            report["first_violation"] = m
            break
    return report


@pytest.mark.parametrize("L, order", REFERENCE_ALGEBRAS)
def test_symmetrization_report_matches_the_word_reference(L, order):
    env = TruncatedEnvelope(L, order=order)
    assert symmetrization_check(env) == _reference_symmetrization_report(env)


def _walk_symmetrized_row(env, exponents):
    # the former symmetrization, kept as a reference: (scale, row), the
    # sum over the distinct orderings of the word multiplied out letter by
    # letter with the compiled right multiplications, and scale the power
    # of their denominator times the number of orderings
    den, ops = env._right_multiplications
    counts = list(exponents)
    degree = sum(counts)
    row = [0] * len(env.monomials)

    def walk(v, left):
        if not left:
            for k, x in enumerate(v):
                row[k] += x
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                walk(hopf._apply(v, ops[i]), left - 1)
                counts[i] += 1
    start = [0] * len(env.monomials)
    start[env.index[env.unit_monomial()]] = 1
    walk(start, degree)
    orderings = math.factorial(degree)
    for e in exponents:
        orderings //= math.factorial(e)
    return den ** degree * orderings, row


def _former_symmetrization_check(env):
    # the former check, kept as a reference: every level tests all rows of
    # weighted degree >= m against J^m and echelons them afresh
    powers = env.j_echelons
    sym = {w: [_walk_symmetrized_row(env, mono)[1] for mono in monos]
           for w, monos in weighted_filtration_levels(env).items()}
    report = {"ok": True, "levels": []}
    for m in range(env.order + 1):
        vectors = [v for w, vecs in sym.items() if w >= m for v in vecs]
        jm = powers[m]
        contained = all(jm.contains(v) for v in vectors)
        sym_dim = len(exactla.Echelon(vectors).pivots)
        entry = {"level": m, "sym_dim": sym_dim, "j_dim": len(jm.pivots),
                 "contained": contained}
        report["levels"].append(entry)
        if not contained or sym_dim != len(jm.pivots):
            report["ok"] = False
            report["first_violation"] = m
            return report
    return report


# the reference algebras and abelian(3) at order 3: together they hold the
# three envelopes of cli.suite_hopf and one with a denominator
SYMMETRIZED_ALGEBRAS = REFERENCE_ALGEBRAS + [(abelian_lie_algebra(3), 3)]


@pytest.mark.parametrize("L, order", SYMMETRIZED_ALGEBRAS)
def test_symmetrized_rows_match_the_walk_over_orderings(L, order):
    env = TruncatedEnvelope(L, order=order)
    rows = hopf._symmetrized_rows(env)
    assert len(rows) == len(env.monomials)
    for e, row in zip(env.monomials, rows):
        scale, want = _walk_symmetrized_row(env, e)
        assert row == want and all(type(x) is int for x in row)
        got = symmetrize(env, e)
        assert got == {m: F(x, scale)
                       for m, x in zip(env.monomials, want) if x}
        assert all(type(c) is F for c in got.values())
    # past the truncation every ordering vanishes, as in the walk
    past = (order + 1,) + (0,) * (L.dim - 1)
    assert _walk_symmetrized_row(env, past)[1] == [0] * len(env.monomials)
    assert symmetrize(env, past) == {}


def _with_smaller_j_power(L, order, m):
    # the envelope with J^m replaced by the span of J^{m+1} and all but one
    # of J^m's graded basis rows: smaller than J^m, and the J-powers still
    # decrease
    env = TruncatedEnvelope(L, order=order)
    powers = list(env.j_echelons)
    smaller = exactla.Echelon(list(powers[m + 1].int_rows)
                              + list(env._graded_j_basis[m][:-1]))
    assert len(smaller) == len(powers[m]) - 1
    powers[m] = smaller
    env.j_echelons = tuple(powers)
    return env


@pytest.mark.parametrize("L, order", SYMMETRIZED_ALGEBRAS)
def test_symmetrization_report_matches_the_former_check(L, order):
    env = TruncatedEnvelope(L, order=order)
    report = symmetrization_check(env)
    assert report["ok"] and report == _former_symmetrization_check(env)
    # a too small J^m fails first at level m, where some row of weighted
    # degree m leaves it, in both checks
    for m in range(order + 1):
        env = _with_smaller_j_power(L, order, m)
        report = symmetrization_check(env)
        assert report == _former_symmetrization_check(env)
        assert report["first_violation"] == m
        assert report["levels"][m]["contained"] is False


def _sheared(L, order):
    # the envelope with every J-power moved by v -> v + v_z 1, z the first
    # generator of weight 2: the J-powers still decrease and keep their
    # dimensions, and the generators of weight 1 stay in J^1, but the row
    # of z, of weighted degree 2, now lies in J^0 alone
    env = TruncatedEnvelope(L, order=order)
    one = env.index[env.unit_monomial()]
    z = env.index[next(iter(env.gen(env.weights.index(2))))]
    moved = []
    for power in env.j_echelons:
        rows = [list(row) for row in power.int_rows]
        for row in rows:
            row[one] += row[z]
        moved.append(exactla.Echelon(rows))
    env.j_echelons = tuple(moved)
    return env


@pytest.mark.parametrize("L, order", [
    (L, order) for L, order in SYMMETRIZED_ALGEBRAS if L.nilpotency_class > 1])
def test_a_row_of_higher_degree_outside_j_m_fails_level_m(L, order):
    # level 1 holds the rows of weighted degree 1 and has its dimension;
    # it fails only because a row of degree 2 leaves it
    env = _sheared(L, order)
    report = symmetrization_check(env)
    assert report == _former_symmetrization_check(env)
    assert report["first_violation"] == 1
    assert report["levels"][1]["sym_dim"] == report["levels"][1]["j_dim"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefix_ranks_are_the_ranks_of_each_prefix(data):
    n = data.draw(st.integers(1, 6))
    entries = st.integers(-3, 3)
    rows = []
    for _ in range(data.draw(st.integers(0, 9))):
        if rows and data.draw(st.booleans()):
            # a combination of earlier rows: the set has dependent rows
            i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in "ij")
            a, b = data.draw(entries), data.draw(entries)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append(data.draw(st.lists(entries, min_size=n, max_size=n)))
    assert hopf._prefix_ranks(rows) == [len(exactla.Echelon(rows[:k]))
                                        for k in range(len(rows) + 1)]


def test_suite_hopf_reuses_its_envelopes_and_runs_every_check(monkeypatch):
    calls = collections.Counter()
    for name in ("symmetrization_check", "graded_trivialization_check"):
        def counted(*args, _name=name, _check=getattr(cli, name)):
            calls[_name] += 1
            return _check(*args)
        monkeypatch.setattr(cli, name, counted)
    # the first call builds the envelopes, the later ones reuse them
    cli._hopf_envelopes.cache_clear()
    for n in (1, 3, 2):
        calls.clear()
        assert cli.suite_hopf(random.Random(n), n)["failures"] == []
        assert calls == {"symmetrization_check": 3,
                         "graded_trivialization_check": 10 * n}
    # and no call changed them
    shared = cli._hopf_envelopes()
    assert shared is cli._hopf_envelopes()
    fresh = [TruncatedEnvelope(abelian_lie_algebra(3), 2),
             TruncatedEnvelope(heisenberg(), 3),
             TruncatedEnvelope(_class_three(), 4)]
    for env, new in zip(shared, fresh, strict=True):
        assert env.j_echelons == new.j_echelons
        assert env._right_multiplications == new._right_multiplications
        assert env._graded_j_basis == new._graded_j_basis


@pytest.mark.parametrize("L, order, dims", [
    (heisenberg(), 2, [7, 6, 4, 0]),
    (abelian_lie_algebra(2), 2, [6, 5, 3, 0]),
    (heisenberg(), 3, [13, 12, 10, 6, 0]),
    (_class_three(), 4, [25, 24, 22, 18, 11, 0]),
    (_half_heisenberg(), 3, [13, 12, 10, 6, 0]),
    (abelian_lie_algebra(3), 2, [10, 9, 6, 0]),
])
def test_j_powers_are_ideal_powers(L, order, dims):
    env = TruncatedEnvelope(L, order=order)
    assert [len(p) for p in _j_powers(env)] == dims
    assert _j_powers(env) == _ideal_powers(env)


def test_right_multiplications_are_compiled_once(monkeypatch):
    compiled = []
    kept = TruncatedEnvelope.__dict__["_right_multiplications"]
    compile_ops = kept.func
    monkeypatch.setattr(kept, "func",
                        lambda env: compiled.append(env) or compile_ops(env))
    env = TruncatedEnvelope(_class_three(), order=4)
    assert env.j_echelons and env._graded_j_basis
    assert symmetrize(env, (1, 1, 0, 0)) and symmetrization_check(env)["ok"]
    assert compiled == [env]


def test_checks_on_a_non_integral_structure_constant():
    env = TruncatedEnvelope(_half_heisenberg(), order=3)
    # the compiled right multiplications take the common denominator 2
    assert env._right_multiplications[0] == 2
    assert symmetrize(env, (1, 1, 0)) == {(1, 1, 0): F(1), (0, 0, 1): F(-1, 4)}
    assert symmetrization_check(env)["ok"]
    q = [F(1), F(-2), F(1, 3)]
    assert graded_trivialization_check(env, q)
    # left multiplication by g - 1 is one positive multiple of env.mul on
    # a row that mixes monomials of every degree
    g_minus_one = env.sub(env.exp_coords(q), env.one())
    b = list(range(1, len(env.monomials) + 1))
    got = hopf._apply(b, env._left_multiplication(g_minus_one))
    want = env.to_vector(env.mul(g_minus_one, env.from_vector(b)))
    scale = next(F(x) / y for x, y in zip(got, want) if y)
    assert scale > 0 and [F(x) for x in got] == [scale * y for y in want]
    # and refuses, as on the Heisenberg algebra, without the x^2 row of J^2
    powers = list(env.j_echelons)
    x2 = env.index[(2, 0, 0)]
    powers[2] = exactla.Echelon([row for row in powers[2].rows
                                 if row[x2] == 0])
    env.j_echelons = tuple(powers)
    assert not graded_trivialization_check(env, q)


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=25, deadline=None)
@given(st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3))
def test_exp_bch_compatibility(a, b):
    H = heisenberg()
    env = TruncatedEnvelope(H, order=3)
    lhs = env.mul(env.exp_coords(a), env.exp_coords(b))
    assert env.eq(lhs, env.exp_coords(H.bch(a, b)))


@settings(max_examples=25, deadline=None)
@given(st.lists(small, min_size=3, max_size=3))
def test_exp_grouplike_log_primitive(q):
    env = TruncatedEnvelope(heisenberg(), order=3)
    g = env.exp_coords(q)
    assert env.is_grouplike(g)
    assert env.log_coords(g) == [F(c) for c in q]


def test_j_echelons_are_one_immutable_tuple():
    env = TruncatedEnvelope(heisenberg(), order=3)
    powers = env.j_echelons
    assert type(powers) is tuple
    assert all(type(p.int_rows) is tuple and type(p.rows) is tuple
               and all(type(row) is tuple for row in p.rows)
               for p in powers)
    assert symmetrization_check(env)["ok"]
    assert graded_trivialization_check(env, [F(1), F(-1), F(2)])
    assert env.j_echelons is powers
    assert _j_powers(env) == _j_powers(TruncatedEnvelope(heisenberg(), 3))
