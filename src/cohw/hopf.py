"""Truncated universal enveloping algebras of nilpotent Lie algebras.

The enveloping algebra U(L) is modelled through words in the basis of L,
normal ordered into Poincare-Birkhoff-Witt monomials; everything is cut off
at word degree N, i.e. we compute in U(L)/(span of words longer than N),
which surjects onto U(L)/J^{N+1} for the augmentation ideal J.  The
J-power filtration itself is computed honestly as iterated ideal-power
spans inside the monomial coordinate space.
"""

from fractions import Fraction
from itertools import permutations
import math

from .exactla import (
    Echelon, span_echelon, vec_is_zero, zero_vec,
)

DEFAULT_ORDER = 3
# largest PBW monomial basis a TruncatedEnvelope may have
MAX_BASIS = 5000


def _monomials(weights, order, cap):
    """All exponent tuples with total weighted degree <= order, sorted by
    (weighted degree, lexicographic).  Raises ValueError on finding more
    than ``cap`` of them, before enumerating the rest."""
    dim = len(weights)
    found = []
    def rec(prefix, budget, slot):
        if slot == dim:
            if len(found) == cap:
                raise ValueError("monomial basis of weighted degree <= %d "
                                 "exceeds cap %d" % (order, cap))
            found.append(tuple(prefix))
            return
        e = 0
        while e * weights[slot] <= budget:
            rec(prefix + [e], budget - e * weights[slot], slot + 1)
            e += 1
    rec([], order, 0)
    found.sort(key=lambda m: (sum(e * w for e, w in zip(m, weights)), m))
    return found


class TruncatedEnvelope:
    """U(L) truncated at word degree ``order`` with the PBW monomial basis."""

    def __init__(self, L, order=DEFAULT_ORDER):
        self.L = L
        self.order = order
        # a basis vector at lower-central-series depth d carries weight d+1;
        # the span of monomials of weighted degree > order is then a genuine
        # two-sided ideal (brackets only increase weight), so the truncation
        # is an honest algebra quotient.  That needs every basis vector to
        # have a depth: the basis must be adapted to the series.
        if L.adapted_coordinates()[0] is not None:
            raise ValueError("the standard basis of %s is not adapted to "
                             "its lower central series" % L.name)
        self.weights = [d + 1 for d in L.depth_of_coordinate()]
        self.monomials = _monomials(self.weights, order, MAX_BASIS)
        self.index = {m: k for k, m in enumerate(self.monomials)}
        self._no_cache = {}
        self._j_echelons = None

    def wdeg(self, m):
        return sum(e * w for e, w in zip(m, self.weights))

    def _word_wdeg(self, word):
        return sum(self.weights[i] for i in word)

    # -- elements are dicts {exponent tuple: Fraction}, zero entries dropped

    def unit_monomial(self):
        return (0,) * self.L.dim

    def zero(self):
        return {}

    def one(self):
        return {self.unit_monomial(): Fraction(1)}

    def gen(self, i):
        e = [0] * self.L.dim
        e[i] = 1
        return {tuple(e): Fraction(1)}

    def from_lie(self, x):
        out = {}
        for i, c in enumerate(x):
            if c:
                e = [0] * self.L.dim
                e[i] = 1
                out[tuple(e)] = c
        return out

    def add(self, a, b):
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, Fraction(0)) + c
            if not out[m]:
                del out[m]
        return out

    def scale(self, c, a):
        if not c:
            return {}
        return {m: c * x for m, x in a.items()}

    def sub(self, a, b):
        return self.add(a, self.scale(Fraction(-1), b))

    def eq(self, a, b):
        return not self.sub(a, b)

    def counit(self, a):
        return a.get(self.unit_monomial(), Fraction(0))

    # -- normal ordering ----------------------------------------------------

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
            br = self.L.bracket_basis(a, b)
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
            w1 = self._monomial_word(m1)
            for m2, c2 in b.items():
                if self.wdeg(m1) + self.wdeg(m2) > self.order:
                    continue
                prod = self.normal_order(w1 + self._monomial_word(m2))
                out = self.add(out, self.scale(c1 * c2, prod))
        return out

    def power(self, a, k):
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    # -- coproduct and Hopf structure ---------------------------------------

    def tensor_mul(self, A, B):
        """(a (x) b)(c (x) d) = ac (x) bd on tensor dicts
        {(mono, mono): coeff}, truncated at combined degree."""
        out = {}
        for (l1, r1), c1 in A.items():
            for (l2, r2), c2 in B.items():
                if (self.wdeg(l1) + self.wdeg(l2)
                        + self.wdeg(r1) + self.wdeg(r2)) > self.order:
                    continue
                left = self.normal_order(
                    self._monomial_word(l1) + self._monomial_word(l2))
                right = self.normal_order(
                    self._monomial_word(r1) + self._monomial_word(r2))
                for lm, lc in left.items():
                    for rm, rc in right.items():
                        if self.wdeg(lm) + self.wdeg(rm) > self.order:
                            continue
                        key = (lm, rm)
                        out[key] = out.get(key, Fraction(0)) + c1 * c2 * lc * rc
                        if not out[key]:
                            del out[key]
        return out

    def tensor_add(self, A, B):
        out = dict(A)
        for k, c in B.items():
            out[k] = out.get(k, Fraction(0)) + c
            if not out[k]:
                del out[k]
        return out

    def tensor_scale(self, c, A):
        if not c:
            return {}
        return {k: c * x for k, x in A.items()}

    def coproduct(self, a):
        """Multiplicative extension of Delta(x) = x (x) 1 + 1 (x) x on
        generators, truncated at combined degree <= order."""
        one = self.unit_monomial()
        out = {}
        for m, c in a.items():
            word = self._monomial_word(m)
            acc = {(one, one): Fraction(1)}
            for i in word:
                e = self._word_to_monomial((i,))
                prim = {(e, one): Fraction(1), (one, e): Fraction(1)}
                acc = self.tensor_mul(acc, prim)
            out = self.tensor_add(out, self.tensor_scale(c, acc))
        return out

    def is_primitive(self, a):
        one = self.unit_monomial()
        want = {}
        for m, c in a.items():
            if sum(m) == 0:
                return False if c else True
            want[(m, one)] = c
            want[(one, m)] = c
        return self.coproduct(a) == want

    def is_grouplike(self, a):
        if self.counit(a) != 1:
            return False
        want = {}
        for m1, c1 in a.items():
            for m2, c2 in a.items():
                if self.wdeg(m1) + self.wdeg(m2) > self.order:
                    continue
                key = (m1, m2)
                want[key] = want.get(key, Fraction(0)) + c1 * c2
                if not want[key]:
                    del want[key]
        return self.coproduct(a) == want

    # -- exponentials -------------------------------------------------------

    def exp(self, a):
        assert self.counit(a) == 0, "exp needs augmentation-zero input"
        out = self.one()
        term = self.one()
        for k in range(1, self.order + 1):
            term = self.mul(term, a)
            out = self.add(out, self.scale(Fraction(1, math.factorial(k)), term))
        return out

    def log(self, u):
        assert self.counit(u) == 1, "log needs counit-one input"
        a = self.sub(u, self.one())
        out = self.zero()
        term = self.one()
        for k in range(1, self.order + 1):
            term = self.mul(term, a)
            out = self.add(out, self.scale(Fraction((-1) ** (k + 1), k), term))
        return out

    def exp_coords(self, q):
        """Grouplike element exp(sum q_i x_i) from Lie coordinates."""
        return self.exp(self.from_lie(q))

    def log_coords(self, u):
        """Lie coordinates of log(u); asserts log(u) is primitive."""
        a = self.log(u)
        assert self.is_primitive(a), "logarithm is not primitive"
        x = self.L.zero()
        for m, c in a.items():
            i = [k for k, e in enumerate(m) if e][0]
            x[i] = c
        return x

    # -- coordinates and J-filtration ---------------------------------------

    def to_vector(self, a):
        v = zero_vec(len(self.monomials))
        for m, c in a.items():
            v[self.index[m]] = Fraction(c)
        return v

    def from_vector(self, v):
        return {self.monomials[k]: c for k, c in enumerate(v) if c}

    def j_powers(self):
        """[U, J, J^2, ..., J^order, 0] as echelon bases of coordinate
        vectors; honest iterated ideal powers.  Returns a fresh copy."""
        return [[list(row) for row in e.rows] for e in self.j_echelons()]

    def j_echelons(self):
        """The J-powers of :meth:`j_powers` as immutable
        :class:`~cohw.exactla.Echelon` objects, computed once per envelope."""
        if self._j_echelons is not None:
            return self._j_echelons
        full = Echelon([self.to_vector({m: Fraction(1)})
                        for m in self.monomials])
        j1_elems = [{m: Fraction(1)} for m in self.monomials if sum(m) >= 1]
        powers = [full]
        current = j1_elems
        powers.append(Echelon([self.to_vector(a) for a in current]))
        for _ in range(2, self.order + 1):
            nxt = []
            for a in current:
                for b in j1_elems:
                    p = self.mul(a, b)
                    if p:
                        nxt.append(p)
            basis = Echelon([self.to_vector(p) for p in nxt])
            powers.append(basis)
            current = [self.from_vector(v) for v in basis.rows]
        powers.append(Echelon([]))  # J^{order+1} = 0 in the truncated model
        self._j_echelons = tuple(powers)
        return self._j_echelons

    def j_filtration_dual_dims(self):
        """dim of the level-m quotient U/J^{m+1}, for m = 0..order."""
        powers = self.j_echelons()
        total = len(powers[0].rows)
        return [total - len(powers[m + 1].rows)
                for m in range(self.order + 1)]


# ---------------------------------------------------------------------------
# symmetrization and the weighted polynomial filtration

def symmetrize(env, exponents):
    """PBW symmetrization of the commutative monomial with the given
    exponent tuple: average of all normal-ordered word permutations."""
    word = env._monomial_word(tuple(exponents))
    seen = set(permutations(word))
    out = env.zero()
    for w in seen:
        out = env.add(out, env.normal_order(w))
    # averaging over distinct permutations equals averaging over all k!
    # orderings because duplicate letters give identical words
    return env.scale(Fraction(1, len(seen)), out)


def weighted_filtration_levels(env):
    """Commutative monomials grouped by total weight, where the weight of
    variable i is ``env.weights[i]``, 1 + its lower-central-series depth."""
    levels = {}
    for m in env.monomials:
        levels.setdefault(env.wdeg(m), []).append(m)
    return levels


def symmetrization_check(env):
    """Check that symmetrization carries the weighted polynomial filtration
    onto the J-filtration level by level (equal dimensions, containment).
    Returns a report dict; on failure names the first violating level."""
    powers = env.j_echelons()
    levels = weighted_filtration_levels(env)
    max_level = env.order
    report = {"ok": True, "levels": []}
    for m in range(max_level + 1):
        sym_vecs = []
        for w, monos in levels.items():
            if w >= m:
                for mono in monos:
                    if sum(mono) == 0 and m > 0:
                        continue
                    sym_vecs.append(env.to_vector(symmetrize(env, mono)))
        image = span_echelon(sym_vecs)
        jm = powers[m]
        contained = all(jm.contains(v) for v in image)
        entry = {"level": m, "sym_dim": len(image), "j_dim": len(jm.rows),
                 "contained": contained}
        report["levels"].append(entry)
        if not contained or len(image) != len(jm.rows):
            report["ok"] = False
            report["first_violation"] = m
            return report
    return report


def graded_trivialization_check(env, q, samples):
    """Left multiplication by the grouplike exp(q) acts as the identity on
    every J-graded piece.  Verified on the given sample elements; returns
    True only if each sample's class in gr^J_m is preserved for all m."""
    g = env.exp_coords(q)
    powers = env.j_echelons()
    for a in samples:
        ga = env.mul(g, a)
        diff = env.to_vector(env.sub(ga, a))
        # the difference must drop one level: if a has leading J-degree m,
        # g*a - a must lie in J^{m+1}
        va = env.to_vector(a)
        lead = None
        for m in range(len(powers) - 1, -1, -1):
            if powers[m].rows and powers[m].contains(va):
                lead = m
                break
        if lead is None:
            lead = 0
        # powers[-1] is J^{order+1} = 0, so lead + 1 is always in range
        target = powers[lead + 1]
        if vec_is_zero(diff):
            continue
        if not target.contains(diff):
            return False
    return True
