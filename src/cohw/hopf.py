"""Truncated universal enveloping algebras of nilpotent Lie algebras.

The enveloping algebra U(L) is modelled through words in the basis of L,
normal ordered into Poincare-Birkhoff-Witt monomials; everything is cut off
at word degree N, i.e. we compute in U(L)/(span of words longer than N),
which surjects onto U(L)/J^{N+1} for the augmentation ideal J.  The
J-power filtration itself is computed honestly as iterated ideal-power
spans inside the monomial coordinate space.

Each envelope compiles its product once, on demand: the normal-ordered
product of two basis monomials is kept as a tuple of (monomial,
coefficient) terms, and every product of elements reads those terms.
From them it compiles right multiplication by each generator as an
integer operator on monomial indices, over one common denominator when a
structure constant is not integral.  The J-filtration, symmetrization and
the filtration checks run on integer coordinate rows with these
operators: a scaled vector spans the same line.
"""

from fractions import Fraction
import math

from .exactla import Echelon, zero_vec

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


def _apply(v, op):
    """sum_k v[k] op[k] for an integer coordinate vector v and an operator
    given by its integer (index, coefficient) terms on each monomial."""
    out = [0] * len(v)
    for k, x in enumerate(v):
        if x:
            for j, c in op[k]:
                out[j] += x * c
    return out


def _integral(a):
    """(den, terms): a common denominator of the coefficients of the
    element a, and a's terms as (monomial, integer numerator over den)."""
    den = 1
    for c in a.values():
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    return den, [(m, c.numerator * (den // c.denominator))
                 for m, c in a.items()]


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
        self._wdeg = {m: sum(e * w for e, w in zip(m, self.weights))
                      for m in self.monomials}
        self._no_cache = {}
        # (m1, m2) -> the terms of the product of two basis monomials
        self._table = {}
        self._right = None
        self._j_echelons = None
        self._graded_basis = None

    def wdeg(self, m):
        """Weighted degree of a basis monomial."""
        return self._wdeg[m]

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

    def _product(self, m1, m2):
        """The product of two basis monomials, compiled on first use: a
        tuple of (monomial, coefficient) terms, each coefficient an ``int``
        where it is integral; empty past the truncation."""
        terms = self._table.get((m1, m2))
        if terms is None:
            prod = self.normal_order(self._monomial_word(m1)
                                     + self._monomial_word(m2))
            terms = tuple((m, c.numerator if c.denominator == 1 else c)
                          for m, c in prod.items())
            self._table[(m1, m2)] = terms
        return terms

    def mul(self, a, b):
        """The product ab from the compiled monomial products, summed in
        integers over the common denominator of a and b."""
        den_a, terms_a = _integral(a)
        den_b, terms_b = _integral(b)
        table = self._table
        acc = {}
        for m1, c1 in terms_a:
            for m2, c2 in terms_b:
                terms = table.get((m1, m2))
                if terms is None:
                    terms = self._product(m1, m2)
                c = c1 * c2
                for m, t in terms:
                    acc[m] = acc.get(m, 0) + c * t
        den = den_a * den_b
        return {m: Fraction(c, den) for m, c in acc.items() if c}

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
                left = self._product(l1, l2)
                right = self._product(r1, r2)
                for lm, lc in left:
                    for rm, rc in right:
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
        if self.counit(a) != 0:
            raise ValueError("exp needs augmentation-zero input")
        out = self.one()
        term = self.one()
        for k in range(1, self.order + 1):
            term = self.mul(term, a)
            out = self.add(out, self.scale(Fraction(1, math.factorial(k)), term))
        return out

    def log(self, u):
        if self.counit(u) != 1:
            raise ValueError("log needs counit-one input")
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
        """Lie coordinates of log(u); raises RuntimeError unless log(u) is
        primitive."""
        a = self.log(u)
        if not self.is_primitive(a):
            raise RuntimeError("logarithm is not primitive")
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
        :class:`~cohw.exactla.Echelon` objects, computed once per envelope.

        J^m is spanned by the products J^{m-1} x_i over the basis x_i of
        L.  That span is the ideal power J^{m-1} J: every PBW monomial of
        positive degree ends in a generator, so J = U L; and J^{m-1} U =
        J^{m-1}, as J^{m-1} is an ideal and U holds 1.  Hence J^{m-1} J =
        J^{m-1} U L = J^{m-1} L.  The truncation is a two-sided ideal, so
        the same holds in the truncated model.  The products are taken on
        the integer rows of J^{m-1} with the compiled right
        multiplications; both scale each product, which changes no
        span."""
        if self._j_echelons is not None:
            return self._j_echelons
        n = len(self.monomials)

        def unit(k):
            row = [0] * n
            row[k] = 1
            return row
        powers = [Echelon([unit(k) for k in range(n)]),
                  Echelon([unit(k) for k, m in enumerate(self.monomials)
                           if sum(m) >= 1])]
        _, ops = self._right_multiplications()
        for _ in range(2, self.order + 1):
            powers.append(Echelon([_apply(row, op)
                                   for row in powers[-1].int_rows
                                   for op in ops]))
        powers.append(Echelon([]))  # J^{order+1} = 0 in the truncated model
        self._j_echelons = tuple(powers)
        return self._j_echelons

    def _right_multiplications(self):
        """(den, ops), compiled once per envelope from the monomial
        products: ops[i][k] holds the terms (index, integer coefficient)
        of den times the product of monomial k with the generator x_i.
        ``den`` is the least common denominator of those products, 1 when
        every structure constant they meet is integral."""
        if self._right is None:
            gens = [self._word_to_monomial((i,)) for i in range(self.L.dim)]
            products = [[self._product(m, e) for m in self.monomials]
                        for e in gens]
            den = math.lcm(*[c.denominator for row in products
                             for terms in row for _, c in terms])
            index = self.index
            self._right = (den, [
                [tuple((index[m], c.numerator * (den // c.denominator))
                       for m, c in terms) for terms in row]
                for row in products])
        return self._right

    def _left_multiplication(self, a):
        """The operator b -> a b as integer terms on each monomial index,
        all scaled by one positive integer.  The product a m of a with a
        monomial m = m' x_i, x_i the last letter of its PBW word, is
        (a m') x_i, from the compiled right multiplications."""
        den, ops = self._right_multiplications()
        n = len(self.monomials)
        images = [None] * n
        # m' has the lower weighted degree, so its image comes first
        for k, m in enumerate(self.monomials):
            if any(m):
                i = max(j for j, e in enumerate(m) if e)
                prev = m[:i] + (m[i] - 1,) + m[i + 1:]
                images[k] = _apply(images[self.index[prev]], ops[i])
            else:
                images[k] = [0] * n
                for mono, c in _integral(a)[1]:
                    images[k][self.index[mono]] = c
        if den != 1:
            # a m carries den^(degree of m); bring all to the largest one
            top = max(sum(m) for m in self.monomials)
            images = [[x * den ** (top - sum(m)) for x in v]
                      for v, m in zip(images, self.monomials)]
        return [tuple((j, x) for j, x in enumerate(v) if x) for v in images]

    def _graded_j_basis(self):
        """For each level m = 0..order, the integer rows of J^m whose
        pivots are not pivots of J^{m+1}; computed once per envelope.

        The pivots of a reduced echelon basis are the leading positions of
        the vectors of its span, so those of J^{m+1} are among those of
        J^m.  The rows chosen at level m are independent modulo J^{m+1}:
        a nonzero combination of them has its leading position at one of
        their pivots, which no vector of J^{m+1} has.  There are dim J^m -
        dim J^{m+1} of them, so together with J^{m+1} they span J^m."""
        if self._graded_basis is None:
            powers = self.j_echelons()
            self._graded_basis = tuple(
                tuple(row for row, p in zip(powers[m].int_rows,
                                            powers[m].pivots)
                      if p not in powers[m + 1].pivots)
                for m in range(self.order + 1))
        return self._graded_basis

    def j_filtration_dual_dims(self):
        """dim of the level-m quotient U/J^{m+1}, for m = 0..order."""
        powers = self.j_echelons()
        total = len(powers[0].pivots)
        return [total - len(powers[m + 1].pivots)
                for m in range(self.order + 1)]


# ---------------------------------------------------------------------------
# symmetrization and the weighted polynomial filtration

def symmetrize(env, exponents):
    """PBW symmetrization of the commutative monomial with the given
    exponent tuple: average of all normal-ordered word permutations."""
    scale, row = _symmetrized_row(env, exponents)
    return {env.monomials[k]: Fraction(x, scale)
            for k, x in enumerate(row) if x}


def _symmetrized_row(env, exponents):
    """(scale, row): the integer coordinate vector ``row`` is ``scale``
    times the symmetrization of the monomial.  The sum over the distinct
    orderings of its word is multiplied out with the compiled right
    multiplications, sharing common prefixes; every ordering takes one
    multiplication per letter, so each carries the same power of their
    common denominator.  Averaging over the distinct orderings equals
    averaging over all k! of them, as duplicate letters give identical
    words."""
    den, ops = env._right_multiplications()
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
                walk(_apply(v, ops[i]), left - 1)
                counts[i] += 1
    start = [0] * len(env.monomials)
    start[env.index[env.unit_monomial()]] = 1
    walk(start, degree)
    orderings = math.factorial(degree)
    for e in exponents:
        orderings //= math.factorial(e)
    return den ** degree * orderings, row


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
    Returns a report dict; on failure names the first violating level.

    Decided on integer multiples of the symmetrized monomials, which span
    the same image and lie in J^m together with it."""
    powers = env.j_echelons()
    sym = {w: [_symmetrized_row(env, mono)[1] for mono in monos]
           for w, monos in weighted_filtration_levels(env).items()}
    report = {"ok": True, "levels": []}
    for m in range(env.order + 1):
        vectors = [v for w, vecs in sym.items() if w >= m for v in vecs]
        jm = powers[m]
        contained = all(jm.contains(v) for v in vectors)
        sym_dim = len(Echelon(vectors).pivots)
        entry = {"level": m, "sym_dim": sym_dim, "j_dim": len(jm.pivots),
                 "contained": contained}
        report["levels"].append(entry)
        if not contained or sym_dim != len(jm.pivots):
            report["ok"] = False
            report["first_violation"] = m
            return report
    return report


def graded_trivialization_check(env, q):
    """Left multiplication by the grouplike g = exp(q) acts as the identity
    on every J-graded piece: g a - a lies in J^{m+1} for every a in J^m.

    Decided exactly: g a - a = (g - 1) a is linear in a, and J^m is
    spanned by the levels m, m+1, ..., order of the envelope's graded
    basis of the J-filtration, so it holds for all a exactly when (g - 1)
    b lies in J^{m+1} for every basis element b of each level m.  The
    basis elements are integer rows, and left multiplication by g - 1 an
    integer operator up to one positive scale, which changes no
    membership."""
    g_minus_one = env.sub(env.exp_coords(q), env.one())
    left = env._left_multiplication(g_minus_one)
    powers = env.j_echelons()
    for m, level in enumerate(env._graded_j_basis()):
        for b in level:
            if not powers[m + 1].contains(_apply(b, left)):
                return False
    return True
