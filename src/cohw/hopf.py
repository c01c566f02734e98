"""Truncated universal enveloping algebras of nilpotent Lie algebras.

The enveloping algebra U(L) is modelled in its Poincare-Birkhoff-Witt
basis of ascending monomials in the basis of L, cut off at weighted degree
N: we compute in U(L)/(span of monomials of weighted degree > N), which
surjects onto U(L)/J^{N+1} for the augmentation ideal J.  The J-power
filtration itself is computed honestly as iterated ideal-power spans
inside the monomial coordinate space.

The envelope has one product: right multiplication by each generator,
compiled once per envelope straight from the bracket as an integer
operator on monomial indices, over one common denominator when a
structure constant is not integral.  Every other product walks the
prefixes of a monomial, a m = (a m') x_i with x_i the last letter of m.
The J-filtration, symmetrization and the filtration checks run on integer
coordinate rows with these operators: a scaled vector spans the same
line.  The coproduct is a closed formula on monomials, the binomial
expansion of Delta(x^e).
"""

import bisect
from fractions import Fraction
import functools
import itertools
import math

from .exactla import Echelon, _echelon, zero_vec

DEFAULT_ORDER = 3
# largest PBW monomial basis a TruncatedEnvelope may have
MAX_BASIS = 5000


def _monomials(weights, order):
    """All exponent tuples with total weighted degree <= order, sorted by
    (weighted degree, lexicographic).  Raises ValueError on finding more
    than ``MAX_BASIS`` of them, before enumerating the rest."""
    dim = len(weights)
    found = []
    def rec(prefix, budget, slot):
        if slot == dim:
            if len(found) == MAX_BASIS:
                raise ValueError("monomial basis of weighted degree <= %d "
                                 "exceeds cap %d" % (order, MAX_BASIS))
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
    """U(L) truncated at weighted degree ``order``, with the PBW monomial
    basis."""

    def __init__(self, L, order=DEFAULT_ORDER):
        self.L = L
        self.order = order
        # a basis vector at lower-central-series depth d carries weight d+1;
        # the span of monomials of weighted degree > order is then a genuine
        # two-sided ideal (brackets only increase weight), so the truncation
        # is an honest algebra quotient.  That needs every basis vector to
        # have a depth: the basis must be adapted to the series.
        if L.adapted_coordinates[0] is not None:
            raise ValueError("the standard basis of %s is not adapted to "
                             "its lower central series" % L.name)
        self.weights = [d + 1 for d in L.depth_of_coordinate]
        self.monomials = _monomials(self.weights, order)
        self.index = {m: k for k, m in enumerate(self.monomials)}
        self._wdeg = {m: sum(e * w for e, w in zip(m, self.weights))
                      for m in self.monomials}
        # monomial k = m' x_i, x_i the last letter of its word: (i, index
        # of m'); None for the unit
        self._prefix = []
        for m in self.monomials:
            i = max((j for j, e in enumerate(m) if e), default=None)
            self._prefix.append(i if i is None else (
                i, self.index[m[:i] + (m[i] - 1,) + m[i + 1:]]))

    def wdeg(self, m):
        """Weighted degree of a basis monomial."""
        return self._wdeg[m]

    # -- elements are dicts {exponent tuple: Fraction}, zero entries dropped

    def unit_monomial(self):
        return (0,) * self.L.dim

    def one(self):
        return {self.unit_monomial(): Fraction(1)}

    def gen(self, i):
        e = [0] * self.L.dim
        e[i] = 1
        return {tuple(e): Fraction(1)}

    def from_lie(self, x):
        return {m: c for i, c in enumerate(x) if c for m in self.gen(i)}

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

    # -- products -----------------------------------------------------------

    def _row(self, a):
        """(den, row): the integer coordinate row of den times the element a."""
        den, terms = _integral(a)
        row = [0] * len(self.monomials)
        for m, c in terms:
            row[self.index[m]] = c
        return den, row

    def _element(self, row, den):
        return {self.monomials[k]: Fraction(x, den)
                for k, x in enumerate(row) if x}

    def _walk(self, row, ks):
        """(scale, images): images[t] is scale times row m, for the integer
        row of an element and the monomial m at index ks[t].  row m = (row
        m') x_i, x_i the last letter of m, from the compiled right
        multiplications; each prefix's image is computed once.  row m
        carries den^d, d the length of m's word; all are brought to the
        largest."""
        den, ops = self._right_multiplications
        prefix, images = self._prefix, {}

        def image(k):
            v = images.get(k)
            if v is None:
                if prefix[k] is None:
                    v = row
                else:
                    i, p = prefix[k]
                    v = _apply(image(p), ops[i])
                images[k] = v
            return v
        lengths = [sum(self.monomials[k]) for k in ks]
        top = max(lengths, default=0)
        return den ** top, [[x * den ** (top - d) for x in image(k)]
                            for k, d in zip(ks, lengths)]

    def _multiply(self, row, terms):
        """(scale, out): out is scale times row b, for the integer row of
        an element and the (index, integer coefficient) terms of b."""
        scale, images = self._walk(row, [k for k, _ in terms])
        out = [0] * len(row)
        for (_, c), v in zip(terms, images):
            for j, x in enumerate(v):
                if x:
                    out[j] += c * x
        return scale, out

    def mul(self, a, b):
        """The product ab, by the prefix walk on the integer rows of a and
        b over their common denominators."""
        den_a, row = self._row(a)
        den_b, terms = _integral(b)
        scale, out = self._multiply(
            row, [(self.index[m], c) for m, c in terms])
        return self._element(out, den_a * den_b * scale)

    # -- coproduct and Hopf structure ---------------------------------------

    def coproduct(self, a):
        """Delta(x^e) = sum over f <= e of prod_i C(e_i, f_i) x^f (x)
        x^(e-f).  Delta(x_i) = x_i (x) 1 + 1 (x) x_i, whose two terms
        commute, so each power x_i^(e_i) expands by the binomial theorem,
        and the ascending product of those expansions is a sum of
        ascending PBW monomials.  Both sides of each term have weighted
        degrees summing to that of e, so the truncation at combined
        degree <= order drops nothing."""
        out = {}
        for e, c in a.items():
            for f in itertools.product(*(range(k + 1) for k in e)):
                rest = tuple(k - j for k, j in zip(e, f))
                out[(f, rest)] = c * math.prod(math.comb(k, j)
                                               for k, j in zip(e, f))
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
        return self.coproduct(a) == {
            (m1, m2): c1 * c2 for m1, c1 in a.items() for m2, c2 in a.items()
            if self.wdeg(m1) + self.wdeg(m2) <= self.order}

    # -- exponentials -------------------------------------------------------

    def _series(self, a, coeffs):
        """sum_k coeffs[k] a^k over k = 0..order, with a^k = a^(k-1) a by
        the prefix walk, summed in integers over one common denominator."""
        den_a, row = self._row(a)
        terms = [(k, c) for k, c in enumerate(row) if c]
        power_den, power = self._row(self.one())
        total, total_den = [0] * len(row), 1
        for k, coeff in enumerate(coeffs):
            if k:
                scale, power = self._multiply(power, terms)
                power_den *= den_a * scale
            c = Fraction(coeff) / power_den
            den = math.lcm(total_den, c.denominator)
            s, t = den // total_den, c.numerator * (den // c.denominator)
            total = [x * s + y * t for x, y in zip(total, power)]
            total_den = den
        return self._element(total, total_den)

    def exp(self, a):
        if self.counit(a) != 0:
            raise ValueError("exp needs augmentation-zero input")
        return self._series(a, [Fraction(1, math.factorial(k))
                                for k in range(self.order + 1)])

    def log(self, u):
        if self.counit(u) != 1:
            raise ValueError("log needs counit-one input")
        return self._series(self.sub(u, self.one()), [0] + [
            Fraction((-1) ** (k + 1), k) for k in range(1, self.order + 1)])

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

    @functools.cached_property
    def j_echelons(self):
        """[U, J, J^2, ..., J^order, 0], honest iterated ideal powers, as
        :class:`~cohw.exactla.Echelon` objects of coordinate vectors.

        J^m is spanned by the products J^{m-1} x_i over the basis x_i of
        L.  That span is the ideal power J^{m-1} J: every PBW monomial of
        positive degree ends in a generator, so J = U L; and J^{m-1} U =
        J^{m-1}, as J^{m-1} is an ideal and U holds 1.  Hence J^{m-1} J =
        J^{m-1} U L = J^{m-1} L.  The truncation is a two-sided ideal, so
        the same holds in the truncated model.  The products are taken on
        the integer rows of J^{m-1} with the compiled right
        multiplications; both scale each product, which changes no
        span."""
        n = len(self.monomials)

        def unit(k):
            row = [0] * n
            row[k] = 1
            return row
        powers = [Echelon([unit(k) for k in range(n)]),
                  Echelon([unit(k) for k, m in enumerate(self.monomials)
                           if sum(m) >= 1])]
        _, ops = self._right_multiplications
        for _ in range(2, self.order + 1):
            powers.append(Echelon([_apply(row, op)
                                   for row in powers[-1].int_rows
                                   for op in ops]))
        powers.append(Echelon([]))  # J^{order+1} = 0 in the truncated model
        return tuple(powers)

    @functools.cached_property
    def _right_multiplications(self):
        """(den, ops), compiled from the bracket: ops[i][k] holds the
        terms (index, integer coefficient) of den times the product of
        monomial k with the generator x_i.  For monomial k = m' x_j with
        j > i, m' x_j x_i = (m' x_i) x_j + m' [x_j, x_i].
        One term of m' x_i has the length of m' x_j and a last letter at
        most j, so it takes x_j by appending; its other terms are shorter,
        so the recursion ends.  Every other product appends x_i, or
        vanishes past the truncation.  ``den`` is the least common
        denominator of the products, 1 when every structure constant they
        meet is integral."""
        monomials, index, prefix = self.monomials, self.index, self._prefix
        table = {}

        def times(k, i):
            out = table.get((k, i))
            if out is not None:
                return out
            out = {}
            if prefix[k] is None or prefix[k][0] <= i:
                m = monomials[k]
                s = index.get(m[:i] + (m[i] + 1,) + m[i + 1:])
                if s is not None:
                    out[s] = 1
            else:
                j, p = prefix[k]
                for t, c in times(p, i).items():
                    for s, d in times(t, j).items():
                        out[s] = out.get(s, 0) + c * d
                for l, b in self.L._bracket_sparse(j, {i: 1}).items():
                    b = b.numerator if b.denominator == 1 else b
                    for s, d in times(p, l).items():
                        out[s] = out.get(s, 0) + b * d
                out = {s: c for s, c in out.items() if c}
            table[(k, i)] = out
            return out
        products = [[times(k, i) for k in range(len(monomials))]
                    for i in range(self.L.dim)]
        den = math.lcm(*[c.denominator for row in products
                         for terms in row for c in terms.values()])
        return den, tuple(
            tuple(tuple((s, c.numerator * (den // c.denominator))
                        for s, c in terms.items()) for terms in row)
            for row in products)

    def _left_multiplication(self, a):
        """The operator b -> a b as integer terms on each monomial index,
        all scaled by one positive integer, from the prefix walk."""
        _, images = self._walk(self._row(a)[1], range(len(self.monomials)))
        return [tuple((j, x) for j, x in enumerate(v) if x) for v in images]

    @functools.cached_property
    def _graded_j_basis(self):
        """For each level m = 0..order, the integer rows of J^m whose
        pivots are not pivots of J^{m+1}.

        The pivots of a reduced echelon basis are the leading positions of
        the vectors of its span, so those of J^{m+1} are among those of
        J^m.  The rows chosen at level m are independent modulo J^{m+1}:
        a nonzero combination of them has its leading position at one of
        their pivots, which no vector of J^{m+1} has.  There are dim J^m -
        dim J^{m+1} of them, so together with J^{m+1} they span J^m."""
        powers = self.j_echelons
        return tuple(tuple(row for row, p in zip(powers[m].int_rows,
                                                 powers[m].pivots)
                           if p not in powers[m + 1].pivots)
                     for m in range(self.order + 1))

    def j_filtration_dual_dims(self):
        """dim of the level-m quotient U/J^{m+1}, for m = 0..order."""
        powers = self.j_echelons
        total = len(powers[0].pivots)
        return [total - len(powers[m + 1].pivots)
                for m in range(self.order + 1)]


# ---------------------------------------------------------------------------
# symmetrization and the weighted polynomial filtration

def symmetrize(env, exponents):
    """PBW symmetrization of the commutative monomial with the given
    exponent tuple: average of all normal-ordered word permutations, that
    is of the distinct orderings, as duplicate letters give equal words."""
    k = env.index.get(tuple(exponents))
    if k is None:  # every ordering lies past the truncation
        return {}
    d = sum(exponents)
    scale = (env._right_multiplications[0] ** d * math.factorial(d)
             // math.prod(map(math.factorial, exponents)))
    return {env.monomials[j]: Fraction(x, scale)
            for j, x in enumerate(_symmetrized_rows(env)[k]) if x}


def _symmetrized_rows(env):
    """For every basis monomial e, the integer row of den^d S(e): S(e) is
    the sum of the distinct orderings of e's word, d its length and den
    that of the compiled right multiplications.  By the last letter, S(e)
    = sum over e_i > 0 of S(e - e_i) x_i, on rows of lower weighted degree,
    which come first, the unit first of all."""
    den, ops = env._right_multiplications
    rows = [env._row(env.one())[1]]
    for e in env.monomials[1:]:
        row = [0] * len(env.monomials)
        for i, c in enumerate(e):
            if c:
                prev = rows[env.index[e[:i] + (c - 1,) + e[i + 1:]]]
                row = [x + y for x, y in zip(row, _apply(prev, ops[i]))]
        rows.append(row)
    return rows


def _prefix_ranks(rows):
    """[rank of rows[:k] for k = 0..len(rows)]: the pivots of an echelon
    form of the transposed rows are the columns independent of those
    before them, so the pivots among the first k columns are a basis of
    their span."""
    _, pivots = _echelon(list(zip(*rows)))
    return [bisect.bisect_left(pivots, k) for k in range(len(rows) + 1)]


def symmetrization_check(env):
    """Check that symmetrization carries the weighted polynomial filtration
    onto the J-filtration level by level (equal dimensions, containment).
    Returns a report dict; on failure names the first violating level.

    Decided on integer multiples of the symmetrized monomials, which span
    the same image and lie in J^m together with it.  The J-powers
    decrease, so each row is tested against J^w, w its weighted degree,
    and only if that fails against lower powers, down to the first that
    holds it (-1 for none).  Rows of weighted degree >= m are a prefix of
    the rows by decreasing degree, so their rank is a prefix rank."""
    powers = env.j_echelons
    weights = [env.wdeg(e) for e in reversed(env.monomials)]
    rows = _symmetrized_rows(env)[::-1]
    reach = [next((m for m in range(w, -1, -1) if powers[m].contains(row)),
                  -1) for w, row in zip(weights, rows)]
    ranks = _prefix_ranks(rows)
    report = {"ok": True, "levels": []}
    for m in range(env.order + 1):
        count = sum(w >= m for w in weights)
        contained = all(r >= m for r in reach[:count])
        entry = {"level": m, "sym_dim": ranks[count],
                 "j_dim": len(powers[m].pivots), "contained": contained}
        report["levels"].append(entry)
        if not contained or ranks[count] != len(powers[m].pivots):
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
    powers = env.j_echelons
    for m, level in enumerate(env._graded_j_basis):
        for b in level:
            if not powers[m + 1].contains(_apply(b, left)):
                return False
    return True
