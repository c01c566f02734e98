"""Nilpotent Lie algebras and the unipotent groups they exponentiate to.

A nilpotent Lie algebra over an exact field is given by structure constants
on a fixed basis.  The group law on the same coordinate space is truncated
Baker-Campbell-Hausdorff multiplication; since the algebra is nilpotent the
series is a finite sum and everything stays exact.

The BCH series itself is expanded once per nilpotency class in the free
associative algebra on two letters (as the word-coefficient table of
log(exp X exp Y) truncated in degree), then evaluated in a concrete algebra
through the Dynkin right-nested-bracket projection.  The table is cached
per class.
"""

from fractions import Fraction
from itertools import product

from . import exactla
from .exactla import (
    Fraction as _F, coords_in_basis, in_span, kernel_basis, mat_mul,
    mat_vec, rank, rref, solve_affine, span_echelon, transpose,
    vec_add, vec_is_zero, vec_neg, vec_scale, vec_sub, zero_vec,
)

MAX_BCH_CLASS = 6


# ---------------------------------------------------------------------------
# the free-algebra BCH table

def _word_mul(p, q):
    """Multiply two word polynomials {word tuple: coeff}, truncating at
    degree given by the caller via post-filtering."""
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            out[w] = out.get(w, Fraction(0)) + c1 * c2
            if not out[w]:
                del out[w]
    return out


def _truncate(p, degree):
    return {w: c for w, c in p.items() if len(w) <= degree}


_BCH_TABLES = {}


def bch_word_table(degree):
    """Word coefficients of log(exp X exp Y) in the free associative algebra
    on letters 0, 1, up to total degree ``degree``.  Cached."""
    assert 1 <= degree <= MAX_BCH_CLASS, degree
    if degree in _BCH_TABLES:
        return _BCH_TABLES[degree]
    # exp X exp Y - 1, truncated
    z = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if a + b == 0:
                continue
            w = (0,) * a + (1,) * b
            c = Fraction(1)
            for k in range(1, a + 1):
                c /= k
            for k in range(1, b + 1):
                c /= k
            z[w] = c
    # log(1 + z) = sum (-1)^(m+1) z^m / m
    table = {}
    power = {(): Fraction(1)}
    for m in range(1, degree + 1):
        power = _truncate(_word_mul(power, z), degree)
        sign = Fraction((-1) ** (m + 1), m)
        for w, c in power.items():
            table[w] = table.get(w, Fraction(0)) + sign * c
    table = {w: c for w, c in table.items() if c}
    _BCH_TABLES[degree] = table
    return table


def _nested_bracket(L, word, values):
    """Right-nested bracket [w0, [w1, [... wk]]] evaluated in L with the
    letters replaced by coordinate vectors from ``values``."""
    acc = values[word[-1]]
    for letter in reversed(word[:-1]):
        acc = L.bracket(values[letter], acc)
    return acc


class NilpotentLieAlgebra:
    """A nilpotent Lie algebra given by structure constants.

    ``structure`` maps (i, j) with i < j to {k: coeff} meaning
    [e_i, e_j] = sum coeff * e_k.  Elements are coordinate lists.
    """

    def __init__(self, dim, structure, field="Q", name="L", validate=True):
        self.dim = dim
        self.field = field
        self.name = name
        self.structure = {}
        for (i, j), row in structure.items():
            assert i < j, "structure constants keyed by i < j"
            clean = {k: self._coerce(c) for k, c in row.items() if self._coerce(c)}
            if clean:
                self.structure[(i, j)] = clean
        if validate:
            self.validate()
        self.lcs = self._lower_central_series()
        self.nilpotency_class = len(self.lcs) - 1
        self._depths = None
        assert self.nilpotency_class <= MAX_BCH_CLASS, \
            "nilpotency class above supported BCH truncation depth"

    def _coerce(self, c):
        if self.field == "Qi":
            return c if isinstance(c, exactla.Gaussian) else exactla.Gaussian(c)
        if isinstance(c, exactla.Gaussian):
            assert c.is_rational()
            return c.re
        return Fraction(c)

    def zero(self):
        return zero_vec(self.dim, self.field)

    def basis_vector(self, i):
        v = self.zero()
        v[i] = self._coerce(1)
        return v

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def bracket(self, x, y):
        out = self.zero()
        for (i, j), row in self.structure.items():
            c = x[i] * y[j] - x[j] * y[i]
            if not c:
                continue
            for k, s in row.items():
                out[k] = out[k] + c * s
        return out

    def bracket_basis(self, i, j):
        if i == j:
            return self.zero()
        if i < j:
            row = self.structure.get((i, j), {})
            out = self.zero()
            for k, s in row.items():
                out[k] = out[k] + s
            return out
        return vec_neg(self.bracket_basis(j, i))

    def validate(self):
        """Check the Jacobi identity on all basis triples (antisymmetry is
        structural).  Nilpotency is checked by the central series bottoming
        out, in the constructor."""
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                for c in range(b + 1, self.dim):
                    ea, eb, ec = (self.basis_vector(t) for t in (a, b, c))
                    s = vec_add(
                        self.bracket(ea, self.bracket(eb, ec)),
                        vec_add(self.bracket(eb, self.bracket(ec, ea)),
                                self.bracket(ec, self.bracket(ea, eb))))
                    assert vec_is_zero(s), \
                        "Jacobi identity fails on basis (%d,%d,%d)" % (a, b, c)

    def _lower_central_series(self):
        """[full algebra, [L,L], [L,[L,L]], ..., 0] as echelon bases."""
        series = [span_echelon(self.basis())]
        current = series[0]
        while current:
            nxt = []
            for e in self.basis():
                for v in current:
                    nxt.append(self.bracket(e, v))
            nxt = span_echelon(nxt)
            if len(nxt) == len(current):
                raise ValueError("Lie algebra is not nilpotent")
            series.append(nxt)
            current = nxt
        return series

    def adapted_basis(self):
        """Basis vectors grouped by central-series depth: list of layers,
        layer m spans a complement of gamma_{m+2} in gamma_{m+1}."""
        layers = []
        for g, g_next in zip(self.lcs, self.lcs[1:]):
            layer = []
            acc = list(g_next)
            for v in g:
                if not in_span(acc + layer, v):
                    layer.append(v)
            layers.append(layer)
        return layers

    def depth_of_coordinate(self):
        """For the standard basis: largest m with e_i in gamma_{m+1}
        (0-indexed layer), assuming the basis is adapted to the series.
        Computed once per algebra; each call returns a fresh copy."""
        if self._depths is None:
            depths = []
            for i in range(self.dim):
                e = self.basis_vector(i)
                d = 0
                for m, g in enumerate(self.lcs):
                    if g and in_span(g, e):
                        d = m
                depths.append(d)
            self._depths = depths
        return list(self._depths)

    # -- group structure (truncated BCH) ------------------------------------

    def bch(self, x, y):
        """Group product exp^-1(exp x exp y) by the truncated BCH series."""
        table = bch_word_table(self.nilpotency_class if self.nilpotency_class else 1)
        values = (x, y)
        out = self.zero()
        for word, coeff in table.items():
            if len(word) == 1:
                out = vec_add(out, vec_scale(self._coerce(coeff), values[word[0]]))
                continue
            # each homogeneous component of the BCH series is a Lie element,
            # so the Dynkin projection (nested bracket / word length) of the
            # word table evaluates it
            term = _nested_bracket(self, word, values)
            if vec_is_zero(term):
                continue
            out = vec_add(out, vec_scale(self._coerce(coeff / len(word)), term))
        return out

    def inverse(self, x):
        return vec_neg(x)

    def conjugate(self, g, x):
        """g * x * g^-1 in group coordinates."""
        return self.bch(self.bch(g, x), self.inverse(g))

    def ad_matrix(self, x):
        """Matrix of ad_x = [x, -] in the standard basis (columns = images)."""
        cols = [self.bracket(x, e) for e in self.basis()]
        return transpose(cols)

    def Ad_matrix(self, g):
        """Adjoint action of the group element exp(g): Ad = exp(ad_g)."""
        n = self.dim
        A = self.ad_matrix(g)
        out = exactla.identity_matrix(n)
        if self.field == "Qi":
            out = [[exactla.Gaussian(x) for x in row] for row in out]
        power = out
        fact = Fraction(1)
        for k in range(1, self.nilpotency_class + 1):
            power = mat_mul(A, power)
            fact = fact / k
            term = [[self._coerce(fact) * x for x in row] for row in power]
            out = exactla.mat_add(out, term)
        return out

    def is_abelian(self):
        return not self.structure

    def __repr__(self):
        return "NilpotentLieAlgebra(%s, dim=%d, class=%d)" % (
            self.name, self.dim, self.nilpotency_class)


def abelian_lie_algebra(dim, field="Q", name="A"):
    return NilpotentLieAlgebra(dim, {}, field=field, name=name)


def heisenberg(field="Q"):
    """Heisenberg algebra: [x, y] = z."""
    return NilpotentLieAlgebra(3, {(0, 1): {2: 1}}, field=field, name="heis")


def direct_sum(L1, L2, name=None):
    assert L1.field == L2.field
    n1 = L1.dim
    structure = dict((k, dict(v)) for k, v in L1.structure.items())
    for (i, j), row in L2.structure.items():
        structure[(i + n1, j + n1)] = {k + n1: c for k, c in row.items()}
    # block sums of valid algebras are valid: cross brackets vanish, so
    # antisymmetry and Jacobi reduce to the (already checked) summands
    return NilpotentLieAlgebra(n1 + L2.dim, structure, field=L1.field,
                               name=name or (L1.name + "+" + L2.name),
                               validate=False)


def central_extension(Q, z_dim, omega, field="Q", name=None):
    """Central extension of Q by an abelian algebra of dimension z_dim,
    with 2-cocycle omega: omega[(i,j)] (i < j, basis of Q) -> list of
    z-coordinates.  New basis: Q basis first, then the central basis."""
    n = Q.dim
    structure = {}
    for (i, j), row in Q.structure.items():
        structure[(i, j)] = dict(row)
    for (i, j), zvec in omega.items():
        assert i < j
        row = structure.setdefault((i, j), {})
        for k, c in enumerate(zvec):
            if c:
                row[n + k] = row.get(n + k, 0) + c
    return NilpotentLieAlgebra(n + z_dim, structure, field=field,
                               name=name or (Q.name + "-ext"))


def heisenberg_from_symplectic():
    """The Heisenberg algebra as the central extension of the abelian plane
    by the standard symplectic form."""
    Q = abelian_lie_algebra(2, name="plane")
    return central_extension(Q, 1, {(0, 1): [Fraction(1)]}, name="heis")


class LieMorphism:
    """Linear map between nilpotent Lie algebras, verified to respect
    brackets on the basis.  Doubles as a unipotent group morphism in
    exponential coordinates."""

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = [list(row) for row in matrix]
        assert len(self.matrix) == target.dim
        assert all(len(row) == source.dim for row in self.matrix)
        if check:
            self.check_bracket()

    def check_bracket(self):
        images = [self.apply(self.source.basis_vector(i))
                  for i in range(self.source.dim)]
        for i in range(self.source.dim):
            for j in range(i + 1, self.source.dim):
                lhs = self.apply(self.source.bracket_basis(i, j))
                rhs = self.target.bracket(images[i], images[j])
                assert lhs == rhs, "not a Lie algebra morphism at (%d,%d)" % (i, j)

    def apply(self, x):
        return mat_vec(self.matrix, x)

    def compose(self, other):
        """self o other."""
        assert other.target is self.source or other.target.dim == self.source.dim
        return LieMorphism(other.source, self.target,
                           mat_mul(self.matrix, other.matrix), check=False)

    def is_automorphism(self):
        return (self.source.dim == self.target.dim
                and rank(self.matrix) == self.source.dim)

    def __eq__(self, other):
        return (isinstance(other, LieMorphism)
                and exactla.mat_eq(self.matrix, other.matrix))


def identity_morphism(L):
    return LieMorphism(L, L, exactla.identity_matrix(L.dim), check=False)


# ---------------------------------------------------------------------------
# layered affine solving over a unipotent group

def solve_graded_affine(L, residual, nvars, var_to_coord=None, max_layer=None):
    """Solve a unipotent equation by one exact linear solve per layer of the
    lower central series.

    ``residual`` maps a candidate coordinate vector (length nvars) to an
    element of L that should become 0.  The linearization at each layer is
    recovered by probing basis directions, which is exact because between
    consecutive layers the residual is affine in the unknown modulo deeper
    terms.

    Returns (solution or None, certificate dict).  On failure the
    certificate names the first obstructed layer.  Note this greedy descent
    is complete only when the per-layer linear maps determine the deeper
    behaviour; the symbolic decider below has no such caveat.
    """
    if var_to_coord is None:
        var_to_coord = list(range(nvars))
    x = [L._coerce(0)] * nvars
    depths = L.depth_of_coordinate()
    nlayers = len(L.lcs) - 1
    if max_layer is None:
        max_layer = nlayers
    for layer in range(max_layer):
        coords = [c for c in range(L.dim) if depths[c] == layer]
        if not coords:
            continue
        r0 = residual(x)
        rows = []
        for v in range(nvars):
            probe = list(x)
            probe[v] = probe[v] + L._coerce(1)
            rv = residual(probe)
            rows.append([rv[c] - r0[c] for c in coords])
        A = transpose(rows)
        b = [-r0[c] for c in coords]
        sol, _ = solve_affine(A, b)
        if sol is None:
            return None, {"status": "obstructed", "layer": layer,
                          "residual": [r0[c] for c in coords]}
        x = vec_add(x, sol)
    r = residual(x)
    if vec_is_zero(r):
        return x, {"status": "solved"}
    return None, {"status": "obstructed",
                  "layer": min(depths[c] for c in range(L.dim) if r[c]),
                  "residual": r}


def solve_symbolic(L, residual_sym, nvars):
    """Complete decider for polynomial systems valued in L: build the
    residual with sympy symbols, eliminate layer by layer linearly where
    possible and fall back to sympy.solve for the polynomial tail.  Returns
    an exact rational witness or None (sound: None means no rational
    solution exists when the solution set is finite, and for the layered
    systems produced here linear elimination covers the rest).
    """
    import sympy

    xs = sympy.symbols("t0:%d" % nvars) if nvars else ()
    res = residual_sym(list(xs))
    eqs = [sympy.expand(sympy.nsimplify(sympy.sympify(e))) for e in res]
    eqs = [e for e in eqs if e != 0]
    if not eqs:
        return [Fraction(0)] * nvars
    sols = sympy.solve(eqs, list(xs), dict=True)
    for sol in sols:
        full = []
        ok = True
        for s in xs:
            v = sol.get(s, sympy.Integer(0))
            v = v.subs({t: 0 for t in v.free_symbols})
            if not v.is_rational:
                ok = False
                break
            full.append(Fraction(sympy.Rational(v).p, sympy.Rational(v).q))
        if not ok:
            continue
        check = residual_sym([sympy.Rational(f.numerator, f.denominator)
                              for f in full])
        if all(sympy.simplify(c) == 0 for c in check):
            return full
    return None


def frac_to_sympy(x):
    import sympy
    if isinstance(x, Fraction):
        return sympy.Rational(x.numerator, x.denominator)
    return x


def bch_symbolic(L, x, y):
    """BCH product where coordinates may be sympy expressions."""
    import sympy

    def bracket(a, b):
        out = [sympy.Integer(0)] * L.dim
        for (i, j), row in L.structure.items():
            c = a[i] * b[j] - a[j] * b[i]
            for k, s in row.items():
                out[k] = out[k] + c * frac_to_sympy(s)
        return out

    table = bch_word_table(L.nilpotency_class if L.nilpotency_class else 1)
    values = (list(x), list(y))
    out = [sympy.Integer(0)] * L.dim
    for word, coeff in table.items():
        if len(word) == 1:
            out = [o + frac_to_sympy(coeff) * v
                   for o, v in zip(out, values[word[0]])]
            continue
        acc = values[word[-1]]
        for letter in reversed(word[:-1]):
            acc = bracket(values[letter], acc)
        c = frac_to_sympy(coeff / len(word))
        out = [o + c * a for o, a in zip(out, acc)]
    return [sympy.expand(o) for o in out]


# ---------------------------------------------------------------------------
# torsors under a unipotent group

class UnipotentTorsor:
    """A torsor under the unipotent group of L, presented either by
    transition data over a finite index set (``transitions``: index ->
    group coordinates, with index 0 the identity chart) or by an
    automorphism labeling (``auto``: a LieMorphism acting on L)."""

    def __init__(self, L, transitions=None, auto=None):
        assert (transitions is None) != (auto is None)
        self.L = L
        self.auto = auto
        if transitions is not None:
            self.transitions = {k: list(v) for k, v in transitions.items()}
            assert 0 in self.transitions
            assert vec_is_zero(self.transitions[0]), \
                "chart 0 carries the identity transition"
        else:
            self.transitions = None

    def trivialize(self):
        """Find a point trivializing the torsor.

        Transition presentation: a point g with all t_i * g = base point, so
        g = -t_i must be chart independent; solved per chart and checked.
        Automorphism presentation: the identity point always trivializes the
        underlying torsor, and when the labeling automorphism is inner we
        also recover a conjugating element.
        """
        L = self.L
        if self.transitions is not None:
            # canonical point: the one whose last chart is the identity
            idx = max(self.transitions)
            g = L.inverse(self.transitions[idx])
            charts = {k: L.bch(t, g) for k, t in self.transitions.items()}
            # round trip: the transitions are recovered from the point
            for k, t in self.transitions.items():
                assert L.bch(charts[k], L.inverse(charts[0])) == t
            return g, {"status": "trivialized", "charts": charts}
        # automorphism labeling
        cert = {"status": "trivialized", "point": "identity"}
        conj = self._inner_conjugator()
        if conj is not None:
            cert["conjugator"] = conj
        return L.zero(), cert

    def _inner_conjugator(self):
        """If the labeling automorphism is Ad_g for some group element g,
        recover g by layered solving of Ad_g = theta."""
        L = self.L
        theta = self.auto.matrix

        # joint residual over all columns via stacked solve: treat each
        # column as its own L-valued condition
        def stacked(g):
            M = exactla.mat_sub(L.Ad_matrix(g), theta)
            return M

        x = [L._coerce(0)] * L.dim
        depths = L.depth_of_coordinate()
        for layer in range(len(L.lcs) - 1):
            coords = [c for c in range(L.dim) if depths[c] == layer]
            M0 = stacked(x)
            rows = []
            for v in range(L.dim):
                probe = list(x)
                probe[v] = probe[v] + L._coerce(1)
                Mv = stacked(probe)
                rows.append([Mv[c][j] - M0[c][j]
                             for c in coords for j in range(L.dim)])
            A = transpose(rows)
            b = [-M0[c][j] for c in coords for j in range(L.dim)]
            sol, _ = solve_affine(A, b)
            if sol is None:
                return None
            x = vec_add(x, sol)
        if exactla.mat_eq(L.Ad_matrix(x), theta):
            return x
        return None

    def is_trivial(self):
        g, cert = self.trivialize()
        return g is not None


def torsor_pushout(torsor, f):
    """Push a transition-presented torsor along a group morphism f."""
    assert torsor.transitions is not None
    return UnipotentTorsor(
        f.target,
        transitions={k: f.apply(t) for k, t in torsor.transitions.items()})
