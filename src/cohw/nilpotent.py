"""Nilpotent Lie algebras and the unipotent groups they exponentiate to.

A nilpotent Lie algebra over the rationals is given by structure constants
on a fixed basis; its lower central series, one ``exactla.Echelon`` per
term, comes from the structure rows and sparse brackets with the basis.
The group law on the same coordinate space is truncated
Baker-Campbell-Hausdorff multiplication; since the algebra is nilpotent the
series is a finite sum and everything stays exact.

The BCH product is a bracket series on vectors, summed homogeneous
component by component by a recursion in brackets alone, and so is its
linearization: the adjoint action ``Ad`` and the left log derivative
``dexp`` are finite ad-series on vectors, and the chain rule gives the
exact derivative of any word in the group law.
"""

import functools
from fractions import Fraction
from itertools import combinations

from . import exactla
from .exactla import (
    Echelon, _echelon, mat_vec, rank, solve_affine, transpose, vec_add,
    vec_is_zero, vec_neg, vec_scale, vec_sub, zero_vec,
)

MAX_BCH_CLASS = 6
# (2p, K_2p = B_2p / (2p)!) for the 2p < MAX_BCH_CLASS that BCH needs
_BCH_K = ((2, Fraction(1, 12)), (4, Fraction(-1, 720)))


def _compositions(n, parts):
    """The ways to write n as an ordered sum of ``parts`` positive
    integers."""
    for cuts in combinations(range(1, n), parts - 1):
        bounds = (0,) + cuts + (n,)
        yield [b - a for a, b in zip(bounds, bounds[1:])]


@functools.cache
def _whole_space(n):
    """Q^n as an ``Echelon`` whose rows are built on first read, shared
    (never changed)."""
    return Echelon.whole(n)


class NilpotentLieAlgebra:
    """A nilpotent Lie algebra given by structure constants.

    ``structure`` maps (i, j) with i < j to {k: coeff} meaning
    [e_i, e_j] = sum coeff * e_k.  Elements are coordinate lists.
    """

    def __init__(self, dim, structure, name="L", validate=True):
        self.dim = dim
        self.name = name
        self.structure = {}
        for (i, j), row in structure.items():
            if not i < j:
                raise ValueError("structure constants keyed by i < j")
            clean = {k: Fraction(c) for k, c in row.items() if c}
            if clean:
                self.structure[(i, j)] = clean
        if validate:
            self.validate()
        self.lcs = self._lower_central_series()
        self.nilpotency_class = len(self.lcs) - 1
        if self.nilpotency_class > MAX_BCH_CLASS:
            raise ValueError("nilpotency class above supported BCH "
                             "truncation depth")

    def zero(self):
        return zero_vec(self.dim)

    def basis_vector(self, i):
        v = self.zero()
        v[i] = Fraction(1)
        return v

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def bracket(self, x, y):
        out = self.zero()
        for (i, j), row in self.structure.items():
            xi, xj = x[i], x[j]
            if not (xi or xj):
                continue
            c = xi * y[j] - xj * y[i]
            if not c:
                continue
            for k, s in row.items():
                out[k] = out[k] + c * s
        return out

    def is_central(self, z):
        """Does z bracket to zero with every basis vector?"""
        z = {k: x for k, x in enumerate(z) if x}
        return not any(any(self._bracket_sparse(i, z).values())
                       for i in range(self.dim))

    def validate(self):
        """Check the Jacobi identity on basis triples (antisymmetry is
        structural), raising ValueError at the lexicographically first
        failing one.  J(a, b, c) can be nonzero only where one of its
        inner brackets is, so only triples that contain a ``structure``
        key are evaluated, on sparse brackets.  Nilpotency is checked by
        the central series bottoming out, in the constructor."""
        triples = sorted({tuple(sorted((i, j, c))) for (i, j) in self.structure
                          for c in range(self.dim) if c not in (i, j)})
        for a, b, c in triples:
            s = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for k, v in self._bracket_sparse(x, self._bracket_sparse(
                        y, {z: 1})).items():
                    s[k] = s.get(k, 0) + v
            if any(s.values()):
                raise ValueError("Jacobi identity fails on basis (%d,%d,%d)"
                                 % (a, b, c))

    def _bracket_sparse(self, i, v):
        """[e_i, v] for v given as {coordinate: coefficient}."""
        out = {}
        for k, c in v.items():
            row = self.structure.get((i, k)) if i < k else \
                self.structure.get((k, i))
            if row:
                sign = c if i < k else -c
                for m, t in row.items():
                    out[m] = out.get(m, 0) + sign * t
        return out

    def _lower_central_series(self):
        """(Gamma_1 = L, Gamma_2, ..., 0) as ``Echelon``s.  Gamma_2 is
        spanned by the structure rows, so an abelian algebra's series is
        [L, 0]; Gamma_{m+1} by the sparse brackets [e_i, v] over the rows
        v of Gamma_m and the i sharing a structure key with v's support."""
        n = self.dim
        partners = [set() for _ in range(n)]
        for i, j in self.structure:
            partners[i].add(j)
            partners[j].add(i)
        series = [_whole_space(n)]
        brackets = list(self.structure.values())
        while series[-1]:
            nxt = Echelon([[b.get(k, 0) for k in range(n)] for b in brackets])
            if len(nxt) == len(series[-1]):
                raise ValueError("Lie algebra is not nilpotent")
            series.append(nxt)
            rows = [{k: x for k, x in enumerate(v) if x} for v in nxt.int_rows]
            brackets = [self._bracket_sparse(i, v) for v in rows
                        for i in set().union(*[partners[k] for k in v])]
        return tuple(series)

    @functools.cached_property
    def depth_of_coordinate(self):
        """For the standard basis: largest m with e_i in gamma_{m+1}
        (0-indexed layer), a tuple.  A reduced echelon basis spans e_i
        exactly when one of its rows is e_i."""
        depths = [0] * self.dim
        for m, g in enumerate(self.lcs):
            for row, p in zip(g.int_rows, g.pivots):
                if row.count(0) == self.dim - 1:
                    depths[p] = m
        return tuple(depths)

    @functools.cached_property
    def adapted_coordinates(self):
        """(change, layers): ``change`` maps standard coordinates to those
        in a basis adapted to the central series, or is None when the
        standard basis is adapted (every gamma_m a coordinate subspace);
        layers[m] lists the coordinates spanning gamma_{m+1} modulo
        gamma_{m+2}.

        Layer m takes each reduced row of gamma_{m+1} independent of
        gamma_{m+2} and of the rows before it: with the terms listed
        deepest first, the pivots of one forward elimination of the
        transposed rows."""
        change, layers = None, [[] for _ in range(self.nilpotency_class)]
        if all(row.count(0) == self.dim - 1
               for g in self.lcs for row in g.int_rows):
            for i, d in enumerate(self.depth_of_coordinate):
                layers[d].append(i)
        else:
            rows = [(m, k) for m in reversed(range(len(layers)))
                    for k in range(len(self.lcs[m]))]
            _, pivots = _echelon(list(zip(
                *[self.lcs[m].int_rows[k] for m, k in rows])))
            picked = sorted(rows[p] for p in pivots)  # layer by layer
            basis = [self.lcs[m].rows[k] for m, k in picked]
            for t, (m, _) in enumerate(picked):
                layers[m].append(t)
            # [B | I] reduces to [I | B^-1]
            red, _ = exactla.rref([list(col) + e for col, e in
                                   zip(transpose(basis), self.basis())])
            change = tuple(tuple(row[self.dim:]) for row in red)
        return change, tuple(map(tuple, layers))

    # -- group structure (truncated BCH) ------------------------------------

    def bch(self, x, y):
        """Group product exp^-1(exp x exp y): the sum of the homogeneous
        BCH components Z_1, ..., Z_c, c the nilpotency class, by
        Varadarajan's recursion (Lie Groups, Lie Algebras, and Their
        Representations, section 2.15): Z_1 = x + y and

          (n+1) Z_{n+1} = [x - y, Z_n] / 2 + sum_{p >= 1} K_2p
              sum_{k_1 + ... + k_2p = n} [Z_k1, [... [Z_k2p, x + y]...]]

        with K_2p = B_2p / (2p)!, B the Bernoulli numbers.  Int entries
        come back as Fractions."""
        s, b = vec_add(x, y), self.bracket(x, y)
        if vec_is_zero(b):
            # x and y commute, and b = 0 makes every entry a Fraction
            return vec_add(s, b)
        # z[k] = Z_k; the step n = 1 gives Z_2 = [x, y] / 2
        z, d = [None, s, vec_scale(Fraction(1, 2), b)], vec_sub(x, y)
        for n in range(2, self.nilpotency_class):
            acc = vec_scale(Fraction(1, 2), self.bracket(d, z[n]))
            for parts, k in _BCH_K:
                for ks in _compositions(n, parts):
                    term = s
                    for i in reversed(ks):
                        term = self.bracket(z[i], term)
                    acc = vec_add(acc, vec_scale(k, term))
            z.append(vec_scale(Fraction(1, n + 1), acc))
        return functools.reduce(vec_add, z[1:])

    def inverse(self, x):
        return vec_neg(x)

    def conjugate(self, g, x):
        """g * x * g^-1 in group coordinates."""
        return self.bch(self.bch(g, x), self.inverse(g))

    def Ad(self, g, v):
        """Adjoint action of the group element exp(g) on v: exp(ad_g) v,
        which is the conjugate ``conjugate(g, v)``."""
        return self._ad_series(g, v, 0, 1)

    def dexp(self, u, v):
        """Left log derivative d/dt log(exp(u)^-1 exp(u + t v)) at t = 0:
        sum_k (-ad_u)^k v / (k+1)!, a unipotent, so invertible, linear
        map of v."""
        return self._ad_series(u, v, 1, -1)

    def _ad_series(self, x, v, shift, sign):
        """sum_k (sign ad_x)^k v / (k + shift)!, up to the first zero
        term (ad_x is nilpotent); shift is 0 or 1, sign +-1."""
        out = term = list(v)
        fact, k = 1, shift
        while True:
            term = self.bracket(x, term)
            if vec_is_zero(term):
                return out
            k += 1
            fact *= sign * k
            out = vec_add(out, [c / fact for c in term])

    def Ad_matrix(self, g):
        """Matrix of Ad_g: its columns are the images of the basis."""
        return transpose([self.Ad(g, e) for e in self.basis()])

    def is_abelian(self):
        return not self.structure

    def __repr__(self):
        return "NilpotentLieAlgebra(%s, dim=%d, class=%d)" % (
            self.name, self.dim, self.nilpotency_class)


@functools.cache
def abelian_lie_algebra(dim):
    """Q^dim with the zero bracket: the algebra of the vector group Q^dim.
    Built once per process and shared (no caller changes an algebra), so
    the many vector carriers of a linear computation build no algebra
    each."""
    return NilpotentLieAlgebra(dim, {}, name="A")


def heisenberg():
    """Heisenberg algebra: [x, y] = z."""
    return NilpotentLieAlgebra(3, {(0, 1): {2: 1}}, name="heis")


def direct_sum(*algebras):
    """Direct sum of any number of algebras, built in one step; its lower
    central series is computed from its brackets, as for any algebra.  A
    sum of abelian algebras is the shared ``abelian_lie_algebra`` of the
    total dimension."""
    if not any(a.structure for a in algebras):
        return abelian_lie_algebra(sum(a.dim for a in algebras))
    structure = {}
    offset = 0
    for a in algebras:
        for (i, j), row in a.structure.items():
            structure[(i + offset, j + offset)] = {
                k + offset: c for k, c in row.items()}
        offset += a.dim
    # block sums of valid algebras are valid: cross brackets vanish, so
    # antisymmetry and Jacobi reduce to the (already checked) summands
    return NilpotentLieAlgebra(offset, structure,
                               name="+".join(a.name for a in algebras),
                               validate=False)


def central_extension(Q, z_dim, omega, name=None):
    """Central extension of Q by an abelian algebra of dimension z_dim,
    with 2-cocycle omega: omega[(i,j)] (i < j, basis of Q) -> list of
    z-coordinates.  New basis: Q basis first, then the central basis."""
    n = Q.dim
    structure = {}
    for (i, j), row in Q.structure.items():
        structure[(i, j)] = dict(row)
    for (i, j), zvec in omega.items():
        if not i < j:
            raise ValueError("cocycle keyed by i < j")
        row = structure.setdefault((i, j), {})
        for k, c in enumerate(zvec):
            if c:
                row[n + k] = row.get(n + k, 0) + c
    return NilpotentLieAlgebra(n + z_dim, structure,
                               name=name or (Q.name + "-ext"))


class LieMorphism:
    """Linear map between nilpotent Lie algebras, verified to respect
    brackets on the basis.  Doubles as a unipotent group morphism in
    exponential coordinates."""

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = [list(row) for row in matrix]
        if len(self.matrix) != target.dim or any(
                len(row) != source.dim for row in self.matrix):
            raise ValueError("matrix is not %dx%d" % (target.dim, source.dim))
        if check:
            self.check_bracket()

    def check_bracket(self):
        bad = self.bracket_defect()
        if bad is not None:
            raise ValueError("not a Lie algebra morphism at (%d,%d)" % bad)

    def bracket_defect(self):
        """The first pair (i, j), i < j in lexicographic order, of basis
        indices whose bracket the map does not respect, or None.  On
        sparse images: f[e_i, e_j] from the source's structure row, and
        [f e_i, f e_j] summed over the support a of f e_i from the
        target's [e_a, f e_j]."""
        images = [{r: row[c] for r, row in enumerate(self.matrix) if row[c]}
                  for c in range(self.source.dim)]
        for i, j in combinations(range(self.source.dim), 2):
            defect = {}
            for k, c in self.source.structure.get((i, j), {}).items():
                for r, x in images[k].items():
                    defect[r] = defect.get(r, 0) + c * x
            for a, x in images[i].items():
                for r, y in self.target._bracket_sparse(a, images[j]).items():
                    defect[r] = defect.get(r, 0) - x * y
            if any(defect.values()):
                return i, j
        return None

    def apply(self, x):
        return mat_vec(self.matrix, x)

    def is_automorphism(self):
        return (self.source.dim == self.target.dim
                and rank(self.matrix) == self.source.dim)


# ---------------------------------------------------------------------------
# orbit solving over a unipotent group

def solve_graded_affine(L, residual, group):
    """Decide residual(u) = 0 for u in a unipotent ``group`` (``.dim`` log
    coordinates, product ``.mul``) exactly, by stabilizer descent along the
    lower central series Gamma of L: the residual is zero somewhere
    exactly when every reduced layer of the descent is zero.

    Preconditions: ``residual(u)`` compares the image of a point under u
    with a target, for an action of ``group`` that preserves Gamma and
    moves the points of each fibre Gamma_{m+1}/Gamma_{m+2} by
    translations.  Residuals are read in coordinates adapted to Gamma,
    so any basis of L will do.

    Returns (solution or None, certificate dict); on failure the
    certificate names the first non-zero layer and its residual.
    """
    g, layers, _ = _descend(L, residual, group, stop_at_nonzero=True)
    for layer, (r0, reduced) in enumerate(layers):
        if not vec_is_zero(reduced):
            return None, {"status": "obstructed", "layer": layer,
                          "residual": r0}
    return g, {"status": "solved"}


def _descend(L, act, group, stop_at_nonzero=False):
    """Move the point act(u), u in ``group``, into its canonical normal
    form one layer of Gamma at a time.

    Modulo Gamma_{m+1} the u reaching the normal form so far form a coset
    g exp(h), h the Lie algebra of a stabilizer, a linear subspace in log
    coordinates.  For X in h, g exp(X) moves the point within one fibre
    of the next layer by a translation that is a homomorphism of exp(h),
    hence linear in X: that layer of act(g X) is exactly r0 + A X.  The
    reduced echelon basis of the columns of A reduces r0 to its canonical
    representative modulo the directions the stabilizer reaches, the same
    for every point of the orbit; one exact solve moves the layer there
    (with -r0 as right side when it reduces to 0) and gives the next g,
    with the kernel as the next h.

    Returns (g, layers, h), layers[m] = (r0, reduced value) in adapted
    coordinates; with ``stop_at_nonzero``, up to the first layer that
    does not reduce to 0.  After the last layer, h is a basis of the Lie
    algebra of the u with act(g u) = act(g): for the orbit map of a left
    action, the stabilizer of act(0).
    """
    g = zero = zero_vec(group.dim)
    h = exactla.identity_matrix(group.dim)
    change, coords_by_layer = L.adapted_coordinates
    read = (lambda r: r) if change is None else (lambda r: mat_vec(change, r))
    layers = []
    for coords in coords_by_layer:
        r = read(act(g))
        cols = [read(act(list(group.mul(g, X)))) for X in h]
        A = [[rv[c] - r[c] for rv in cols] for c in coords]
        r0 = [r[c] for c in coords]
        reduced = Echelon(transpose(A)).reduce(r0)
        layers.append((r0, reduced))
        if stop_at_nonzero and not vec_is_zero(reduced):
            return g, layers, h
        sol, kernel = solve_affine(A, vec_sub(reduced, r0), len(h))
        g = list(group.mul(g, _combine(sol, h, zero)))
        h = [_combine(k, h, zero) for k in kernel]
    final = read(act(g))
    if any([final[c] for c in coords] != reduced for coords, (_, reduced)
           in zip(coords_by_layer, layers)):
        raise ValueError("stabilizer descent left a layer off its normal "
                         "form: the action breaks the descent's "
                         "preconditions")
    return g, layers, h


def _combine(coeffs, vectors, zero):
    out = zero
    for c, v in zip(coeffs, vectors):
        if c:
            out = vec_add(out, vec_scale(c, v))
    return out


def solve_symbolic(L, residual, nvars):
    """Reference decider for tests, with no production caller: evaluate
    the numeric ``residual`` on sympy symbols and hand the polynomial
    system to sympy.solve.  Returns a rational witness, checked on the
    numeric residual, or None."""
    import sympy

    xs = sympy.symbols("t0:%d" % nvars) if nvars else ()
    eqs = [sympy.expand(e) for e in residual(list(xs))]
    eqs = [e for e in eqs if e != 0]
    if not eqs:
        return [Fraction(0)] * nvars
    for sol in sympy.solve(eqs, list(xs), dict=True):
        vals = [sympy.sympify(sol.get(s, 0)) for s in xs]
        vals = [v.subs({t: 0 for t in v.free_symbols}) for v in vals]
        if not all(v.is_rational for v in vals):
            continue
        full = [Fraction(int(v.p), int(v.q)) for v in vals]
        if vec_is_zero(residual(full)):
            return full
    return None


# ---------------------------------------------------------------------------
# torsors under a unipotent group

class UnipotentTorsor:
    """A torsor under the unipotent group of L, presented either by
    transition data over a finite index set (``transitions``: index ->
    group coordinates, with index 0 the identity chart) or by an
    automorphism labeling (``auto``: a LieMorphism acting on L)."""

    def __init__(self, L, transitions=None, auto=None):
        if (transitions is None) == (auto is None):
            raise ValueError("give exactly one of transitions and auto")
        self.L = L
        self.auto = auto
        if transitions is not None:
            self.transitions = {k: list(v) for k, v in transitions.items()}
            if 0 not in self.transitions or \
                    not vec_is_zero(self.transitions[0]):
                raise ValueError("chart 0 carries the identity transition")
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
                if L.bch(charts[k], L.inverse(charts[0])) != t:
                    raise RuntimeError("transition %r not recovered from "
                                       "the trivializing point" % (k,))
            return g, {"status": "trivialized", "charts": charts}
        # automorphism labeling
        cert = {"status": "trivialized", "point": "identity"}
        conj = self._inner_conjugator()
        if conj is not None:
            cert["conjugator"] = conj
        return L.zero(), cert

    def _inner_conjugator(self):
        """If the labeling automorphism is Ad_g for some group element g,
        recover g by stabilizer descent: Ad_g must move the basis, a point
        of L^dim, onto the columns of theta."""
        from .cosimpl import UnipotentCarrier
        L = self.L
        theta = self.auto.matrix

        def residual(g):
            M = exactla.mat_sub(L.Ad_matrix(g), theta)
            return [M[i][j] for j in range(L.dim) for i in range(L.dim)]

        copies = direct_sum(*[L] * max(L.dim, 1))
        sol, _ = solve_graded_affine(copies, residual, UnipotentCarrier(L))
        return sol


def torsor_pushout(torsor, f):
    """Push a transition-presented torsor along a group morphism f."""
    if torsor.transitions is None:
        raise ValueError("pushout needs a transition-presented torsor")
    return UnipotentTorsor(
        f.target,
        transitions={k: f.apply(t) for k, t in torsor.transitions.items()})
