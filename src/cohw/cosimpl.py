"""Cosimplicial groups over computable carriers and their cohomotopy.

Carriers are finite groups (multiplication tables, lazy finite products)
or unipotent groups in log coordinates; the rational vector group Q^n is
the unipotent group of the abelian Lie algebra of dimension n.  All
structure maps are stored as explicit homomorphism data -- lookup
tables, per-factor wiring, or matrices -- never closures, so equality of
maps is decidable and the cosimplicial identities can be verified
exactly.  Carriers and maps never change: what one computes from itself
on first use (generators, the identity map, a preimage table, a block
map's int form, a ``Fraction`` matrix) is a ``functools.cached_property``.
"""

import functools
import operator
from fractions import Fraction
from itertools import accumulate, chain, product as iproduct, repeat
from math import gcd, lcm

from . import exactla
from .exactla import (
    Echelon, _echelon, _int_kernel, kernel_basis, mat_vec, rank,
    solve_affine, span_echelon, transpose, vec_add, vec_sub, zero_vec,
)
from .nilpotent import (
    _combine, _descend, abelian_lie_algebra, direct_sum, solve_graded_affine,
)

ENUM_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# carriers

class TableGroup:
    """Finite group given by a multiplication table (list of lists of
    element indices).  Elements are integers 0..n-1, unnamed; ``check``
    decides associativity.  It is one block: it has no ``factors``."""

    factors = ()

    def __init__(self, table, check=True):
        self.table = [list(row) for row in table]
        self.n = len(self.table)
        ident = None
        for e in range(self.n):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.n)):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.ident = ident
        self._inv = [None] * self.n
        for a in range(self.n):
            for b in range(self.n):
                if self.table[a][b] == ident:
                    self._inv[a] = b
        if None in self._inv:
            raise ValueError("missing inverses")
        if check:
            # the c with (ab)c = a(bc) for all a, b contain e and are
            # closed under products, and every element is a product of
            # generators: checking the generators decides associativity
            t = self.table
            for s in self.generators:
                for a, row in enumerate(t):
                    for b in range(self.n):
                        if t[row[b]][s] != row[t[b][s]]:
                            raise ValueError("not associative")

    def identity(self):
        return self.ident

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def size(self):
        return self.n

    def elements(self):
        return list(range(self.n))

    @functools.cached_property
    def generators(self):
        gens, span = [], {self.ident}
        for x in range(self.n):
            if x in span:
                continue
            gens.append(x)
            span = set()
            queue = [self.ident]
            span.add(self.ident)
            while queue:
                g = queue.pop()
                for h in gens:
                    for nxt in (self.mul(g, h), self.mul(h, g)):
                        if nxt not in span:
                            span.add(nxt)
                            queue.append(nxt)
            if len(span) == self.n:
                break
        return tuple(gens)

    @functools.cached_property
    def identity_hom(self):
        return FiniteHom(self, self, {x: x for x in self.elements()},
                         check=False)

    def is_abelian(self):
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.n) for b in range(self.n))

    def __repr__(self):
        return "TableGroup(n=%d)" % self.n


def cyclic_group(n):
    return TableGroup([[(a + b) % n for b in range(n)] for a in range(n)],
                      check=False)


@functools.cache
def symmetric_group(n):
    """S_n as a TableGroup; element 0 is the identity permutation.  Built
    once per process and shared: no caller changes a group."""
    perms = sorted(set(iproduct(range(n), repeat=n)))
    perms = [p for p in perms if len(set(p)) == n]
    perms.sort(key=lambda p: (p != tuple(range(n)), p))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(n))  # p after q
            row.append(index[comp])
        table.append(row)
    G = TableGroup(table, check=False)
    G.perms = perms
    return G


def subgroup_table(G, subset):
    """Subgroup of G on the given closed subset; returns (H, inclusion dict
    H-element -> G-element).  A subset that is not closed raises
    ValueError."""
    subset = sorted(set(subset))
    pos = {g: i for i, g in enumerate(subset)}
    if any(G.mul(a, b) not in pos for a in subset for b in subset):
        raise ValueError("subset not closed")
    table = [[pos[G.mul(a, b)] for b in subset] for a in subset]
    H = TableGroup(table, check=False)
    incl = {i: g for i, g in enumerate(subset)}
    return H, incl


class ProductGroup:
    """Flat product of TableGroups and ProductGroups: elements are tuples
    over the TableGroup ``leaves``, in nested order; factor i is on leaves
    ``offsets[i]:offsets[i + 1]``, enumerated only within the cap."""

    def __init__(self, factors):
        self.factors = list(factors)
        self.leaves, self.offsets, self._at = [], [0], []
        for f in self.factors:  # _at: where f sits, an entry or a slice
            n, nested = self.offsets[-1], isinstance(f, ProductGroup)
            self.leaves += f.leaves if nested else [f]
            self._at.append(slice(n, len(self.leaves)) if nested else n)
            self.offsets.append(len(self.leaves))
        self._flat = self.leaves == self.factors
        self._tables = [f.table for f in self.leaves]
        self._ident = tuple([f.ident for f in self.leaves])

    def identity(self):
        return self._ident

    def mul(self, a, b):
        return tuple([t[x][y] for t, x, y in zip(self._tables, a, b)])

    def inv(self, a):
        return tuple([f._inv[x] for f, x in zip(self.leaves, a)])

    def size(self):
        n = 1
        for f in self.leaves:
            n *= f.size()
        return n

    def elements(self):
        if self.size() > ENUM_CAP:
            raise ValueError("product too large to enumerate")
        return list(iproduct(*[f.elements() for f in self.leaves]))

    @functools.cached_property
    def generators(self):
        e = self._ident
        return tuple([e[:i] + (g,) + e[i + 1:]
                      for i, f in enumerate(self.leaves)
                      for g in f.generators])

    @functools.cached_property
    def identity_hom(self):
        h = StructuredHom(self, self, [(i, f.identity_hom)
                                       for i, f in enumerate(self.factors)])
        h.apply = tuple  # an element, a flat tuple, reads through
        return h

    def _split(self, x):
        """The values of the element x on the factors."""
        return x if self._flat else [x[at] for at in self._at]

    def _join(self, values):
        """The element with these values on the factors."""
        return tuple(values) if self._flat else sum(
            [v if isinstance(at, slice) else (v,)
             for v, at in zip(values, self._at)], ())

    def __repr__(self):
        return "ProductGroup(%d factors, size=%s)" % (
            len(self.factors), self.size())


class UnipotentCarrier:
    """Unipotent group of a nilpotent Lie algebra, in log coordinates; the
    linear carrier (Q^n is the one of ``abelian_lie_algebra(n)``).  A
    direct sum is given its summands, ``factors``; a plain one has none."""

    factors, _flat = (), False  # a summand is a slice, not one entry

    def __init__(self, L, factors=()):
        self.L = L
        self.dim = L.dim
        if factors:  # summand i is on the coordinates _at[i]
            self.factors = list(factors)
            self.offsets = [0, *accumulate(f.dim for f in self.factors)]
            self._at = list(map(slice, self.offsets, self.offsets[1:]))

    def identity(self):
        return tuple(self.L.zero())

    def mul(self, a, b):
        return tuple(self.L.bch(list(a), list(b)))

    def inv(self, a):
        return tuple(self.L.inverse(list(a)))

    def size(self):
        return None if self.dim else 1

    def is_abelian(self):
        return self.L.is_abelian()

    @functools.cached_property
    def identity_hom(self):
        if self.factors:
            return StructuredHom(self, self, [
                (i, f.identity_hom) for i, f in enumerate(self.factors)])
        return _int_hom(self, self, 1, _int_identity(self.dim))

    def __repr__(self):
        return "UnipotentCarrier(%r)" % (self.L,)


def is_linear_carrier(G):
    return isinstance(G, UnipotentCarrier)


# ---------------------------------------------------------------------------
# homomorphisms

class FiniteHom:
    """Homomorphism between finite carriers, stored as a full lookup dict."""

    def __init__(self, source, target, mapping, check=True):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        # apply(x) is a plain table lookup
        self.apply = self.mapping.__getitem__
        if check and not self.is_homomorphism():
            raise ValueError("not a homomorphism")

    def is_homomorphism(self):
        S, T, m = self.source, self.target, self.mapping
        return _product_defect(
            S, lambda a, s: m[S.mul(a, s)] == T.mul(m[a], m[s])) is None

    def compose(self, other):
        """self after other, its table filled only where it is read, or
        the other operand when one is the identity (``_is_identity``)."""
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        h = FiniteHom.__new__(FiniteHom)
        h.source, h.target = other.source, self.target
        h.mapping = _Composite(self.apply, other.apply)
        h.apply = h.mapping.__getitem__
        return h

    @functools.cached_property
    def preimage(self):
        """image -> its first preimage in the order of
        ``source.elements()``; one entry per element exactly when the map
        is injective."""
        table = {}
        for x in self.source.elements():
            table.setdefault(self.apply(x), x)
        return table


class _Composite(dict):
    """Lookup table of outer after inner, each entry computed on its
    first read."""

    def __init__(self, outer, inner):
        self.outer, self.inner = outer, inner

    def __missing__(self, x):
        v = self[x] = self.outer(self.inner(x))
        return v


class _IntMatrix:
    """A linear hom's matrix as ``int_form = (den, rows)``: integer rows
    over den, the lcm of the entries' denominators, so equal matrices
    have equal int forms.  ``matrix`` (``Fraction`` entries) is a view
    built on first read, as ``exactla.Echelon.rows`` is."""

    @functools.cached_property
    def matrix(self):
        return _fractions(*self.int_form)

    def compose(self, other):
        """self after other, on integer rows (see ``_int_product``)."""
        return _int_hom(other.source, self.target,
                        *_int_product(self.int_form, other.int_form,
                                      other.source.dim))


class LinearHom(_IntMatrix):
    """Homomorphism between linear-mode carriers given by a matrix acting
    on log/linear coordinates, kept in integer form (``_IntMatrix``)."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        matrix = [list(row) for row in matrix]
        if len(matrix) != target.dim or any(
                len(r) != source.dim for r in matrix):
            raise ValueError("matrix is not %dx%d" % (target.dim, source.dim))
        den = lcm(*[x.denominator for row in matrix for x in row])
        self.int_form = (den, tuple(
            tuple([x.numerator * (den // x.denominator) for x in row])
            for row in matrix))

    def apply(self, x):
        return tuple(mat_vec(self.matrix, list(x)))


def _fractions(den, rows):
    """The matrix of integer rows over den, with ``Fraction`` entries."""
    zero = Fraction(0)
    return [[Fraction(x, den) if x else zero for x in row] for row in rows]


def _int_hom(source, target, den, rows):
    """The LinearHom of the integer rows over den, with den and the
    entries divided by their gcd.  That int form is canonical, as the lcm
    of the reduced denominators den / gcd(x_i, den) is
    den / gcd(den, x_1, ..., x_n)."""
    h = LinearHom.__new__(LinearHom)
    h.source, h.target = source, target
    g = gcd(den, *[gcd(*row) for row in rows])
    h.int_form = (den // g, tuple(map(tuple, rows)) if g == 1 else
                  tuple(tuple([x // g for x in row]) for row in rows))
    return h


def _int_product(a, b, ncols):
    """(D, rows): the product of the int forms a = (da, A) and b = (db, B),
    B with ncols columns, as integer rows over D = da db, zero terms
    skipped; ``_int_hom`` makes it canonical."""
    (da, A), (db, B) = a, b
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in B]
    rows = []
    for row in A:
        acc = [0] * ncols
        for x, brow in zip(row, nonzero):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        rows.append(acc)
    return da * db, rows


class StructuredHom(_IntMatrix):
    """Block homomorphism between product-shaped carriers.

    One type serves finite products (ProductGroup) and linear direct sums
    (a UnipotentCarrier given its summands as ``factors``; vector groups
    are the abelian ones).  Target block t is fed from source block
    parts[t][0] through the factor homomorphism parts[t][1], read at
    ``source._at[parts[t][0]]``.  Applying, composing and comparing work
    block by block; for linear carriers the int form is assembled on
    first read."""

    def __init__(self, source, target, parts):
        self.source = source
        self.target = target
        self.parts = list(parts)  # (source factor index, hom on factors)
        if len(self.parts) != len(target.factors):
            raise ValueError("need one part per target factor")
        self._flat = source._flat and target._flat

    def apply(self, x):
        if self._flat:
            return tuple([h.apply(x[i]) for (i, h) in self.parts])
        at, out = self.source._at, []
        for (i, h), t in zip(self.parts, self.target._at):
            (out.extend if type(t) is slice else out.append)(h.apply(x[at[i]]))
        return tuple(out)

    def compose(self, other, memo=None):
        """self after other; the other operand where one is the identity
        on a finite carrier.  Two block maps compose block by block, each
        distinct pair of factor maps once per ``memo`` (see
        ``_compose``): a fresh one unless the caller shares its own."""
        linear = is_linear_carrier(self.source)
        if isinstance(other, StructuredHom) and (linear or not (
                _is_identity(self) or _is_identity(other))):
            if memo is None:
                memo = {}
            inner = other.parts
            parts = [(inner[i][0], _compose(h, inner[i][1], memo))
                     for (i, h) in self.parts]
            return StructuredHom(other.source, self.target, parts)
        return super().compose(other) if linear else \
            FiniteHom.compose(self, other)

    @functools.cached_property
    def int_form(self):
        # the blocks' rows over the lcm of their denominators: canonical
        den, rows = _signed_sum(self.target.dim, self.source.dim,
                                [(1, self, 0, 0)])
        return den, tuple(map(tuple, rows))

    preimage = FiniteHom.preimage  # on finite carriers


def _compose(h, h0, memo):
    """h after h0, composed once per pair of operands for as long as the
    dict ``memo`` lives; nested block maps share it.  An entry keeps both
    operands alive with the composite, so no id in a key is reused while
    the memo exists.  An identity operand gives the other one."""
    if _is_identity(h) or _is_identity(h0):
        return h0 if _is_identity(h) else h
    key = (id(h), id(h0))
    hit = memo.get(key)
    if hit is None:
        c = h.compose(h0, memo) if isinstance(h, StructuredHom) \
            else h.compose(h0)
        hit = memo[key] = (c, h, h0)
    return hit[0]


def _product_defect(S, holds):
    """The first pair (a, s) of the finite group S where the product rule
    of a map fails, or None: holds(a, s) says whether m(a s) = m(a) m(s)
    (or a crossed form of it).  It is asked at (e, e), which forces
    m(e) = e, and at every element a with every generator s.  That is
    exact: S is generated by its generators as a monoid, so induction on
    the length of a word w in them gives the rule at every pair (a, w)."""
    e = S.identity()
    if not holds(e, e):
        return (e, e)
    gens = S.generators
    for a in S.elements():
        for s in gens:
            if not holds(a, s):
                return (a, s)
    return None


def _is_identity(h):
    """Whether h is the one identity map of its source, ``identity_hom``
    of every carrier (a table, the block map of the factors' identities,
    or a matrix), tested by ``is``; the probe builds no identity."""
    return h is h.source.__dict__.get("identity_hom")


def inner_automorphism(G, c):
    """Conjugation x -> c x c^-1 as explicit homomorphism data, or
    ``G.identity_hom`` when c commutes with G's generators (on a
    product, when every factor conjugation is the identity)."""
    if isinstance(G, UnipotentCarrier):
        return LinearHom(G, G, G.L.Ad_matrix(list(c)))
    if isinstance(G, ProductGroup):
        parts = [(i, inner_automorphism(f, c[at]))
                 for i, (f, at) in enumerate(zip(G.factors, G._at))]
        if all(_is_identity(h) for _, h in parts):
            return G.identity_hom
        return StructuredHom(G, G, parts)
    if all(G.mul(c, g) == G.mul(g, c) for g in G.generators):
        return G.identity_hom
    ci = G.inv(c)
    return FiniteHom(G, G, {x: G.mul(G.mul(c, x), ci) for x in G.elements()},
                     check=False)


def hom_equal(h1, h2):
    """Decidable equality: block maps by ``_sides_agree``, other linear
    maps by int form, finite ones on generators."""
    if h1 is h2:
        return True
    if not (h1.source is h2.source or type(h1.source) is type(h2.source)):
        raise ValueError("homs on unrelated carriers do not compare")
    if isinstance(h1, StructuredHom) and isinstance(h2, StructuredHom):
        return _sides_agree(h1.source, (h1,), (h2,), {})
    if is_linear_carrier(h1.source):
        return h1.int_form == h2.int_form
    return all(h1.apply(g) == h2.apply(g) for g in h1.source.generators)


def _sides_agree(src, lhs, rhs, memo):
    """Whether the composites of the maps lhs and rhs (listed in the order
    they apply) agree on src, with no block map composed: per target
    block, two chains of factor maps (``_chains``) agree when they read
    one block and agree on its generators (finite, by evaluation) or int
    forms (linear), or are both trivial; each pair once per ``memo``."""
    c1, c2 = _chains(src, lhs), _chains(src, rhs)
    if c1 is None or c2 is None:
        c1, c2, blocks = [(0, lhs)], [(0, rhs)], [src]
    else:
        blocks = src.factors
    for (b1, f1), (b2, f2) in zip(c1, c2):
        if b1 == b2 and f1 == f2:
            continue
        key = (b1 == b2, blocks[b1], blocks[b2], f1, f2)
        ok = memo.get(key)
        if ok is None:
            ok = memo[key] = _chains_agree(*key, memo)
        if not ok:
            return False
    return True


def _chains(src, maps):
    """(source block, factor maps) per target block, or None; identities
    are left out (``_is_identity``, inlined: it runs once per part)."""
    if not src.factors or not all(
            isinstance(h, StructuredHom) for h in maps):
        return None
    chains = [(i, () if f is f.source.__dict__.get("identity_hom") else (f,))
              for i, f in maps[0].parts] if maps else \
        [(b, ()) for b in range(len(src.factors))]
    for h in maps[1:]:
        chains = [(chains[i][0], chains[i][1] if f is f.source.__dict__.get(
            "identity_hom") else chains[i][1] + (f,)) for i, f in h.parts]
    return chains


def _chains_agree(same, S1, S2, f1, f2, memo):
    if is_linear_carrier(S1):
        h1, h2 = _fold(S1, f1, memo), _fold(S2, f2, memo)
        if not same:
            return not any(map(any, h1.int_form[1] + h2.int_form[1]))
        if isinstance(h1, StructuredHom) and isinstance(h2, StructuredHom):
            return _sides_agree(S1, (h1,), (h2,), memo)
        return h1.int_form == h2.int_form
    if same:
        return all(_run(f1, g) == _run(f2, g) for g in S1.generators)
    return all(_run(f, g) == (f[-1].target if f else S).identity()
               for S, f in ((S1, f1), (S2, f2)) for g in S.generators)


def _fold(S, maps, memo):
    return functools.reduce(lambda h, f: _compose(f, h, memo), maps[1:],
                            maps[0]) if maps else S.identity_hom


def _run(maps, x):
    for f in maps:
        x = f.apply(x)
    return x


# ---------------------------------------------------------------------------
# (semi-)cosimplicial groups

class SemiCosimplicialGroup:
    """Truncated semi-cosimplicial group: objects X^0..X^N and coface maps
    d[n][i]: X^{n-1} -> X^n for 1 <= n <= N, 0 <= i <= n."""

    def __init__(self, objects, cofaces, check=True):
        self.objects = list(objects)
        self.N = len(objects) - 1
        self.cofaces = {n: list(ds) for n, ds in cofaces.items()}
        for n, ds in self.cofaces.items():
            if len(ds) != n + 1:
                raise ValueError("level %d needs %d cofaces" % (n, n + 1))
        if check:
            self.check_coface_identities()

    def d(self, n, i):
        return self.cofaces[n][i]

    def check_coface_identities(self):
        _check(x for x in self._identities() if x[0] == "coface")

    def _identities(self):
        """(kind, n, i, j, X, lhs, rhs) per identity, each side the maps
        from X in the order they apply.  d^j d^i = d^i d^{j-1}, i < j:"""
        d, X = self.cofaces, self.objects
        for n in range(2, self.N + 1):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    yield ("coface", n, i, j, X[n - 2], (d[n - 1][i], d[n][j]),
                           (d[n - 1][j - 1], d[n][i]))


class CosimplicialGroup(SemiCosimplicialGroup):
    """Adds codegeneracies s[n][i]: X^{n+1} -> X^n for 0 <= n <= N-1;
    ``check_identities`` sets ``verified``, True once they all hold."""

    def __init__(self, objects, cofaces, codegens, check=True):
        super().__init__(objects, cofaces, check=False)
        self.verified = False
        self.codegens = {n: list(ss) for n, ss in codegens.items()}
        for n, ss in self.codegens.items():
            if len(ss) != n + 1:
                raise ValueError("level %d needs %d codegeneracies"
                                 % (n, n + 1))
        if check:
            self.check_identities()

    def s(self, n, i):
        return self.codegens[n][i]

    def check_identities(self, parent=None):
        """All cosimplicial identities, decided on block chains (finite
        ones by evaluation, ``_check``), but those whose maps are all the
        very maps (``is``) of the same identity of a verified parent."""
        _check(self._identities(), parent._identities()
               if parent is not None and parent.verified else None)
        self.verified = True

    def _identities(self):
        yield from super()._identities()
        d, s, X = self.cofaces, self.codegens, self.objects
        # s^j s^i = s^i s^{j+1} for i <= j
        for n in range(self.N - 1):
            for i in range(n + 2):
                for j in range(i, n + 1):
                    if n + 1 in s:
                        yield ("codegeneracy", n, i, j, X[n + 2],
                               (s[n + 1][i], s[n][j]),
                               (s[n + 1][j + 1], s[n][i]))
        # s^j d^i
        for n in range(self.N):
            for j in range(n + 1):
                for i in range(n + 2):
                    rhs = (s[n - 1][j - 1], d[n][i]) if i < j \
                        else () if i in (j, j + 1) \
                        else (s[n - 1][j], d[n][i - 1])
                    yield ("mixed", n, i, j, X[n], (d[n + 1][i], s[n][j]),
                           rhs)


def _check(identities, passed=None):
    """Raise RuntimeError at the first identity whose sides differ (one
    memo for all), skipping each whose maps are all its namesake's in
    ``passed``."""
    memo = {}
    for (kind, n, i, j, src, lhs, rhs), old in zip(
            identities, chain(passed or (), repeat(None))):
        if old and old[:4] == (kind, n, i, j) and all(
                map(operator.is_, lhs + rhs, old[5] + old[6])):
            continue
        if not _sides_agree(src, lhs, rhs, memo):
            raise RuntimeError("%s identity fails at n=%d i=%d j=%d"
                               % (kind, n, i, j))


# ---------------------------------------------------------------------------
# simplex-category combinatorics

def epis(n, k):
    """Order-preserving surjections [n] -> [k], as value tuples."""
    if k > n or k < 0:
        return []
    out = []
    def rec(prefix, last):
        if len(prefix) == n + 1:
            if last == k:
                out.append(tuple(prefix))
            return
        for v in (last, last + 1):
            if v <= k:
                rec(prefix + [v], v)
    rec([0], 0)
    return out


def epi_mono_factor(h, k):
    """Factor the monotone map h: [n'] -> [k] (value tuple) as an epi onto
    [k'] followed by a mono into [k].  Returns (epi tuple, mono image list)."""
    image = sorted(set(h))
    pos = {v: i for i, v in enumerate(image)}
    epi = tuple(pos[v] for v in h)
    return epi, image


def compose_monotone(g, f):
    """(g o f) as a value tuple, f: [n'] -> [n], g: [n] -> [k]."""
    return tuple(g[v] for v in f)


def delta_map(n, i):
    """The coface injection [n-1] -> [n] missing i, as a value tuple."""
    return tuple(v if v < i else v + 1 for v in range(n))


def sigma_map(n, i):
    """The codegeneracy surjection [n+1] -> [n] hitting i twice."""
    return tuple(v if v <= i else v - 1 for v in range(n + 2))


# ---------------------------------------------------------------------------
# cogeneration

@functools.cache
def _gamma_epis(n, j):
    """The factors of level n cogenerated from a j-truncated object: the
    pairs (k, epi [n] ->> [k]), k <= j, as a tuple kept per process."""
    return tuple((k, e) for k in range(min(n, j) + 1) for e in epis(n, k))


@functools.cache
def _wiring(f, n, j):
    """Epi-mono wiring of the map that a monotone f: [n'] -> [n] induces
    on the products indexed by _gamma_epis(n', j) and _gamma_epis(n, j):
    for each target epi g: [n] ->> [k], factor g o f as an epi onto [k']
    followed by a mono into [k].  Gives, per target, the position of that
    epi among the source epis, the mono's image and k: a tuple, which
    depends on the shape alone and is kept per process."""
    src_idx = {e: i for i, e in enumerate(_gamma_epis(len(f) - 1, j))}
    out = []
    for (k, g) in _gamma_epis(n, j):
        epi, image = epi_mono_factor(compose_monotone(g, f), k)
        out.append((src_idx[(len(image) - 1, epi)], tuple(image), k))
    return tuple(out)


def _mono_composite(coface, start, image, k):
    """The map of the injection [k'] -> [k] with the given image, applied
    after start: the cofaces d^m, for each value m of [k] missing from the
    image, in increasing order."""
    h = start
    level = len(image) - 1
    for m in range(k + 1):
        if m not in image:
            level += 1
            h = coface(level, m).compose(h)
    return h


def _product_object(factors):
    """Product of the factor carriers: a ProductGroup of finite ones, or
    the direct sum of unipotent ones, given them as its summands."""
    if not all(map(is_linear_carrier, factors)):
        return ProductGroup(factors)
    return UnipotentCarrier(factors[0].L if len(factors) == 1 else
                            direct_sum(*[f.L for f in factors]), factors)


def cogenerate(X, N=None):
    """Cosimplicial group cogenerated by a truncated semi-cosimplicial
    group: Gamma^n = product of X^k over order-preserving surjections
    [n] ->> [k] (k within the truncation; a flat ProductGroup if finite),
    with maps induced by epi-mono factorization, wired per process
    (``_wiring``) and through mono composites built once per call.
    Identities are verified post-construction, by one ``check_identities``
    whose memo lives for that call: each distinct pair of block chains
    through the shared mono composites is decided once; nothing is cached
    past the check."""
    if N is None:
        N = X.N + 1
    objects = [_product_object([X.objects[k] for (k, _) in
                                _gamma_epis(n, X.N)]) for n in range(N + 1)]
    monos = {}

    def gamma_map(f, np, n):
        """Hom Gamma^{n'} -> Gamma^n for monotone f: [n'] -> [n]."""
        parts = []
        for (i, image, k) in _wiring(f, n, X.N):
            if (image, k) not in monos:
                monos[image, k] = _mono_composite(
                    X.d, X.objects[len(image) - 1].identity_hom, image, k)
            parts.append((i, monos[image, k]))
        return StructuredHom(objects[np], objects[n], parts)

    G = CosimplicialGroup(objects, *_structure_maps(gamma_map, N),
                          check=True)
    G.semi = X
    return G


def _structure_maps(induced, N):
    """Cofaces and codegeneracies up to level N, from the map induced(f,
    n', n) of each monotone f: [n'] -> [n]."""
    cofaces = {n: [induced(delta_map(n, i), n - 1, n) for i in range(n + 1)]
               for n in range(1, N + 1)}
    codegens = {n: [induced(sigma_map(n, i), n + 1, n) for i in range(n + 1)]
                for n in range(N)}
    return cofaces, codegens


def cogenerate_morphism(GX, GY, factor_maps):
    """Levelwise block map between two cogenerated cosimplicial groups
    induced by maps of the underlying truncated semi objects
    (factor_maps[k]: X^k -> Y^k on every factor indexed by an epi onto
    [k]).  Returns one hom per level; it is a cosimplicial map when the
    factor maps commute with the cofaces."""
    out = []
    for n in range(min(GX.N, GY.N) + 1):
        epis = _gamma_epis(n, GX.semi.N)
        if epis != _gamma_epis(n, GY.semi.N):
            raise ValueError("level %d epis differ" % n)
        parts = [(i, factor_maps[k]) for i, (k, _) in enumerate(epis)]
        out.append(StructuredHom(GX.objects[n], GY.objects[n], parts))
    return out


# ---------------------------------------------------------------------------
# cohomotopy

def pi0(U):
    """Equalizer of d^0, d^1: U^0 -> U^1.  Returns a list of elements for
    finite carriers, or an echelon basis of the Lie subalgebra for linear
    carriers."""
    d0, d1 = U.d(1, 0), U.d(1, 1)
    G0 = U.objects[0]
    if is_linear_carrier(G0):
        diff = exactla.mat_sub(d0.matrix, d1.matrix)
        return kernel_basis(diff, G0.dim)
    return [x for x in G0.elements() if d0.apply(x) == d1.apply(x)]


def cocycle_condition(U, u):
    """d^1(u) = d^2(u) d^0(u) in U^2, true of every u without a level 2."""
    if U.N < 2:
        return True
    d0, d1, d2 = U.d(2, 0), U.d(2, 1), U.d(2, 2)
    G2 = U.objects[2]
    return d1.apply(u) == G2.mul(d2.apply(u), d0.apply(u))


def z1_elements(U):
    """The 1-cocycles of a finite U, in the order of U^1.elements()."""
    return _cocycle_walk(U)


def _cocycle_walk(U, target=None, first=False):
    """The u in U^1 with d^1(u) = d^2(u) t d^0(u), t the target in U^2
    (the identity when None), in the order of U^1.elements(); with
    first, the first of them or None.  For an abelian U and t a
    2-cochain, there is one exactly when t is a coboundary: t =
    d^2(u)^-1 d^1(u) d^0(u)^-1.

    The condition is decided one block of U^2 at a time: a block reads
    at most three blocks of U^1, through the parts of the three block
    cofaces.  U^1 is walked depth first in factor order, and each block
    of U^2 is checked as soon as the blocks of U^1 it reads are chosen,
    so a failing prefix is never extended.  A block k of U^1 that some
    check reads only through an injective d^1 part, its other two parts
    reading earlier blocks, is solved from that check (through the
    ``preimage`` table kept on the part map, which a twist of U shares)
    instead of enumerated.  ENUM_CAP bounds the product of the sizes of
    the enumerated blocks, which is at most |U^1|.  A level without blocks,
    or cofaces that are not block maps, count as one block."""
    G1 = U.objects[1]
    if G1.size() is None:
        raise ValueError("U^1 too large to enumerate")
    ds = [U.d(2, i) for i in range(3)] if U.N >= 2 else []
    if G1.factors and all(isinstance(h, StructuredHom) for h in ds):
        blocks, element = G1.factors, G1._join
        parts = [h.parts for h in ds]
        rows = U.objects[2].factors if ds else []
        targets = [None] * len(rows) if target is None else \
            U.objects[2]._split(target)
    else:
        blocks, element = [G1], lambda x: x[0]
        parts = [[(0, h)] for h in ds]
        rows = [U.objects[2]] if ds else []
        targets = [target]
    # checks[k]: the blocks of U^2 decided once block k of U^1 is chosen
    checks = [[] for _ in blocks]
    for (i0, h0), (i1, h1), (i2, h2), row, t in zip(*parts, rows, targets):
        mul, d2 = row.mul, h2.apply
        if t is not None:
            d2 = lambda v, d2=d2, t=t, mul=mul: mul(d2(v), t)
        checks[max(i0, i1, i2)].append(
            (i0, h0.apply, i1, h1.apply, i2, d2, mul, h1))
    solvers = [None] * len(blocks)
    for k, cs in enumerate(checks):
        for c in cs:
            i0, d0, i1, _, i2, d2, mul, h1 = c
            if i1 != k or k <= max(i0, i2):
                continue
            if len(h1.preimage) == h1.source.size():  # h1 injective
                solvers[k] = (i0, d0, i2, d2, mul, h1.preimage.get)
                cs.remove(c)
                break
    size = 1
    for b, solver in zip(blocks, solvers):
        if solver is None:
            size *= b.size()
    if size > ENUM_CAP:
        raise ValueError("U^1 too large to enumerate")
    choices = [None if solver else b.elements()
               for b, solver in zip(blocks, solvers)]
    x = [None] * len(blocks)
    out = []

    def candidates(k):
        if solvers[k] is None:
            return iter(choices[k])
        i0, d0, i2, d2, mul, solve = solvers[k]
        v = solve(mul(d2(x[i2]), d0(x[i0])))
        return iter(() if v is None else (v,))

    # stack[k] iterates the candidates for block k below the chosen x[:k]
    stack = [candidates(0)]
    while stack:
        k = len(stack) - 1
        for v in stack[k]:
            x[k] = v
            if all(d1(x[i1]) == mul(d2(x[i2]), d0(x[i0]))
                   for (i0, d0, i1, d1, i2, d2, mul, _) in checks[k]):
                break
        else:
            stack.pop()
            continue
        if k + 1 < len(blocks):
            stack.append(candidates(k + 1))
        elif first:
            return element(x)
        else:
            out.append(element(x))
    return None if first else out


def twisted_conj(U, u0, u1):
    """u0 . u1 = d^1(u0)^{-1} u1 d^0(u0)."""
    d0, d1 = U.d(1, 0), U.d(1, 1)
    G1 = U.objects[1]
    return G1.mul(G1.mul(G1.inv(d1.apply(u0)), u1), d0.apply(u0))


def pi1_finite(U):
    """Full orbit enumeration of Z^1 under twisted conjugation by U^0.
    Returns dict with the classes (representative, orbit, whether it is
    the distinguished class), the ``index`` of each cocycle's class and
    ``z1``, the cocycles in the order of ``z1_elements``.

    Each orbit is closed under the generators of U^0 alone: U^0 is
    finite, so the inverse of a generator is a positive power of it, and
    a set closed under the generators is closed under all of U^0.  A
    generator g steps v to a v b (a = d^1(g)^-1, b = d^0(g)) through one
    table per leaf of U^1, built per call: a's own row where b = e.
    Every image computed is checked to lie in Z^1."""
    Z1 = z1_elements(U)
    zset = set(Z1)
    G0, G1 = U.objects[0], U.objects[1]
    d0, d1 = U.d(1, 0), U.d(1, 1)
    flat = isinstance(G1, ProductGroup)
    leaves = G1.leaves if flat else [G1]
    steps = []
    for g in G0.generators:
        a, b = G1.inv(d1.apply(g)), d0.apply(g)
        tables = [L.table[x] if y == L.ident else
                  [L.table[z][y] for z in L.table[x]]
                  for L, x, y in zip(leaves, *((a, b) if flat else
                                               ((a,), (b,))))]
        steps.append(tables if flat else tables[0])
    getitem = operator.getitem
    index = {}
    classes = []
    for u in Z1:
        if u in index:
            continue
        orbit = {u}
        queue = [u]
        while queue:
            v = queue.pop()
            for tables in steps:
                # exact size: tuple(map(...)) over-allocates, then resizes
                w = (*map(getitem, tables, v),) if flat else tables[v]
                if w not in zset:
                    raise RuntimeError("twisted conjugation left Z^1 (bug)")
                if w not in orbit:
                    orbit.add(w)
                    queue.append(w)
        index.update(dict.fromkeys(orbit, len(classes)))
        classes.append({"rep": u, "orbit": orbit,
                        "distinguished": U.objects[1].identity() in orbit})
    return {"classes": classes, "count": len(classes), "index": index,
            "z1": Z1}


def pi1_unipotent_deciders(U):
    """Deciders for pi^1 of a unipotent cosimplicial group: triviality,
    equivalence and a witness of equivalence of cocycles by stabilizer
    descent, and exact tangent dimensions."""
    G0, G1 = U.objects[0], U.objects[1]
    if not is_linear_carrier(G0):
        raise ValueError("unipotent deciders need a linear carrier")
    L1 = G1.L

    def is_cocycle(c):
        return cocycle_condition(U, tuple(c))

    def witness(c, cprime=None):
        """u0 in U^0 with u0 . c = c' (the identity when c' is None), or
        None when the two cocycles are not equivalent."""
        target = G1.identity() if cprime is None else tuple(cprime)
        if not (is_cocycle(c) and is_cocycle(target)):
            raise ValueError("malformed cocycle")

        def residual(u0):
            lhs = twisted_conj(U, tuple(u0), tuple(c))
            return list(G1.mul(lhs, G1.inv(target)))

        sol, _ = solve_graded_affine(L1, residual, G0)
        return sol

    def equivalent(c, cprime):
        return witness(c, cprime) is not None

    def is_trivial(c):
        return witness(c) is not None

    def tangent_dimension_at(c):
        """dim T_c Z^1 minus the rank of the orbit map at the identity,
        both exact, by the chain rule on the columns of the face maps.
        Differentiating exp(z) = exp(x) exp(y) gives dexp_z(z') =
        Ad_{-y} dexp_x(x') + dexp_y(y'), and each dexp is invertible.  So
        the orbit map u0 -> d^1(u0)^-1 c d^0(u0) has the rank of
        d^0 e - Ad_{-c} d^1 e over a basis e of U^0.  The cocycle map
        u -> d^1 u - bch(d^2 u, d^0 u) at c, with a = d^2 c, b = d^0 c
        and z = d^1 c = bch(a, b), has a Jacobian J that dexp_z takes to
        dexp_z(d^1 e) - Ad_{-b} dexp_a(d^2 e) - dexp_b(d^0 e) over a basis
        e of U^1; as dexp_z is invertible, these have the rank of J."""
        if not is_cocycle(c):
            raise ValueError("malformed cocycle")
        L2 = U.objects[2].L

        def columns(n, i):
            return transpose(U.d(n, i).matrix)

        a, b, z = (list(U.d(2, i).apply(c)) for i in (2, 0, 1))
        b_inv, c_inv = L2.inverse(b), L1.inverse(list(c))
        cocycle = [vec_sub(L2.dexp(z, x1), vec_add(
            L2.Ad(b_inv, L2.dexp(a, x2)), L2.dexp(b, x0)))
            for x0, x1, x2 in zip(*(columns(2, i) for i in range(3)))]
        orbit = [vec_sub(x0, L1.Ad(c_inv, x1))
                 for x0, x1 in zip(columns(1, 0), columns(1, 1))]
        return G1.dim - rank(cocycle) - rank(orbit)

    return {"is_trivial": is_trivial, "equivalent": equivalent,
            "witness": witness,
            "tangent_dimension_at": tangent_dimension_at,
            "is_cocycle": is_cocycle}


# ---------------------------------------------------------------------------
# abelian cohomotopy: Moore complexes

def moore_differentials(A):
    """Unnormalized Moore complex differentials (alternating sums of the
    coface matrices) of a linear-mode (semi-)cosimplicial object, with
    ``Fraction`` entries."""
    return [_fractions(*form) for form in _moore_int_forms(A)]


def _moore_int_forms(A):
    return [_signed_sum(A.objects[n].dim, A.objects[n - 1].dim,
                        [((-1) ** i, A.d(n, i), 0, 0) for i in range(n + 1)])
            for n in range(1, A.N + 1)]


def _signed_sum(nrows, ncols, terms):
    """(den, rows): the nrows x ncols sum of sign times the matrix of h,
    with its top left corner at row r0 and column c0, over the terms
    (sign, h, r0, c0).  Block maps are split into blocks, and the signs
    of each distinct block at one place summed: each block with a
    nonzero sum is added once, over the lcm of their denominators."""
    coeffs, stack = {}, list(terms)
    while stack:
        sign, h, r0, c0 = stack.pop()
        if isinstance(h, StructuredHom):
            for (i, f) in h.parts:
                stack.append((sign, f, r0, c0 + h.source.offsets[i]))
                r0 += f.target.dim
        else:
            coeffs.setdefault((id(h), r0, c0), [0, h, r0, c0])[0] += sign
    blocks = [(c, h.int_form, r0, c0)
              for c, h, r0, c0 in coeffs.values() if c]
    den = lcm(*[d for _, (d, _), _, _ in blocks])
    out = [[0] * ncols for _ in range(nrows)]
    for c, (d, rows), r0, c0 in blocks:
        s = c * (den // d)
        for row, acc in zip(rows, out[r0:]):
            for j, y in enumerate(row, c0):
                if y:
                    acc[j] += s * y
    return den, out


def complex_cohomology_dims(dims, diffs):
    """H^i dims for a cochain complex given by object dims and matrices
    (``int`` or ``Fraction`` rows).  A rank is the number of pivots of
    the forward elimination ``exactla._echelon``: no row is reduced above
    its pivot or divided out to a ``Fraction``."""
    # d^i is the outgoing differential at degree i and the incoming one at
    # degree i + 1: rank each once
    ranks = [len(_echelon(d)[1]) for d in diffs[:len(dims)]]
    out = []
    for i in range(len(dims)):
        rank_out = ranks[i] if i < len(ranks) else 0
        rank_in = ranks[i - 1] if i > 0 else 0
        out.append(dims[i] - rank_out - rank_in)
    return out


def pi_abelian_all(A):
    """Cohomotopy dims of a linear-mode object, ranked on the integer rows
    of its Moore differentials (a denominator changes no rank)."""
    return complex_cohomology_dims([G.dim for G in A.objects],
                                   [rows for _, rows in _moore_int_forms(A)])


# ---------------------------------------------------------------------------
# twisting

def twist(U, beta):
    """Twist of a cosimplicial group by a 1-cocycle beta (an element of
    U^1, else ValueError): only the d^0 maps change, to u |-> c_n d^0(u)
    c_n^{-1} with c_n = d^n...d^2(beta), or stay U's very maps where that
    conjugation is the identity; so a verified U has only the identities
    that read a changed d^0 re-checked (``check_identities``)."""
    if not _is_element(U.objects[1], beta):
        raise ValueError("twisting datum is not an element of U^1")
    if not cocycle_condition(U, beta):
        raise ValueError("twisting datum is not a cocycle")
    cofaces = {n: list(ds) for n, ds in U.cofaces.items()}
    c = beta
    for n in range(1, U.N + 1):
        if n >= 2:
            c = U.d(n, n).apply(c)
        conj = inner_automorphism(U.objects[n], c)
        cofaces[n] = [conj.compose(U.d(n, 0))] + list(U.cofaces[n][1:])
    V = CosimplicialGroup(U.objects, cofaces, U.codegens, check=False)
    V.check_identities(parent=U)
    return V


def _is_element(G, x):
    if isinstance(G, TableGroup):
        return isinstance(x, int) and 0 <= x < G.n
    return isinstance(x, tuple) and (
        len(x) == G.dim if isinstance(G, UnipotentCarrier) else
        len(x) == len(G.leaves) and all(map(_is_element, G.leaves, x)))


def check_cosimplicial_map(U, V, maps):
    """Verify that per-level maps U^n -> V^n, n = 0..len(maps) - 1,
    commute with all cofaces and codegeneracies between those levels.
    Each square is decided as an identity of ``check_identities`` is
    (``_sides_agree``, finite block chains by evaluation), with one memo
    for all of them."""
    top, memo = len(maps) - 1, {}
    squares = [(U.objects[n - 1], (U.d(n, i), maps[n]),
                (maps[n - 1], V.d(n, i)))
               for n in range(1, top + 1) for i in range(n + 1)]
    squares += [(U.objects[n + 1], (U.s(n, i), maps[n]),
                 (maps[n + 1], V.s(n, i)))
                for n in range(top) for i in range(n + 1)]
    return all(_sides_agree(*square, memo) for square in squares)


def trivial_twist_isomorphism(U, beta, u0):
    """The canonical isomorphism from the twist by beta' =
    d^1(u0)^-1 beta d^0(u0) to the twist by beta: level n map is
    v |-> d^n...d^1(u0) v (d^n...d^1(u0))^{-1}."""
    Ub, Ubp = twist(U, beta), twist(U, twisted_conj(U, u0, beta))
    maps, c = [inner_automorphism(U.objects[0], u0)], u0
    for n in range(1, U.N + 1):
        c = U.d(n, n).apply(c)
        maps.append(inner_automorphism(U.objects[n], c))
    ok = check_cosimplicial_map(Ubp, Ub, maps)
    return Ubp, Ub, maps, ok


# ---------------------------------------------------------------------------
# double cogeneration and Eilenberg-Zilber

class BiSemiCosimplicial:
    """Bi-semi-cosimplicial abelian object in linear mode: objects[p][q]
    are vector groups (unipotent carriers of abelian algebras), and the
    LinearHoms dh[p][q][i]: (p-1,q) -> (p,q) and dv[p][q][i]:
    (p,q-1) -> (p,q) are the cofaces, each built once by the caller
    (from a matrix, or from an int form as ``random_bisemicosimplicial``
    does); ``h`` and ``v`` return those homs."""

    def __init__(self, objects, dh, dv):
        self.objects = objects
        self.P = len(objects) - 1
        self.Q = len(objects[0]) - 1
        self._h = {(p, q, i): h
                   for p in range(1, self.P + 1) for q in range(self.Q + 1)
                   for i, h in enumerate(dh[p][q])}
        self._v = {(p, q, i): h
                   for p in range(self.P + 1) for q in range(1, self.Q + 1)
                   for i, h in enumerate(dv[p][q])}

    def h(self, p, q, i):
        """Horizontal coface d_h^i: A^{p-1,q} -> A^{p,q}."""
        return self._h[p, q, i]

    def v(self, p, q, i):
        """Vertical coface d_v^i: A^{p,q-1} -> A^{p,q}."""
        return self._v[p, q, i]


def diagonal_cogenerate(A, N):
    """Diagonal of the double cogeneration of a truncated
    bi-semi-cosimplicial vector space, up to level N.  Level n is, for
    each epi [n] ->> [a], the product of A^{a,b} over the epis
    [n] ->> [b].  A monotone f feeds the block of (eh, ev) from the epi
    parts of eh o f and ev o f, through the horizontal mono of eh o f and
    then the vertical mono of ev o f, wired per process (``_wiring``),
    each mono a composite of the bi-cofaces A.h / A.v that A holds.  The
    identities are not verified here; check_identities does that on
    demand."""
    hepis = [_gamma_epis(n, A.P) for n in range(N + 1)]
    vepis = [_gamma_epis(n, A.Q) for n in range(N + 1)]
    rows = [[_product_object([A.objects[a][b] for (b, _) in vepis[n]])
             for a in range(A.P + 1)] for n in range(N + 1)]
    objects = [_product_object([rows[n][a] for (a, _) in hepis[n]])
               for n in range(N + 1)]
    hmonos, blocks = {}, {}

    def block(imh, a, imv, b):
        """A^{a',b'} -> A^{a,b'} -> A^{a,b} along the monos with images
        imh into [a] and imv into [b]."""
        ap, bp = len(imh) - 1, len(imv) - 1
        if (imh, a, bp) not in hmonos:
            hmonos[imh, a, bp] = _mono_composite(
                lambda lev, m: A.h(lev, bp, m),
                A.objects[ap][bp].identity_hom, imh, a)
        if (imh, a, imv, b) not in blocks:
            blocks[imh, a, imv, b] = _mono_composite(
                lambda lev, m: A.v(a, lev, m), hmonos[imh, a, bp], imv, b)
        return blocks[imh, a, imv, b]

    def diagonal_map(f, np, n):
        vwiring = _wiring(f, n, A.Q)
        parts = []
        for (i, imh, a) in _wiring(f, n, A.P):
            row = [(j, block(imh, a, imv, b)) for (j, imv, b) in vwiring]
            parts.append((i, StructuredHom(rows[np][len(imh) - 1],
                                           rows[n][a], row)))
        return StructuredHom(objects[np], objects[n], parts)

    return CosimplicialGroup(objects, *_structure_maps(diagonal_map, N),
                             check=False)


def eilenberg_zilber_oracle(A):
    """Compare pi^j of the diagonal of the doubly cogenerated object with
    H^j of the total Moore bicomplex, for j = 0, 1, 2; both are truncated
    at level max(P, Q, 2) + 1."""
    N = max(A.P, A.Q, 2) + 1

    # -- total complex of the Moore bicomplex of A itself
    def offsets(m):
        off, out = 0, {}
        for p in range(max(0, m - A.Q), min(m, A.P) + 1):
            out[(p, m - p)] = off
            off += A.objects[p][m - p].dim
        return out, off

    tot = [offsets(n) for n in range(N + 1)]
    tot_dims = [total for (_, total) in tot]
    # total differential D(a_{p,q}) = dh(a) + (-1)^p dv(a), each the
    # alternating sum of its cofaces
    tot_diffs = []
    for n in range(N):
        dst_off = tot[n + 1][0]
        terms = []
        for (p, q), so in tot[n][0].items():
            if (p + 1, q) in dst_off:
                terms += [((-1) ** i, A.h(p + 1, q, i), dst_off[p + 1, q], so)
                          for i in range(p + 2)]
            if (p, q + 1) in dst_off:
                terms += [((-1) ** (p + i), A.v(p, q + 1, i),
                           dst_off[p, q + 1], so) for i in range(q + 2)]
        tot_diffs.append(_signed_sum(tot_dims[n + 1], tot_dims[n], terms)[1])
    tot_h = complex_cohomology_dims(tot_dims, tot_diffs)
    diag_h = pi_abelian_all(diagonal_cogenerate(A, N))

    report = {"diagonal": diag_h[:3], "total": tot_h[:3],
              "match": diag_h[:3] == tot_h[:3]}
    if not report["match"]:
        raise RuntimeError("Eilenberg-Zilber mismatch (bug): %r" % report)
    return report


def complex_embedding(dims, diffs):
    """Semi-cosimplicial vector space realizing a cochain complex: all
    cofaces vanish except the top one, which is (-1)^n times the
    differential.  Cogenerating it yields the denormalization of the
    complex, with matching cohomotopy in degrees up to the length."""
    N = len(dims) - 1
    objects = [UnipotentCarrier(abelian_lie_algebra(d)) for d in dims]
    cofaces = {}
    for n in range(1, N + 1):
        zero = exactla.zero_matrix(dims[n], dims[n - 1])
        ds = [LinearHom(objects[n - 1], objects[n], zero) for _ in range(n)]
        top = [[((-1) ** n) * v for v in row] for row in diffs[n - 1]]
        ds.append(LinearHom(objects[n - 1], objects[n], top))
        cofaces[n] = ds
    return SemiCosimplicialGroup(objects, cofaces, check=True)


# ---------------------------------------------------------------------------
# random instances (for cross-validation batteries)

def random_linear_semicosimplicial(rng, dims):
    """Random truncated semi-cosimplicial rational vector space with the
    given level dimensions: level-1 cofaces are free, higher cofaces are
    sampled from the affine space cut out by the coface identities.
    Drawn on integer rows: a level's cofaces are integer numerators over
    one denominator, and each LinearHom is built from its rows over that
    denominator (``_int_hom``), with no ``Fraction``.  The rng draws, in
    order, and the cofaces are those of the sampling in ``Fraction``s."""
    N = len(dims) - 1
    objects = [UnipotentCarrier(abelian_lie_algebra(d)) for d in dims]
    mats = {}  # n -> (den, the integer matrices of the d(n, i) over den)
    if N >= 1:
        mats[1] = (1, [[[rng.randint(-2, 2) for _ in range(dims[0])]
                        for _ in range(dims[1])] for _ in range(2)])
    for n in range(2, N + 1):
        rn, cn = dims[n], dims[n - 1]
        per = rn * cn
        nvars = (n + 1) * per

        def var(i, r, c):
            return i * per + r * cn + c

        ints = mats[n - 1][1]
        rows = []
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                # d(n,j) d(n-1,i) = d(n,i) d(n-1,j-1)
                A, B = ints[i], ints[j - 1]
                for r in range(rn):
                    for c in range(dims[n - 2]):
                        row = [0] * nvars
                        for m in range(cn):
                            row[var(j, r, m)] += A[m][c]
                            row[var(i, r, m)] -= B[m][c]
                        rows.append(row)
        ker, pivots = _int_kernel(rows, nvars)
        den = lcm(*[row[p] for row, p in zip(ker, pivots)])
        flat = [0] * nvars
        for row, p in zip(ker, pivots):
            coeff = rng.randint(-2, 2) * (den // row[p])
            if coeff:
                for t, b in enumerate(row):
                    if b:
                        flat[t] += coeff * b
        mats[n] = (den, [[[flat[var(i, r, c)] for c in range(cn)]
                          for r in range(rn)] for i in range(n + 1)])
    cofaces = {n: [_int_hom(objects[n - 1], objects[n], den, M) for M in Ms]
               for n, (den, Ms) in mats.items()}
    return SemiCosimplicialGroup(objects, cofaces, check=True)


def _kron(A, B):
    """The Kronecker product of integer matrices."""
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def _int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_bisemicosimplicial(rng, hdims, vdims):
    """Random bi-semi-cosimplicial vector space as the levelwise tensor
    product of two independent random semi-cosimplicial vector spaces.
    Each bi-coface is the Kronecker product of a coface's integer rows
    with an integer identity, over the coface's denominator, built as a
    LinearHom by ``_int_hom``."""
    V = random_linear_semicosimplicial(rng, hdims)
    W = random_linear_semicosimplicial(rng, vdims)
    P, Q = V.N, W.N
    objects = [[UnipotentCarrier(abelian_lie_algebra(hdims[p] * vdims[q]))
                for q in range(Q + 1)] for p in range(P + 1)]
    dh = [[None] * (Q + 1) for _ in range(P + 1)]
    dv = [[None] * (Q + 1) for _ in range(P + 1)]
    for p in range(1, P + 1):
        for q in range(Q + 1):
            eye = _int_identity(vdims[q])
            dh[p][q] = [_int_hom(objects[p - 1][q], objects[p][q], den,
                                 _kron(rows, eye))
                        for den, rows in (V.d(p, i).int_form
                                          for i in range(p + 1))]
    for p in range(P + 1):
        for q in range(1, Q + 1):
            eye = _int_identity(hdims[p])
            dv[p][q] = [_int_hom(objects[p][q - 1], objects[p][q], den,
                                 _kron(eye, rows))
                        for den, rows in (W.d(q, i).int_form
                                          for i in range(q + 1))]
    return BiSemiCosimplicial(objects, dh, dv)


# ---------------------------------------------------------------------------
# the seven-term sequence of a central extension

def certificate_report(clauses):
    """Report of a sequence from its named clauses: ok when all hold,
    and one ("ok" | "FAIL", "certificate: <name>") entry per clause."""
    return {"ok": all(clauses.values()),
            "clauses": [("ok" if val else "FAIL", "certificate: %s" % name)
                        for name, val in clauses.items()]}


def _level_factors(i, p):
    """The factor maps Z -> U -> Q of one level of an extension: the
    pairs of parts, when incl and proj are block maps that feed each
    block from the block of the same index, else the level maps
    themselves as one pair.  Also says which of the two it gave."""
    if isinstance(i, StructuredHom) and isinstance(p, StructuredHom) \
            and len(i.source.factors) == len(i.parts) == len(p.parts) \
            and all(a == b == t for t, ((a, _), (b, _))
                    in enumerate(zip(i.parts, p.parts))):
        return [(f, g) for (_, f), (_, g) in zip(i.parts, p.parts)], True
    return [(i, p)], False


def _check_extension_maps(Z, U, Q, incl, proj):
    """Raise ValueError unless Z, U, Q, incl and proj reach level 2 and
    incl and proj commute with the structure maps."""
    if min(len(incl), len(proj), Z.N + 1, U.N + 1, Q.N + 1) < 3:
        raise ValueError("the extension needs levels 0..2")
    if not (check_cosimplicial_map(Z, U, incl)
            and check_cosimplicial_map(U, Q, proj)):
        raise ValueError("levelwise maps of the extension do not "
                         "commute with the structure maps")


def les_central_finite(Z, U, Q, incl, proj):
    """Theorem part (3) for finite carriers: the seven-term sequence
    1 -> pi0 Z -> pi0 U -> pi0 Q -> pi1 Z -> pi1 U -> pi1 Q -> pi2 Z
    of a central extension, each clause decided on its enumerated nodes.

    incl[n]: Z^n -> U^n and proj[n]: U^n -> Q^n (n = 0..2 at least) are
    homs that commute with the structure maps.  Each level is checked
    to be central exact, and is inverted, factor by factor
    (``_level_factors``); centrality is checked on generators.  The
    pi^1 nodes are class numbers, looked up in the ``index`` of
    ``pi1_finite``.  The pi^2 node holds only the connecting images:
    label 0 is the trivial class, and two obstructions share a label
    when their quotient is a coboundary, which ``_cocycle_walk`` on Z
    decides.  Bad data raises ValueError.

    Returns the ``report``, ``clauses`` and ``provenance`` (every
    clause "enumerated") of ``les_central_unipotent``, with the nodes:
    ``pi0`` (three element lists), ``pi1`` (three lists of class
    representatives), ``pi2`` (the connecting-image representatives)
    and ``delta1`` (class of pi1(Q) -> label in pi2)."""
    _check_extension_maps(Z, U, Q, incl, proj)
    levels = [_level_factors(i, p) for i, p in zip(incl, proj)]
    checked = set()
    for n, (pairs, _) in enumerate(levels):
        for f, g in pairs:
            if (id(f), id(g)) in checked:
                continue
            checked.add((id(f), id(g)))
            Zf, Uf, Qf = f.source, f.target, g.target
            img = {f.apply(z) for z in Zf.elements()}
            if len(img) != Zf.size():
                raise ValueError("Z -> U not injective at level %d" % n)
            e = Qf.identity()
            if img != {u for u in Uf.elements() if g.apply(u) == e}:
                raise ValueError("not exact at level %d" % n)
            gens = Uf.generators
            if any(Uf.mul(z, s) != Uf.mul(s, z) for z in img for s in gens):
                raise ValueError("Z not central at level %d" % n)
            if len({g.apply(u) for u in Uf.elements()}) != Qf.size():
                raise ValueError("U -> Q not surjective at level %d" % n)

    def pull(n, side, y):
        """A preimage of y under incl[n] (side 0) or proj[n] (side 1),
        factor by factor: the first in the order of elements()."""
        pairs, blocked = levels[n]
        level = (incl, proj)[side][n]
        out = [pair[side].preimage[v] for pair, v in zip(
            pairs, level.target._split(y) if blocked else (y,))]
        return level.source._join(out) if blocked else out[0]

    p1 = [pi1_finite(X) for X in (Z, U, Q)]
    iZ, iU, iQ = (p["index"] for p in p1)
    rZ, rU, rQ = ([c["rep"] for c in p["classes"]] for p in p1)
    Z1, U1, U2, Z2 = Z.objects[1], U.objects[1], U.objects[2], Z.objects[2]
    inclZ = [incl[1].apply(z) for z in rZ]

    def delta0(q0):
        # the connecting cocycle d^1(u0)^-1 d^0(u0) of a lift u0 of q0
        u0 = pull(0, 1, q0)
        return iZ[pull(1, 0, U1.mul(U1.inv(U.d(1, 1).apply(u0)),
                                    U.d(1, 0).apply(u0)))]

    def obstruction(q1):
        # d^2(u1)^-1 d^1(u1) d^0(u1)^-1 of a lift u1 of the cocycle q1
        u1 = pull(1, 1, q1)
        return pull(2, 0, U2.mul(U2.inv(U.d(2, 2).apply(u1)), U2.mul(
            U.d(2, 1).apply(u1), U2.inv(U.d(2, 0).apply(u1)))))

    reps2 = [Z2.identity()]  # label 0: the trivial class

    def label(z2):
        for i, r in enumerate(reps2):
            if _cocycle_walk(Z, Z2.mul(z2, Z2.inv(r)), first=True) is not None:
                return i
        reps2.append(z2)
        return len(reps2) - 1

    delta1 = {c: label(obstruction(q1)) for c, q1 in enumerate(rQ)}

    p0Z, p0U, p0Q = (pi0(X) for X in (Z, U, Q))
    Z0, U0 = Z.objects[0], U.objects[0]
    img0 = {incl[0].apply(z) for z in p0Z}
    e0 = Q.objects[0].identity()
    e1, base = iZ[Z1.identity()], iU[U1.identity()]
    # act[c][k]: the class c of pi1(Z) acting on the class k of pi1(U) by
    # multiplying cocycles; to_q[k]: the image of k in pi1(Q)
    act = [[iU[U1.mul(z, u)] for u in rU] for z in inclZ]
    to_q = [iQ[proj[1].apply(u)] for u in rU]
    clauses = {
        "pi0(Z) abelian": all(Z0.mul(a, b) == Z0.mul(b, a)
                              for a in p0Z for b in p0Z),
        "exact at pi0(U)": img0 == {u for u in p0U
                                    if proj[0].apply(u) == e0},
        "image of pi0(Z) central in pi0(U)": all(
            U0.mul(z, u) == U0.mul(u, z) for z in img0 for u in p0U),
        "exact at pi0(Q)": {proj[0].apply(u) for u in p0U}
        == {q for q in p0Q if delta0(q) == e1},
        "exact at pi1(Z)": {c for c, row in enumerate(act)
                            if row[base] == base}
        == {delta0(q) for q in p0Q},
        "pi1(Z)-orbits are the fibers at pi1(U)": all(
            {row[k] for row in act} == {j for j, q in enumerate(to_q)
                                        if q == to_q[k]}
            for k in range(len(rU))),
        "exact at pi1(Q)": set(to_q) == {c for c, l in delta1.items()
                                         if l == 0},
    }
    return {"report": certificate_report(clauses), "clauses": clauses,
            "provenance": dict.fromkeys(clauses, "enumerated"),
            "pi0": (p0Z, p0U, p0Q), "pi1": (rZ, rU, rQ), "pi2": reps2,
            "delta1": delta1}


def les_central_unipotent(Z, U, Q, incl, proj):
    """Theorem part (3) for unipotent carriers: the sequence
    1 -> pi0 Z -> pi0 U -> pi0 Q -> pi1 Z -> pi1 U -> pi1 Q (-> pi2 Z)
    of a central extension.  incl[n]: Z^n -> U^n and proj[n]: U^n -> Q^n
    (n = 0..2 at least) are linear homs, checked to be cosimplicial and
    central exact with Z abelian; bad data raises ValueError.

    The clauses at pi0(U), pi0(Q) and pi1(Z) are decided once by exact
    solving on a whole linear space ("exact").  Three follow ("derived"):
    the fibers at pi1(Z) from the stabilizer that decides exactness
    there; exactness at pi1(U) because the witness of a class of U dying
    in Q, lifted through proj^0, moves it into ker(proj^1) = incl^1(Z^1),
    where it is a cocycle of Z as incl^2 is injective and cosimplicial;
    and exactness at pi1(Q) because the pi^2(Z) obstruction of a lift of
    a cocycle of Q moves by a coboundary under a central correction
    incl^1(z), so the cocycle lifts exactly when its obstruction class
    vanishes.  Also returns the Moore dims of Z, the pi^0 bases,
    ``dies_in_u``, the :class:`~cohw.exactla.Echelon` of the cocycles of
    Z whose class dies in U, and ``middle_injective``, whether pi1(Z) ->
    pi1(U) is injective: exactly when only coboundaries die in U."""
    _check_extension_maps(Z, U, Q, incl, proj)
    for n in range(len(incl)):
        Zn, Un = Z.objects[n], U.objects[n]
        im = [list(incl[n].apply(e))
              for e in exactla.identity_matrix(Zn.dim)]
        E = Echelon(im)
        # with E = ker(proj^n), incl^n is injective and proj^n onto
        if not (Zn.is_abelian()
                and len(E) == Zn.dim == Un.dim - Q.objects[n].dim
                and E == Echelon(kernel_basis(proj[n].matrix, Un.dim))
                and all(Un.L.is_central(z) for z in im)):
            raise ValueError("not a central extension at level %d" % n)

    def lift(h, v):
        """A preimage of v under the linear hom h, or None."""
        return solve_affine(h.matrix, list(v), h.source.dim)[0]

    p0Z, p0U, p0Q = ([list(v) for v in pi0(G)] for G in (Z, U, Q))
    MZ = moore_differentials(Z)
    z_dims = complex_cohomology_dims([G.dim for G in Z.objects], MZ)
    b1 = span_echelon(transpose(MZ[0]))
    U0, U1, Z1 = U.objects[0], U.objects[1], Z.objects[1]
    z1Z = kernel_basis(MZ[1], Z1.dim)

    def delta0(q):
        """The connecting cocycle d^1(u0) d^0(u0)^-1 of a lift u0 of q."""
        u0 = tuple(lift(proj[0], q))
        return lift(incl[1], U1.mul(U.d(1, 1).apply(u0),
                                    U1.inv(U.d(1, 0).apply(u0))))

    im0 = Echelon([incl[0].apply(z) for z in p0Z])
    ker0 = Echelon(p0U).meet(Echelon(kernel_basis(proj[0].matrix, U0.dim)))
    clauses = {"exact at pi0(U)": im0 == ker0}

    # Z is central, so the connecting class is a homomorphism from pi0(Q)
    # to the vector group pi1(Z), linear in log coordinates: its kernel
    # is the span of the combinations of a basis with a coboundary image
    deltas = [delta0(q) for q in p0Q]
    coeffs = kernel_basis(transpose(deltas + b1), len(deltas) + len(b1))
    zq = zero_vec(Q.objects[0].dim)
    clauses["exact at pi0(Q)"] = \
        Echelon([_combine(a, p0Q, zq) for a in coeffs]) \
        == Echelon([proj[0].apply(u) for u in p0U])

    # (u0, z) . c = (u0 . c) incl(z)^-1 is an action of U^0 x Z^1(Z) on
    # U^1, since incl(z) is central; the Z^1 part of the stabilizer of
    # the identity is the cocycles whose class dies in U.  And incl(h) ~
    # incl(g) exactly when h - g lies there, so this one stabilizer also
    # decides the fibers of pi1(Z) -> pi1(U)
    group = _product_object([U0, UnipotentCarrier(
        abelian_lie_algebra(len(z1Z)))])
    n0, zz = U0.dim, zero_vec(Z1.dim)

    def act(g):
        z = _combine(g[n0:], z1Z, zz)
        return list(U1.mul(twisted_conj(U, tuple(g[:n0]), U1.identity()),
                           U1.inv(incl[1].apply(z))))

    _, _, stab = _descend(U1.L, act, group)
    dies = Echelon(b1 + [_combine(X[n0:], z1Z, zz) for X in stab])
    clauses["exact at pi1(Z)"] = dies == Echelon(b1 + deltas)
    provenance = dict.fromkeys(clauses, "exact")
    derived = {"fibers at pi1(Z) are connecting orbits":
               clauses["exact at pi1(Z)"],
               "exact at pi1(U)": True, "exact at pi1(Q)": True}
    clauses.update(derived)
    provenance.update(dict.fromkeys(derived, "derived"))

    return {"report": certificate_report(clauses), "clauses": clauses,
            "provenance": provenance, "h1_z_dim": z_dims[1],
            "z_dims": z_dims, "pi0": (p0Z, p0U, p0Q), "dies_in_u": dies,
            "middle_injective": len(dies) == len(b1)}

