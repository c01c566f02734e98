"""Exact linear algebra over the rationals, with Gaussian rationals at the
boundary.

Scalars are ``fractions.Fraction``.  All vectors and matrices are plain
tuples/lists of scalars; a subspace is an :class:`Echelon`, its reduced
row echelon basis in a fixed global coordinate order, which decides
membership, reduces modulo the space, reads coordinates, meets another
space and compares spaces by ``==``.  No floating point anywhere.

Row reduction is fraction-free: each row is cleared of denominators and
elimination runs on Python integers, in one core of two phases.  The
forward phase :func:`_echelon` gives a row echelon form, enough for
whoever reads only pivots, a rank or a spanning set; the back phase
completes it to the reduced form in :func:`_eliminate`, shared by
:func:`rref` (and so :func:`rank`) and :class:`Echelon`.  :func:`rref`
divides the pivots out once at the end, giving ``Fraction`` entries.
:class:`Echelon` keeps its basis as primitive integer rows, builds its
``Fraction`` rows only when they are read, and decides membership and
meets in integers.

Points and subspaces over Q(i) are computed on realified coordinates: a
Gaussian vector (z_1..z_n) is the rational vector (re z_1, im z_1, ...,
re z_n, im z_n), and a complex span is the rational span of the realified
vectors and their multiples by i (:func:`complex_span`).  :class:`Gaussian`
is the scalar of input and output only (parsing, printing, and the
conversions ``realify_vector``/``unrealify_vector``).
"""

import functools
from fractions import Fraction
from math import gcd, lcm


class Gaussian:
    """A Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Gaussian is immutable")

    def conj(self):
        return Gaussian(self.re, -self.im)

    def __add__(self, other):
        other = _gauss(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_gauss(other))

    def __rsub__(self, other):
        return _gauss(other) + (-self)

    def __mul__(self, other):
        other = _gauss(other)
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gauss(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian")
        return self * Gaussian(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return _gauss(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, Gaussian):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return "Gaussian(%s, %s)" % (self.re, self.im)

    def __str__(self):
        return format_scalar(self)


def _gauss(x):
    if isinstance(x, Gaussian):
        return x
    return Gaussian(Fraction(x))


I = Gaussian(0, 1)


def format_scalar(x):
    """Render a scalar as "a/b" or "a/b+c/d*i" (deterministic)."""
    if isinstance(x, Gaussian):
        if x.im == 0:
            return str(x.re)
        if x.re == 0:
            return "%s*i" % (x.im,)
        sign = "+" if x.im > 0 else "-"
        return "%s%s%s*i" % (x.re, sign, abs(x.im))
    return str(Fraction(x))


def parse_scalar(text, field="rational"):
    """Parse "a/b" (``field`` "rational") or, for ``field`` "gaussian",
    also "a/b+c/d*i" / "a/b-c/d*i" / "c/d*i".  An exponent ("1e9") is
    refused: ``Fraction`` would build its power of ten unbounded."""
    text = text.strip().replace(" ", "")
    if "e" in text or "E" in text:
        raise ValueError("exponent in scalar literal: %r" % text)
    if field == "rational":
        return Fraction(text)
    if not text.endswith("*i") and "i" not in text:
        return Gaussian(Fraction(text))
    # split off the imaginary part
    if text.endswith("*i"):
        body = text[:-2]
    elif text.endswith("i"):
        body = text[:-1]
        if not body or body.endswith(("+", "-")):
            body += "1"
    else:
        raise ValueError("bad Gaussian literal: %r" % text)
    # find the split point between real and imaginary summands
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/*":
            re_part, im_part = body[:k], body[k:]
            if im_part in ("+", "-"):
                im_part += "1"
            return Gaussian(Fraction(re_part), Fraction(im_part))
    return Gaussian(0, Fraction(body))


# ---------------------------------------------------------------------------
# vectors and matrices (lists of lists of scalars)

def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]

def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]

def vec_scale(c, u):
    return [c * a for a in u]

def vec_neg(u):
    return [-a for a in u]

def vec_is_zero(u):
    return all(not bool(a) for a in u)

def zero_vec(n):
    return [Fraction(0)] * n

_ZERO_Q = Fraction(0)

# A v and A B skip zero terms, which change no sum: each entry starts from
# Fraction(0), so it is a Fraction whichever terms vanish.

def mat_vec(A, v):
    v = list(v)
    n = len(v)
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in A:
        if len(row) != n:
            raise ValueError("mat_vec: row of length %d, vector of length %d"
                             % (len(row), n))
        acc = _ZERO_Q
        for j, x in nonzero:
            a = row[j]
            if a:
                acc = acc + a * x
        out.append(acc)
    return out

def mat_mul(A, B):
    inner = len(B)
    ncols = len(B[0]) if B else 0
    B_nonzero = [[(j, b) for j, b in enumerate(brow[:ncols]) if b]
                 for brow in B]
    out = []
    for row in A:
        if len(row) != inner:
            raise ValueError("mat_mul: row of length %d, %d rows on the right"
                             % (len(row), inner))
        acc = [_ZERO_Q] * ncols
        for a, brow in zip(row, B_nonzero):
            if a:
                for j, b in brow:
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return out

def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

def mat_eq(A, B):
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        if any(a != b for a, b in zip(ra, rb)):
            return False
    return True

def identity_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

def zero_matrix(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]

def transpose(A):
    return [list(col) for col in zip(*A)]


def rref(rows):
    """Reduced row echelon form of rational rows (``int`` and ``Fraction``
    entries).  Returns (rows, pivot column list); zero rows dropped, and
    every entry a ``Fraction``."""
    work, pivots = _eliminate(rows)
    return [_fraction_row(row, p) for row, p in zip(work, pivots)], pivots


_INT = frozenset([int])


def _primitive_int_row(row):
    """The row scaled to integers with no common factor, or None if zero.
    Only the nonzero entries of a row that is not all ``int`` are read."""
    if _INT.issuperset(map(type, row)):
        g = gcd(*row)
        if not g:
            return None
        return [x // g for x in row] if g > 1 else list(row)
    nonzero = [(j, x) for j, x in enumerate(row) if x]
    if not nonzero:
        return None
    den = lcm(*[x.denominator for _, x in nonzero])
    nums = [x.numerator * (den // x.denominator) for _, x in nonzero]
    g = gcd(*nums)
    ints = [0] * len(row)
    for (j, _), n in zip(nonzero, nums):
        ints[j] = n // g
    return ints


def _fraction_row(row, p):
    """The primitive integer row of pivot column p divided by its pivot."""
    d = row[p]
    return [Fraction(x, d) if x else _ZERO_Q for x in row]


def _echelon(rows):
    """Forward elimination on integer rows, the first phase of
    :func:`_eliminate`: each row is cleared of denominators, and the
    rows below each pivot are cleared in its column, every step scaling
    by the pivot instead of dividing and then dividing the row by its
    content (fraction-free, as Bareiss' method is).  Returns (rows,
    pivots): a row echelon form, one primitive integer row per pivot
    column with a positive pivot and zeros left of it.  The pivots are
    the first columns independent of those before them, so they and the
    rank are those of the reduced form; its rows span the row space."""
    work = [ints for ints in map(_primitive_int_row, rows) if ints is not None]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        prow = work[piv]
        if prow[c] < 0:
            prow = [-x for x in prow]
        work[piv] = work[r]
        work[r] = prow
        p = prow[c]
        # entries left of c vanish in every row at or below r
        support = [(j, y) for j, y in enumerate(prow[c:], c) if y]
        for i in range(r + 1, len(work)):
            a = work[i][c]
            if a:
                work[i] = _cleared(work[i], a, p, support)
        pivots.append(c)
        r += 1
    return work[:r], pivots


def _cleared(row, a, p, support):
    """The row, with the nonzero entry a in a pivot column, scaled and
    less a multiple of the pivot row (pivot p > 0 there, nonzero entries
    ``support``) so that it is zero there, divided by its content."""
    g = gcd(p, a)
    s, t = p // g, a // g
    if s != 1:
        row = [s * x for x in row]
    for j, y in support:
        row[j] -= t * y
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(rows):
    """Gauss-Jordan elimination on integer rows, the one core of
    :func:`rref`, :class:`Echelon` and :func:`_int_kernel`: the forward
    phase :func:`_echelon`, then a back phase that clears the rows above
    each pivot, last pivot first, so each pivot row is already zero on
    the later pivot columns.  Returns (rows, pivots): one primitive
    integer row per pivot column with a positive pivot, zero on the
    other pivot columns, so dividing each by its pivot gives the reduced
    echelon form.  That form is unique, so it equals the result of field
    elimination; and so are these rows, each the one primitive multiple
    of a reduced row with a positive pivot."""
    work, pivots = _echelon(rows)
    for r in range(len(pivots) - 1, 0, -1):
        prow, c = work[r], pivots[r]
        # a pivot stays positive: the rows above are scaled by p // g > 0
        p = prow[c]
        support = [(j, y) for j, y in enumerate(prow[c:], c) if y]
        for i in range(r):
            a = work[i][c]
            if a:
                work[i] = _cleared(work[i], a, p, support)
    return work, pivots


def rank(A):
    return len(rref(A)[0])


def solve_affine(A, b, ncols=None):
    """Solve A x = b exactly.  Returns (particular solution or None,
    kernel basis).  The kernel basis always spans ker(A).  As for
    :func:`kernel_basis`, the number of unknowns ``ncols`` is read off A
    unless given, and must be given when A has no rows."""
    m, n = len(A), ncols
    if n is None:
        if not A:
            raise ValueError("need ncols for empty matrix")
        n = len(A[0])
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    if len(b) != m:
        raise ValueError("dimension mismatch between A and b")
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    red, pivots = rref(aug)
    particular = None
    if all(p != n for p in pivots):  # consistent: no pivot in the b column
        x = zero_vec(n)
        for row, p in zip(red, pivots):
            x[p] = row[n]
        particular = x
    kernel = kernel_basis(A, n)
    return particular, kernel


def _int_kernel(A, ncols):
    """ker(A) as ``_eliminate`` gives a space: its primitive integer rows
    and pivots.  For each free column f of A, the vector e_f minus the
    entries at f of A's reduced rows, on their pivots, is scaled to
    integers by the lcm of the pivots; those are reduced again."""
    red, pivots = _eliminate(A)
    scale = lcm(*[row[p] for row, p in zip(red, pivots)])
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(v)
    return _eliminate(basis)


def kernel_basis(A, ncols=None):
    """Echelon basis of ker(A)."""
    if ncols is None:
        if not A:
            raise ValueError("need ncols for empty matrix")
        ncols = len(A[0])
    return [_fraction_row(row, p) for row, p in zip(*_int_kernel(A, ncols))]


def span_echelon(vectors):
    """Canonical (reduced echelon) basis of the span."""
    return rref(vectors)[0]


class Echelon:
    """A subspace, kept as its reduced echelon basis: ``int_rows``, its rows
    scaled to primitive integer rows with a positive pivot (as
    :func:`_eliminate` gives them), and
    ``pivots``, their columns.  Both are tuples and unique to the space,
    so ``==`` compares spaces.  ``rows``, the reduced rows with
    ``Fraction`` entries, is built on first read; ``len`` is the
    dimension."""

    def __init__(self, vectors):
        rows, pivots = _eliminate(vectors)
        self.int_rows = tuple(map(tuple, rows))
        self.pivots = tuple(pivots)
        ncols = len(rows[0]) if rows else 0
        self._free = tuple(sorted(set(range(ncols)).difference(pivots)))
        # the row with pivot p times den // row[p] has the common pivot
        # value den, for every p
        self._den = lcm(*[row[p] for row, p in zip(self.int_rows, pivots)])
        self._scales = tuple(self._den // row[p]
                             for row, p in zip(self.int_rows, pivots))

    @classmethod
    def whole(cls, n):
        """Q^n, whose identity rows are built only when read."""
        E = cls.__new__(cls)
        E.pivots, E._free = tuple(range(n)), ()
        E._den, E._scales = 1, (1,) * n
        return E

    @functools.cached_property
    def int_rows(self):  # read only on ``whole``: ``__init__`` sets it
        n = len(self.pivots)
        return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))

    def __len__(self):
        return len(self.pivots)

    def __eq__(self, other):
        if not isinstance(other, Echelon):
            return NotImplemented
        return self.int_rows == other.int_rows

    @functools.cached_property
    def rows(self):
        return tuple(tuple(_fraction_row(row, p))
                     for row, p in zip(self.int_rows, self.pivots))

    def contains(self, v):
        """Is v in the span?  In reduced echelon form the only combination
        of the rows that can equal v takes v[p] times the row with pivot p,
        and it agrees with v on every pivot column; so v lies in the span
        exactly when it also agrees on the free columns.  Decided in
        integers: v is cleared of denominators, and each integer row is
        scaled to the common pivot value ``_den``, which multiplies the
        combination by ``_den``."""
        if not self.pivots:
            return vec_is_zero(v)
        den = lcm(*[x.denominator for x in v if x])
        v = [x.numerator * (den // x.denominator) if x else 0 for x in v]
        terms = [(v[p] * s, row) for p, s, row
                 in zip(self.pivots, self._scales, self.int_rows) if v[p]]
        common = self._den
        for j in self._free:
            acc = 0
            for c, row in terms:
                y = row[j]
                if y:
                    acc += c * y
            if acc != common * v[j]:
                return False
        return True

    def coords(self, v):
        """The coordinates of v in the basis ``rows``, or None when v is
        not in the span: its entries at the pivots, as the row with pivot
        p is the only row nonzero there, and is 1 there."""
        return [v[p] for p in self.pivots] if self.contains(v) else None

    def reduce(self, v):
        """The canonical representative of v modulo the span: zero on the
        pivot columns, so it depends only on the class of v."""
        out = list(v)
        for p, row in zip(self.pivots, self.rows):
            c = out[p]
            if c:
                out = [x - c * y for x, y in zip(out, row)]
        return out

    def meet(self, other):
        """The intersection with another subspace, by Zassenhaus' method:
        the rows (u | u) and (v | 0) over the two bases are independent and
        span the pairs (u + v | u).  Their echelon rows (the forward phase
        :func:`_echelon` is enough) with a pivot in the second half are
        (0 | u), u = -v, and there are dim U + dim V - dim(U + V) of them:
        their second halves are a basis of the meet."""
        if not (self.pivots and other.pivots):
            return Echelon([])
        n = len(self.int_rows[0])
        zero = (0,) * n
        rows, pivots = _echelon([u + u for u in self.int_rows]
                                + [v + zero for v in other.int_rows])
        return Echelon([row[n:] for row, p in zip(rows, pivots) if p >= n])


def in_span(vectors, v):
    """Is v in the span of the given vectors?"""
    return Echelon(vectors).contains(v)


def coords_in_basis(basis, v):
    """Coordinates of v in the given (independent) basis, or None."""
    if not basis:
        return [] if vec_is_zero(v) else None
    A = transpose(basis)
    x, _ = solve_affine(A, list(v), len(basis))
    return x


# ---------------------------------------------------------------------------
# realification

def realify_vector(v):
    """(z_1..z_n) over Q(i)  ->  (re z_1, im z_1, ..., re z_n, im z_n) over Q."""
    out = []
    for z in v:
        z = _gauss(z)
        out.append(z.re)
        out.append(z.im)
    return out


def unrealify_vector(v):
    return [Gaussian(v[2 * k], v[2 * k + 1]) for k in range(len(v) // 2)]


def complex_span(W):
    """The complex span of the vectors W (Gaussian or rational entries) in
    realified coordinates: the :class:`Echelon` of the rational span of
    realify(w) and realify(i w) over w in W.  It has twice the complex
    dimension.  Its real points, the conjugation-fixed vectors of span(W),
    are its meet with the real coordinate plane (odd coordinates zero):
    a rational vector of span(W) is its own conjugate."""
    rows = []
    for w in W:
        v = realify_vector(w)
        rows += [v, [x for re, im in zip(v[::2], v[1::2]) for x in (-im, re)]]
    return Echelon(rows)
