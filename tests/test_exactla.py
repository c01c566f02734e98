import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cohw.exactla import (
    Echelon, Gaussian, _echelon, _eliminate, I, complex_span, coords_in_basis, format_scalar,
    identity_matrix, in_span, kernel_basis, mat_mul, mat_vec, parse_scalar,
    rank, realify_vector, rref, solve_affine, span_echelon,
    unrealify_vector, vec_add, vec_is_zero, vec_scale, zero_vec,
)

F = Fraction


def subspace_sum(U, V):
    return span_echelon(list(U) + list(V))


def subspace_intersect(U, V):
    """Echelon basis of span(U) n span(V), from the kernel of
    [U | -V]: the reference for ``Echelon.meet``."""
    U = span_echelon(U)
    V = span_echelon(V)
    if not U or not V:
        return []
    n = len(U[0])
    # solve sum a_i u_i - sum b_j v_j = 0
    A = [[U[i][c] for i in range(len(U))] + [-V[j][c] for j in range(len(V))]
         for c in range(n)]
    ker = kernel_basis(A, len(U) + len(V))
    vecs = []
    for k in ker:
        v = zero_vec(n)
        for i in range(len(U)):
            v = vec_add(v, vec_scale(k[i], U[i]))
        vecs.append(v)
    return span_echelon(vecs)


def _rows(E):
    return [list(row) for row in E.rows]


def complement_basis(U, ambient_dim):
    """Canonical complement of span(U): the non-pivot coordinate subspace."""
    _, pivots = rref(U)
    basis = []
    for c in range(ambient_dim):
        if c not in pivots:
            v = zero_vec(ambient_dim)
            v[c] = Fraction(1)
            basis.append(v)
    return basis


def test_gaussian_arithmetic():
    z = Gaussian(1, 2)
    w = Gaussian(3, -1)
    assert z + w == Gaussian(4, 1)
    assert z * w == Gaussian(5, 5)
    assert z.conj() == Gaussian(1, -2)
    assert (z / w) * w == z
    assert I * I == Gaussian(-1)
    assert Gaussian(F(1, 2)) == F(1, 2)


def test_scalar_formatting_round_trip():
    assert format_scalar(F(-3, 4)) == "-3/4"
    assert format_scalar(Gaussian(F(1, 2), F(-2, 3))) == "1/2-2/3*i"
    assert format_scalar(Gaussian(0, 1)) == "1*i"
    for s in ["1/2", "-7", "1/2-2/3*i", "3*i", "-1/5+1*i", "0"]:
        x = parse_scalar(s, "gaussian")
        assert format_scalar(x) == s or format_scalar(Gaussian(x)) == s


def test_solve_identity():
    A = [[F(1), F(0)], [F(0), F(1)]]
    x, ker = solve_affine(A, [F(3), F(-5)])
    assert x == [F(3), F(-5)]
    assert ker == []


def test_solve_inconsistent():
    A = [[F(0), F(0)]]
    x, ker = solve_affine(A, [F(1)])
    assert x is None
    assert len(ker) == 2


def test_solve_underdetermined():
    A = [[F(1), F(2), F(3)]]
    x, ker = solve_affine(A, [F(6)])
    assert x is not None
    assert mat_vec(A, x) == [F(6)]
    assert len(ker) == 2
    for v in ker:
        assert mat_vec(A, v) == [F(0)]


def test_solve_with_no_equations_needs_ncols():
    # with no rows A cannot tell the number of unknowns, as in kernel_basis
    with pytest.raises(ValueError, match="ncols"):
        solve_affine([], [])
    x, ker = solve_affine([], [], 3)
    assert x == [F(0)] * 3
    assert ker == identity_matrix(3)
    x, ker = solve_affine([], [], 0)
    assert x == [] and ker == []
    with pytest.raises(ValueError, match="ragged"):
        solve_affine([[F(1), F(2)]], [F(1)], 3)


def _realify_matrix(A):
    """The rational matrix of z -> A z on realified coordinates, for a
    Gaussian matrix A: rows Re(a z) and Im(a z) for each row a."""
    out = []
    for row in A:
        row = [Gaussian(1) * a for a in row]
        out.append([x for a in row for x in (a.re, -a.im)])
        out.append([x for a in row for x in (a.im, a.re)])
    return out


def _real_points(S):
    """Rational basis of the real points of a realified complex span: its
    meet with the real coordinate plane, imaginary columns dropped."""
    if not S:
        return []
    n = len(S.int_rows[0]) // 2
    plane = Echelon([realify_vector(e) for e in identity_matrix(n)])
    return [list(v[0::2]) for v in S.meet(plane).rows]


def test_gaussian_kernel():
    # kernel of [1  i] is spanned by (-i, 1), on realified coordinates
    A = _realify_matrix([[Gaussian(1), I]])
    ker = kernel_basis(A)
    assert len(ker) == 2
    for v in ker:
        assert vec_is_zero(mat_vec(A, v))
    # canonicalized: the complex span of (1, i), the echelon scaling of
    # (-i, 1), with pivot coordinate 1
    assert ker == _rows(complex_span([[-I, Gaussian(1)]]))
    assert unrealify_vector(ker[0]) == [Gaussian(1), I]


def test_conjugate_fixed_real_line():
    # span of (1, 0) is already real: fixed part is the rational line
    W = [[Gaussian(1), Gaussian(0)]]
    fixed = _real_points(complex_span(W))
    assert fixed == [[F(1), F(0)]]


def test_conjugate_fixed_isotropic_line_is_zero():
    # span of (1, i) meets its conjugate span (1, -i) only at 0
    W = [[Gaussian(1), I]]
    assert _real_points(complex_span(W)) == []


def test_conjugate_fixed_complex_plane():
    # the full plane is conjugation stable; fixed rational part is everything
    W = [[Gaussian(1), Gaussian(0)], [Gaussian(0), Gaussian(1)]]
    fixed = _real_points(complex_span(W))
    assert len(fixed) == 2


def test_complement_is_complement():
    U = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    C = complement_basis(U, 3)
    total = span_echelon(span_echelon(U) + C)
    assert len(total) == 3


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def vectors(n):
    return st.lists(small_fracs, min_size=n, max_size=n)


@st.composite
def respanned(draw, M):
    """Another spanning set of span(M): its rows negated or scaled by
    nonzero rationals, some duplicated, all reordered."""
    scales = st.one_of(st.just(-1), small_fracs.filter(bool))
    rows = []
    for row in M:
        c = draw(scales)
        rows.append([c * x for x in row])
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return draw(st.permutations(rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.lists(vectors(n), min_size=m, max_size=m),
            vectors(m), st.just(n)))))
def test_solve_affine_exact(data):
    A, b, n = data
    x, ker = solve_affine(A, b)
    if x is not None:
        assert mat_vec(A, x) == b
    for v in ker:
        assert vec_is_zero(mat_vec(A, v))
    assert rank(A) + len(ker) == n


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.lists(vectors(n), min_size=0, max_size=3),
        st.lists(vectors(n), min_size=0, max_size=3))))
def test_dimension_formula(data, UV):
    # V is drawn independently or as another spanning set of span(U)
    U, V = UV
    V = data.draw(st.one_of(st.just(V), respanned(U)))
    s = subspace_sum(U, V)
    i = subspace_intersect(U, V)
    EU, EV = Echelon(U), Echelon(V)
    meet = EU.meet(EV)
    assert _rows(meet) == i
    assert len(EU) + len(EV) == len(s) + len(meet)
    assert (EU == EV) == (len(EU) == len(EV) == len(s))
    for v in meet.rows:
        assert in_span(U, v) and in_span(V, v)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.lists(vectors(3), min_size=1, max_size=3))
def test_coords_reconstruct(data, basis):
    # a random vector, or a combination of the basis
    v = data.draw(st.one_of(vectors(3), st.lists(
        small_fracs, min_size=len(basis), max_size=len(basis)).map(
            lambda cs: [sum((c * b[j] for c, b in zip(cs, basis)), F(0))
                        for j in range(3)])))
    eb = span_echelon(basis)
    E = Echelon(basis)
    coords = coords_in_basis(eb, v)
    assert E.coords(v) == coords
    if not in_span(eb, v):
        assert coords is None
        return
    assert coords is not None
    acc = [F(0)] * 3
    for c, b in zip(coords, eb):
        acc = vec_add(acc, vec_scale(c, b))
    assert acc == list(v)


def _plain_mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v)), F(0)) for row in A]


def _plain_mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col)), F(0))
             for col in cols] for row in A]


def _typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


zeros = st.sampled_from([0, F(0)])
sparse_entries = st.one_of(
    zeros, zeros, zeros, st.integers(-3, 3), small_fracs)


@st.composite
def sparse_matrix(draw, rows, cols):
    M = [draw(st.lists(sparse_entries, min_size=cols, max_size=cols))
         for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        M[i] = [draw(zeros) for _ in range(cols)]
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in M:
            row[j] = draw(zeros)
    return M


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 4), st.integers(1, 4), st.integers(1, 4))
def test_sparse_kernels_match_plain_formula(data, m, k, n):
    # mat_vec and mat_mul skip zero terms; every entry must keep the value
    # and the type (Fraction, also for int input) of the plain sum it
    # replaces
    A = data.draw(sparse_matrix(m, k))
    B = data.draw(sparse_matrix(k, n))
    v = data.draw(sparse_matrix(1, k))[0]
    assert _typed([mat_vec(A, v)]) == _typed([_plain_mat_vec(A, v)])
    assert _typed(mat_mul(A, B)) == _typed(_plain_mat_mul(A, B))


def test_kernels_reject_shape_mismatch():
    # a row shorter or longer than the vector or the right factor's
    # column is a mis-wired product, not a truncated one
    for row in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            mat_mul([row], [[1], [2], [3]])
        with pytest.raises(ValueError):
            mat_vec([row], [1, 2, 3])
    assert mat_mul([[1, 2, 3]], [[1], [2], [3]]) == [[14]]
    assert mat_vec([[1, 2, 3]], [1, 2, 3]) == [14]


def _typed_rref(result):
    rows, pivots = result
    return _typed(rows), pivots


def test_integer_input_gives_fractions():
    # 1 / int is a float: integer input must never leak one
    rows, pivots = rref([[2, 1], [1, 1]])
    assert _typed(rows) == _typed([[F(1), F(0)], [F(0), F(1)]])
    assert pivots == [0, 1]
    assert rank([[2, 4], [1, 2]]) == 1
    assert _typed(kernel_basis([[2, 4, 6]])) == \
        _typed([[F(1), F(0), F(-1, 3)], [F(0), F(1), F(-2, 3)]])
    x, ker = solve_affine([[2, 1], [1, 1]], [3, 2])
    assert _typed([x]) == _typed([[F(1), F(1)]])
    assert ker == []
    x, ker = solve_affine([[3, 6]], [1])
    assert _typed([x]) == _typed([[F(1, 3), F(0)]])
    assert _typed(ker) == _typed([[F(1), F(-1, 2)]])


def _reference_rref(rows):
    # the field elimination rref used for every input before rational
    # input got its integer path, kept verbatim as an oracle
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    out, pivots = [], []
    r = 0
    work = rows
    for c in range(ncols):
        # find a pivot in column c at or below row r
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = [row for row in work[:r]]
    return out, pivots


big_fracs = st.builds(F, st.integers(-10 ** 15, 10 ** 15),
                      st.integers(1, 10 ** 12))
rational_entries = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)),
                             small_fracs, big_fracs)


@st.composite
def rational_matrix(draw, entries=rational_entries):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    M = [draw(st.lists(entries, min_size=cols, max_size=cols))
         for _ in range(rows)]
    # zero rows, duplicate rows and multiples of other rows
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, rows - 1))
        kind = draw(st.sampled_from(["zero", "copy", "multiple"]))
        if kind == "zero":
            M.insert(i, [F(0)] * cols)
        else:
            c = F(1) if kind == "copy" else draw(big_fracs)
            M.insert(i, [c * x for x in M[draw(st.integers(0, rows - 1))]])
    return M


@settings(max_examples=300, deadline=None)
@given(rational_matrix())
def test_rref_matches_field_elimination(M):
    assert _typed_rref(rref(M)) == _typed_rref(_reference_rref(M))


def _small_matrices(rng, count):
    """Seeded small matrices of ``int`` or ``Fraction`` entries, most of
    them zero: empty, all-zero, 1 x n, n x 1, tall and wide, some with a
    row that is a multiple of another."""
    shapes = [(0, 0), (1, 0)]
    while len(shapes) < count:
        m, n = sorted([rng.randint(1, 6), rng.randint(1, 6)])
        shapes.append(rng.choice([(m, n), (n, m), (1, n), (n, 1)]))
    out = []
    for k, (m, n) in enumerate(shapes):
        M = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0
              for _ in range(n)] for _ in range(m)]
        if k % 2:
            M = [[F(x, rng.randint(1, 5)) for x in row] for row in M]
        if k % 7 == 3:
            M = [[x * 0 for x in row] for row in M]
        elif m > 1 and k % 3 == 0:
            M[0] = [rng.randint(-3, 3) * x for x in M[-1]]
        out.append(M)
    return out


def test_forward_and_back_phases_on_small_matrices():
    # the forward phase gives rref's pivots and rank, and forward then
    # back the reduced form of a Fraction Gauss-Jordan reference, with
    # primitive integer rows and positive pivots in both phases
    for M in _small_matrices(random.Random(33), 300):
        rows, pivots = rref(M)
        ref_rows, ref_pivots = _reference_rref(
            [[F(x) for x in row] for row in M])
        assert _typed_rref((rows, pivots)) == _typed_rref(
            (ref_rows, ref_pivots)), M
        ech, ech_pivots = _echelon(M)
        assert ech_pivots == pivots and len(ech_pivots) == rank(M), M
        red, red_pivots = _eliminate(M)
        assert red_pivots == pivots
        for phase in (ech, red):
            for row, p in zip(phase, pivots):
                assert row[p] > 0 and gcd(*row) == 1
                assert all(type(x) is int for x in row)
                assert not any(row[:p])
        assert [[F(x, row[p]) for x in row]
                for row, p in zip(red, pivots)] == rows
        # the echelon rows span the row space of M
        assert Echelon(ech) == Echelon(M)


gaussian_entries = st.one_of(
    st.just(F(0)), st.just(Gaussian(0)), small_fracs,
    st.builds(Gaussian, small_fracs, small_fracs))


def _complex_rank(rows):
    return len(_reference_rref(rows)[0])


@settings(max_examples=100, deadline=None)
@given(st.data(), rational_matrix(gaussian_entries))
def test_complex_span_matches_complex_elimination(data, W):
    # complex_span on realified coordinates against elimination over Q(i)
    n = len(W[0])
    gaussian_vectors = st.lists(gaussian_entries, min_size=n, max_size=n)
    S = complex_span(W)
    r = _complex_rank(W)
    assert len(S) == 2 * r
    assert S == complex_span(data.draw(respanned(W)))
    # membership: random vectors and Gaussian combinations of the rows
    v = data.draw(st.one_of(gaussian_vectors, st.lists(
        gaussian_entries, min_size=len(W), max_size=len(W)).map(
            lambda cs: [sum((c * row[j] for c, row in zip(cs, W)), F(0))
                        for j in range(n)])))
    assert S.contains(realify_vector(v)) == (_complex_rank(W + [v]) == r)
    # intersection with a second span
    V = data.draw(st.lists(gaussian_vectors, max_size=3))
    meet = S.meet(complex_span(V))
    assert _rows(meet) == subspace_intersect(_rows(S),
                                             _rows(complex_span(V)))
    assert len(meet) == 2 * (r + _complex_rank(V) - _complex_rank(W + V))
    # real points: rational vectors of span(W), as many as the complex
    # dimension of span(W) /\ conj span(W)
    conj = [[(Gaussian(1) * x).conj() for x in row] for row in W]
    real = _real_points(S)
    assert len(real) == 2 * r - _complex_rank(W + conj)
    for x in real:
        assert all(isinstance(c, F) for c in x)
        assert _complex_rank(W + [x]) == r


@settings(max_examples=200, deadline=None)
@given(st.data(), rational_matrix())
def test_echelon_contains_agrees_with_rank(data, M):
    n = len(M[0])
    v = data.draw(st.one_of(
        st.lists(rational_entries, min_size=n, max_size=n),
        # a combination of the rows, so that members occur often
        st.lists(small_fracs, min_size=len(M), max_size=len(M)).map(
            lambda cs: [sum((c * row[j] for c, row in zip(cs, M)), F(0))
                        for j in range(n)])))
    member = rank(M + [v]) == rank(M)
    assert Echelon(M).contains(v) == member
    assert in_span(M, v) == member
    assert Echelon([]).contains(v) == vec_is_zero(v)


int_entries = st.one_of(st.just(0), st.just(0), st.integers(-4, 4),
                        st.integers(-10 ** 12, 10 ** 12))


@st.composite
def integer_matrix(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    M = [draw(st.lists(int_entries, min_size=cols, max_size=cols))
         for _ in range(rows)]
    # zero rows, copies and integer multiples of other rows
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.integers(-3, 3))
        M.insert(draw(st.integers(0, rows - 1)),
                 [c * x for x in M[draw(st.integers(0, rows - 1))]])
    return M


@settings(max_examples=200, deadline=None)
@given(st.data(), st.one_of(integer_matrix(), rational_matrix()))
def test_echelon_and_rank_share_rref(data, M):
    # rref, rank and Echelon run one integer elimination; Echelon keeps
    # its primitive integer rows and builds the Fraction rows from them
    rows, pivots = rref(M)
    E = Echelon(M)
    assert _typed(E.rows) == _typed(rows)
    assert E.rows == tuple(tuple(row) for row in rows)
    assert E.pivots == tuple(pivots)
    assert rank(M) == len(rows)
    for ints, row, p in zip(E.int_rows, rows, pivots):
        assert all(type(x) is int for x in ints) and gcd(*ints) == 1
        assert ints[p] > 0
        assert [F(x, ints[p]) for x in ints] == list(row)
    n = len(M[0])
    v = data.draw(st.one_of(
        st.sampled_from([[0] * n, [F(0)] * n]),
        st.lists(int_entries, min_size=n, max_size=n),
        st.lists(rational_entries, min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=len(M), max_size=len(M)).map(
            lambda cs: [sum(c * row[j] for c, row in zip(cs, M))
                        for j in range(n)])))
    assert E.contains(v) == (rank(M + [v]) == rank(M))
    assert Echelon([]).contains(v) == (rank([v]) == 0)
    # == compares spaces: any spanning set of span(M) gives E, and adding
    # v gives E exactly when v is already in the span
    assert Echelon(data.draw(respanned(M))) == E
    assert (Echelon(M + [v]) == E) == E.contains(v)
    assert E.contains([0] * n) and E.contains([F(0)] * n)


def test_whole_space_builds_no_rows_until_they_are_read():
    W = Echelon.whole(3)
    assert len(W) == 3 and W.pivots == (0, 1, 2)
    assert "int_rows" not in vars(W) and "rows" not in vars(W)
    assert W.int_rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert "rows" not in vars(W) and W.int_rows is W.int_rows
    assert W == Echelon(identity_matrix(3)) and W.rows is W.rows
