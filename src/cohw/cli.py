"""Batch front end: parse algebra-description files, dispatch the
computations, run the verification suites, emit deterministic reports.

The input format is line-oriented with named ``[sections]``; the grammar
is documented in the README and in ``_GRAMMAR``.  Input errors carry a
(line, column) location: the column is where the offending token starts,
or the keyword for an error about the statement as a whole; requirements
on the whole file are located at 1:1.  Reports are byte-identical for
identical (input, seed).
Exit codes: 0 success, 1 negative certificate, 2 input error, 3 internal
verification failure (a guaranteed identity failed - always a bug).
"""

import argparse
import functools
import json
import random
import re
import sys
from collections import defaultdict, namedtuple
from fractions import Fraction

from .exactla import (
    Echelon, complex_span, coords_in_basis, format_scalar, kernel_basis,
    mat_eq, mat_mul, mat_vec, parse_scalar, rank, solve_affine, transpose,
    unrealify_vector, vec_is_zero,
)
from .cosimpl import (
    ENUM_CAP, FiniteHom, LinearHom, ProductGroup, SemiCosimplicialGroup,
    UnipotentCarrier, cogenerate, cyclic_group, eilenberg_zilber_oracle,
    hom_equal, pi0, pi1_finite, pi_abelian_all,
    random_bisemicosimplicial, random_linear_semicosimplicial,
    subgroup_table, symmetric_group, trivial_twist_isomorphism, twist,
)
from .gcohom import GroupAction, h0_h1, les_group_cohomology
from .hodge import (
    MHSGroup, classify_torsor, h1_dimension, mhs_les, realify_matrix,
    subalgebra_on_basis,
)
from .hopf import TruncatedEnvelope, graded_trivialization_check, \
    symmetrization_check
from .nilpotent import (
    LieMorphism, NilpotentLieAlgebra, abelian_lie_algebra, central_extension,
    direct_sum, heisenberg,
)
from .phin import PhiNGroup, quotient_les, twisted_conj_classify

F = Fraction

# Largest Lie algebra dimension a description may declare.  Checking a
# one-bracket algebra takes 0.9 s at dim 128 and 4.2 s at dim 200
# (Python 3.11, one core of a 2-core x86-64 machine).
DIM_CAP = 128


# ---------------------------------------------------------------------------
# description files

class ParseError(Exception):
    def __init__(self, line, col, message):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.message = message


class _ArgumentError(Exception):
    """A bad command-line argument, reported as ``<option>: <message>``."""


class DescriptionFile:
    """Parsed and cross-validated model of one input file."""

    def __init__(self, name, text):
        self.name = name
        self.text = text
        self.field = "rational"
        self.p = None
        self.L = None
        self.group = None
        self.filtration_w = None
        self.filtration_f = None
        self.phi = None
        self.N = None
        self.coset = None
        self.action = None
        self.extension = None
        # section name (None before the first header) -> its statements
        self.statements = defaultdict(list)

    def _find(self, section, *keys):
        """The statements of section with one of the keywords, in order."""
        return [st for st in self.statements[section] if st.values[0] in keys]


class _Statement(namedtuple("_Statement", "line cols values")):
    """One statement: its line, the column of each token and its values
    (the keyword first, then each token converted to its kind)."""
    __slots__ = ()

    def error(self, message, k=0):
        """A ParseError at token k, by default the keyword."""
        return ParseError(self.line, self.cols[k], message)


_KINDS = dict.fromkeys(("dimension", "index", "order", "entry", "level",
                        "element", "generator index", "permutation image"),
                       int)
_KINDS.update(word=str, rational=parse_scalar,
              scalar=lambda text: parse_scalar(text, field="gaussian"))

# section -> keyword -> shape: (kinds of the tokens after the keyword, kind
# of any further tokens, message for a wrong token count).  Further tokens
# given as a dict are read by the shape it maps the last fixed token to, a
# word that then acts as the keyword.  A message None stands for
# "<keyword> takes one value".
_CARRIER = "carrier must be cyclic n, symmetric n or lie_algebra"
_ORDER = (("order",), None, None)
_ROW = ((), "rational", None)
_GRAMMAR = {
    None: {"field": (("word",), None, "field must be rational or gaussian"),
           "p": (("rational",), None, None)},
    "lie_algebra": {"dim": (("dimension",), None, None),
                    "bracket": (("index", "index", "index", "rational"),
                                None, "bracket needs: i j k coefficient")},
    "finite_group": {"cyclic": _ORDER, "symmetric": _ORDER,
                     "elements": _ORDER, "row": ((), "entry", None)},
    "filtration_W": {"level": (("level",), None, None), "vector": _ROW},
    "filtration_F": {"level": (("level",), None, None),
                     "vector": ((), "scalar", None)},
    "phi": {"row": _ROW},
    "N": {"row": _ROW},
    "cosimplicial": {"pattern": (("word",), None, None),
                     "left": ((), "element", None),
                     "right": ((), "element", None)},
    "action": {
        "carrier": (("word",), {"cyclic": _ORDER, "symmetric": _ORDER,
                                "lie_algebra": ((), None, _CARRIER)},
                    _CARRIER),
        "generator": (("generator index", "word"),
                      {"permutation": ((), "permutation image", None),
                       "matrix": _ROW},
                      "generator needs an index and an image "
                      "(permutation or matrix)")},
    "extension": {"incl": _ROW, "proj": _ROW},
}
_TOKEN = re.compile(r"\S+")


def _tokenize(text):
    """The tokens (text, line, column) of each line that has any, one list
    per line; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = [(m.group(), lineno, m.start() + 1)
                for m in _TOKEN.finditer(raw.split("#", 1)[0])]
        if toks:
            yield toks


def _convert(tok, kind):
    text, line, col = tok
    try:
        return _KINDS[kind](text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, col, "bad %s: %r" % (kind, text)) from None


def _statement(section, toks):
    """The typed statement of one line of the given section."""
    key, line, col = toks[0]
    if key not in _GRAMMAR[section]:
        raise ParseError(line, col, "unknown %s line %r" % (section, key)
                         if section else "statement outside any section: %r"
                         % key)
    cols = [c for _, _, c in toks]
    shape, head, kinds = _GRAMMAR[section][key], 0, []
    while True:
        fixed, rest, message = shape
        message = message or "%s takes one value" % toks[head][0]
        kinds += fixed
        n = len(kinds) + 1
        if len(toks) < n:
            raise ParseError(line, cols[head], message)
        if not isinstance(rest, dict):
            break
        head = n - 1
        if toks[head][0] not in rest:
            raise ParseError(line, cols[head], message)
        shape = rest[toks[head][0]]
    if rest is None and len(toks) > n:
        raise ParseError(line, cols[n], message)
    kinds += [rest] * (len(toks) - n)
    return _Statement(line, cols, [key] + [_convert(t, k) for t, k
                                           in zip(toks[1:], kinds)])


def _group_order(st, k):
    """Check the order n at token k of a ``cyclic``, ``symmetric`` or
    ``elements`` group (its kind is token k - 1) before any table is
    built: n >= 1, and at most ENUM_CAP table cells (n^2, or n!^2 for the
    symmetric group)."""
    kind, n = st.values[k - 1:k + 1]
    if n < 1:
        raise st.error("%s order must be at least 1" % kind, k)
    size = n
    if kind == "symmetric":
        size = 1
        for m in range(2, n + 1):
            size *= m
            if size * size > ENUM_CAP:
                break
    if size * size > ENUM_CAP:
        raise st.error("%s %d: group table exceeds %d cells"
                       % (kind, n, ENUM_CAP), k)


def parse_description(text, name="<input>"):
    """Total parse with located diagnostics; builds and validates the
    referenced objects (delegating invariants to the module validators)."""
    df = DescriptionFile(name, text)
    section = None
    lines = list(_tokenize(text))
    if not lines:
        raise ParseError(1, 1, "empty description")
    for toks in lines:
        key, lineno, col = toks[0]
        if key.startswith("["):
            header = " ".join(t for t, _, _ in toks)
            if not header.endswith("]"):
                raise ParseError(lineno, col, "unterminated section header")
            section = header[1:-1].strip()
            if section not in _GRAMMAR:
                raise ParseError(lineno, col, "unknown section %r" % section)
            continue
        df.statements[section].append(_statement(section, toks))

    for st in df.statements[None]:
        if st.values[0] == "field":
            if st.values[1] not in ("rational", "gaussian"):
                raise st.error("field must be rational or gaussian", 1)
            df.field = st.values[1]
        else:
            df.p = st.values[1]

    # sizes are checked before any algebra or group is built
    dims = df._find("lie_algebra", "dim")
    for st in dims:
        if st.values[1] < 0:
            raise st.error("dimension must be >= 0", 1)
        if st.values[1] > DIM_CAP:
            raise st.error("dimension %d exceeds %d"
                           % (st.values[1], DIM_CAP), 1)
    orders = df._find("finite_group", "cyclic", "symmetric", "elements")
    for st in orders:
        _group_order(st, 1)
    for st in df._find("action", "carrier"):
        if st.values[1] != "lie_algebra":
            _group_order(st, 2)
    df.action = df.statements["action"] or None

    lie = df.statements["lie_algebra"]
    if lie:
        if not dims:
            raise lie[0].error("lie_algebra needs a dim line")
        d = dims[-1].values[1]
        brackets = df._find("lie_algebra", "bracket")
        structure = {}
        for st in brackets:
            _, i, j, k, c = st.values
            for pos in (1, 2, 3):
                if not 0 <= st.values[pos] < d:
                    raise st.error("basis index %d out of range (dim %d)"
                                   % (st.values[pos], d), pos)
            if i == j:
                raise st.error("bracket of a vector with itself")
            if i > j:
                i, j, c = j, i, -c
            structure.setdefault((i, j), {})
            structure[(i, j)][k] = structure[(i, j)].get(k, Fraction(0)) + c
        try:
            df.L = NilpotentLieAlgebra(d, structure, name="input")
        except ValueError as e:
            raise (brackets or dims)[0].error("invalid Lie algebra: %s" % e)

    if orders:
        kind, n = orders[-1].values
        if kind != "elements":
            df.group = (cyclic_group if kind == "cyclic"
                        else symmetric_group)(n)
        else:
            rows = df._find("finite_group", "row")
            if len(rows) != n:
                raise (rows or orders)[-1].error("expected %d table rows" % n)
            for st in rows:
                if len(st.values) != n + 1:
                    raise st.error("row needs %d entries, got %d"
                                   % (n, len(st.values) - 1))
                for k, x in enumerate(st.values[1:], start=1):
                    if not 0 <= x < n:
                        raise st.error("table entry %d out of range 0..%d"
                                       % (x, n - 1), k)
            from .cosimpl import TableGroup
            try:
                df.group = TableGroup([st.values[1:] for st in rows],
                                      check=True)
            except ValueError as e:
                raise rows[0].error("invalid table: %s" % e)

    for tag, target in (("W", "filtration_w"), ("F", "filtration_f")):
        body = df.statements["filtration_" + tag]
        if not body:
            continue
        if df.L is None:
            raise body[0].error("filtrations need a lie_algebra section")
        out, basis = {}, None
        for st in body:
            if st.values[0] == "level":
                basis = out[st.values[1]] = []
            elif basis is None:
                raise st.error("vector before any level")
            elif len(st.values) != df.L.dim + 1:
                raise st.error("vector length != dim %d" % df.L.dim)
            else:
                basis.append(st.values[1:])
        setattr(df, target, out)

    for tag in ("phi", "N"):
        rows = df.statements[tag]
        if not rows:
            continue
        if df.L is None:
            raise rows[0].error("%s needs a lie_algebra section" % tag)
        d = df.L.dim
        if len(rows) != d or any(len(st.values) != d + 1 for st in rows):
            raise rows[0].error("%s must be a %dx%d matrix" % (tag, d, d))
        setattr(df, tag, [st.values[1:] for st in rows])

    patterns = df._find("cosimplicial", "pattern")
    if patterns:
        st = patterns[-1]
        if st.values[1] != "double_coset":
            raise st.error("unknown cosimplicial pattern %r" % st.values[1], 1)
        if df.group is None:
            raise st.error("double_coset pattern needs a finite_group")
        df.coset = {"pattern": st.values[1]}
        for side in ("left", "right"):
            sides = df._find("cosimplicial", side)
            if not sides:
                raise st.error("double_coset pattern needs a %s line" % side)
            at = sides[-1]
            elems = at.values[1:]
            for k, e in enumerate(elems, start=1):
                if not 0 <= e < df.group.size():
                    raise at.error("%s element %d out of range" % (side, e), k)
            if not elems:
                raise at.error("%s subset is empty" % side)
            try:
                subgroup_table(df.group, elems)
            except ValueError as e:
                raise at.error("%s %s" % (side, e))
            df.coset[side] = elems
    elif df.statements["cosimplicial"]:
        raise df.statements["cosimplicial"][0].error(
            "left/right need a pattern line")

    ext = df.statements["extension"]
    if ext:
        if df.L is None:
            raise ext[0].error("extension needs a lie_algebra section")
        for st in ext:
            if len(st.values) != df.L.dim + 1:
                raise st.error("%s vector length != dim %d"
                               % (st.values[0], df.L.dim))
        df.extension = {key: [st.values[1:] for st in ext
                              if st.values[0] == key]
                        for key in ("incl", "proj")}
    return df


def load_description(path):
    with open(path, "r") as fh:
        return parse_description(fh.read(), name=path)


# ---------------------------------------------------------------------------
# derived structures

def build_coset_cosimplicial(df):
    return cogenerate(_coset_object(df.group, df.coset["left"],
                                    df.coset["right"]), 2)


def build_phin(df):
    """The (phi, N) datum; a broken axiom is a ParseError at the first
    [phi] row, and a weight p <= 1 one at the ``p`` line (the validator
    checks the weight first)."""
    p = df.p if df.p is not None else Fraction(2)
    try:
        return PhiNGroup(df.L, df.phi, N=df.N, p=p)
    except ValueError as e:
        at = df._find(None, "p")[-1] if p <= 1 else df.statements["phi"][0]
        raise at.error("invalid (phi, N) data: %s" % e)


def build_mhs(df):
    return MHSGroup(df.L, df.filtration_w, df.filtration_f, name=df.name,
                    check=False)


def _filtration_verdict(M):
    """The report line on the filtrations of M and whether they are
    valid: the first failed check of ``validate_mhs``, or the graded
    weights."""
    if not M.report["ok"]:
        bad = [c for c in M.report["checks"] if not c["ok"]][0]
        return ("filtrations: INVALID (%s: %s)"
                % (bad["name"], bad["detail"] or "failed")), False
    gw = " ".join("%d:%d" % (m, M.report["graded_weights"][m])
                  for m in sorted(M.report["graded_weights"]))
    return "filtrations: valid; graded weights: %s" % gw, True


class InvalidFiltrations(Exception):
    """Filtrations that fail ``validate_mhs``; the message is the
    ``_filtration_verdict`` line."""


def _extension_error(df, key, message):
    """A ParseError at the first ``key`` line of the [extension] section,
    or at its first line when there is none."""
    at = (df._find("extension", key) or df.statements["extension"])[0]
    return at.error("invalid extension: %s" % message)


def _check_central_kernel(df, L):
    """The incl vectors are a basis of the kernel of the proj rows and
    central in L, or a ParseError at the first incl line.  Run after the
    command's own checks of the section, which name the fault more
    precisely where they apply."""
    zcols, proj_rows = df.extension["incl"], df.extension["proj"]
    if rank(zcols) != len(zcols):
        raise _extension_error(df, "incl",
                               "the incl vectors are linearly dependent")
    if Echelon(zcols) != Echelon(kernel_basis(proj_rows, L.dim)):
        raise _extension_error(df, "incl", "the incl vectors do not span "
                                           "the kernel of proj")
    if not all(L.is_central(z) for z in zcols):
        raise _extension_error(df, "incl", "the incl vectors are not central")


def _quotient_algebra(df, L):
    """The quotient Lie algebra presented by the proj rows of the
    [extension] section (a surjection with central kernel), a section
    used to transport structure, and proj as a Lie morphism; rows that
    are not onto or no Lie morphism are a ParseError at the first proj
    line."""
    proj_rows = df.extension["proj"]
    dQ = len(proj_rows)
    section = []
    for j in range(dQ):
        q = [Fraction(int(r == j)) for r in range(dQ)]
        s, _ = solve_affine(proj_rows, q)
        if s is None:
            raise _extension_error(df, "proj", "proj is not surjective")
        section.append(s)
    structure = {}
    for i in range(dQ):
        for j in range(i + 1, dQ):
            br = mat_vec(proj_rows, L.bracket(section[i], section[j]))
            row = {k: c for k, c in enumerate(br) if c}
            if row:
                structure[(i, j)] = row
    try:
        LQ = NilpotentLieAlgebra(dQ, structure, name=L.name + "_quot")
        return LQ, section, LieMorphism(L, LQ, proj_rows)
    except ValueError as e:
        raise _extension_error(df, "proj", "proj: %s" % e)


def _restrict_matrix(A, cols):
    """Matrix of A on the span of the given column vectors, in that basis."""
    out_cols = []
    for v in cols:
        co = coords_in_basis(cols, mat_vec(A, v))
        if co is None:
            return None
        out_cols.append(co)
    return transpose(out_cols)


def derive_phin_extension(df):
    XU = build_phin(df)
    L = XU.L
    zcols = df.extension["incl"]
    proj_rows = df.extension["proj"]
    try:
        incl = LieMorphism(abelian_lie_algebra(len(zcols)), L,
                           [[z[r] for z in zcols] for r in range(L.dim)])
    except ValueError:
        raise _extension_error(df, "incl", "the incl vectors do not commute")
    phiZ = _restrict_matrix(XU.phi, zcols)
    NZ = _restrict_matrix(XU.N, zcols) if df.N else None
    if phiZ is None or (df.N and NZ is None):
        raise _extension_error(df, "incl",
                               "phi/N do not restrict to the kernel")
    LQ, section, proj = _quotient_algebra(df, L)

    def induce(A):
        out = transpose([mat_vec(proj_rows, mat_vec(A, s)) for s in section])
        if not mat_eq(mat_mul(out, proj_rows), mat_mul(proj_rows, A)):
            return None
        return out
    phiQ = induce(XU.phi)
    NQ = induce(XU.N) if df.N else None
    if phiQ is None or (df.N and NQ is None):
        raise _extension_error(df, "proj",
                               "phi/N do not descend to the quotient")
    _check_central_kernel(df, L)
    XZ = PhiNGroup(incl.source, phiZ, N=NZ, p=XU.p)
    XQ = PhiNGroup(LQ, phiQ, N=NQ, p=XU.p)
    return XZ, XU, XQ, incl, proj


def derive_mhs_extension(df):
    """Z, U, Q and the maps of the [extension] section; filtrations that
    fail validation, on U or as induced on Z and Q, raise
    InvalidFiltrations."""
    MU = build_mhs(df)
    L = MU.L
    zcols = df.extension["incl"]
    proj_rows = df.extension["proj"]
    try:
        LZ, Z, incl = subalgebra_on_basis(L, zcols, name="Z")
    except ValueError:
        raise _extension_error(df, "incl",
                               "the incl vectors are not bracket-closed")
    # the Hodge levels are realified: so is Z, whose realified reduced rows
    # are those of its complex span, with the realified coordinates
    ZC = complex_span(Z.rows)
    wz = {m: [Z.coords(v) for v in lvl.meet(Z).rows]
          for m, lvl in MU.weights.items()}
    fz = {p_: [unrealify_vector(ZC.coords(v)) for v in lvl.meet(ZC).rows]
          for p_, lvl in MU.hodge.items()}
    MZ = MHSGroup(LZ, wz, fz, name="Z", check=False)
    LQ, _, proj = _quotient_algebra(df, L)
    _check_central_kernel(df, L)
    projR = realify_matrix(proj_rows, len(proj_rows), L.dim)
    wq = {m: [mat_vec(proj_rows, v) for v in lvl.rows]
          for m, lvl in MU.weights.items()}
    fq = {p_: [unrealify_vector(mat_vec(projR, v)) for v in lvl.rows]
          for p_, lvl in MU.hodge.items()}
    MQ = MHSGroup(LQ, wq, fq, name="Q", check=False)
    for M in (MU, MZ, MQ):
        line, ok = _filtration_verdict(M)
        if not ok:
            raise InvalidFiltrations(line)
    return MZ, MU, MQ, incl, proj


def build_action(df):
    """The group action of the [action] section; a generator image that is
    malformed or not a homomorphism is a ParseError at its generator line,
    and images that do not generate the group or define no action one at
    the carrier line."""
    G = df.group
    if G is None or df.action is None:
        raise ParseError(1, 1, "h1 needs finite_group and action sections")
    carriers = df._find("action", "carrier")
    if not carriers:
        raise df.action[0].error("generator before a carrier line")
    at = carriers[-1]
    kind = at.values[1]
    if kind != "lie_algebra":
        carrier = (cyclic_group if kind == "cyclic"
                   else symmetric_group)(at.values[2])
    elif df.L is None:
        raise at.error("carrier lie_algebra needs the lie_algebra section", 1)
    else:
        carrier = UnipotentCarrier(df.L)
    images = {}
    for st in df._find("action", "generator"):
        _, g, image, *entries = st.values
        if not 0 <= g < G.size():
            raise st.error("generator index %d out of range" % g, 1)
        if image == "permutation" and kind != "lie_algebra":
            if sorted(entries) != list(range(carrier.size())):
                raise st.error("permutation must list the %d carrier "
                               "elements" % carrier.size(), 2)
            h = FiniteHom(carrier, carrier, dict(enumerate(entries)),
                          check=False)
            homomorphism = h.is_homomorphism()
        elif image == "matrix" and kind == "lie_algebra":
            d = df.L.dim
            if len(entries) != d * d:
                raise st.error("matrix needs %d entries" % (d * d), 2)
            mat = [entries[r * d:(r + 1) * d] for r in range(d)]
            h = LinearHom(carrier, carrier, mat)
            homomorphism = LieMorphism(df.L, df.L, mat, check=False) \
                .bracket_defect() is None
        else:
            raise st.error("generator image must be a permutation of a "
                           "finite carrier or a matrix on a lie_algebra", 2)
        if not homomorphism:
            raise st.error("generator image is not a homomorphism of the "
                           "carrier", 2)
        if g == G.identity() and not hom_equal(h, carrier.identity_hom):
            raise st.error("the identity must act trivially", 1)
        images[g] = h
    try:
        action = GroupAction.from_generator_images(G, carrier, images,
                                                   check=False)
    except ValueError:
        raise at.error("generator images do not generate the group") \
            from None
    bad = action.defect()
    if bad is not None:
        raise at.error("generator images do not define an action: %s" % bad)
    return action


# ---------------------------------------------------------------------------
# verification suites

@functools.cache
def _fil3():
    """The filiform algebra of class 3, shared by two suites."""
    return NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                               name="fil3")


@functools.cache
def _bch_pool():
    fil3 = _fil3()
    fil4 = NilpotentLieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1},
                                   (0, 3): {4: 1}}, name="fil4")
    return (abelian_lie_algebra(1), abelian_lie_algebra(4),
            abelian_lie_algebra(6), heisenberg(),
            direct_sum(heisenberg(), abelian_lie_algebra(3)),
            fil3, direct_sum(fil3, abelian_lie_algebra(2)), fil4,
            direct_sum(fil4, abelian_lie_algebra(1)))


def suite_bch(rng, instances):
    """Associativity, inverses and the unit law of the truncated group
    product, on random triples in random nilpotent algebras (class <= 4,
    dim <= 6, numerators/denominators <= 100)."""
    pool = _bch_pool()
    failures = []
    for k in range(instances):
        L = rng.choice(pool)

        def rv():
            return [Fraction(rng.randint(-100, 100), rng.randint(1, 100))
                    for _ in range(L.dim)]
        x, y, z = rv(), rv(), rv()
        if L.bch(L.bch(x, y), z) != L.bch(x, L.bch(y, z)):
            failures.append("associativity: %s %s %s %s" % (L.name, x, y, z))
        if not vec_is_zero(L.bch(x, L.inverse(x))):
            failures.append("inverse: %s %s" % (L.name, x))
        if L.bch(x, L.zero()) != list(map(Fraction, x)):
            failures.append("unit: %s %s" % (L.name, x))
    return {"instances": instances, "failures": failures}


def _random_subgroup(rng, G):
    g = rng.choice(G.elements())
    sub = {G.identity()}
    cur = g
    while cur not in sub:
        sub.add(cur)
        cur = G.mul(cur, g)
    return sorted(sub)


def _random_double_coset(rng, level_cap, levels):
    """Random (finite group of order <= 48, cyclic subgroup pair) with the
    cogenerated object capped at level_cap elements per level."""
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            G = cyclic_group(rng.choice([4, 6, 8, 9, 12, 16, 18, 24, 36, 48]))
        elif kind == 1:
            G = symmetric_group(3)
        elif kind == 2:
            G = symmetric_group(4)
        else:
            G = cyclic_group(rng.randint(2, 10))
        # keep the chosen group and redraw subgroups until the
        # cogenerated levels fit, so the large orders actually occur
        for _ in range(400):
            left = _random_subgroup(rng, G)
            right = _random_subgroup(rng, G)
            x0 = len(left) * len(right)
            if x0 * G.size() ** levels <= level_cap:
                return G, left, right


def _brute_double_cosets(G, left, right):
    seen, count = set(), 0
    for g in G.elements():
        if g in seen:
            continue
        count += 1
        for a in right:
            for b in left:
                seen.add(G.mul(G.mul(a, g), b))
    return count


def _coset_object(G, left, right):
    Hl, incl_l = subgroup_table(G, left)
    Hr, incl_r = subgroup_table(G, right)
    X0 = ProductGroup([Hl, Hr])
    d0 = FiniteHom(X0, G, {x: incl_l[x[0]] for x in X0.elements()}, check=True)
    d1 = FiniteHom(X0, G, {x: incl_r[x[1]] for x in X0.elements()}, check=True)
    return SemiCosimplicialGroup([X0, G], {1: [d0, d1]}, check=True)


def suite_double_coset(rng, instances):
    """pi^0 = subgroup intersection and pi^1 count = brute-force double
    coset count, on random finite instances."""
    failures = []
    for k in range(instances):
        G, left, right = _random_double_coset(rng, 20000, 2)
        Gam = cogenerate(_coset_object(G, left, right), N=2)
        inter = set(left) & set(right)
        if len(pi0(Gam)) != len(inter):
            failures.append("pi0 mismatch: |G|=%d" % G.size())
        if pi1_finite(Gam)["count"] != _brute_double_cosets(G, left, right):
            failures.append("pi1 mismatch: |G|=%d" % G.size())
    return {"instances": instances, "failures": failures}


def suite_dold_kan(rng, instances):
    """Cohomotopy of the cogenerated object = Moore-complex cohomology,
    on random truncated semi-cosimplicial vector spaces (degrees <= 3)."""
    failures = []
    for k in range(instances):
        dims = [rng.randint(1, 3) for _ in range(4)]
        X = random_linear_semicosimplicial(rng, dims)
        direct = pi_abelian_all(X)
        via = pi_abelian_all(cogenerate(X, N=4))
        if via[:4] != direct[:4]:
            failures.append("dims %s: %s != %s" % (dims, via[:4], direct[:4]))
    return {"instances": instances, "failures": failures}


def suite_eilenberg_zilber(rng, instances):
    """Diagonal cohomotopy = total-complex cohomology on random
    bi-semi-cosimplicial vector spaces."""
    failures = []
    for k in range(instances):
        hdims = [rng.randint(1, 2) for _ in range(3)]
        vdims = [rng.randint(1, 2) for _ in range(3)]
        A = random_bisemicosimplicial(rng, hdims, vdims)
        report = eilenberg_zilber_oracle(A)
        if not report["match"]:
            failures.append("dims %s x %s" % (hdims, vdims))
    return {"instances": instances, "failures": failures}


def _mult_order(a, n):
    x, k = a % n, 1
    while x != 1:
        x = (x * a) % n
        k += 1
        if k > n:
            return None
    return k


def suite_les_finite(rng, instances):
    """All exactness clauses (including orbit = fiber) of the seven-term
    sequence of a central extension of finite groups with group action,
    verified by enumeration."""
    failures = []
    ns = [4, 6, 8, 9, 12, 16, 18, 20, 24, 27, 32, 36, 48, 64]
    done = 0
    while done < instances:
        n = rng.choice(ns)
        divs = [d for d in range(2, n) if n % d == 0]
        if not divs:
            continue
        d = rng.choice(divs)
        units = [a for a in range(1, n) if _mult_order(a, n) is not None
                 and _mult_order(a, n) <= 12]
        a = rng.choice(units)
        m = _mult_order(a, n)
        G = cyclic_group(m)
        U = cyclic_group(n)
        Z = cyclic_group(d)
        Q = cyclic_group(n // d)
        q = n // d

        def act_on(carrier, mult, mod):
            maps = {}
            for g in range(m):
                s = pow(mult, g, mod)
                maps[g] = FiniteHom(carrier, carrier,
                                    {u: (u * s) % mod
                                     for u in carrier.elements()}, check=True)
            return GroupAction(G, carrier, maps, check=True)
        actU = act_on(U, a, n)
        actZ = act_on(Z, a, d)
        actQ = act_on(Q, a, q)
        incl = {z: z * q for z in Z.elements()}
        proj = {u: u % q for u in U.elements()}
        if any(incl[(z * (a % d)) % d] != (incl[z] * a) % n
               for z in Z.elements()):
            continue  # the kernel action must match the ambient one
        rep = les_group_cohomology(actZ, actU, actQ, incl, proj)["report"]
        if not rep["ok"]:
            failures.append("n=%d d=%d a=%d: %s" % (n, d, a, rep["clauses"]))
        done += 1
    return {"instances": instances, "failures": failures}


def suite_twist(rng, instances):
    """pi^1 bijection under twisting, by enumeration over every cocycle
    of random double-coset instances, plus the canonical isomorphism for
    coboundary changes of the twisting datum."""
    failures = []
    # draw the instances first: seeding with the double-coset suite seed
    # then reproduces exactly that suite's instance stream
    drawn = [_random_double_coset(rng, 20000, 2) for _ in range(instances)]
    for G, left, right in drawn:
        U = cogenerate(_coset_object(G, left, right), N=2)
        p1 = pi1_finite(U)
        G1 = U.objects[1]
        Z1 = p1["z1"]
        for beta in Z1:
            p1b = pi1_finite(twist(U, beta))
            # each twisted class lands in one class of U, one to one
            images = [{p1["index"].get(G1.mul(v, beta)) for v in c["orbit"]}
                      for c in p1b["classes"]]
            ok = all(len(img) == 1 and None not in img for img in images)
            if not (ok and len(set().union(*images)) == p1b["count"]
                    == p1["count"]):
                failures.append("twist bijection: |G|=%d beta=%s"
                                % (G.size(), (beta,)))
        u0 = rng.choice(list(U.objects[0].elements()))
        beta = rng.choice(Z1)
        _, _, _, ok = trivial_twist_isomorphism(U, beta, u0)
        if not ok:
            failures.append("coboundary isomorphism: |G|=%d" % G.size())
    return {"instances": instances, "failures": failures}


def suite_twisted_conjugation(rng, instances):
    """Transitive iff trivial stabilizer for graded automorphisms of
    unipotent groups (class <= 3, dim <= 5); no graded eigenvalue 1
    forces transitivity."""
    failures = []
    scalars = [F(1), F(2), F(3), F(5), F(1, 2), F(-1), F(2), F(3)]
    for k in range(instances):
        which = rng.randrange(4)
        a, b, c = (rng.choice(scalars) for _ in range(3))
        if which == 0:
            L = abelian_lie_algebra(rng.randint(1, 5))
            diag = [rng.choice(scalars) for _ in range(L.dim)]
        elif which == 1:
            L = heisenberg()
            diag = [a, b, a * b]
        elif which == 2:
            L = direct_sum(heisenberg(), abelian_lie_algebra(1))
            diag = [a, b, a * b, c]
        else:
            L = _fil3()
            diag = [a, b, a * b, a * a * b]
        phi = [[diag[i] if i == j else Fraction(0) for j in range(L.dim)]
               for i in range(L.dim)]
        res = twisted_conj_classify(L, phi)
        if res["transitive"] != (not res["stabilizer_basis"]):
            failures.append("decider disagreement: %s %s" % (L.name, diag))
        if all(t != 1 for t in diag) and not res["transitive"]:
            failures.append("eigenvalue-free phi not transitive: %s %s"
                            % (L.name, diag))
        if any(t == 1 for t in diag) and res["transitive"]:
            failures.append("fixed graded line but transitive: %s %s"
                            % (L.name, diag))
    return {"instances": instances, "failures": failures}


@functools.cache
def _hopf_envelopes():
    return (TruncatedEnvelope(abelian_lie_algebra(3), order=2),
            TruncatedEnvelope(heisenberg(), order=3),
            TruncatedEnvelope(central_extension(
                heisenberg(), 1, {(0, 2): [F(1)]}), order=4))


def suite_hopf(rng, instances=10):
    """Symmetrization carries the weighted filtration onto the power
    filtration on the three reference algebras; graded trivialization
    independence, decided on a basis, over 10 trivialization changes per
    torsor.  The three envelopes are built once per process, and with
    them their compiled products, J-filtrations and graded bases; every
    call runs every check on them."""
    failures = []
    for example in _hopf_envelopes():
        if not symmetrization_check(example)["ok"]:
            failures.append("symmetrization: %s" % example.L.name)
    for t in range(instances):
        for _ in range(10):
            q = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            if not graded_trivialization_check(_hopf_envelopes()[1], q):
                failures.append("trivialization dependence: torsor %d q=%s"
                                % (t, q))
    return {"instances": instances, "failures": failures}


# name, function, default instances standalone / in the full battery
SUITES = [
    ("bch", suite_bch, 1000, 200),
    ("double-coset", suite_double_coset, 50, 8),
    ("dold-kan", suite_dold_kan, 100, 10),
    ("eilenberg-zilber", suite_eilenberg_zilber, 100, 8),
    ("les", suite_les_finite, 30, 6),
    ("twist", suite_twist, 50, 4),
    ("twisted-conjugation", suite_twisted_conjugation, 100, 25),
    ("hopf", suite_hopf, 10, 10),
]


def run_verify(suite, seed, instances):
    """Run one named suite, or the whole battery (with lighter per-suite
    counts).  Deterministic for a fixed (seed, instances)."""
    battery = suite in (None, "all")
    chosen = [s for s in SUITES if battery or suite == s[0]]
    if not chosen:
        return None
    results = []
    for name, fn, single, in_battery in chosen:
        rng = random.Random("%s:%s" % (seed, name))
        count = instances if instances is not None \
            else (in_battery if battery else single)
        results.append((name, fn(rng, count)))
    return results


# ---------------------------------------------------------------------------
# commands

def _fmt_vec(v):
    return ", ".join(format_scalar(x) for x in v)


def _header(command, df=None):
    lines = ["command: %s" % command]
    if df is not None:
        import hashlib  # only reports with an input print its digest
        digest = hashlib.sha256(df.text.encode()).hexdigest()[:16]
        lines.append("input: %s sha256=%s" % (df.name, digest))
    return lines


def cmd_validate(df, args):
    lines = _header("validate", df)
    lines.append("field: %s" % df.field)
    if df.L is not None:
        lines.append("lie algebra: dim %d, class %d"
                     % (df.L.dim, df.L.nilpotency_class))
    if df.group is not None:
        lines.append("finite group: order %d" % df.group.size())
    if df.phi is not None:
        X = build_phin(df)
        lines.append("frobenius data: valid (p = %s)" % X.p)
    if df.filtration_w is not None or df.filtration_f is not None:
        line, ok = _filtration_verdict(build_mhs(df))
        lines.append(line)
        if not ok:
            return lines, 2
    if df.action is not None and df.group is not None:
        build_action(df)
    if df.extension is not None:
        _quotient_algebra(df, df.L)
        _check_central_kernel(df, df.L)
        lines.append("extension: Z dim %d, Q dim %d"
                     % (len(df.extension["incl"]), len(df.extension["proj"])))
    lines.append("verdict: ok")
    return lines, 0


def cmd_pi(df, args):
    lines = _header("pi", df)
    lines.append("degree: %d" % args.degree)
    if df.coset is None:
        raise ParseError(1, 1, "pi needs a cosimplicial section")
    if args.degree not in (0, 1):
        raise _ArgumentError("--degree: %d is not supported for finite "
                             "patterns (0 or 1)" % args.degree)
    Gam = build_coset_cosimplicial(df)
    if args.degree == 0:
        lines.append("pi0 size: %d" % len(pi0(Gam)))
    else:
        lines.append("pi1 classes: %d" % pi1_finite(Gam)["count"])
    return lines, 0


def cmd_h1(df, args):
    lines = _header("h1", df)
    act = build_action(df)
    res = h0_h1(act)
    if res["mode"] == "unipotent":
        lines.append("h0 dim: %d" % len(res["h0_basis"]))
        ident = res["cochain"].objects[1].identity()
        lines.append("h1 tangent dim at base: %d"
                     % res["deciders"]["tangent_dimension_at"](ident))
    else:
        lines.append("h0 size: %d" % len(res["h0"]))
        lines.append("h1 classes: %d" % res["h1_count"])
    return lines, 0


def cmd_phin_classify(df, args):
    lines = _header("phin-classify", df)
    if df.L is None or df.phi is None:
        raise ParseError(1, 1, "phin-classify needs lie_algebra and phi")
    build_phin(df)  # validates the (phi, N) axioms
    res = twisted_conj_classify(df.L, df.phi)
    if res["transitive"]:
        lines.append("transitive: yes")
        return lines, 0
    lines.append("transitive: no")
    lines.append("stabilizer dim: %d" % len(res["stabilizer_basis"]))
    return lines, 1


def _les_report(lines, res, h1_z, summary=()):
    """The report of a -les command: the failed clauses and exit 3, or the
    summary lines, whether the middle map is bijective and H1 of the
    kernel (named h1_z), with exit 1 if it is not and 0 if it is or the
    verdict is undecided (None)."""
    if not res["report"]["ok"]:
        return lines + ["report: FAILED"] + [
            "  failed: %s" % msg for status, msg in res["report"]["clauses"]
            if status == "FAIL"], 3
    verdict = res["middle_bijective"]
    return lines + ["report: ok"] + list(summary) + [
        "middle map bijective: %s; %s dim %d"
        % ({True: "yes", False: "no", None: "undecided"}[verdict], h1_z,
           res["h1_z_dim"])], 1 if verdict is False else 0


def cmd_phin_les(df, args):
    lines = _header("phin-les", df)
    if df.extension is None or df.phi is None:
        raise ParseError(1, 1, "phin-les needs phi and extension sections")
    res = quotient_les(*derive_phin_extension(df))
    return _les_report(lines, res, "H1_{g/e}(Z)")


def cmd_hodge_classify(df, args):
    lines = _header("hodge-classify", df)
    if df.filtration_w is None or df.filtration_f is None:
        raise ParseError(1, 1, "hodge-classify needs both filtrations")
    M = build_mhs(df)
    line, ok = _filtration_verdict(M)
    if not ok:
        return lines + [line], 2
    toks = [t.strip() for t in args.element.split(",")]
    if len(toks) != M.L.dim:
        raise _ArgumentError("--element: needs %d coordinates, got %d"
                             % (M.L.dim, len(toks)))
    try:
        u = [_convert((t, 0, 0), "scalar") for t in toks]
    except ParseError as e:
        raise _ArgumentError("--element: %s" % e.message) from None
    cls = classify_torsor(M, u)
    lines.append("element: %s" % _fmt_vec(u))
    lines.append("normal form: %s" % _fmt_vec(cls.representative))
    nonzero = [format_scalar(x) for x in cls.normal_coords() if x]
    lines.append("reduced coordinates: %s"
                 % (", ".join(nonzero) if nonzero else "none (base class)"))
    return lines, 0


def cmd_hodge_les(df, args):
    lines = _header("hodge-les", df)
    if df.extension is None or df.filtration_f is None:
        raise ParseError(1, 1, "hodge-les needs filtrations and extension")
    try:
        MZ, MU, MQ, incl, proj = derive_mhs_extension(df)
    except InvalidFiltrations as e:
        return lines + [str(e)], 2
    res = mhs_les(MZ, MU, MQ, incl, proj)
    return _les_report(lines, res, "H1(Z)", [
        "h1 dimensions: Z %d, U %d, Q %d"
        % (res["h1_z_dim"], h1_dimension(MU), res["h1_q_dim"])])


def cmd_verify(args):
    # a pass over no samples would be a verdict with nothing behind it
    if args.instances is not None and args.instances < 1:
        raise _ArgumentError("--instances: %d is not a positive count"
                             % args.instances)
    lines = _header("verify")
    lines.append("seed: %s" % args.seed)
    results = run_verify(args.suite, args.seed, args.instances)
    if results is None:
        return ["error: unknown suite %r" % args.suite], 2
    any_fail = False
    for name, rep in results:
        if rep["failures"]:
            any_fail = True
            lines.append("suite %s: FAIL (%d instances, %d failures)"
                         % (name, rep["instances"], len(rep["failures"])))
            for f in rep["failures"]:
                lines.append("  counterexample: %s" % f)
        else:
            lines.append("suite %s: pass (%d instances)"
                         % (name, rep["instances"]))
    lines.append("verdict: %s" % ("FAIL" if any_fail else "pass"))
    return lines, 3 if any_fail else 0


COMMANDS = {
    "validate": cmd_validate,
    "pi": cmd_pi,
    "h1": cmd_h1,
    "phin-classify": cmd_phin_classify,
    "phin-les": cmd_phin_les,
    "hodge-classify": cmd_hodge_classify,
    "hodge-les": cmd_hodge_les,
}


@functools.cache
def _parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cohw",
        description="exact cohomotopy computations on description files")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if name == "pi":
            p.add_argument("--degree", type=int, default=1)
        if name == "hodge-classify":
            p.add_argument("--element", required=True)
    pv = sub.add_parser("verify")
    pv.add_argument("--suite", default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--instances", type=int, default=None)
    pv.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        if args.command == "verify":
            lines, code = cmd_verify(args)
        else:
            try:
                df = load_description(args.file)
            except OSError as e:
                raise _ArgumentError(e) from None
            lines, code = COMMANDS[args.command](df, args)
    except ParseError as e:
        lines, code = ["error: %s:%d:%d: %s" % (getattr(
            args, "file", "<input>"), e.line, e.col, e.message)], 2
    except _ArgumentError as e:
        lines, code = ["error: %s" % e], 2
    except (AssertionError, ValueError, RuntimeError) as e:
        # a guaranteed identity failed, or internal data was malformed
        lines, code = ["error: internal verification failure: %s" % e], 3

    if args.format == "json":
        print(json.dumps({"lines": lines, "exit": code}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
