"""Batch front end: parse algebra-description files, dispatch the
computations, run the verification suites, emit deterministic reports.

The input format is line-oriented with named ``[sections]``; the grammar
is documented in the README and parse errors carry (line, column)
locations.  Reports are byte-identical for identical (input, seed).
Exit codes: 0 success, 1 negative certificate, 2 input error, 3 internal
verification failure (a guaranteed identity failed - always a bug).
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from .exactla import (
    coords_in_basis, format_scalar, kernel_basis, mat_eq, mat_mul, mat_vec,
    parse_scalar, rank, solve_affine, span_echelon, subspace_intersect,
    transpose, unrealify_vector, vec_is_zero,
)
from .cosimpl import (
    ENUM_CAP, FiniteHom, LinearHom, ProductGroup, SemiCosimplicialGroup,
    UnipotentCarrier, cogenerate, complex_cohomology_dims, cyclic_group,
    eilenberg_zilber_oracle, hom_equal, identity_hom, moore_differentials,
    pi0, pi1_finite, pi_abelian_all, random_bisemicosimplicial,
    random_linear_semicosimplicial, subgroup_table, symmetric_group,
    trivial_twist_isomorphism, twist, z1_elements,
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


class DescriptionFile:
    """Parsed and cross-validated model of one input file."""

    def __init__(self, name, text):
        self.name = name
        self.text = text
        self.field = "rational"
        self.p = None
        self.p_line = None
        self.L = None
        self.L_class = None
        self.group = None
        self.filtration_w = None
        self.filtration_f = None
        self.phi = None
        self.phi_line = None
        self.N = None
        self.coset = None
        self.action = None
        self.extension = None


def _tokens(line):
    return line.split()


def _value(toks, lineno):
    """The one value of a keyword line."""
    if len(toks) != 2:
        raise ParseError(lineno, 1, "%s takes one value" % toks[0])
    return toks[1]


def _parse_int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, 1, "bad %s: %r" % (what, tok))


def _parse_frac(tok, lineno):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, 1, "bad rational: %r" % tok)


def _parse_gauss(tok, lineno):
    try:
        return parse_scalar(tok, field="gaussian")
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, 1, "bad scalar: %r" % tok)


def _group_order(kind, tok, lineno):
    """Order n of a ``cyclic``, ``symmetric`` or ``elements`` group, checked
    before any table is built: n >= 1, and at most ENUM_CAP table cells
    (n^2, or n!^2 for the symmetric group)."""
    n = _parse_int(tok, lineno, "order")
    if n < 1:
        raise ParseError(lineno, 1, "%s order must be at least 1" % kind)
    size = n
    if kind == "symmetric":
        size = 1
        for k in range(2, n + 1):
            size *= k
            if size * size > ENUM_CAP:
                break
    if size * size > ENUM_CAP:
        raise ParseError(lineno, 1, "%s %d: group table exceeds %d cells"
                         % (kind, n, ENUM_CAP))
    return n


def parse_description(text, name="<input>"):
    """Total parse with located diagnostics; builds and validates the
    referenced objects (delegating invariants to the module validators)."""
    df = DescriptionFile(name, text)
    section = None
    lie = {"dim": None, "brackets": []}
    grp = {"kind": None, "n": None, "rows": []}
    filts = {"W": [], "F": []}
    mats = {"phi": [], "N": []}
    coset = {"pattern": None, "left": None, "right": None}
    action = {"carrier": None, "generators": []}
    ext = {"incl": [], "proj": []}
    saw_content = False

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_content = True
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, len(line), "unterminated section header")
            section = line[1:-1].strip()
            known = {"lie_algebra", "finite_group", "action", "filtration_W",
                     "filtration_F", "phi", "N", "cosimplicial", "extension"}
            if section not in known:
                raise ParseError(lineno, 2, "unknown section %r" % section)
            continue
        toks = _tokens(line)
        key = toks[0]
        if section is None:
            if key == "field":
                if len(toks) != 2 or toks[1] not in ("rational", "gaussian"):
                    raise ParseError(lineno, 1,
                                     "field must be rational or gaussian")
                df.field = toks[1]
            elif key == "p":
                df.p = _parse_frac(_value(toks, lineno), lineno)
                df.p_line = lineno
            else:
                raise ParseError(lineno, 1, "statement outside any section: %r"
                                 % key)
        elif section == "lie_algebra":
            if key == "dim":
                lie["dim"] = _parse_int(_value(toks, lineno), lineno,
                                       "dimension")
                if lie["dim"] < 0:
                    raise ParseError(lineno, 1, "dimension must be >= 0")
                if lie["dim"] > DIM_CAP:
                    raise ParseError(lineno, 1, "dimension %d exceeds %d"
                                     % (lie["dim"], DIM_CAP))
            elif key == "bracket":
                if len(toks) != 5:
                    raise ParseError(lineno, 1,
                                     "bracket needs: i j k coefficient")
                i, j, k = (_parse_int(t, lineno, "index") for t in toks[1:4])
                c = _parse_frac(toks[4], lineno)
                lie["brackets"].append((lineno, raw, i, j, k, c))
            else:
                raise ParseError(lineno, 1, "unknown lie_algebra line %r" % key)
        elif section == "finite_group":
            if key in ("cyclic", "symmetric", "elements"):
                grp["kind"] = "table" if key == "elements" else key
                grp["n"] = _group_order(key, _value(toks, lineno), lineno)
            elif key == "row":
                grp["rows"].append((lineno,
                                    [_parse_int(t, lineno, "entry")
                                     for t in toks[1:]]))
            else:
                raise ParseError(lineno, 1, "unknown finite_group line %r" % key)
        elif section in ("filtration_W", "filtration_F"):
            tag = "W" if section == "filtration_W" else "F"
            if key == "level":
                filts[tag].append(
                    (_parse_int(_value(toks, lineno), lineno, "level"), []))
            elif key == "vector":
                if not filts[tag]:
                    raise ParseError(lineno, 1, "vector before any level")
                filts[tag][-1][1].append((lineno, toks[1:]))
            else:
                raise ParseError(lineno, 1, "unknown filtration line %r" % key)
        elif section in ("phi", "N"):
            if key != "row":
                raise ParseError(lineno, 1, "matrix sections hold 'row' lines")
            mats[section].append((lineno,
                                  [_parse_frac(t, lineno) for t in toks[1:]]))
        elif section == "cosimplicial":
            if key == "pattern":
                coset["pattern"] = (lineno, _value(toks, lineno))
            elif key in ("left", "right"):
                coset[key] = (lineno, [_parse_int(t, lineno, "element")
                                       for t in toks[1:]])
            else:
                raise ParseError(lineno, 1, "unknown cosimplicial line %r" % key)
        elif section == "action":
            if key == "carrier":
                kind = toks[1] if len(toks) > 1 else None
                if kind in ("cyclic", "symmetric"):
                    n = _group_order(kind, _value(toks[1:], lineno), lineno)
                elif kind == "lie_algebra" and len(toks) == 2:
                    n = None
                else:
                    raise ParseError(lineno, 1, "carrier must be cyclic n, "
                                     "symmetric n or lie_algebra")
                action["carrier"] = (lineno, kind, n)
            elif key == "generator":
                action["generators"].append((lineno, toks[1:]))
            else:
                raise ParseError(lineno, 1, "unknown action line %r" % key)
        elif section == "extension":
            if key not in ("incl", "proj"):
                raise ParseError(lineno, 1, "extension lines are incl/proj")
            ext[key].append((lineno,
                             [_parse_frac(t, lineno) for t in toks[1:]]))

    if not saw_content:
        raise ParseError(1, 1, "empty description")

    # -- resolve and validate
    if lie["dim"] is not None or lie["brackets"]:
        d = lie["dim"]
        if d is None:
            first = lie["brackets"][0][0] if lie["brackets"] else 1
            raise ParseError(first, 1, "lie_algebra needs a dim line")
        structure = {}
        for lineno, raw, i, j, k, c in lie["brackets"]:
            for idx in (i, j, k):
                if not 0 <= idx < d:
                    col = raw.find(str(idx)) + 1
                    raise ParseError(lineno, max(col, 1),
                                     "basis index %d out of range (dim %d)"
                                     % (idx, d))
            if i == j:
                raise ParseError(lineno, 1, "bracket of a vector with itself")
            if i > j:
                i, j, c = j, i, -c
            structure.setdefault((i, j), {})
            structure[(i, j)][k] = structure[(i, j)].get(k, Fraction(0)) + c
        try:
            df.L = NilpotentLieAlgebra(d, structure, name="input")
        except ValueError as e:
            raise ParseError(lie["brackets"][0][0] if lie["brackets"] else 1,
                             1, "invalid Lie algebra: %s" % e)
        df.L_class = df.L.nilpotency_class

    if grp["kind"] == "cyclic":
        df.group = cyclic_group(grp["n"])
    elif grp["kind"] == "symmetric":
        df.group = symmetric_group(grp["n"])
    elif grp["kind"] == "table":
        n = grp["n"]
        if len(grp["rows"]) != n:
            lineno = grp["rows"][-1][0] if grp["rows"] else 1
            raise ParseError(lineno, 1, "expected %d table rows" % n)
        for lineno, r in grp["rows"]:
            if len(r) != n:
                raise ParseError(lineno, 1, "row needs %d entries, got %d"
                                 % (n, len(r)))
            bad = [x for x in r if not 0 <= x < n]
            if bad:
                raise ParseError(lineno, 1, "table entry %d out of range "
                                 "0..%d" % (bad[0], n - 1))
        table = [r for _, r in grp["rows"]]
        from .cosimpl import TableGroup
        try:
            df.group = TableGroup(table, check=True)
        except ValueError as e:
            raise ParseError(grp["rows"][0][0], 1, "invalid table: %s" % e)

    for tag, target in (("W", "filtration_w"), ("F", "filtration_f")):
        if not filts[tag]:
            continue
        if df.L is None:
            raise ParseError(1, 1, "filtrations need a lie_algebra section")
        out = {}
        for level, vecs in filts[tag]:
            basis = []
            for lineno, toks in vecs:
                if len(toks) != df.L.dim:
                    raise ParseError(lineno, 1, "vector length != dim %d"
                                     % df.L.dim)
                if tag == "W":
                    basis.append([_parse_frac(t, lineno) for t in toks])
                else:
                    basis.append([_parse_gauss(t, lineno) for t in toks])
            out[level] = basis
        setattr(df, target, out)

    for tag in ("phi", "N"):
        if not mats[tag]:
            continue
        if df.L is None:
            raise ParseError(mats[tag][0][0], 1,
                             "%s needs a lie_algebra section" % tag)
        d = df.L.dim
        if len(mats[tag]) != d or any(len(r) != d for _, r in mats[tag]):
            raise ParseError(mats[tag][0][0], 1,
                             "%s must be a %dx%d matrix" % (tag, d, d))
        setattr(df, tag, [r for _, r in mats[tag]])
    if df.phi is not None:
        df.phi_line = mats["phi"][0][0]

    if coset["pattern"] is not None:
        lineno, pattern = coset["pattern"]
        if pattern != "double_coset":
            raise ParseError(lineno, 1, "unknown cosimplicial pattern %r"
                             % pattern)
        if df.group is None:
            raise ParseError(lineno, 1,
                             "double_coset pattern needs a finite_group")
        df.coset = {"pattern": pattern}
        for side in ("left", "right"):
            if coset[side] is None:
                raise ParseError(lineno, 1, "double_coset pattern needs a "
                                 "%s line" % side)
            at, elems = coset[side]
            for e in elems:
                if not 0 <= e < df.group.size():
                    raise ParseError(at, 1, "%s element %d out of range"
                                     % (side, e))
            if not elems:
                raise ParseError(at, 1, "%s subset is empty" % side)
            try:
                subgroup_table(df.group, elems)
            except ValueError as e:
                raise ParseError(at, 1, "%s %s" % (side, e))
            df.coset[side] = elems
    elif coset["left"] or coset["right"]:
        at = min(v[0] for v in (coset["left"], coset["right"]) if v)
        raise ParseError(at, 1, "left/right need a pattern line")

    if action["carrier"] is not None or action["generators"]:
        df.action = action

    if ext["incl"] or ext["proj"]:
        if df.L is None:
            raise ParseError(1, 1, "extension needs a lie_algebra section")
        d = df.L.dim
        for key, rows in ext.items():
            for lineno, v in rows:
                if len(v) != d:
                    raise ParseError(lineno, 1,
                                     "%s vector length != dim %d" % (key, d))
        df.extension = {key: [v for _, v in rows]
                        for key, rows in ext.items()}
        # a key without lines is located at the first line of the other
        first = min(rows[0][0] for rows in ext.values() if rows)
        df.extension["lines"] = {key: rows[0][0] if rows else first
                                 for key, rows in ext.items()}
    return df


def load_description(path):
    with open(path, "r") as fh:
        return parse_description(fh.read(), name=path)


# ---------------------------------------------------------------------------
# derived structures

def build_coset_cosimplicial(df, N=2):
    return cogenerate(_coset_object(df.group, df.coset["left"],
                                    df.coset["right"]), N)


def build_phin(df):
    """The (phi, N) datum; a broken axiom is a ParseError at the first
    [phi] row, and a weight p <= 1 one at the ``p`` line (the validator
    checks the weight first)."""
    p = df.p if df.p is not None else Fraction(2)
    try:
        return PhiNGroup(df.L, df.phi, N=df.N, p=p)
    except ValueError as e:
        line = df.p_line if p <= 1 else df.phi_line
        raise ParseError(line, 1, "invalid (phi, N) data: %s" % e)


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
    """A ParseError at the first ``key`` line of the [extension] section."""
    return ParseError(df.extension["lines"][key], 1,
                      "invalid extension: %s" % message)


def _check_central_kernel(df, L):
    """The incl vectors are a basis of the kernel of the proj rows and
    central in L, or a ParseError at the first incl line.  Run after the
    command's own checks of the section, which name the fault more
    precisely where they apply."""
    zcols, proj_rows = df.extension["incl"], df.extension["proj"]
    if rank(zcols) != len(zcols):
        raise _extension_error(df, "incl",
                               "the incl vectors are linearly dependent")
    if span_echelon(zcols) != span_echelon(kernel_basis(proj_rows, L.dim)):
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
        LZ, basisZ, incl = subalgebra_on_basis(L, zcols, name="Z")
    except ValueError:
        raise _extension_error(df, "incl",
                               "the incl vectors are not bracket-closed")
    # the Hodge levels are realified: so are Z's basis and coordinates
    basisZ_R = realify_matrix(basisZ, len(basisZ), L.dim)
    wz, fz = {}, {}
    for m, lvl in MU.weights.items():
        inter = subspace_intersect(lvl, basisZ) if lvl else []
        wz[m] = [coords_in_basis(basisZ, v) for v in inter]
    for p_, lvl in MU.hodge.items():
        inter = subspace_intersect(lvl, basisZ_R)
        fz[p_] = [unrealify_vector(coords_in_basis(basisZ_R, v))
                  for v in inter]
    MZ = MHSGroup(LZ, wz, fz, negative_weights=MU.negative_weights, name="Z",
                  check=False)
    LQ, _, proj = _quotient_algebra(df, L)
    _check_central_kernel(df, L)
    projR = realify_matrix(proj_rows, len(proj_rows), L.dim)
    wq = {m: [mat_vec(proj_rows, v) for v in lvl]
          for m, lvl in MU.weights.items()}
    fq = {p_: [unrealify_vector(mat_vec(projR, v)) for v in lvl]
          for p_, lvl in MU.hodge.items()}
    MQ = MHSGroup(LQ, wq, fq, negative_weights=MU.negative_weights, name="Q",
                  check=False)
    for M in (MU, MZ, MQ):
        line, ok = _filtration_verdict(M)
        if not ok:
            raise InvalidFiltrations(line)
    return MZ, MU, MQ, incl, proj


def build_action(df):
    """The group action of the [action] section; each malformed line is a
    ParseError at that line, a generator image that is not a
    homomorphism one at its generator line, and images that do not
    generate the group or define no action one at the carrier line."""
    G = df.group
    if G is None:
        raise ParseError(1, 1, "h1 needs finite_group and action sections")
    gens = df.action["generators"]
    if df.action["carrier"] is None:
        raise ParseError(gens[0][0], 1, "generator before a carrier line")
    carrier_line, kind, n = df.action["carrier"]
    if kind == "cyclic":
        carrier = cyclic_group(n)
    elif kind == "symmetric":
        carrier = symmetric_group(n)
    else:
        if df.L is None:
            raise ParseError(carrier_line, 1, "carrier lie_algebra needs the "
                                              "lie_algebra section")
        carrier = UnipotentCarrier(df.L)
    images = {}
    for lineno, toks in gens:
        if len(toks) < 2:
            raise ParseError(lineno, 1, "generator needs an index and an "
                                        "image")
        g = _parse_int(toks[0], lineno, "generator index")
        if not 0 <= g < G.size():
            raise ParseError(lineno, 1, "generator index %d out of range" % g)
        if toks[1] == "permutation" and kind != "lie_algebra":
            mapping = {u: _parse_int(t, lineno, "permutation image")
                       for u, t in enumerate(toks[2:])}
            if sorted(mapping.values()) != list(range(carrier.size())):
                raise ParseError(lineno, 1, "permutation must list the %d "
                                 "carrier elements" % carrier.size())
            h = FiniteHom(carrier, carrier, mapping, check=False)
            homomorphism = h.is_homomorphism()
        elif toks[1] == "matrix" and kind == "lie_algebra":
            d = df.L.dim
            entries = [_parse_frac(t, lineno) for t in toks[2:]]
            if len(entries) != d * d:
                raise ParseError(lineno, 1, "matrix needs %d entries" % (d * d))
            mat = [entries[r * d:(r + 1) * d] for r in range(d)]
            h = LinearHom(carrier, carrier, mat)
            homomorphism = LieMorphism(df.L, df.L, mat, check=False) \
                .bracket_defect() is None
        else:
            raise ParseError(lineno, 1, "generator image must be a "
                                        "permutation of a finite carrier "
                                        "or a matrix on a lie_algebra")
        if not homomorphism:
            raise ParseError(lineno, 1, "generator image is not a "
                                        "homomorphism of the carrier")
        if g == G.identity() and not hom_equal(h, identity_hom(carrier)):
            raise ParseError(lineno, 1, "the identity must act trivially")
        images[g] = h
    try:
        action = GroupAction.from_generator_images(G, carrier, images,
                                                   check=False)
    except ValueError:
        raise ParseError(carrier_line, 1, "generator images do not generate "
                                          "the group") from None
    bad = action.defect()
    if bad is not None:
        raise ParseError(carrier_line, 1, "generator images do not define "
                                          "an action: %s" % bad)
    return action


# ---------------------------------------------------------------------------
# verification suites

def _bch_pool():
    fil3 = NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                               name="fil3")
    fil4 = NilpotentLieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1},
                                   (0, 3): {4: 1}}, name="fil4")
    return [abelian_lie_algebra(1), abelian_lie_algebra(4),
            abelian_lie_algebra(6), heisenberg(),
            direct_sum(heisenberg(), abelian_lie_algebra(3)),
            fil3, direct_sum(fil3, abelian_lie_algebra(2)), fil4,
            direct_sum(fil4, abelian_lie_algebra(1))]


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
        direct = complex_cohomology_dims(dims, moore_differentials(X))
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
        report = eilenberg_zilber_oracle(A, jmax=2)
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
        Z1 = z1_elements(U)
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
    fil3 = NilpotentLieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                               name="fil3")
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
            L = fil3
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


def suite_hopf(rng, instances=10):
    """Symmetrization carries the weighted filtration onto the power
    filtration on the three reference algebras; graded trivialization
    independence, decided on a basis, over 10 trivialization changes per
    torsor."""
    failures = []
    env = TruncatedEnvelope(heisenberg(), order=3)
    examples = [TruncatedEnvelope(abelian_lie_algebra(3), order=2), env,
                TruncatedEnvelope(central_extension(
                    heisenberg(), 1, {(0, 2): [F(1)]}), order=4)]
    for example in examples:
        if not symmetrization_check(example)["ok"]:
            failures.append("symmetrization: %s" % example.L.name)
    for t in range(instances):
        for _ in range(10):
            q = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            if not graded_trivialization_check(env, q):
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
    Gam = build_coset_cosimplicial(df, N=2)
    if args.degree == 0:
        lines.append("pi0 size: %d" % len(pi0(Gam)))
    elif args.degree == 1:
        lines.append("pi1 classes: %d" % pi1_finite(Gam)["count"])
    else:
        raise ParseError(1, 1, "degree %d not supported for finite patterns"
                         % args.degree)
    return lines, 0


def cmd_h1(df, args):
    lines = _header("h1", df)
    if df.action is None or df.group is None:
        raise ParseError(1, 1, "h1 needs finite_group and action sections")
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


def cmd_phin_les(df, args):
    lines = _header("phin-les", df)
    if df.extension is None or df.phi is None:
        raise ParseError(1, 1, "phin-les needs phi and extension sections")
    XZ, XU, XQ, incl, proj = derive_phin_extension(df)
    res = quotient_les(XZ, XU, XQ, incl, proj)
    ok = res["report"]["ok"]
    lines.append("report: %s" % ("ok" if ok else "FAILED"))
    if not ok:
        for status, msg in res["report"]["clauses"]:
            if status == "FAIL":
                lines.append("  failed: %s" % msg)
        return lines, 3
    lines.append("middle map bijective: %s; H1_{g/e}(Z) dim %d"
                 % ("yes" if res["middle_bijective"] else "no",
                    res["h1_z_dim"]))
    return lines, 0 if res["middle_bijective"] else 1


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
        raise ParseError(1, 1, "--element needs %d coordinates" % M.L.dim)
    u = [_parse_gauss(t, 1) for t in toks]
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
    ok = res["report"]["ok"]
    lines.append("report: %s" % ("ok" if ok else "FAILED"))
    if not ok:
        for status, msg in res["report"]["clauses"]:
            if status == "FAIL":
                lines.append("  failed: %s" % msg)
        return lines, 3
    lines.append("h1 dimensions: Z %d, U %d, Q %d"
                 % (res["h1_z_dim"], h1_dimension(MU), res["h1_q_dim"]))
    lines.append("middle map bijective: %s; H1(Z) dim %d"
                 % ("yes" if res["middle_bijective"] else "no",
                    res["h1_z_dim"]))
    return lines, 0 if res["middle_bijective"] else 1


def cmd_verify(args):
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


def main(argv=None):
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
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            lines, code = cmd_verify(args)
        else:
            try:
                df = load_description(args.file)
            except OSError as e:
                print("error: %s" % e)
                return 2
            lines, code = COMMANDS[args.command](df, args)
    except ParseError as e:
        print("error: %s:%d:%d: %s"
              % (getattr(args, "file", "<input>"), e.line, e.col, e.message))
        return 2
    except (AssertionError, ValueError, RuntimeError) as e:
        # a guaranteed identity failed, or internal data was malformed
        print("error: internal verification failure: %s" % e)
        return 3

    if args.format == "json":
        print(json.dumps({"lines": lines, "exit": code}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
