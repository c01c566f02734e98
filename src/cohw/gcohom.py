"""Cohomology of finite groups acting on coefficient groups, realized
through cochain cosimplicial groups.

The cochain object has level n the group of all maps G^n -> U; its
cofaces act on arguments (with the G-action entering only through the
outer face) and its codegeneracies insert the identity.  Low-degree
cohomology is computed either through the cosimplicial machinery (small
instances) or by generator-propagation enumeration of cocycles; where
both run, ``h0_h1`` checks that they give the same fixed points and the
same partition of Z^1 into classes.  A 1-cocycle f is the tuple
(f(g) for g in G.elements()), the element of level 1 of the cochain
object, and H^1 is the record ``cosimpl.pi1_finite`` returns.  The
seven-term sequence of a central extension of G-groups is
``cosimpl.les_central_finite`` on the three cochain objects: group
cohomology is one more cosimplicial model, with no engine of its own.
"""

from itertools import product as iproduct

from . import exactla
from .cosimpl import (
    CosimplicialGroup, FiniteHom, StructuredHom, TableGroup,
    _product_defect, _product_object, hom_equal, inner_automorphism,
    les_central_finite, pi0, pi1_finite, pi1_unipotent_deciders, twist,
)


class GroupAction:
    """Left action of a finite group on a carrier group by automorphisms,
    stored as one explicit automorphism per group element."""

    def __init__(self, G, carrier, maps, check=True):
        self.G = G
        self.carrier = carrier
        self.maps = dict(maps)
        if set(self.maps) != set(G.elements()):
            raise ValueError("need a map per element")
        if check:
            bad = self.defect()
            if bad is not None:
                raise ValueError(bad)

    def defect(self):
        """Why the maps are not an action -- the identity acts
        nontrivially, or a(b(u)) != (ab)(u) for a first pair (a, b), b a
        generator (``_product_defect``) -- or None when they are one."""
        G, maps = self.G, self.maps
        if not hom_equal(maps[G.identity()], self.carrier.identity_hom):
            return "the identity acts nontrivially"
        bad = _product_defect(G, lambda a, s: hom_equal(
            maps[a].compose(maps[s]), maps[G.mul(a, s)]))
        if bad is not None:
            return "(ab).u != a.(b.u) at a = %r, b = %r" % bad
        return None

    @classmethod
    def from_generator_images(cls, G, carrier, gen_images, check=True):
        """Extend automorphisms given on a generating set to all of G by
        composing along the Cayley graph.  Raises ValueError when the
        given elements do not generate G."""
        maps = {G.identity(): carrier.identity_hom}
        frontier = [G.identity()]
        while frontier:
            nxt = []
            for g in frontier:
                for s, h in gen_images.items():
                    gs = G.mul(g, s)
                    if gs not in maps:
                        maps[gs] = maps[g].compose(h)
                        nxt.append(gs)
            frontier = nxt
        if len(maps) != G.size():
            raise ValueError("images do not generate")
        return cls(G, carrier, maps, check=check)

    def act(self, g, u):
        return self.maps[g].apply(u)

    def is_finite(self):
        return isinstance(self.carrier, TableGroup)


def trivial_action(G, carrier):
    ident = carrier.identity_hom
    return GroupAction(G, carrier, {g: ident for g in G.elements()},
                       check=False)


# ---------------------------------------------------------------------------
# the cochain cosimplicial group

def _tuples(G, n):
    return [tuple(t) for t in iproduct(G.elements(), repeat=n)]


def cochain_cosimplicial(action, N=2, check=True):
    """Cosimplicial group with level n the maps G^n -> U: a product of
    copies of U indexed by argument tuples (a direct sum of copies of the
    algebra for a unipotent U), with block structure maps.

    Cofaces: the outer face lets the first argument act, the middle faces
    merge adjacent arguments, the last face drops the last argument.
    Codegeneracies insert the identity argument.  The cosimplicial
    identities are checked unless ``check`` is False.
    """
    G, U = action.G, action.carrier
    tuples = {n: _tuples(G, n) for n in range(N + 1)}
    index = {n: {t: i for i, t in enumerate(tuples[n])} for n in tuples}
    objects = [_product_object([U] * len(tuples[n]))
               for n in range(N + 1)]
    uid = U.identity_hom

    def coface(n, i):
        parts = []
        for t in tuples[n]:
            if i == 0:
                src = t[1:]
                h = action.maps[t[0]]
            elif i == n:
                src = t[:-1]
                h = uid
            else:
                src = t[:i - 1] + (G.mul(t[i - 1], t[i]),) + t[i + 1:]
                h = uid
            parts.append((index[n - 1][src], h))
        return StructuredHom(objects[n - 1], objects[n], parts)

    def codegen(n, i):
        parts = []
        for t in tuples[n]:
            src = t[:i] + (G.identity(),) + t[i:]
            parts.append((index[n + 1][src], uid))
        return StructuredHom(objects[n + 1], objects[n], parts)

    cofaces = {n: [coface(n, i) for i in range(n + 1)]
               for n in range(1, N + 1)}
    codegens = {n: [codegen(n, i) for i in range(n + 1)] for n in range(N)}
    return CosimplicialGroup(objects, cofaces, codegens, check=check)


# ---------------------------------------------------------------------------
# direct (from-definition) cocycle computations

def h0_fixed_points(action):
    G, U = action.G, action.carrier
    if action.is_finite():
        return [u for u in U.elements()
                if all(action.act(g, u) == u for g in G.elements())]
    rows = []
    for g in G.elements():
        rows.extend(exactla.mat_sub(action.maps[g].matrix,
                                    exactla.identity_matrix(U.dim)))
    return exactla.kernel_basis(rows, U.dim)


def _is_cocycle_table(action, f):
    """Whether f(gh) = f(g) (g.f(h)) for all g, h, checked on generators
    h as ``_product_defect`` explains (the action is by automorphisms);
    f is a cocycle tuple, f[g] its value at g."""
    G, U = action.G, action.carrier
    return _product_defect(G, lambda g, s: f[G.mul(g, s)] == U.mul(
        f[g], action.act(g, f[s]))) is None


def _propagate(action, gens, values):
    """Extend a candidate cocycle from its values on generators along the
    Cayley graph by f(gs) = f(g) (g.f(s)); returns the table g -> f(g) on
    the subgroup the generators reach, or None on conflict."""
    G, U = action.G, action.carrier
    f = {G.identity(): U.identity()}
    frontier = [G.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for s, v in zip(gens, values):
                gs = G.mul(g, s)
                val = U.mul(f[g], action.act(g, v))
                if gs in f:
                    if f[gs] != val:
                        return None
                else:
                    f[gs] = val
                    nxt.append(gs)
        frontier = nxt
    return f


def z1_enumerate(action):
    """All 1-cocycles f: G -> U with f(gh) = f(g) (g.f(h)), as tuples
    (f(g) for g in G.elements()), enumerated by assigning values on a
    generating set and propagating."""
    G, U = action.G, action.carrier
    gens = G.generators
    # per-generator prefilter: consistency along the cyclic subgroup
    cand = [[v for v in U.elements()
             if _propagate(action, [s], [v]) is not None] for s in gens]
    out = []
    for values in iproduct(*cand):
        f = _propagate(action, gens, values)
        if f is not None and len(f) == G.size():
            f = tuple(f[g] for g in G.elements())
            if _is_cocycle_table(action, f):
                out.append(f)
    return out


def h1_classes(action):
    """H^1 as orbits of Z^1 under f ~ (g -> u^-1 f(g) (g.u)), a right
    action of the finite U, in the record of ``pi1_finite``: ``classes``
    (``rep``, ``orbit`` a set of cocycle tuples, ``distinguished``),
    ``count``, ``index`` (cocycle -> class) and ``z1``, the cocycles of
    ``z1_enumerate``.  Each orbit is closed under the generators of U
    alone, as the inverse of a generator is a positive power of it.
    Every cocycle reached, the starting one included, is checked to lie
    in Z^1."""
    G, U = action.G, action.carrier
    elements = G.elements()
    Z1 = z1_enumerate(action)
    # one (u^-1, [g.u for g in G]) per generator u
    moves = [(U.inv(u), [action.act(g, u) for g in elements])
             for u in U.generators]
    base = (U.identity(),) * len(elements)
    index, classes = {}, []
    for f in Z1:
        if f in index:
            continue
        orbit, queue = {f}, [f]
        while queue:
            h = queue.pop()
            if not _is_cocycle_table(action, h):
                raise RuntimeError("H^1 orbit left Z^1 (bug)")
            for ui, gu in moves:
                hu = tuple([U.mul(U.mul(ui, x), y) for x, y in zip(h, gu)])
                if hu not in orbit:
                    orbit.add(hu)
                    queue.append(hu)
        index.update(dict.fromkeys(orbit, len(classes)))
        classes.append({"rep": f, "orbit": orbit,
                        "distinguished": base in orbit})
    return {"classes": classes, "count": len(classes), "index": index,
            "z1": Z1}


def _orbits(h1):
    """The partition of Z^1 into classes of an H^1 record."""
    return {frozenset(c["orbit"]) for c in h1["classes"]}


def h0_h1(action):
    """H^0 and H^1, by direct fixed-point and cocycle enumeration, and
    through the cosimplicial machinery too when the cochain levels are
    enumerable: then fixed points or classes of Z^1 that differ from
    pi^0 and pi^1 raise RuntimeError.  The result's ``h1_classes`` is the
    record ``h1_classes`` returns.  Unipotent coefficients get deciders
    instead of a finite answer.  Both read the cochain object up to level
    2 only."""
    G, U = action.G, action.carrier
    if not action.is_finite():
        C = cochain_cosimplicial(action)
        return {"mode": "unipotent", "h0_basis": h0_fixed_points(action),
                "deciders": pi1_unipotent_deciders(C), "cochain": C}
    classes = h1_classes(action)
    res = {"mode": "enumeration", "h0": h0_fixed_points(action),
           "h1_classes": classes, "h1_count": classes["count"]}
    if U.size() ** G.size() <= 20000:
        # cross-check against the cosimplicial computation
        C = cochain_cosimplicial(action)
        if _orbits(classes) != _orbits(pi1_finite(C)):
            raise RuntimeError("cocycle enumeration disagrees with "
                               "cosimplicial computation")
        fixed = [t[0] for t in pi0(C)]
        if sorted(fixed) != sorted(res["h0"]):
            raise RuntimeError("fixed points disagree with pi^0")
        res.update(mode="cosimplicial", h0=fixed, cochain=C)
    return res


# ---------------------------------------------------------------------------
# twisting

def serre_twist(action, alpha):
    """Twist of the action by a 1-cocycle alpha, a tuple (alpha(g) for g
    in G.elements()): the new action is u -> alpha(g) (g.u) alpha(g)^{-1},
    conjugation by alpha(g) (``inner_automorphism``) after g."""
    if not _is_cocycle_table(action, alpha):
        raise ValueError("twisting datum must be a cocycle")
    G, U = action.G, action.carrier
    return GroupAction(G, U, {
        g: inner_automorphism(U, alpha[g]).compose(action.maps[g])
        for g in G.elements()}, check=True)


def serre_twist_matches_cosimplicial(action, alpha):
    """The cochain object of the twisted action coincides, up to level
    2, with the cosimplicial twist of the cochain object by the cocycle
    tuple alpha (an element of level 1), and right multiplication by
    alpha gives a bijection on H^1 classes."""
    twisted = serre_twist(action, alpha)
    Ct = twist(cochain_cosimplicial(action, N=2), alpha)
    Cs = cochain_cosimplicial(twisted, N=2)
    if not all(hom_equal(Ct.d(n, i), Cs.d(n, i))
               for n in range(1, 3) for i in range(n + 1)):
        return False
    # H^1 bijection by right multiplication
    U = action.carrier
    tw, orig = h1_classes(twisted), h1_classes(action)
    images = set()
    for c in tw["classes"]:
        k = orig["index"].get(tuple(map(U.mul, c["rep"], alpha)))
        if k is None:
            raise RuntimeError("twisted cocycle times alpha has no H^1 "
                               "class (bug)")
        images.add(k)
    return len(images) == tw["count"] == orig["count"]


# ---------------------------------------------------------------------------
# inflation-restriction

def _quotient_group(G, normal):
    cosets = {}
    for g in G.elements():
        key = frozenset(G.mul(g, n) for n in normal)
        cosets.setdefault(key, len(cosets))
    keys = sorted(cosets, key=lambda s: min(s))
    idx = {k: i for i, k in enumerate(keys)}

    def coset_of(g):
        return idx[frozenset(G.mul(g, n) for n in normal)]

    table = [[None] * len(keys) for _ in keys]
    for a in G.elements():
        for b in G.elements():
            table[coset_of(a)][coset_of(b)] = coset_of(G.mul(a, b))
    return TableGroup(table, check=False), coset_of


def inflation_restriction(action, normal):
    """Exactness of 1 -> H^1(G/I, U^I) -> H^1(G, U) -> H^1(I, U) for any
    normal subgroup I of G, with G/I acting on U^I, the fixed points of
    I.  Returns a report with the verified clauses."""
    from .cosimpl import subgroup_table
    G, U = action.G, action.carrier
    members = set(normal)
    if any(G.mul(G.mul(g, n), G.inv(g)) not in members
           for n in normal for g in G.elements()):
        raise ValueError("subgroup is not normal")
    I, incl = subgroup_table(G, normal)
    act_I = GroupAction(I, U, {i: action.maps[incl[i]] for i in I.elements()},
                        check=False)
    fixed = sorted(u for u in U.elements()
                   if all(action.act(incl[i], u) == u for i in I.elements()))
    UI, uincl = subgroup_table(U, fixed)
    uidx = {uincl[i]: i for i in UI.elements()}
    Qg, coset_of = _quotient_group(G, normal)
    # G/I acts on U^I: well-definedness is re-verified by the constructor
    rep = {}
    for g in G.elements():
        rep.setdefault(coset_of(g), g)
    qmaps = {}
    for q, g in rep.items():
        qmaps[q] = FiniteHom(UI, UI, {
            i: uidx[action.act(g, uincl[i])] for i in UI.elements()},
            check=False)
    act_Q = GroupAction(Qg, UI, qmaps, check=True)

    hq, hg, hi = h1_classes(act_Q), h1_classes(action), h1_classes(act_I)

    # inflation: pull back along G -> G/I, include U^I -> U; each class
    # index holds only cocycles checked in Z^1
    inf_images = []
    for c in hq["classes"]:
        k = hg["index"].get(tuple(uincl[c["rep"][coset_of(g)]]
                                  for g in G.elements()))
        if k is None:
            raise RuntimeError("inflated class is no cocycle (bug)")
        inf_images.append(k)
    injective = len(set(inf_images)) == hq["count"]

    # restriction
    res_images = []
    for c in hg["classes"]:
        k = hi["index"].get(tuple(c["rep"][incl[i]] for i in I.elements()))
        if k is None:
            raise RuntimeError("restricted class is no cocycle (bug)")
        res_images.append(k)
    base_i = hi["index"][(U.identity(),) * I.size()]
    kernel = {i for i, img in enumerate(res_images) if img == base_i}
    exact = kernel == set(inf_images)
    return {"injective": injective, "exact_middle": exact,
            "h1_quotient": hq["count"], "h1_total": hg["count"],
            "h1_sub": hi["count"]}


# ---------------------------------------------------------------------------
# the long exact sequence for a central extension of G-groups

def les_group_cohomology(actZ, actU, actQ, incl, proj):
    """Seven-term sequence H^0(Z) -> H^0(U) -> H^0(Q) -> H^1(Z) -> H^1(U)
    -> H^1(Q) -> H^2(Z) for a central extension 1 -> Z -> U -> Q -> 1 of
    groups with compatible G-action: ``les_central_finite`` on the three
    cochain objects, with the carrier maps incl and proj (dicts) on
    every block of every level, and its certificate returned."""
    if not actZ.G.size() == actU.G.size() == actQ.G.size():
        raise ValueError("the three actions need one group")
    acts = (actZ, actU, actQ)
    C = [cochain_cosimplicial(a, N=2, check=False) for a in acts]
    level_maps = []
    for k, table in enumerate((incl, proj)):
        h = FiniteHom(acts[k].carrier, acts[k + 1].carrier, table)
        level_maps.append([
            StructuredHom(X, Y, [(t, h) for t in range(len(X.factors))])
            for X, Y in zip(C[k].objects, C[k + 1].objects)])
    return les_central_finite(*C, *level_maps)
