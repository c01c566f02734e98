import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from cohw import cli, exactla
from cohw.cosimpl import (
    BiSemiCosimplicial, CosimplicialGroup, FiniteHom, LinearHom, ProductGroup,
    SemiCosimplicialGroup, StructuredHom, TableGroup, UnipotentCarrier,
    _chains, _cocycle_walk, _compose, _gamma_epis, _is_identity,
    _product_object,
    check_cosimplicial_map, cocycle_condition,
    cogenerate, cogenerate_morphism, complex_cohomology_dims,
    compose_monotone, cyclic_group, delta_map,
    diagonal_cogenerate, eilenberg_zilber_oracle, epi_mono_factor, epis,
    hom_equal, inner_automorphism, les_central_finite,
    les_central_unipotent, moore_differentials, pi0, pi1_finite,
    pi1_unipotent_deciders, pi_abelian_all, random_bisemicosimplicial,
    random_linear_semicosimplicial, sigma_map, subgroup_table,
    symmetric_group, twist, trivial_twist_isomorphism, twisted_conj,
    z1_elements,
)
from cohw.cli import _random_double_coset, run_verify
from cohw.gcohom import GroupAction, cochain_cosimplicial
from cohw.nilpotent import LieMorphism, abelian_lie_algebra, heisenberg

F = Fraction


def _typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# combinatorics

def test_epis_counts():
    # order-preserving surjections [n] ->> [k] number C(n, k)
    assert len(epis(2, 1)) == 2
    assert len(epis(3, 1)) == 3
    assert len(epis(4, 2)) == 6
    assert epis(2, 2) == [(0, 1, 2)]


def test_epi_mono_factor():
    epi, image = epi_mono_factor((0, 2, 2), 3)
    assert epi == (0, 1, 1)
    assert image == [0, 2]


# ---------------------------------------------------------------------------
# double cosets

def _double_coset_object(G, left, right):
    """1-truncated semi-cosimplicial group (H' x H'' => G) whose
    cohomotopy computes the intersection and the double cosets."""
    Hl, incl_l = subgroup_table(G, left)
    Hr, incl_r = subgroup_table(G, right)
    X0 = ProductGroup([Hl, Hr])
    d0 = FiniteHom(X0, G, {x: incl_l[x[0]] for x in X0.elements()},
                   check=True)
    d1 = FiniteHom(X0, G, {x: incl_r[x[1]] for x in X0.elements()},
                   check=True)
    return SemiCosimplicialGroup([X0, G], {1: [d0, d1]}, check=True)


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


def test_s3_double_cosets():
    S3 = symmetric_group(3)
    # <(12)> and <(13)> as permutation subgroups
    swap01 = S3.perms.index((1, 0, 2))
    swap02 = S3.perms.index((2, 1, 0))
    left = [0, swap01]
    right = [0, swap02]
    X = _double_coset_object(S3, left, right)
    G = cogenerate(X, N=2)
    # pi0 is the intersection of the two subgroups (trivial here)
    assert len(pi0(G)) == 1
    p1 = pi1_finite(G)
    assert p1["count"] == 2
    assert p1["count"] == _brute_double_cosets(S3, left, right)


def test_full_subgroups_single_coset():
    S3 = symmetric_group(3)
    allg = S3.elements()
    X = _double_coset_object(S3, allg, allg)
    G = cogenerate(X, N=2)
    assert len(pi0(G)) == 6
    assert pi1_finite(G)["count"] == 1


def test_random_double_cosets():
    rng = random.Random(11)
    for _ in range(5):
        n = rng.choice([4, 6, 8])
        G = cyclic_group(n) if rng.random() < 0.5 else symmetric_group(3)
        elems = G.elements()

        def random_subgroup():
            g = rng.choice(elems)
            sub = {G.identity()}
            cur = g
            while cur not in sub:
                sub.add(cur)
                cur = G.mul(cur, g)
            return sorted(sub)

        left, right = random_subgroup(), random_subgroup()
        X = _double_coset_object(G, left, right)
        GX = cogenerate(X, N=2)
        inter = set(left) & set(right)
        assert len(pi0(GX)) == len(inter)
        assert pi1_finite(GX)["count"] == _brute_double_cosets(G, left, right)


# ---------------------------------------------------------------------------
# constant objects

def constant_cosimplicial(G, N):
    """G at every level, with identity structure maps (unchecked)."""
    ident = G.identity_hom
    return CosimplicialGroup([G] * (N + 1),
                             {n: [ident] * (n + 1) for n in range(1, N + 1)},
                             {n: [ident] * (n + 1) for n in range(N)},
                             check=False)


def test_constant_cosimplicial_pi():
    G = constant_cosimplicial(cyclic_group(4), 3)
    assert len(pi0(G)) == 4
    # the only cocycle is the identity: u = u * u forces u = 1
    assert pi1_finite(G)["count"] == 1


# ---------------------------------------------------------------------------
# abelian Dold-Kan

def test_dold_kan_on_complex_embedding():
    from cohw.cosimpl import complex_embedding
    # complex 0 -> Q -id-> Q -0-> Q with H = (0, 0, 1)
    dims = [1, 1, 1]
    diffs = [[[F(1)]], [[F(0)]]]
    X = complex_embedding(dims, diffs)
    G = cogenerate(X, N=3)
    hs = pi_abelian_all(G)
    assert hs[:3] == [0, 0, 1]


def test_dold_kan_random_semicosimplicial():
    rng = random.Random(3)
    for _ in range(8):
        dims = [rng.randint(1, 3) for _ in range(4)]
        X = random_linear_semicosimplicial(rng, dims)
        moore = moore_differentials(X)
        direct = complex_cohomology_dims(dims, moore)
        G = cogenerate(X, N=4)
        via_gamma = pi_abelian_all(G)
        assert via_gamma[:4] == direct[:4], (dims, via_gamma, direct)


def test_eilenberg_zilber_random():
    rng = random.Random(5)
    for _ in range(4):
        hdims = [rng.randint(1, 2) for _ in range(3)]
        vdims = [rng.randint(1, 2) for _ in range(3)]
        A = random_bisemicosimplicial(rng, hdims, vdims)
        report = eilenberg_zilber_oracle(A)
        assert report["match"]


def test_a_repeated_linear_job_builds_no_algebra(monkeypatch):
    # vector carriers share the abelian algebra of each dimension, and a
    # direct sum of them is that of the total dimension: a linear job run
    # a second time finds every algebra of every level already built
    from cohw.nilpotent import NilpotentLieAlgebra
    built, init = [], NilpotentLieAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)
    monkeypatch.setattr(NilpotentLieAlgebra, "__init__", counting_init)
    for suite in (cli.suite_dold_kan, cli.suite_eilenberg_zilber):
        for _ in range(2):
            del built[:]
            assert suite(random.Random(7), 2)["failures"] == []
        assert built == [], suite.__name__


def test_a_repeated_job_reuses_the_wiring(monkeypatch):
    # the epi-mono wiring depends on the shape alone and is kept per
    # process: a job run a second time factors no monotone map
    from cohw import cosimpl
    calls, factor = [], cosimpl.epi_mono_factor

    def counting_factor(h, k):
        calls.append(h)
        return factor(h, k)
    monkeypatch.setattr(cosimpl, "epi_mono_factor", counting_factor)
    for suite in (cli.suite_dold_kan, cli.suite_eilenberg_zilber,
                  cli.suite_double_coset):
        for _ in range(2):
            del calls[:]
            assert suite(random.Random(7), 2)["failures"] == []
        assert calls == [], suite.__name__


def _uncached_wiring(f, src_epis, tgt_epis):
    # the wiring as each cogeneration computed it before it was kept
    src_idx = {e: i for i, e in enumerate(src_epis)}
    out = []
    for (k, g) in tgt_epis:
        epi, image = epi_mono_factor(compose_monotone(g, f), k)
        out.append((src_idx[(len(image) - 1, epi)], tuple(image), k))
    return out


def test_the_kept_wiring_is_that_of_each_structure_map():
    # every coface and codegeneracy up to level 4, truncations up to 3:
    # the kept wiring and factors are tuples equal to the uncached ones
    from cohw.cosimpl import _wiring
    factors = {(n, j): [(k, e) for k in range(min(n, j) + 1)
                        for e in epis(n, k)]
               for n in range(5) for j in range(4)}
    for (n, j), level in factors.items():
        assert type(_gamma_epis(n, j)) is tuple
        assert list(_gamma_epis(n, j)) == level
    maps = [(delta_map(n, i), n - 1, n) for n in range(1, 5)
            for i in range(n + 1)]
    maps += [(sigma_map(n, i), n + 1, n) for n in range(4)
             for i in range(n + 1)]
    for j in range(4):
        for f, np, n in maps:
            kept = _wiring(f, n, j)
            assert type(kept) is tuple
            assert list(kept) == _uncached_wiring(f, factors[np, j],
                                                  factors[n, j])


def test_diagonal_cogenerate_identities():
    rng = random.Random(8)
    for _ in range(4):
        hdims = [rng.randint(1, 2) for _ in range(3)]
        vdims = [rng.randint(1, 2) for _ in range(3)]
        A = random_bisemicosimplicial(rng, hdims, vdims)
        D = diagonal_cogenerate(A, 3)
        assert sorted(D.codegens) == [0, 1, 2]
        D.check_identities()
    # a horizontal coface that breaks the bi-semi-cosimplicial identities
    # breaks those of the diagonal
    dh = [[[A.h(p, q, i) for i in range(p + 1)] if p else None
           for q in range(A.Q + 1)] for p in range(A.P + 1)]
    dv = [[[A.v(p, q, i) for i in range(q + 1)] if q else None
           for q in range(A.Q + 1)] for p in range(A.P + 1)]
    M = [list(row) for row in dh[1][0][0].matrix]
    M[0][0] += 1
    dh[1][0][0] = LinearHom(A.objects[0][0], A.objects[1][0], M)
    broken = BiSemiCosimplicial(A.objects, dh, dv)
    with pytest.raises(RuntimeError,
                       match="coface identity fails at n=2 i=0 j=1"):
        diagonal_cogenerate(broken, 3).check_identities()


def test_diagonal_cogenerate_builds_each_bi_coface_once(monkeypatch):
    # A builds the LinearHom of each bi-coface once; the diagonals and the
    # Eilenberg-Zilber oracle read those homs and build no map between two
    # objects of A again
    objects, built = set(), []
    init = LinearHom.__init__

    def counting(h, source, target, matrix):
        if source is not target and {id(source), id(target)} <= objects:
            built.append((source, target))
        init(h, source, target, matrix)
    monkeypatch.setattr(LinearHom, "__init__", counting)
    rng = random.Random(8)
    for _ in range(3):
        A = random_bisemicosimplicial(rng, [2, 2, 1], [2, 1, 2])
        assert A.h(2, 1, 0) is A.h(2, 1, 0) and A.v(1, 2, 1) is A.v(1, 2, 1)
        objects = {id(G) for row in A.objects for G in row}
        diagonal_cogenerate(A, 3).check_identities()
        diagonal_cogenerate(A, 3)
        eilenberg_zilber_oracle(A)
        assert built == []


# ---------------------------------------------------------------------------
# twisting

def test_twist_bijection_s3():
    S3 = symmetric_group(3)
    swap01 = S3.perms.index((1, 0, 2))
    swap02 = S3.perms.index((2, 1, 0))
    X = _double_coset_object(S3, [0, swap01], [0, swap02])
    U = cogenerate(X, N=3)
    p1 = pi1_finite(U)
    G1 = U.objects[1]
    for beta in z1_elements(U):
        Ub = twist(U, beta)  # construction re-checks the identities
        p1b = pi1_finite(Ub)
        # right multiplication by beta carries twisted classes to classes
        images = set()
        for c in p1b["classes"]:
            img_elems = {G1.mul(v, beta) for v in c["orbit"]}
            matches = [frozenset(d["orbit"]) for d in p1["classes"]
                       if img_elems & d["orbit"]]
            assert len(matches) == 1 and img_elems <= matches[0]
            images.add(matches[0])
        assert len(images) == p1b["count"] == p1["count"]


def test_trivial_twist_isomorphism():
    S3 = symmetric_group(3)
    swap01 = S3.perms.index((1, 0, 2))
    swap02 = S3.perms.index((2, 1, 0))
    X = _double_coset_object(S3, [0, swap01], [0, swap02])
    U = cogenerate(X, N=3)
    beta = z1_elements(U)[1]
    u0 = U.objects[0].elements()[3]
    Ubp, Ub, maps, ok = trivial_twist_isomorphism(U, beta, u0)
    assert ok


# ---------------------------------------------------------------------------
# Z^1 block by block, product checks on generators

def _z1_by_filter(U):
    return [u for u in U.objects[1].elements() if cocycle_condition(U, u)]


def test_z1_blockwise_matches_elementwise_filter():
    # same cocycles in the same order, on random double-coset objects and
    # on their twists by a random cocycle
    rng = random.Random(2026)
    for _ in range(200):
        G, left, right = _random_double_coset(rng, 20000, 2)
        U = cogenerate(_double_coset_object(G, left, right), N=2)
        Z1 = z1_elements(U)
        assert Z1 == _z1_by_filter(U), (G.size(), left, right)
        Ub = twist(U, rng.choice(Z1))
        assert z1_elements(Ub) == _z1_by_filter(Ub), (G.size(), left, right)


def _cyclic_hom(rng, S, T):
    """A random homomorphism x -> k x of cyclic groups."""
    m, n = S.size(), T.size()
    k = rng.choice([k for k in range(n) if k * m % n == 0])
    return FiniteHom(S, T, {x: k * x % n for x in S.elements()})


def test_cocycle_walk_matches_filter_on_random_block_data():
    # random block cofaces U^1 -> U^2 and random targets t: the walk finds
    # the u with d^1(u) = d^2(u) t d^0(u) that the filter finds, in its
    # order, whether a block is solved through an injective d^1 part,
    # passed over for a non-injective one, or enumerated
    rng = random.Random(31)
    cyclic = [cyclic_group(n) for n in (1, 2, 3, 4, 6)]
    solved = set()
    for _ in range(300):
        G1 = ProductGroup([rng.choice(cyclic)
                           for _ in range(rng.randint(1, 3))])
        rows, parts = [], [[], [], []]
        for _ in range(rng.randint(1, 4)):
            blocks = [rng.randrange(len(G1.factors)) for _ in range(3)]
            T = G1.factors[blocks[1]] if rng.random() < 0.7 \
                else rng.choice(cyclic)
            rows.append(T)
            for i, j in enumerate(blocks):
                parts[i].append((j, _cyclic_hom(rng, G1.factors[j], T)))
            h1 = parts[1][-1][1]
            if blocks[1] > max(blocks[0], blocks[2]):
                solved.add(len(set(h1.mapping.values())) == h1.source.size())
        G2 = ProductGroup(rows)
        ds = [StructuredHom(G1, G2, p) for p in parts]
        U = SemiCosimplicialGroup([cyclic[0], G1, G2], {2: ds}, check=False)
        t = rng.choice(G2.elements()) if rng.random() < 0.5 else None
        rhs = [G2.mul(G2.mul(ds[2].apply(u), t or G2.identity()),
                      ds[0].apply(u)) for u in G1.elements()]
        expected = [u for u, r in zip(G1.elements(), rhs)
                    if ds[1].apply(u) == r]
        assert _cocycle_walk(U, t) == expected
        assert _cocycle_walk(U, t, first=True) == \
            (expected[0] if expected else None)
    assert solved == {True, False}


def _flattened(U):
    """Levels 0..2 of U as TableGroups with FiniteHom cofaces: the same
    group without blocks, elements numbered in the order of elements()."""
    levels = []
    for G in U.objects[:3]:
        elems = G.elements()
        index = {x: i for i, x in enumerate(elems)}
        table = [[index[G.mul(a, b)] for b in elems] for a in elems]
        levels.append((TableGroup(table, check=False), elems, index))
    cofaces = {n: [FiniteHom(levels[n - 1][0], levels[n][0],
                             {i: levels[n][2][h.apply(x)]
                              for i, x in enumerate(levels[n - 1][1])})
                   for h in U.cofaces[n]]
               for n in (1, 2)}
    return SemiCosimplicialGroup([T for T, _, _ in levels], cofaces,
                                 check=True), levels[1][2]


def test_z1_of_an_object_without_blocks():
    S3 = symmetric_group(3)
    swap01 = S3.perms.index((1, 0, 2))
    swap02 = S3.perms.index((2, 1, 0))
    for G, left, right in [(S3, [0, swap01], [0, swap02]),
                           (cyclic_group(4), [0, 2], [0, 2]),
                           (cyclic_group(6), [0, 3], [0, 2, 4])]:
        U = cogenerate(_double_coset_object(G, left, right), N=2)
        for V in (U, twist(U, z1_elements(U)[-1])):
            T, index = _flattened(V)
            Z1 = z1_elements(T)
            assert Z1 == _z1_by_filter(T)
            assert Z1 == [index[u] for u in z1_elements(V)]
            assert pi1_finite(T)["count"] == pi1_finite(V)["count"]


def _pi1_by_orbits_under_all_of_u0(U):
    """pi^1 of a finite U as pi1_finite returns it, each orbit taken as
    the image of its first cocycle under every element of U^0."""
    Z1 = z1_elements(U)
    index, classes = {}, []
    for u in Z1:
        if u in index:
            continue
        orbit = {twisted_conj(U, g, u) for g in U.objects[0].elements()}
        index.update(dict.fromkeys(orbit, len(classes)))
        classes.append({"rep": u, "orbit": orbit, "distinguished":
                        U.objects[1].identity() in orbit})
    return {"classes": classes, "count": len(classes), "index": index,
            "z1": Z1}


def test_pi1_orbits_under_generators_are_the_orbits_under_u0():
    # classes, index, distinguished class and count, on random
    # double-coset objects (cyclic groups up to C48, S3 and S4) and on
    # their twists by up to three cocycles
    rng = random.Random(2028)
    orders = set()
    for _ in range(40):
        G, left, right = _random_double_coset(rng, 20000, 2)
        orders.add(G.size())
        U = cogenerate(_double_coset_object(G, left, right), N=2)
        Z1 = z1_elements(U)
        for V in [U] + [twist(U, beta)
                        for beta in rng.sample(Z1, min(3, len(Z1)))]:
            assert pi1_finite(V) == _pi1_by_orbits_under_all_of_u0(V), \
                (G.size(), left, right)
    assert {48, 24, 6} <= orders and orders & set(range(2, 11))


def _les_cochain_objects():
    """The cochain objects of Z, U and Q for a few small central
    extensions Z -> C_n -> Q with C_m acting by multiplication by a."""
    out = []
    for n, d, a in [(8, 2, 3), (8, 4, 5), (9, 3, 4), (6, 2, 5), (16, 4, 3)]:
        m = next(k for k in range(1, n) if pow(a, k, n) == 1)
        for order in (d, n, n // d):
            C = cyclic_group(order)
            h = FiniteHom(C, C, {u: u * a % order for u in C.elements()})
            out.append(cochain_cosimplicial(
                GroupAction.from_generator_images(cyclic_group(m), C,
                                                  {1: h}), N=2))
    return out


def test_pi1_per_leaf_tables_match_orbits_under_all_of_u0():
    # seeded S3, S4 and cyclic double-coset objects, their twists by every
    # cocycle, and the cochain objects of les instances: the stepped
    # orbits are the orbits under every element of U^0, by G1.mul
    rng = random.Random(2035)
    objects, families = _les_cochain_objects(), set()
    while len(families) < 3:
        G, left, right = _random_double_coset(rng, 3000, 2)
        family = G.size() if not G.is_abelian() else "cyclic"
        if family in families:
            continue
        families.add(family)
        U = cogenerate(_double_coset_object(G, left, right), N=2)
        objects += [U] + [twist(U, beta) for beta in z1_elements(U)]
    for U in objects:
        assert pi1_finite(U) == _pi1_by_orbits_under_all_of_u0(U)


def test_a_level_one_twist_keeps_the_pi1_count():
    # without a level 2 every element of U^1 is a cocycle, so every
    # element twists, and the twist has as many classes as U
    S3 = symmetric_group(3)
    swap01 = S3.perms.index((1, 0, 2))
    for G, left, right in [(S3, [0, swap01], [0, swap01]),
                           (cyclic_group(6), [0, 3], [0, 2, 4])]:
        U = cogenerate(_double_coset_object(G, left, right), N=1)
        count = pi1_finite(U)["count"]
        for beta in U.objects[1].elements():
            assert cocycle_condition(U, beta)
            assert pi1_finite(twist(U, beta))["count"] == count


def _nested(factors, x):
    """The flat element x of ProductGroup(factors) as a tuple with one
    entry per factor: a product factor's entry is its own flat tuple."""
    out, k = [], 0
    for f in factors:
        n = len(f.leaves) if isinstance(f, ProductGroup) else 1
        out.append(x[k:k + n] if isinstance(f, ProductGroup) else x[k])
        k += n
    return tuple(out)


def test_flat_products_list_the_nested_elements_and_generators():
    # elements, generators and the identity of a flat product are those
    # of the nested product, in the same order; the kept generators are
    # each factor's generators in its slot, factor by factor, and mul and
    # inv act factor by factor
    rng = random.Random(6)
    pool = [cyclic_group(1), cyclic_group(4), symmetric_group(3),
            ProductGroup([cyclic_group(2), cyclic_group(3)]),
            ProductGroup([ProductGroup([cyclic_group(2)]), cyclic_group(3)])]
    nested_seen = False
    for _ in range(40):
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        G = ProductGroup(factors)
        nested_seen |= len(G.leaves) > len(factors)
        assert all(isinstance(f, TableGroup) for f in G.leaves)
        e = tuple(f.identity() for f in factors)
        expected = []
        for i, f in enumerate(factors):
            for g in f.generators:
                x = list(e)
                x[i] = g
                expected.append(tuple(x))
        assert _nested(factors, G.identity()) == e
        assert [_nested(factors, g) for g in G.generators] == expected
        assert G.generators is G.generators
        elements = G.elements()
        assert [_nested(factors, x) for x in elements] == \
            list(iproduct(*[f.elements() for f in factors]))
        for _ in range(5):
            a, b = rng.choice(elements), rng.choice(elements)
            assert _nested(factors, G.mul(a, b)) == tuple(
                f.mul(x, y) for f, x, y in
                zip(factors, _nested(factors, a), _nested(factors, b)))
            assert _nested(factors, G.inv(a)) == tuple(
                f.inv(x) for f, x in zip(factors, _nested(factors, a)))
    assert nested_seen


def test_preimage_tables_take_the_first_preimage_and_are_kept():
    C4 = cyclic_group(4)
    double = FiniteHom(C4, C4, {x: 2 * x % 4 for x in C4.elements()})
    triple = FiniteHom(C4, C4, {x: 3 * x % 4 for x in C4.elements()})
    assert double.preimage == {0: 0, 2: 1}
    table = triple.preimage
    assert [table[triple.apply(x)] for x in C4.elements()] == C4.elements()
    assert triple.preimage is table
    # a walk on a twist reads the tables kept on U's d^1 parts
    S3 = symmetric_group(3)
    X = _double_coset_object(S3, [0, S3.perms.index((1, 0, 2))],
                             [0, S3.perms.index((2, 1, 0))])
    U = cogenerate(X, N=2)
    Z1 = z1_elements(U)
    tables = [h.preimage for _, h in U.d(2, 1).parts]
    assert any(len(t) == h.source.size()
               for (_, h), t in zip(U.d(2, 1).parts, tables))
    Ub = twist(U, Z1[-1])
    assert z1_elements(Ub) == _z1_by_filter(Ub)
    assert all(h.preimage is t
               for (_, h), t in zip(Ub.d(2, 1).parts, tables))


def test_symmetric_groups_are_built_once_and_never_changed(monkeypatch):
    S3 = symmetric_group(3)
    table, perms = [list(row) for row in S3.table], list(S3.perms)
    gens = list(S3.generators)
    for suite in ("double-coset", "twist"):
        drawn = []

        def record(n):
            drawn.append(n)
            return symmetric_group(n)
        monkeypatch.setattr(cli, "symmetric_group", record)
        assert not run_verify(suite, 4, 6)[0][1]["failures"]
        assert 3 in drawn, suite
    assert symmetric_group(3) is S3
    assert (S3.table, S3.perms, list(S3.generators)) == (table, perms, gens)


def _is_hom_all_pairs(h):
    S, T = h.source, h.target
    return all(h.apply(S.mul(a, b)) == T.mul(h.apply(a), h.apply(b))
               for a in S.elements() for b in S.elements())


def test_homomorphism_check_on_generators_matches_all_pairs():
    rng = random.Random(11)
    S3, C2 = symmetric_group(3), cyclic_group(2)
    sign = {i: int(sum(p[a] > p[b] for a in range(3)
                       for b in range(a + 1, 3)) % 2)
            for i, p in enumerate(S3.perms)}
    homs = [FiniteHom(S3, C2, sign), FiniteHom(S3, C2, {x: 0 for x in
                                                       S3.elements()})]
    homs += [inner_automorphism(S3, c) for c in S3.elements()]
    for n, m in [(4, 8), (6, 3), (12, 4), (9, 3)]:
        Cn, Cm = cyclic_group(n), cyclic_group(m)
        homs += [FiniteHom(Cn, Cm, {x: k * x % m for x in Cn.elements()})
                 for k in range(m) if k * n % m == 0]
    P = ProductGroup([cyclic_group(2), cyclic_group(3)])
    homs.append(FiniteHom(P, cyclic_group(6),
                          {x: (3 * x[0] + 2 * x[1]) % 6
                           for x in P.elements()}))
    seen = {True: 0, False: 0}
    for h in homs:
        assert h.is_homomorphism() and _is_hom_all_pairs(h)
        seen[True] += 1
        for _ in range(6):
            # one changed value, or a random map
            mapping = dict(h.mapping)
            if rng.random() < 0.5:
                mapping[rng.choice(h.source.elements())] = \
                    rng.choice(h.target.elements())
            else:
                mapping = {x: rng.choice(h.target.elements())
                           for x in h.source.elements()}
            g = FiniteHom(h.source, h.target, mapping, check=False)
            expected = _is_hom_all_pairs(g)
            assert g.is_homomorphism() == expected, mapping
            seen[expected] += 1
            if not expected:
                with pytest.raises(ValueError, match="not a homomorphism"):
                    FiniteHom(h.source, h.target, mapping)
    assert seen[False] > 50
    # the trivial group has no generators: only m(e) = e is left to check
    C1 = cyclic_group(1)
    assert C1.generators == ()
    assert FiniteHom(C1, S3, {0: 0}).is_homomorphism()
    bad = FiniteHom(C1, S3, {0: 1}, check=False)
    assert not bad.is_homomorphism() and not _is_hom_all_pairs(bad)


def _random_loop(rng, n):
    """A random Latin square on 0..n-1 with identity 0: the cells off the
    first row and column filled by backtracking in random value order."""
    t = [[b if a == 0 else a if b == 0 else None for b in range(n)]
         for a in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        a, b = cells[k]
        values = [v for v in range(n)
                  if v not in t[a] and all(row[b] != v for row in t)]
        rng.shuffle(values)
        for v in values:
            t[a][b] = v
            if fill(k + 1):
                return True
        t[a][b] = None
        return False
    assert fill(0)
    return t


def test_associativity_check_on_generators_matches_all_triples():
    # random Latin squares with an identity (loops), associative or not,
    # with their elements relabelled so the identity is anywhere; in a
    # product of a group and a loop some generators associate and others
    # may not
    rng = random.Random(12)
    tables = [_random_loop(rng, rng.randint(1, 7)) for _ in range(150)]
    tables += [G.table for G in (cyclic_group(6), symmetric_group(3),
                                 _quaternion_group())]
    for _ in range(40):
        A = cyclic_group(rng.randint(2, 3)).table
        B = _random_loop(rng, rng.randint(4, 6))
        m = len(B)
        tables.append([[A[x // m][y // m] * m + B[x % m][y % m]
                        for y in range(len(A) * m)]
                       for x in range(len(A) * m)])
    seen = {True: 0, False: 0}
    for t in tables:
        n = len(t)
        p = list(range(n))
        rng.shuffle(p)
        table = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[p[a]][p[b]] = p[t[a][b]]
        expected = all(table[table[a][b]][c] == table[a][table[b][c]]
                       for a in range(n) for b in range(n)
                       for c in range(n))
        seen[expected] += 1
        if expected:
            assert TableGroup(table).size() == n
        else:
            with pytest.raises(ValueError, match="not associative"):
                TableGroup(table)
    assert seen[True] > 20 and seen[False] > 20, seen


# ---------------------------------------------------------------------------
# unipotent pi1 deciders

def _phi_object(L, phi_matrix):
    D = UnipotentCarrier(L)
    d0 = LinearHom(D, D, phi_matrix)
    d1 = LinearHom(D, D, exactla.identity_matrix(L.dim))
    # require phi to be a Lie automorphism
    LieMorphism(L, L, phi_matrix)
    return SemiCosimplicialGroup([D, D], {1: [d0, d1]}, check=True)


def test_pi1_unipotent_trivial_for_generic_phi():
    H = heisenberg()
    phi = [[F(2), F(0), F(0)], [F(0), F(3), F(0)], [F(0), F(0), F(6)]]
    U = cogenerate(_phi_object(H, phi), N=2)
    dec = pi1_unipotent_deciders(U)
    ident = U.objects[1].identity()
    assert dec["is_trivial"](ident)
    # a coboundary must be trivial and equivalent to the identity
    u0 = (F(1), F(-1), F(1, 2))
    cob = twisted_conj(U, u0, ident)
    assert dec["is_cocycle"](cob)
    assert dec["is_trivial"](cob)
    assert dec["equivalent"](cob, ident)
    # no graded eigenvalue 1: the orbit fills the cocycle variety
    assert dec["tangent_dimension_at"](ident) == 0


def test_pi1_unipotent_nontrivial_for_identity_phi():
    H = heisenberg()
    phi = exactla.identity_matrix(3)
    U = cogenerate(_phi_object(H, phi), N=2)
    dec = pi1_unipotent_deciders(U)
    ident = U.objects[1].identity()
    # twisted conjugation is plain conjugation: central elements with
    # nonzero central coordinate are not coboundaries.  Cocycles have a
    # trivial block at the degenerate factor; the central slot of the
    # nondegenerate copy of the group is the last coordinate.
    central = list(ident)
    central[5] = F(1)
    central = tuple(central)
    assert dec["is_cocycle"](central)
    assert not dec["is_trivial"](central)
    assert dec["tangent_dimension_at"](ident) > 0


# ---------------------------------------------------------------------------
# exact sequences

def _quaternion_group():
    # Q8 = {1,-1,i,-i,j,-j,k,-k} indexed 0..7
    def mul(a, b):
        # encode as (sign, axis) with axis in {1, i, j, k}
        def dec(x):
            return (1 if x % 2 == 0 else -1, x // 2)

        def enc(sign, axis):
            return axis * 2 + (0 if sign == 1 else 1)

        sa, xa = dec(a)
        sb, xb = dec(b)
        table3 = {
            (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
        }
        s, x = table3[(xa, xb)]
        return enc(sa * sb * s, x)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return TableGroup(table)


def test_les_central_constant_quaternion():
    Q8 = _quaternion_group()
    Zc, inclz = subgroup_table(Q8, [0, 1])  # center {1, -1}
    # quotient Q8 / {1,-1} = Klein four group
    cosets = {}
    for g in Q8.elements():
        key = frozenset({g, Q8.mul(1, g)})
        cosets.setdefault(key, len(cosets))
    keys = sorted(cosets, key=lambda s: min(s))
    idx = {k: i for i, k in enumerate(keys)}

    def coset_of(g):
        return idx[frozenset({g, Q8.mul(1, g)})]

    qtable = [[None] * 4 for _ in range(4)]
    for a in Q8.elements():
        for b in Q8.elements():
            qtable[coset_of(a)][coset_of(b)] = coset_of(Q8.mul(a, b))
    Qg = TableGroup(qtable)

    N = 3
    Z = constant_cosimplicial(Zc, N)
    U = constant_cosimplicial(Q8, N)
    Q = constant_cosimplicial(Qg, N)
    incl_hom = FiniteHom(Zc, Q8, inclz, check=True)
    proj_hom = FiniteHom(Q8, Qg, {g: coset_of(g) for g in Q8.elements()},
                         check=True)
    rep = les_central_finite(Z, U, Q, [incl_hom] * (N + 1),
                             [proj_hom] * (N + 1))["report"]
    assert rep["ok"], rep


def _codim_vanishing_check(Z, U, Q, incl, proj, q1):
    """Reference check of the degree-<=1 cogeneration hypothesis on a
    linear Z, and an explicit preimage in Z^1(U) of the cocycle q1 of Q
    by the s^0 correction.  Returns (preimage or None, report)."""
    # hypothesis: Z^n -> Gamma^n(Z_{<=1}) injective for n <= 2
    report = {"hypothesis": True}
    for n in range(2, Z.N + 1):
        # comparison map component at an epi g: [n] ->> [k] is Z(g), a
        # composite of codegeneracies; injective when their kernels meet
        # in zero
        rows = []
        for k in range(2):
            for g in epis(n, k):
                h = Z.objects[n].identity_hom
                level, val = n, tuple(g)
                while level > k:
                    # find i with val[i] == val[i+1]; peel off sigma^i
                    i = next(t for t in range(level) if val[t] == val[t + 1])
                    h = Z.s(level - 1, i).compose(h)
                    val = val[:i] + val[i + 1:]
                    level -= 1
                rows.extend(h.matrix)
        if exactla.kernel_basis(rows, Z.objects[n].dim):
            report["hypothesis"] = False
            report["failed_degree"] = n
    if not report["hypothesis"]:
        return None, report
    # construct the preimage: lift q1 to u1, correct by s^0(z2)
    U1, U2 = U.objects[1], U.objects[2]
    u1, _ = exactla.solve_affine(proj[1].matrix, list(q1), U1.dim)
    assert u1 is not None, "q1 has no preimage under proj"
    u1 = tuple(u1)
    z2 = U2.mul(U2.inv(U.d(2, 2).apply(u1)),
                U2.mul(U.d(2, 1).apply(u1),
                       U2.inv(U.d(2, 0).apply(u1))))
    corrected = U1.mul(u1, U.s(1, 0).apply(z2))
    assert cocycle_condition(U, corrected)
    assert proj[1].apply(corrected) == tuple(q1)
    report["preimage"] = corrected
    return corrected, report


def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _split_linear_extension():
    """A levelwise split extension GZ -> GU -> GQ of cogenerated
    1-truncated vector objects, with its level maps incl and proj."""
    rng = random.Random(9)
    Zs = random_linear_semicosimplicial(rng, [1, 2])
    Qs = random_linear_semicosimplicial(rng, [2, 1])

    def block(a, b):
        rows = []
        for i, r in enumerate(a):
            rows.append(list(r) + [F(0)] * len(b[0]))
        for r in b:
            rows.append([F(0)] * len(a[0]) + list(r))
        return rows

    U0 = UnipotentCarrier(abelian_lie_algebra(3))
    U1 = UnipotentCarrier(abelian_lie_algebra(3))
    cof = {1: [LinearHom(U0, U1, block(Zs.d(1, i).matrix, Qs.d(1, i).matrix))
               for i in range(2)]}
    Us = SemiCosimplicialGroup([U0, U1], cof, check=True)

    GZ = cogenerate(Zs, N=3)
    GU = cogenerate(Us, N=3)
    GQ = cogenerate(Qs, N=3)

    def fm(rows, src, dst):
        return LinearHom(src, dst, rows)

    incl = cogenerate_morphism(GZ, GU, [
        fm([[F(1)], [F(0)], [F(0)]], Zs.objects[0], Us.objects[0]),
        fm([[F(1), F(0)], [F(0), F(1)], [F(0), F(0)], [F(0), F(0)]][:3],
           Zs.objects[1], Us.objects[1]),
    ])
    proj = cogenerate_morphism(GU, GQ, [
        fm([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], Us.objects[0],
           Qs.objects[0]),
        fm([[F(0), F(0), F(1)]], Us.objects[1], Qs.objects[1]),
    ])
    return GZ, GU, GQ, incl, proj


def test_codim_vanishing_linear():
    # levelwise split extension of 1-truncated vector objects
    GZ, GU, GQ, incl, proj = _split_linear_extension()
    # a cocycle of GQ at level 1 (linear cocycle condition)
    d0, d1, d2 = GQ.d(2, 0), GQ.d(2, 1), GQ.d(2, 2)
    n1 = GQ.objects[1].dim
    rows = exactla.mat_sub(d1.matrix, _mat_add(d2.matrix, d0.matrix))
    kb = exactla.kernel_basis(rows, n1)
    assert kb, "no nonzero cocycle in this instance"
    q1 = kb[0]
    pre, report = _codim_vanishing_check(GZ, GU, GQ, incl, proj, q1)
    assert report["hypothesis"]
    assert pre is not None


def test_unipotent_engines_run_on_vector_objects():
    # Q^n is the unipotent group of the abelian algebra, so the engines
    # for unipotent carriers take vector objects as they are: the
    # seven-term sequence of a split extension of them holds, and the
    # unipotent tangent dimension at the identity is the Moore H^1
    les = les_central_unipotent(*_split_linear_extension())
    assert les["report"]["ok"], les["report"]
    assert len(les["clauses"]) == 6 and all(les["clauses"].values())
    assert les["z_dims"] == [0, 1, 0, 3]
    for seed in range(20):
        rng = random.Random(seed)
        dims = [rng.randint(1, 3) for _ in range(3)]
        G = cogenerate(random_linear_semicosimplicial(rng, dims), N=3)
        tangent = pi1_unipotent_deciders(G)["tangent_dimension_at"]
        assert tangent(G.objects[1].identity()) == pi_abelian_all(G)[1], seed


def test_hom_equal_and_identities():
    C4 = cyclic_group(4)
    ident = C4.identity_hom
    sq = FiniteHom(C4, C4, {x: C4.mul(x, x) for x in C4.elements()},
                   check=True)
    assert hom_equal(ident, ident)
    assert not hom_equal(ident, sq)


def test_complex_cohomology_ranks_each_differential_once(monkeypatch):
    import cohw.cosimpl as cosimpl
    calls = []

    def counting_echelon(A):
        calls.append(A)
        return exactla._echelon(A)
    monkeypatch.setattr(cosimpl, "_echelon", counting_echelon)
    # 0 -> Q -> Q^2 -> Q -> 0 with d0 = (1, 1)^T and d1 = (1, -1)
    diffs = [[[F(1)], [F(1)]], [[F(1), F(-1)]]]
    assert complex_cohomology_dims([1, 2, 1], diffs) == [0, 0, 0]
    assert calls == diffs


def test_abelian_cohomotopy_runs_no_reduced_elimination(monkeypatch):
    # the ranks of the Moore differentials come from the forward phase
    # alone: a cogenerated object's cohomotopy never reaches rref
    def refuse(rows):
        raise AssertionError("rref called")
    X = random_linear_semicosimplicial(random.Random(4), [2, 2, 1])
    G = cogenerate(X, N=3)
    direct = complex_cohomology_dims([2, 2, 1], moore_differentials(X))
    monkeypatch.setattr(exactla, "rref", refuse)
    assert pi_abelian_all(G)[:3] == direct[:3]


# ---------------------------------------------------------------------------
# block homomorphisms

def _reference_mono_matrix(X, image, k):
    # the breadth-first search over composites of cofaces that cogenerate
    # used before block maps, kept as an oracle
    kp = len(image) - 1
    target = tuple(image)
    start = tuple(range(kp + 1))
    if kp == k:
        return exactla.identity_matrix(X.objects[kp].dim)
    frontier = [(start, exactla.identity_matrix(X.objects[kp].dim), kp)]
    while frontier:
        nxt = []
        for val, M, level in frontier:
            for i in range(level + 2):
                d = delta_map(level + 1, i)
                comp = tuple(d[v] for v in val)
                M2 = exactla.mat_mul(X.d(level + 1, i).matrix, M)
                if level + 1 == k:
                    if comp == target:
                        return M2
                else:
                    nxt.append((comp, M2, level + 1))
        frontier = nxt
    raise AssertionError("mono not realizable")


def _reference_gamma_matrix(X, f, np, n):
    # the dense assembly of the old linear branch of cogenerate's gamma_map
    level_epis = {m: _gamma_epis(m, X.N) for m in (np, n)}
    src_idx = {e: i for i, e in enumerate(level_epis[np])}
    src_offsets = []
    off = 0
    for (k, _) in level_epis[np]:
        src_offsets.append(off)
        off += X.objects[k].dim
    total_src = off
    rows = []
    for (k, g) in level_epis[n]:
        h = compose_monotone(g, f)
        epi, image = epi_mono_factor(h, k)
        base = src_offsets[src_idx[(len(image) - 1, epi)]]
        for r in _reference_mono_matrix(X, image, k):
            row = [F(0)] * total_src
            for c, v in enumerate(r):
                row[base + c] = v
            rows.append(row)
    return rows


def _random_block_hom(data, source, target):
    """A block map with random wiring; each factor map is zero or small."""
    parts = []
    for tf in target.factors:
        i = data.draw(st.integers(0, len(source.factors) - 1))
        sf = source.factors[i]
        zero = data.draw(st.booleans())
        M = [[F(0) if zero else F(data.draw(st.integers(-1, 1)))
              for _ in range(sf.dim)] for _ in range(tf.dim)]
        parts.append((i, LinearHom(sf, tf, M)))
    return StructuredHom(source, target, parts)


@settings(max_examples=25, deadline=None)
@given(st.data(), st.lists(st.integers(1, 2), min_size=2, max_size=3),
       st.integers(0, 10 ** 6))
def test_cogenerated_block_maps_match_dense_assembly(data, dims, seed):
    X = random_linear_semicosimplicial(random.Random(seed), dims)
    G = cogenerate(X)
    for n in range(1, G.N + 1):
        for i in range(n + 1):
            assert _typed(G.d(n, i).matrix) == _typed(
                _reference_gamma_matrix(X, delta_map(n, i), n - 1, n))
    for n in range(G.N):
        for i in range(n + 1):
            assert _typed(G.s(n, i).matrix) == _typed(
                _reference_gamma_matrix(X, sigma_map(n, i), n + 1, n))
    # block compose and hom_equal against mat_mul and mat_eq: all
    # composites Gamma^1 -> Gamma^2 -> Gamma^1 of the structure maps
    maps = [G.s(1, j).compose(G.d(2, i)) for i in range(3) for j in range(2)]
    maps += [G.d(1, i).compose(G.s(0, 0)) for i in range(2)]
    assert all(isinstance(h, StructuredHom) for h in maps)
    for a in maps:
        for b in maps:
            assert hom_equal(a, b) == exactla.mat_eq(a.matrix, b.matrix)
    assert exactla.mat_eq(maps[0].matrix, exactla.mat_mul(
        G.s(1, 0).matrix, G.d(2, 0).matrix))
    # random wirings, including target blocks fed from different source
    # blocks through zero factor maps
    one, two = G.objects[1], G.objects[2]
    h = _random_block_hom(data, one, two)
    g = _random_block_hom(data, two, one)
    assert exactla.mat_eq(g.compose(h).matrix,
                          exactla.mat_mul(g.matrix, h.matrix))
    dense = LinearHom(one, two, h.matrix)
    assert exactla.mat_eq(g.compose(dense).matrix, g.compose(h).matrix)
    assert exactla.mat_eq(dense.compose(g).matrix,
                          exactla.mat_mul(h.matrix, g.matrix))
    h2 = _random_block_hom(data, one, two)
    assert hom_equal(h, h2) == exactla.mat_eq(h.matrix, h2.matrix)
    assert hom_equal(h, dense) and hom_equal(dense, h)
    assert h.apply(tuple(range(one.dim))) == dense.apply(
        tuple(range(one.dim)))


def test_trivial_blocks_from_different_sources_are_equal():
    X = random_linear_semicosimplicial(random.Random(2), [1, 2])
    G1 = cogenerate(X).objects[1]  # blocks X^0 and X^1

    def zero(i, t):
        sf, tf = G1.factors[i], G1.factors[t]
        return LinearHom(sf, tf, exactla.zero_matrix(tf.dim, sf.dim))
    a = StructuredHom(G1, G1, [(0, zero(0, 0)), (1, zero(1, 1))])
    b = StructuredHom(G1, G1, [(1, zero(1, 0)), (0, zero(0, 1))])
    assert hom_equal(a, b) and exactla.mat_eq(a.matrix, b.matrix)
    one = LinearHom(G1.factors[1], G1.factors[0], [[F(1), F(0)]])
    c = StructuredHom(G1, G1, [(1, one), (0, zero(0, 1))])
    assert not hom_equal(a, c) and not hom_equal(c, a)


def test_block_maps_compare_and_compose_like_their_tables():
    # a factor-map pair met twice, once from the same source block and
    # once from different ones, is decided for each; composites and
    # comparisons agree with the element tables
    C3 = cyclic_group(3)
    G = ProductGroup([C3, C3])
    ident, double = C3.identity_hom, FiniteHom(C3, C3, {0: 0, 1: 2, 2: 1})
    maps = [StructuredHom(G, G, [(i, f), (j, g)])
            for i in (0, 1) for j in (0, 1)
            for f in (ident, double) for g in (ident, double)]
    for a in maps:
        for b in maps:
            table = [a.apply(a.apply(b.apply(x))) for x in G.elements()]
            assert hom_equal(a, b) == all(
                a.apply(x) == b.apply(x) for x in G.elements())
            assert [a.compose(a).compose(b).apply(x)
                    for x in G.elements()] == table


def test_perturbed_cogenerated_coface_fails_identities():
    X = random_linear_semicosimplicial(random.Random(4), [2, 2, 1])
    G = cogenerate(X)
    h = G.d(2, 1)
    parts = list(h.parts)
    i0, f = parts[0]
    M = [list(row) for row in f.matrix]
    M[0][0] += 1
    parts[0] = (i0, LinearHom(f.source, f.target, M))
    G.cofaces[2][1] = StructuredHom(h.source, h.target, parts)
    with pytest.raises(RuntimeError,
                       match="coface identity fails at n=2 i=0 j=1"):
        G.check_identities()


def _first_identity_failure_dense(G):
    """The message of the first cosimplicial identity of G that fails,
    in the order ``check_identities`` tries them, decided on the dense
    matrices of the structure maps without any memo; None if all hold."""
    def prod(f, g):
        return exactla.mat_mul(f.matrix, g.matrix)
    for n in range(2, G.N + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if not exactla.mat_eq(prod(G.d(n, j), G.d(n - 1, i)),
                                      prod(G.d(n, i), G.d(n - 1, j - 1))):
                    return "coface identity fails at n=%d i=%d j=%d" % (
                        n, i, j)
    for n in range(G.N - 1):
        for i in range(n + 2):
            for j in range(i, n + 1):
                if not exactla.mat_eq(prod(G.s(n, j), G.s(n + 1, i)),
                                      prod(G.s(n, i), G.s(n + 1, j + 1))):
                    return "codegeneracy identity fails at n=%d i=%d j=%d" \
                        % (n, i, j)
    for n in range(G.N):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    rhs = prod(G.d(n, i), G.s(n - 1, j - 1))
                elif i in (j, j + 1):
                    rhs = exactla.identity_matrix(G.objects[n].dim)
                else:
                    rhs = prod(G.d(n, i - 1), G.s(n - 1, j))
                if not exactla.mat_eq(prod(G.s(n, j), G.d(n + 1, i)), rhs):
                    return "mixed identity fails at n=%d i=%d j=%d" % (
                        n, i, j)
    return None


def _perturbed_block(h, t):
    """h with the factor map of its target block t changed in one entry."""
    parts = list(h.parts)
    i, f = parts[t]
    M = [list(row) for row in f.matrix]
    M[0][0] += 1
    parts[t] = (i, LinearHom(f.source, f.target, M))
    return StructuredHom(h.source, h.target, parts)


def _dold_kan_object(seed):
    X = random_linear_semicosimplicial(random.Random(seed), [1, 2, 1, 1])
    return cogenerate(X, N=4)


def test_perturbed_cogenerated_codegeneracy_fails_identities():
    # one block of s^0: Gamma^2 -> Gamma^1 off by one entry; the check,
    # sharing its memo across identities, stops where the dense one does
    G = _dold_kan_object(5)
    assert _first_identity_failure_dense(G) is None
    G.codegens[1][0] = _perturbed_block(G.s(1, 0), 1)
    expected = _first_identity_failure_dense(G)
    assert expected.startswith("codegeneracy identity fails")
    with pytest.raises(RuntimeError, match="^%s$" % expected):
        G.check_identities()


def test_perturbed_block_fails_only_a_mixed_identity():
    # every codegeneracy out of the top level precomposed with A, the
    # identity but for one perturbed block: A cancels from each
    # codegeneracy identity, so only a mixed identity can catch it
    G = _dold_kan_object(5)
    top = G.objects[G.N]
    A = _perturbed_block(top.identity_hom, 0)
    G.codegens[G.N - 1] = [s.compose(A) for s in G.codegens[G.N - 1]]
    expected = _first_identity_failure_dense(G)
    assert expected.startswith("mixed identity fails")
    with pytest.raises(RuntimeError, match="^%s$" % expected):
        G.check_identities()


def test_a_passed_check_leaves_no_verdict_behind():
    # the memo lives for one check: a coface replaced after a passing
    # check is composed and compared afresh by the next one
    G = _dold_kan_object(5)
    G.check_identities()
    G.cofaces[2][1] = _perturbed_block(G.d(2, 1), 0)
    expected = _first_identity_failure_dense(G)
    assert expected.startswith("coface identity fails")
    with pytest.raises(RuntimeError, match="^%s$" % expected):
        G.check_identities()
    with pytest.raises(RuntimeError, match="^%s$" % expected):
        G.check_coface_identities()


def test_one_check_composes_each_factor_pair_once(monkeypatch):
    X = random_linear_semicosimplicial(random.Random(3), [2, 3, 2, 3])
    G = cogenerate(X, N=4)
    pairs, operands = [], []
    compose = LinearHom.compose

    def counted(self, other):
        pairs.append((id(self), id(other)))
        operands.append((self, other))  # keeps each id unique meanwhile
        return compose(self, other)
    monkeypatch.setattr(LinearHom, "compose", counted)
    G.check_identities()
    assert pairs and len(pairs) == len(set(pairs))


def test_cosimplicial_identities_raise_under_optimization():
    # a zero coface at level 2, a zero codegeneracy at level 1 and a zero
    # one at level 0 over C2 each break one identity, also under python -O;
    # so do a missing coface and a missing codegeneracy
    root = pathlib.Path(__file__).resolve().parent.parent
    child = (
        "import json\n"
        "from cohw.cosimpl import CosimplicialGroup, FiniteHom, "
        "SemiCosimplicialGroup, cyclic_group\n"
        "C2 = cyclic_group(2)\n"
        "one, zero = C2.identity_hom, FiniteHom(C2, C2, {0: 0, 1: 0})\n"
        "def raised(call):\n"
        "    try:\n"
        "        call()\n"
        "    except Exception as e:\n"
        "        return [type(e).__name__, str(e)]\n"
        "print(json.dumps([\n"
        "    raised(lambda: SemiCosimplicialGroup([C2] * 3, {\n"
        "        1: [one, one], 2: [zero, one, one]})),\n"
        "    raised(lambda: CosimplicialGroup([C2] * 3, {\n"
        "        1: [one] * 2, 2: [one] * 3}, {0: [one], 1: [zero, one]})),\n"
        "    raised(lambda: CosimplicialGroup([C2] * 2, {1: [one] * 2},\n"
        "                                     {0: [zero]})),\n"
        "    raised(lambda: SemiCosimplicialGroup([C2] * 2, {1: [one]})),\n"
        "    raised(lambda: CosimplicialGroup([C2] * 3, {\n"
        "        1: [one] * 2, 2: [one] * 3}, {0: [one], 1: [one]}))]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == [
        ["RuntimeError", "coface identity fails at n=2 i=0 j=1"],
        ["RuntimeError", "codegeneracy identity fails at n=0 i=0 j=0"],
        ["RuntimeError", "mixed identity fails at n=0 i=0 j=0"],
        ["ValueError", "level 1 needs 2 cofaces"],
        ["ValueError", "level 1 needs 2 codegeneracies"]]


# ---------------------------------------------------------------------------
# finite identities decided on evaluated block chains

def _composite_failures(G):
    """The messages of the cosimplicial identities of G that fail, in the
    order ``check_identities`` tries them, each decided by composing both
    sides (``_compose``, one memo for the whole check) and comparing them
    with ``hom_equal``."""
    memo = {}

    def differ(f, g, h, k=None):
        lhs = _compose(f, g, memo)
        return not hom_equal(lhs, h if k is None else _compose(h, k, memo))
    for n in range(2, G.N + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if differ(G.d(n, j), G.d(n - 1, i), G.d(n, i),
                          G.d(n - 1, j - 1)):
                    yield "coface identity fails at n=%d i=%d j=%d" % (
                        n, i, j)
    for n in range(G.N - 1):
        for i in range(n + 2):
            for j in range(i, n + 1):
                if differ(G.s(n, j), G.s(n + 1, i), G.s(n, i),
                          G.s(n + 1, j + 1)):
                    yield "codegeneracy identity fails at n=%d i=%d j=%d" % (
                        n, i, j)
    for n in range(G.N):
        for j in range(n + 1):
            for i in range(n + 2):
                rhs = (G.d(n, i), G.s(n - 1, j - 1)) if i < j else \
                    (G.objects[n].identity_hom,) if i in (j, j + 1) else \
                    (G.d(n, i - 1), G.s(n - 1, j))
                if differ(G.s(n, j), G.d(n + 1, i), *rhs):
                    yield "mixed identity fails at n=%d i=%d j=%d" % (
                        n, i, j)


def _composite_check(G):
    """The first of ``_composite_failures``, or None."""
    return next(_composite_failures(G), None)


def _evaluated_check(G, parent=None):
    try:
        G.check_identities(parent)
    except RuntimeError as e:
        return str(e)
    return None


def _s3_coset_object(N=2):
    S3 = symmetric_group(3)
    return cogenerate(_double_coset_object(
        S3, [0, S3.perms.index((1, 0, 2))], [0, S3.perms.index((2, 1, 0))]),
        N=N)


def _cochain_objects():
    C2, C3, S3 = cyclic_group(2), cyclic_group(3), symmetric_group(3)
    t = S3.perms.index((1, 0, 2))
    inversion = FiniteHom(C3, C3, {u: C3.inv(u) for u in C3.elements()})
    conj = inner_automorphism(S3, t)
    return [cochain_cosimplicial(GroupAction.from_generator_images(
        C2, U, {1: h}), N=N) for U, h, N in
        ((C3, inversion, 2), (S3, conj, 2), (C3, inversion, 3))]


def _broken_copies(U):
    """(which map, copy of U with one part map of one structure map
    changed, unchecked): to the trivial map, or to the map followed by an
    inner automorphism of its target."""
    for kind in ("cofaces", "codegens"):
        for n, hs in getattr(U, kind).items():
            for k, h in enumerate(hs):
                for t, (i, f) in enumerate(h.parts):
                    S, T = f.source, f.target
                    changed = [FiniteHom(S, T, dict.fromkeys(
                        S.elements(), T.identity()), check=False)]
                    changed += [inner_automorphism(T, c).compose(f)
                                for c in T.elements()[1:3]]
                    for g in changed:
                        parts = list(h.parts)
                        parts[t] = (i, g)
                        maps = {m: list(v)
                                for m, v in getattr(U, kind).items()}
                        maps[n][k] = StructuredHom(h.source, h.target, parts)
                        cofaces = maps if kind == "cofaces" else U.cofaces
                        codegens = maps if kind == "codegens" else U.codegens
                        yield (kind, n, k), CosimplicialGroup(
                            U.objects, cofaces, codegens, check=False)


def test_evaluated_check_agrees_with_the_composite_check():
    # seeded double-coset objects and every twist of them, cochain
    # objects, and copies of both with one part map changed: the same
    # first failing identity, or none
    rng = random.Random(2029)
    for _ in range(6):
        G, left, right = _random_double_coset(rng, 20000, 2)
        U = cogenerate(_double_coset_object(G, left, right), N=2)
        assert U.verified and _composite_check(U) is None
        for beta in z1_elements(U):
            V = twist(U, beta)
            assert V.verified and _composite_check(V) is None
    verdicts = set()
    for U in [_s3_coset_object()] + _cochain_objects():
        assert _evaluated_check(U) is None and _composite_check(U) is None
        for _, V in _broken_copies(U):
            expected = _composite_check(V)
            assert _evaluated_check(V) == expected
            verdicts.add(expected is None)
    assert verdicts == {True, False}


def _reads_d0(message):
    """Whether the identity a check message names reads a d^0 map: a
    coface or mixed one with i = 0."""
    return not message.startswith("codegeneracy") and " i=0 " in message


def test_only_a_verified_parent_lets_a_twist_skip_identities():
    # unchecked copies whose every broken identity reads no d^0: a twist
    # by the identity cocycle (the very same maps) re-checks them and
    # raises; were the copy verified, the twist would pass, having
    # re-checked none
    U = _s3_coset_object()
    e = U.objects[1].identity()
    found = 0
    for _, P in _broken_copies(U):
        failures = list(_composite_failures(P))
        if not failures or any(map(_reads_d0, failures)):
            continue
        with pytest.raises(RuntimeError, match="^%s$" % failures[0]):
            twist(P, e)
        P.verified = True
        assert twist(P, e).verified
        found += 1
    assert found


def test_a_twist_of_a_verified_object_rechecks_the_identities_reading_d0(
        monkeypatch):
    # at N = 2, 5 of the 12 identities read a d^0: a twist of a verified
    # object decides those, a twist of an unverified one all 12
    import cohw.cosimpl as cosimpl
    U = _s3_coset_object()
    beta = z1_elements(U)[-1]
    decided = []
    sides_agree = cosimpl._sides_agree

    def counted(src, lhs, rhs, memo):
        decided.append((lhs, rhs))
        return sides_agree(src, lhs, rhs, memo)
    monkeypatch.setattr(cosimpl, "_sides_agree", counted)
    twist(U, beta)
    assert len(decided) == 5
    decided.clear()
    U.verified = False
    twist(U, beta)
    assert len(decided) == 12


def test_finite_checks_build_no_block_map(monkeypatch):
    # neither the identities nor the squares of a cosimplicial map build
    # a composite block map on finite carriers
    U = _s3_coset_object(N=3)
    Ubp, Ub, maps, ok = trivial_twist_isomorphism(
        U, z1_elements(U)[1], U.objects[0].elements()[3])
    built = []
    init = StructuredHom.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)
    monkeypatch.setattr(StructuredHom, "__init__", counted)
    U.check_identities()
    Ub.check_identities()
    assert ok and check_cosimplicial_map(Ubp, Ub, maps)
    assert built == []


# ---------------------------------------------------------------------------
# one identity per carrier

def test_composing_with_the_identity_gives_the_other_map():
    U = _s3_coset_object()
    S3, X0 = symmetric_group(3), U.objects[0]
    for h in [inner_automorphism(S3, 1), U.d(1, 0), U.d(2, 1), U.s(0, 0)]:
        assert h.target.identity_hom.compose(h) is h
        assert h.compose(h.source.identity_hom) is h
        assert _compose(h.target.identity_hom, h, {}) is h
        assert _compose(h, h.source.identity_hom, {}) is h
    # a product's identity is the block map of its factors' identities
    ident = X0.identity_hom
    assert isinstance(ident, StructuredHom)
    assert [h for _, h in ident.parts] == [f.identity_hom
                                          for f in X0.factors]
    assert all(ident.apply(x) == x for x in X0.elements())


def test_identity_probes_build_no_identity():
    # _is_identity and _chains read the identity a carrier already keeps:
    # on a table group, a nested product and a linear direct sum
    C2, C3, C4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    inner = ProductGroup([C2, C3])
    nested = ProductGroup([inner, C4])
    neg = FiniteHom(C3, C3, {0: 0, 1: 2, 2: 1})
    line, H = (UnipotentCarrier(L)
               for L in (abelian_lie_algebra(1), heisenberg()))
    dsum = _product_object([line, H])
    homs = [neg, StructuredHom(nested, nested, [
        (0, StructuredHom(inner, inner, [
            (0, FiniteHom(C2, C2, {0: 0, 1: 1})), (1, neg)])),
        (1, FiniteHom(C4, C4, {x: -x % 4 for x in range(4)}))]),
        StructuredHom(dsum, dsum, [
            (0, LinearHom(line, line, [[2]])),
            (1, LinearHom(H, H, [[2, 0, 0], [0, 1, 0], [0, 0, 2]]))])]
    for h in homs:
        assert not _is_identity(h)
        _chains(h.source, (h, h))
    carriers = [C2, C3, C4, inner, nested, line, H, dsum]
    assert all("identity_hom" not in vars(G) for G in carriers)
    assert all(_is_identity(G.identity_hom) for G in (nested, dsum))
    assert all("identity_hom" in vars(G) for G in carriers)


def test_conjugation_by_a_central_element_is_the_identity():
    S3, C4 = symmetric_group(3), cyclic_group(4)
    G = ProductGroup([S3, C4])
    assert inner_automorphism(G, (0, 1)) is G.identity_hom
    assert inner_automorphism(C4, 3) is C4.identity_hom
    t = S3.perms.index((1, 0, 2))
    for c in [(t, 0), (t, 1), (S3.perms.index((1, 2, 0)), 3)]:
        conj = inner_automorphism(G, c)
        assert conj is not G.identity_hom
        assert all(conj.apply(x) == G.mul(G.mul(c, x), G.inv(c))
                   for x in G.elements())


def test_block_chains_leave_identities_out():
    U = _s3_coset_object()
    X1 = U.objects[1]
    h = U.d(2, 1)
    assert _chains(X1, (X1.identity_hom, h)) == _chains(X1, (h,)) == \
        _chains(X1, (h, U.objects[2].identity_hom))
    assert _chains(X1, (X1.identity_hom,)) == _chains(X1, ())
    # the cogenerated d^0 at level 1 reads block 0 of U^0 through X0's
    # identity: that chain has no map
    assert (0, ()) in _chains(U.objects[0], (U.d(1, 0),))


def test_a_central_twist_keeps_d0_and_decides_no_chain(monkeypatch):
    # a twist of a cyclic double-coset object conjugates by central
    # elements only: its d^0 maps are U's own and the verified parent
    # covers every identity; an S3 twist still decides chains
    import cohw.cosimpl as cosimpl
    calls = []
    agree = cosimpl._chains_agree

    def counted(*args):
        calls.append(args)
        return agree(*args)
    monkeypatch.setattr(cosimpl, "_chains_agree", counted)
    C6 = cyclic_group(6)
    U = cogenerate(_double_coset_object(C6, [0, 3], [0, 2, 4]), N=2)
    for beta in z1_elements(U):
        calls.clear()
        V = twist(U, beta)
        assert V.d(1, 0) is U.d(1, 0) and V.d(2, 0) is U.d(2, 0)
        assert V.verified and calls == []
    U = _s3_coset_object()
    calls.clear()
    twist(U, z1_elements(U)[-1])
    assert calls


def test_unipotent_deciders_and_hom_shapes_raise_under_optimization():
    # a non-cocycle of the constant Heisenberg object has no answer from
    # the deciders, and a 1x2 matrix is no hom on a line, also under
    # python -O
    root = pathlib.Path(__file__).resolve().parent.parent
    child = (
        "import json\n"
        "from cohw.cosimpl import CosimplicialGroup, LinearHom, "
        "UnipotentCarrier, pi1_unipotent_deciders\n"
        "from cohw.nilpotent import abelian_lie_algebra, heisenberg\n"
        "H = UnipotentCarrier(heisenberg())\n"
        "one = H.identity_hom\n"
        "D = pi1_unipotent_deciders(CosimplicialGroup(\n"
        "    [H] * 3, {1: [one] * 2, 2: [one] * 3},\n"
        "    {0: [one], 1: [one] * 2}, check=False))\n"
        "def raised(call):\n"
        "    try:\n"
        "        return ['returned', repr(call())]\n"
        "    except Exception as e:\n"
        "        return [type(e).__name__, str(e)]\n"
        "line = UnipotentCarrier(abelian_lie_algebra(1))\n"
        "print(json.dumps([\n"
        "    raised(lambda: D['is_trivial']((1, 0, 0))),\n"
        "    raised(lambda: D['tangent_dimension_at']((1, 0, 0))),\n"
        "    raised(lambda: LinearHom(line, line, [[1, 2]]))]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == [
        ["ValueError", "malformed cocycle"],
        ["ValueError", "malformed cocycle"],
        ["ValueError", "matrix is not 1x1"]]


# ---------------------------------------------------------------------------
# linear homs on integer rows

def _entries():
    # mostly zeros, of both types, and fractions with denominators up to
    # 10^6
    return st.one_of(st.just(0), st.just(F(0)), st.integers(-3, 3),
                     st.fractions(min_value=-1000, max_value=1000,
                                  max_denominator=10 ** 6))


def _matrix(data, rows, cols):
    M = data.draw(st.lists(st.lists(_entries(), min_size=cols,
                                    max_size=cols),
                           min_size=rows, max_size=rows))
    # a zero row and a zero column, of mixed types
    if rows and cols and data.draw(st.booleans()):
        r, c = data.draw(st.integers(0, rows - 1)), \
            data.draw(st.integers(0, cols - 1))
        M[r] = [0] * cols
        for row in M:
            row[c] = F(0)
    return M


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_integer_compose_matches_mat_mul(data, m, k, n):
    A, B = _matrix(data, m, k), _matrix(data, k, n)
    U, V, W = (UnipotentCarrier(abelian_lie_algebra(d)) for d in (n, k, m))
    a, b = LinearHom(V, W, A), LinearHom(U, V, B)
    ab = a.compose(b)
    # mat_mul reads the column count off B, which has none when k = 0
    product = exactla.mat_mul(A, B) if k else exactla.zero_matrix(m, n)
    assert _typed(ab.matrix) == _typed(product)
    assert _typed(a.matrix) == _typed(exactla.mat_mul(
        A, exactla.identity_matrix(k)))
    # the composite's int form is canonical: the one built from its
    # matrix, with the lcm of its entries' denominators
    den, rows = ab.int_form
    assert ab.int_form == LinearHom(U, W, product).int_form
    assert den == math.lcm(*[x.denominator for row in product for x in row])
    assert all(type(x) is int for row in rows for x in row)
    # equal matrices of either entry type compare equal, and a random one
    # or a shifted one compares as mat_eq does
    same = [[int(x) if x.denominator == 1 else x for x in row]
            for row in product]
    assert hom_equal(ab, LinearHom(U, W, same))
    C = _matrix(data, m, n)
    assert hom_equal(ab, LinearHom(U, W, C)) == exactla.mat_eq(product, C)
    half = LinearHom(U, W, [[x / 2 for x in row] for row in product])
    assert hom_equal(ab, half) == (not any(map(any, product)))
    if m and n:
        same[0][0] += F(1, 10 ** 6)
        assert not hom_equal(ab, LinearHom(U, W, same))
    # a block map composes with a dense hom through the same integer form
    block = StructuredHom(_product_object([V]), _product_object([W]),
                          [(0, a)])
    assert _typed(block.compose(b).matrix) == _typed(product)
    assert hom_equal(block.compose(b), ab)


def _add_signed(M, sign, h, r0=0, c0=0):
    """Add sign times the matrix of the linear hom h into M in place, with
    its top left corner at row r0 and column c0; block maps go block by
    block, so no dense matrix of theirs is built."""
    # the reference: Fraction sums, entry by entry
    if isinstance(h, StructuredHom):
        off = h.source.offsets
        r = r0
        for (i, f) in h.parts:
            _add_signed(M, sign, f, r, c0 + off[i])
            r += f.target.dim
        return
    for r, row in enumerate(h.matrix):
        out = M[r0 + r]
        for c, v in enumerate(row):
            if v:
                out[c0 + c] += sign * v


def _dense_moore(A):
    out = []
    for n in range(1, A.N + 1):
        M = exactla.zero_matrix(A.objects[n].dim, A.objects[n - 1].dim)
        for i in range(n + 1):
            _add_signed(M, (-1) ** i, A.d(n, i))
        out.append(M)
    return out


def _dense_total_dims(A, N):
    """H^j of the total Moore complex of a bi-semi-cosimplicial A, from
    the Fraction sums of ``_add_signed``."""
    tot = []
    for m in range(N + 1):
        off, out = 0, {}
        for p in range(max(0, m - A.Q), min(m, A.P) + 1):
            out[(p, m - p)] = off
            off += A.objects[p][m - p].dim
        tot.append((out, off))
    diffs = []
    for n in range(N):
        M = exactla.zero_matrix(tot[n + 1][1], tot[n][1])
        dst = tot[n + 1][0]
        for (p, q), so in tot[n][0].items():
            if (p + 1, q) in dst:
                for i in range(p + 2):
                    _add_signed(M, (-1) ** i, A.h(p + 1, q, i),
                                dst[(p + 1, q)], so)
            if (p, q + 1) in dst:
                for i in range(q + 2):
                    _add_signed(M, (-1) ** (p + i), A.v(p, q + 1, i),
                                dst[(p, q + 1)], so)
        diffs.append(M)
    return complex_cohomology_dims([total for _, total in tot], diffs)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4),
       st.lists(st.integers(1, 2), min_size=3, max_size=3),
       st.lists(st.integers(1, 2), min_size=2, max_size=3),
       st.integers(0, 10 ** 6))
def test_moore_sums_match_the_fraction_sums(dims, hdims, vdims, seed):
    rng = random.Random(seed)
    X = random_linear_semicosimplicial(rng, dims)
    A = random_bisemicosimplicial(rng, hdims, vdims)
    N = max(A.P, A.Q) + 1
    for Y in (X, cogenerate(X), diagonal_cogenerate(A, N)):
        dense = _dense_moore(Y)
        assert _typed(moore_differentials(Y)) == _typed(dense)
        assert pi_abelian_all(Y) == complex_cohomology_dims(
            [G.dim for G in Y.objects], dense)
    report = eilenberg_zilber_oracle(A)
    assert report["total"] == _dense_total_dims(A, N)[:3]


def test_a_coface_shifted_by_a_seventh_is_refused_also_under_optimization():
    # one entry of one block of a cogenerated coface moves by 1/7; the
    # integer forms of the composites then differ in their denominators
    root = pathlib.Path(__file__).resolve().parent.parent
    child = (
        "import json, random\n"
        "from fractions import Fraction\n"
        "from cohw.cosimpl import LinearHom, StructuredHom, cogenerate, "
        "random_linear_semicosimplicial\n"
        "X = random_linear_semicosimplicial(random.Random(4), [2, 2, 1])\n"
        "G = cogenerate(X)\n"
        "h = G.d(2, 1)\n"
        "parts = list(h.parts)\n"
        "i0, f = parts[0]\n"
        "M = [list(row) for row in f.matrix]\n"
        "M[0][0] += Fraction(1, 7)\n"
        "parts[0] = (i0, LinearHom(f.source, f.target, M))\n"
        "G.cofaces[2][1] = StructuredHom(h.source, h.target, parts)\n"
        "try:\n"
        "    G.check_identities()\n"
        "    out = None\n"
        "except RuntimeError as e:\n"
        "    out = str(e)\n"
        "print(json.dumps([out, G.d(2, 1).int_form[0] % 7]))\n")
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable] + flags + ["-c", child],
                              cwd=root, capture_output=True, text=True,
                              env=dict(os.environ,
                                       PYTHONPATH=str(root / "src")),
                              timeout=600)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert json.loads(proc.stdout) == [
            "coface identity fails at n=2 i=0 j=1", 0], flags


def test_linear_homs_share_no_matrix():
    # changing the list a hom was built from, or the matrix it returns,
    # changes no other hom
    D, E = (UnipotentCarrier(abelian_lie_algebra(d)) for d in (2, 1))
    M = [[F(1), 2], [F(0), F(1, 3)]]
    h = LinearHom(D, D, M)
    g = h.compose(D.identity_hom)
    M[0][0] = F(5)
    M.append([F(7), F(7)])
    assert _typed(h.matrix) == _typed([[F(1), F(2)], [F(0), F(1, 3)]])
    view = h.matrix
    view[1][1] = F(9)
    view.append([F(0), F(0)])
    form = (3, ((3, 6), (0, 1)))
    assert h.int_form == g.int_form == form
    assert D.identity_hom.compose(h).int_form == form
    assert _typed(g.matrix) == _typed([[F(1), F(2)], [F(0), F(1, 3)]])
    assert _typed(h.compose(h).matrix) == _typed(
        [[F(1), F(8, 3)], [F(0), F(1, 9)]])
    assert hom_equal(g, LinearHom(D, D, [[1, 2], [0, F(1, 3)]]))
    # a block map's matrix is its own too
    S = _product_object([D, E])
    line = LinearHom(E, E, [[2]])
    block = StructuredHom(S, S, [(0, g), (1, line)])
    block.matrix[0][0] = F(11)
    block.matrix.pop()
    assert _typed(line.matrix) == _typed([[F(2)]])
    assert g.matrix[0][0] == 1
    assert block.int_form == (3, ((3, 6, 0), (0, 1, 0), (0, 0, 6)))
    assert hom_equal(block.compose(block), StructuredHom(
        S, S, [(0, g.compose(g)), (1, line.compose(line))]))


def _random_linear_semicosimplicial_reference(rng, dims):
    """Random truncated semi-cosimplicial rational vector space with the
    given level dimensions: level-1 cofaces are free, higher cofaces are
    sampled from the affine space cut out by the coface identities."""
    # the reference: every term of the random combination in Fractions
    N = len(dims) - 1
    objects = [UnipotentCarrier(abelian_lie_algebra(d)) for d in dims]
    cofaces = {}
    mats = {}
    if N >= 1:
        mats[1] = [[[Fraction(rng.randint(-2, 2)) for _ in range(dims[0])]
                    for _ in range(dims[1])] for _ in range(2)]
    for n in range(2, N + 1):
        rn, cn = dims[n], dims[n - 1]
        per = rn * cn
        nvars = (n + 1) * per

        def var(i, r, c):
            return i * per + r * cn + c

        rows = []
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                # d(n,j) d(n-1,i) = d(n,i) d(n-1,j-1)
                A = mats[n - 1][i]
                B = mats[n - 1][j - 1]
                for r in range(rn):
                    for c in range(dims[n - 2]):
                        row = [Fraction(0)] * nvars
                        for m in range(cn):
                            row[var(j, r, m)] += A[m][c]
                            row[var(i, r, m)] -= B[m][c]
                        rows.append(row)
        ker = exactla.kernel_basis(rows, nvars) if rows else \
            [[Fraction(int(t == s)) for t in range(nvars)]
             for s in range(nvars)]
        flat = [Fraction(0)] * nvars
        for v in ker:
            coeff = Fraction(rng.randint(-2, 2))
            flat = [a + coeff * b for a, b in zip(flat, v)]
        mats[n] = [[[flat[var(i, r, c)] for c in range(cn)]
                    for r in range(rn)] for i in range(n + 1)]
    for n in range(1, N + 1):
        cofaces[n] = [LinearHom(objects[n - 1], objects[n], M)
                      for M in mats[n]]
    return SemiCosimplicialGroup(objects, cofaces, check=True)


def test_random_instances_match_the_fraction_generator():
    for seed in range(200):
        shape = random.Random(-seed)
        dims = [shape.randint(1, 3) for _ in range(shape.randint(1, 5))]
        new, old = random.Random(seed), random.Random(seed)
        X = random_linear_semicosimplicial(new, dims)
        Y = _random_linear_semicosimplicial_reference(old, dims)
        assert new.getstate() == old.getstate(), seed
        for n in range(1, X.N + 1):
            for i in range(n + 1):
                assert X.d(n, i).int_form == Y.d(n, i).int_form
                assert _typed(X.d(n, i).matrix) == _typed(Y.d(n, i).matrix)


def test_random_instances_have_canonical_int_forms():
    # hom_equal compares int forms, so a hom built from integer rows must
    # have the int form of the hom built from its Fraction matrix
    for seed in range(40):
        rng = random.Random(seed)
        dims = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
        X = random_linear_semicosimplicial(rng, dims)
        homs = [X.d(n, i) for n in range(1, X.N + 1) for i in range(n + 1)]
        hdims = [rng.randint(1, 2) for _ in range(3)]
        vdims = [rng.randint(1, 2) for _ in range(3)]
        A = random_bisemicosimplicial(rng, hdims, vdims)
        homs += [A.h(p, q, i) for p in range(1, A.P + 1)
                 for q in range(A.Q + 1) for i in range(p + 1)]
        homs += [A.v(p, q, i) for p in range(A.P + 1)
                 for q in range(1, A.Q + 1) for i in range(q + 1)]
        for h in homs:
            assert h.int_form == LinearHom(h.source, h.target,
                                           h.matrix).int_form, seed


def test_random_bi_instances_match_the_fraction_generator():
    # the four eilenberg-zilber shapes of the benchmark, against the
    # Fraction generator and a Fraction Kronecker product
    def kron(A, B):
        return [[a * b for a in ra for b in rb] for ra in A for rb in B]
    shapes = [([1, 1, 2], [1, 1, 1]), ([2, 2, 1], [1, 1, 2]),
              ([1, 2, 1], [2, 2, 1]), ([2, 2, 1], [2, 2, 1])]
    for hdims, vdims in shapes:
        for seed in range(10):
            new, old = random.Random(seed), random.Random(seed)
            A = random_bisemicosimplicial(new, hdims, vdims)
            V = _random_linear_semicosimplicial_reference(old, hdims)
            W = _random_linear_semicosimplicial_reference(old, vdims)
            assert new.getstate() == old.getstate(), (hdims, vdims, seed)
            for p in range(len(hdims)):
                for q in range(len(vdims)):
                    for i in range(p + 1 if p else 0):
                        ref = kron(V.d(p, i).matrix,
                                   exactla.identity_matrix(vdims[q]))
                        assert A.h(p, q, i).int_form == LinearHom(
                            A.objects[p - 1][q], A.objects[p][q],
                            ref).int_form
                    for i in range(q + 1 if q else 0):
                        ref = kron(exactla.identity_matrix(hdims[p]),
                                   W.d(q, i).matrix)
                        assert A.v(p, q, i).int_form == LinearHom(
                            A.objects[p][q - 1], A.objects[p][q],
                            ref).int_form
