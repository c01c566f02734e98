import collections
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest

from cohw import cli, cosimpl, exactla
from cohw.cosimpl import (
    CosimplicialGroup, FiniteHom, LinearHom, TableGroup, UnipotentCarrier,
    _cocycle_walk, cocycle_condition, cyclic_group, hom_equal,
    inner_automorphism, les_central_finite, pi0, pi1_finite,
    symmetric_group, trivial_twist_isomorphism, twist, z1_elements,
)
from cohw.gcohom import (
    GroupAction, _is_cocycle_table, cochain_cosimplicial, h0_fixed_points,
    h0_h1, h1_classes, inflation_restriction, les_group_cohomology,
    serre_twist, serre_twist_matches_cosimplicial, trivial_action,
    z1_enumerate,
)
from cohw.nilpotent import heisenberg

F = Fraction


def _inversion_action(n):
    G = cyclic_group(2)
    U = cyclic_group(n)
    inv = FiniteHom(U, U, {u: U.inv(u) for u in U.elements()}, check=True)
    return GroupAction.from_generator_images(G, U, {1: inv})


def test_c2_inverting_c3():
    act = _inversion_action(3)
    res = h0_h1(act)
    # only 0 is fixed by inversion; every cocycle is a coboundary
    assert res["mode"] == "cosimplicial"
    assert res["h0"] == [0]
    assert res["h1_count"] == 1


def test_c2_trivial_on_c2():
    act = trivial_action(cyclic_group(2), cyclic_group(2))
    res = h0_h1(act)
    assert sorted(res["h0"]) == [0, 1]
    # H^1 = Hom(C2, Z/2): two classes
    assert res["h1_count"] == 2


def test_c2_inverting_c4():
    act = _inversion_action(4)
    res = h0_h1(act)
    # fixed points {0, 2}; cocycles are all of Z/4, coboundaries are -2u
    assert sorted(res["h0"]) == [0, 2]
    assert res["h1_count"] == 2


def test_z1_enumeration_matches_definition():
    act = _inversion_action(4)
    G, U = act.G, act.carrier
    # brute force over all functions with f(0) = 0
    brute = []
    for v in U.elements():
        f = {0: 0, 1: v}
        if all(f[G.mul(g, h)] == U.mul(f[g], act.act(g, f[h]))
               for g in G.elements() for h in G.elements()):
            brute.append(f)
    found = z1_enumerate(act)
    assert len(found) == len(brute) == 4


def test_unipotent_trivial_action_h1_single_class():
    G = cyclic_group(2)
    D = UnipotentCarrier(heisenberg())
    act = trivial_action(G, D)
    res = h0_h1(act)
    assert res["mode"] == "unipotent"
    # everything is fixed
    assert len(res["h0_basis"]) == 3
    dec = res["deciders"]
    C = res["cochain"]
    # the deciders read levels up to 2, and no level above is built
    assert C.N == 2
    ident = C.objects[1].identity()
    assert dec["is_trivial"](ident)
    # uniquely divisible target: H^1 of a finite group is a single class,
    # so the tangent space at the base cocycle vanishes
    assert dec["tangent_dimension_at"](ident) == 0


def test_tangent_dimension_at_c16_is_within_budget():
    # C16 acting trivially on the Heisenberg algebra: U^1 has 48 and U^2
    # 768 coordinates, and the exact tangent dimension at the base
    # cocycle must come out within 1.5 s
    act = trivial_action(cyclic_group(16), UnipotentCarrier(heisenberg()))
    res = h0_h1(act)
    ident = res["cochain"].objects[1].identity()
    t0 = time.perf_counter()
    assert res["deciders"]["tangent_dimension_at"](ident) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.5, "took %.2f s, budget 1.5 s" % elapsed


def test_unipotent_sign_action():
    from cohw.nilpotent import abelian_lie_algebra
    G = cyclic_group(2)
    D = UnipotentCarrier(abelian_lie_algebra(1))
    neg = LinearHom(D, D, [[F(-1)]])
    act = GroupAction.from_generator_images(G, D, {1: neg})
    res = h0_h1(act)
    assert res["h0_basis"] == []
    dec = res["deciders"]
    C = res["cochain"]
    # a cochain f with f(e) = 0, f(g) = 1
    cand = [F(0)] * C.objects[1].dim
    cand[C.tuple_index[1][(1,)]] = F(1)
    cand = tuple(cand)
    assert dec["is_cocycle"](cand)
    assert dec["is_trivial"](cand)


def test_twist_of_a_unipotent_cochain_object():
    # C2 acting on the Heisenberg algebra by (x, y, z) -> (-x, -y, z),
    # twisted by the cocycle f(g) = (0, 1, 0): every level is one
    # unipotent carrier, so the twist conjugates by its Ad matrix
    H = heisenberg()
    D = UnipotentCarrier(H)
    sigma = LinearHom(D, D, [[F(-1), 0, 0], [0, F(-1), 0], [0, 0, F(1)]])
    act = GroupAction.from_generator_images(cyclic_group(2), D, {1: sigma})
    S = cochain_cosimplicial(act)
    assert all(isinstance(G, UnipotentCarrier) for G in S.objects)
    beta = [F(0)] * S.objects[1].dim
    beta[S.tuple_index[1][(1,)] * H.dim + 1] = F(1)
    beta = tuple(beta)
    assert cocycle_condition(S, beta)
    Ub = twist(S, beta)
    assert Ub.d(1, 0).matrix != S.d(1, 0).matrix
    Ub.check_identities()
    assert trivial_twist_isomorphism(S, beta, (F(1), F(0), F(2)))[3]


def test_serre_twist_abelian():
    act = _inversion_action(3)
    alpha = {0: 0, 1: 1}
    assert serre_twist_matches_cosimplicial(act, alpha)


def test_serre_twist_nonabelian():
    # C2 acting on S3 by conjugation by a transposition
    G = cyclic_group(2)
    S3 = symmetric_group(3)
    t = S3.perms.index((1, 0, 2))
    conj = FiniteHom(S3, S3, {u: S3.mul(S3.mul(t, u), S3.inv(t))
                              for u in S3.elements()}, check=True)
    act = GroupAction.from_generator_images(G, S3, {1: conj})
    # find a nontrivial cocycle: f(g) with f(g) (g.f(g)) = e
    found = None
    for f in z1_enumerate(act):
        if f[1] != S3.identity():
            found = f
            break
    assert found is not None
    assert serre_twist_matches_cosimplicial(act, found)


def test_inflation_restriction():
    G = cyclic_group(4)
    U = cyclic_group(2)
    act = trivial_action(G, U)
    report = inflation_restriction(act, [0, 2])
    assert report["injective"]
    assert report["exact_middle"]
    assert report["h1_quotient"] == 2
    assert report["h1_total"] == 2
    assert report["h1_sub"] == 2


def _mod4_extension(action_on_U):
    """central extension 0 -> Z/2 -> Z/4 -> Z/2 -> 0 with the given
    G-action on Z/4 (must fix {0, 2} and descend)."""
    G = action_on_U.G
    U = action_on_U.carrier
    Z = cyclic_group(2)
    Q = cyclic_group(2)
    incl = {0: 0, 1: 2}
    proj = {u: u % 2 for u in U.elements()}
    actZ = GroupAction(G, Z, {
        g: FiniteHom(Z, Z, {z: {0: 0, 2: 1}[action_on_U.act(g, incl[z])]
                            for z in Z.elements()}, check=False)
        for g in G.elements()}, check=True)
    actQ = GroupAction(G, Q, {
        g: FiniteHom(Q, Q, {q: action_on_U.act(g, q) % 2
                            for q in Q.elements()}, check=False)
        for g in G.elements()}, check=True)
    return actZ, action_on_U, actQ, incl, proj


def test_les_trivial_action_nontrivial_connecting():
    act = trivial_action(cyclic_group(2), cyclic_group(4))
    actZ, actU, actQ, incl, proj = _mod4_extension(act)
    seq = les_group_cohomology(actZ, actU, actQ, incl, proj)
    assert seq["report"]["ok"], seq["report"]
    # the nontrivial hom C2 -> Z/2 does not lift to Z/4 with odd values,
    # so its connecting image in H^2 is nontrivial
    assert len(seq["pi2"]) == 2


def test_les_inversion_action():
    act = _inversion_action(4)
    actZ, actU, actQ, incl, proj = _mod4_extension(act)
    rep = les_group_cohomology(actZ, actU, actQ, incl, proj)["report"]
    assert rep["ok"], rep


def test_cochain_identities_verified():
    # the constructor checks the cosimplicial identities for small levels
    act = _inversion_action(3)
    C = cochain_cosimplicial(act, N=2)
    assert C.N == 2


def test_z2_coboundary_propagates_its_cochain():
    # C2 acting trivially: on C3 the coboundary of c(1) = 1 is found again
    # by the cocycle walk with the 2-cochain as its target; on C2 the
    # 2-cocycle with z2(1, 1) = 1 is the nontrivial class of H^2(C2, Z/2)
    G = cyclic_group(2)

    def walk(act, z2):
        # c with d^1(c) = d^2(c) z2^-1 d^0(c), i.e. z2 = c(g) (g.c(h)) c(gh)^-1
        C = cochain_cosimplicial(act, N=2)
        Z = act.carrier
        t = tuple(Z.inv(z2[gh]) for gh in C.tuples[2])
        c = _cocycle_walk(C, t, first=True)
        return c and {g: c[C.tuple_index[1][(g,)]] for g in G.elements()}

    act = trivial_action(G, cyclic_group(3))
    z2 = {(g, h): (g * h * 2) % 3 for g in G.elements() for h in G.elements()}
    c = walk(act, z2)
    assert c is not None
    assert all(z2[(g, h)] == (c[g] + c[h] - c[G.mul(g, h)]) % 3
               for g in G.elements() for h in G.elements())
    act2 = trivial_action(G, cyclic_group(2))
    z2 = {(g, h): g * h for g in G.elements() for h in G.elements()}
    assert walk(act2, z2) is None


# ---------------------------------------------------------------------------
# product checks on generators

def _action_all_pairs(act):
    G = act.G
    return hom_equal(act.maps[G.identity()], act.carrier.identity_hom) \
        and all(hom_equal(act.maps[a].compose(act.maps[b]),
                          act.maps[G.mul(a, b)])
                for a in G.elements() for b in G.elements())


def _cocycle_all_pairs(act, f):
    G, U = act.G, act.carrier
    return all(f[G.mul(g, h)] == U.mul(f[g], act.act(g, f[h]))
               for g in G.elements() for h in G.elements())


def _multiplications(G, U, mults):
    n = U.size()
    return {g: FiniteHom(U, U, {u: u * mults[g] % n for u in U.elements()})
            for g in G.elements()}


def test_action_and_cocycle_checks_on_generators_match_all_pairs():
    rng = random.Random(5)
    S3 = symmetric_group(3)
    swap = S3.perms.index((1, 0, 2))
    cases = []
    for m, n, a in [(2, 3, 2), (4, 5, 2), (6, 7, 3), (2, 8, 3), (2, 8, 7)]:
        G, U = cyclic_group(m), cyclic_group(n)
        cases.append((G, U, _multiplications(
            G, U, {g: pow(a, g, n) for g in G.elements()})))
    # S3 acting on C3 through the sign, and C2 on S3 by a transposition
    C3 = cyclic_group(3)
    cases.append((S3, C3, GroupAction.from_generator_images(S3, C3, {
        swap: FiniteHom(C3, C3, {0: 0, 1: 2, 2: 1}),
        S3.perms.index((1, 2, 0)): C3.identity_hom}).maps))
    cases.append((cyclic_group(2), S3, {
        0: S3.identity_hom, 1: inner_automorphism(S3, swap)}))
    seen = {"action": set(), "cocycle": set()}
    for G, U, maps in cases:
        act = GroupAction(G, U, maps)
        assert act.defect() is None and _action_all_pairs(act)
        cocycles = z1_enumerate(act)
        assert cocycles
        for f in cocycles:
            assert _cocycle_all_pairs(act, f) and _is_cocycle_table(act, f)
        for _ in range(12):
            # an action with one map exchanged for another automorphism
            broken = dict(maps)
            broken[rng.choice(G.elements())] = maps[rng.choice(
                G.elements())]
            other = GroupAction(G, U, broken, check=False)
            expected = _action_all_pairs(other)
            assert (other.defect() is None) == expected
            seen["action"].add(expected)
            # a cocycle with one changed value, or a random map
            f = dict(rng.choice(cocycles))
            if rng.random() < 0.5:
                f[rng.choice(G.elements())] = rng.choice(U.elements())
            else:
                f = {g: rng.choice(U.elements()) for g in G.elements()}
            expected = _cocycle_all_pairs(act, f)
            assert _is_cocycle_table(act, f) == expected, f
            seen["cocycle"].add(expected)
    assert seen == {"action": {True, False}, "cocycle": {True, False}}
    # the trivial group has no generators: f(e) = e is what is left
    C1, C3 = cyclic_group(1), cyclic_group(3)
    act = trivial_action(C1, C3)
    assert C1.generators == () and act.defect() is None
    assert _is_cocycle_table(act, {0: 0})
    assert not _is_cocycle_table(act, {0: 1})
    assert not _cocycle_all_pairs(act, {0: 1})
    flip = GroupAction(C1, C3, {0: FiniteHom(C3, C3, {0: 0, 1: 2, 2: 1})},
                       check=False)
    assert flip.defect() == "the identity acts nontrivially"


# ---------------------------------------------------------------------------
# one Z^1 walk, one seven-term engine

def _cyclic_action(m, n, a):
    """C_m acting on C_n by multiplication with powers of the unit a."""
    G, U = cyclic_group(m), cyclic_group(n)
    return GroupAction(G, U, _multiplications(
        G, U, {g: pow(a, g, n) for g in G.elements()}))


def test_cocycle_walk_matches_elementwise_filter_on_cochain_objects():
    # same cocycles in the same order as the filter over all of U^1, on
    # cyclic actions and on C2 acting on S3 by conjugation
    S3 = symmetric_group(3)
    swap = S3.perms.index((1, 0, 2))
    actions = [_cyclic_action(m, n, a) for m, n, a in
               [(1, 5, 1), (2, 3, 2), (2, 8, 7), (3, 7, 2), (4, 5, 2),
                (4, 10, 3), (6, 4, 3)]]
    actions.append(GroupAction(cyclic_group(2), S3, {
        0: S3.identity_hom, 1: inner_automorphism(S3, swap)}))
    for act in actions:
        C = cochain_cosimplicial(act, N=2)
        Z1 = z1_elements(C)
        assert Z1 == [u for u in C.objects[1].elements()
                      if cocycle_condition(C, u)], act.G.size()
        # one cocycle per cocycle table, in the order of the values on the
        # generator
        if act.G.size() > 1 and act.G.generators == (1,):
            assert Z1 == [tuple(f[g] for g in act.G.elements())
                          for f in z1_enumerate(act)]


def test_h0_h1_enumeration_matches_the_cochain_object():
    # |U|^|G| is past the cosimplicial path's limit, so h0_h1 enumerates
    # cocycles from their definition; pi0 and pi1_finite of the cochain
    # object give the same fixed points and class count
    for act, count in ((trivial_action(cyclic_group(16), cyclic_group(16)),
                        16), (_cyclic_action(8, 64, 7), 1)):
        res = h0_h1(act)
        assert res["mode"] == "enumeration"
        C = cochain_cosimplicial(act)
        assert sorted(res["h0"]) == sorted(t[0] for t in pi0(C))
        assert res["h1_count"] == pi1_finite(C)["count"] == count


def _h1_classes_by_walk_over_u(action):
    """The reference for ``h1_classes``: the orbit of each first remaining
    cocycle f as its images u^-1 f(g) (g.u) under every element u of U."""
    G, U = action.G, action.carrier
    key = lambda f: tuple(f[g] for g in G.elements())
    remaining = {key(f): f for f in z1_enumerate(action)}
    classes = []
    while remaining:
        f = next(iter(remaining.values()))
        orbit = {}
        for u in U.elements():
            fu = {g: U.mul(U.mul(U.inv(u), f[g]), action.act(g, u))
                  for g in G.elements()}
            orbit[key(fu)] = fu
        for k in orbit:
            remaining.pop(k, None)
        classes.append({"rep": f, "orbit": orbit, "distinguished": key(
            {g: U.identity() for g in G.elements()}) in orbit})
    return classes


def test_h1_orbits_under_generators_are_the_orbits_under_u():
    # seeded cyclic actions by units, and S3 carriers with two generators:
    # the same classes, in the same order, with the same orbits
    rng = random.Random(26)
    actions = []
    while len(actions) < 16:
        m, n = rng.randint(1, 6), rng.randint(2, 12)
        units = [a for a in range(1, n)
                 if gcd(a, n) == 1 and pow(a, m, n) == 1]
        actions.append(_cyclic_action(m, n, rng.choice(units)))
    S3, C3 = symmetric_group(3), cyclic_group(3)
    swap = S3.perms.index((1, 0, 2))
    actions += [
        GroupAction(cyclic_group(2), S3, {
            0: S3.identity_hom, 1: inner_automorphism(S3, swap)}),
        trivial_action(cyclic_group(3), S3),
        trivial_action(cyclic_group(2), S3),
        GroupAction.from_generator_images(S3, C3, {
            swap: FiniteHom(C3, C3, {0: 0, 1: 2, 2: 1}),
            S3.perms.index((1, 2, 0)): C3.identity_hom}),
    ]
    sizes = set()
    for act in actions:
        got = h1_classes(act)
        assert got == _h1_classes_by_walk_over_u(act)
        sizes.update(len(c["orbit"]) for c in got)
    assert 1 in sizes and max(sizes) > 2


def test_h1_of_the_trivial_c200_action_is_fast(tmp_path, capsys):
    # C_200 acting trivially on C_200: 200 cocycles, each its own class;
    # walking all of U for each took 10 s (2-core x86-64, Python 3.11)
    f = tmp_path / "c200.alg"
    f.write_text("[finite_group]\ncyclic 200\n[action]\ncarrier cyclic 200\n"
                 "generator 1 permutation %s\n"
                 % " ".join(map(str, range(200))))
    t0 = time.perf_counter()
    code = cli.main(["h1", str(f)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert "h1 classes: 200" in capsys.readouterr().out.splitlines()
    assert elapsed < 3.0, "took %.2f s, budget 3.0 s" % elapsed


def test_cocycle_walk_enumerates_only_the_unsolved_blocks(monkeypatch):
    # C8 acting on C64 through the unit 7 of order 8: |U^1| = 64^8, but
    # only the blocks of e and of the generator are enumerated
    act = _cyclic_action(8, 64, 7)
    C = cochain_cosimplicial(act, N=2, check=False)
    assert C.objects[1].size() == 64 ** 8
    monkeypatch.setattr(cosimpl, "ENUM_CAP", 64 ** 2)
    assert z1_elements(C) == [tuple(f[g] for g in act.G.elements())
                              for f in z1_enumerate(act)]
    # on the Klein four group the blocks of e and of both generators are
    # enumerated: 64^3 candidates exceed the cap, so the walk refuses to
    # start, and under a cap of 64^3 it finds Hom(V4, C64)
    V4 = TableGroup([[a ^ b for b in range(4)] for a in range(4)])
    K = cochain_cosimplicial(trivial_action(V4, cyclic_group(64)), N=2,
                             check=False)
    with pytest.raises(ValueError, match="U\\^1 too large to enumerate"):
        z1_elements(K)
    monkeypatch.setattr(cosimpl, "ENUM_CAP", 64 ** 3)
    assert z1_elements(K) == [(0, 0, 0, 0), (0, 0, 32, 32), (0, 32, 0, 32),
                              (0, 32, 32, 0)]


def _suite_les_instances(count, seed):
    """The arguments of les_group_cohomology on ``count`` instances of the
    les suite."""
    out = []
    original = cli.les_group_cohomology

    def record(*args):
        out.append(args)
        return original(*args)
    cli.les_group_cohomology = record
    try:
        cli.suite_les_finite(random.Random(seed), count)
    finally:
        cli.les_group_cohomology = original
    return out


def _brute_h2_image(actZ, actQ, incl, proj, actU):
    """The number of classes in H^2(G, Z) hit by the connecting map,
    from all 1-cochains of Z and all classes of H^1(Q)."""
    G, Z, U = actZ.G, actZ.carrier, actU.carrier
    Ge = G.elements()
    pairs = [(g, h) for g in Ge for h in Ge]

    def coboundary(c):
        return tuple(Z.mul(Z.mul(c[g], actZ.act(g, c[h])),
                           Z.inv(c[G.mul(g, h)])) for g, h in pairs)
    B = {coboundary(dict(zip(Ge, vals)))
         for vals in iproduct(Z.elements(), repeat=len(Ge))}
    lift = {}
    for u in U.elements():
        lift.setdefault(proj[u], u)
    incl_inv = {incl[z]: z for z in Z.elements()}
    images = set()
    for c in h1_classes(actQ):
        u = {g: lift[c["rep"][g]] for g in Ge}
        z2 = [incl_inv[U.mul(U.mul(u[g], actU.act(g, u[h])),
                             U.inv(u[G.mul(g, h)]))] for g, h in pairs]
        images.add(frozenset(tuple(Z.mul(a, b) for a, b in zip(z2, w))
                             for w in B))
    return len(images)


def _les_instance(n, d, a):
    """C_d -> C_n -> C_(n/d), with C_m acting through the unit a of order
    m, as the les suite builds it."""
    m = next(k for k in range(1, n + 1) if pow(a, k, n) == 1)
    q = n // d
    return (_cyclic_action(m, d, a % d), _cyclic_action(m, n, a),
            _cyclic_action(m, q, a % q), {z: z * q for z in range(d)},
            {u: u % q for u in range(n)})


def test_les_nodes_match_the_direct_references():
    # 200 suite instances, and two where six classes of H^1(Q) share the
    # two nontrivial connecting classes in H^2(Z)
    brute = 0
    instances = _suite_les_instances(200, 8)
    for actZ, actU, actQ, incl, proj in instances + [
            _les_instance(36, 3, 7), _les_instance(36, 3, 31)]:
        seq = les_group_cohomology(actZ, actU, actQ, incl, proj)
        assert seq["report"]["ok"]
        sizes = [len(node) for node in seq["pi0"] + seq["pi1"]] + [
            len(seq["pi2"])]
        assert sizes[:6] == [len(h0_fixed_points(a))
                             for a in (actZ, actU, actQ)] + [
            len(h1_classes(a)) for a in (actZ, actU, actQ)]
        if actZ.carrier.size() ** actZ.G.size() <= 4096:
            brute += 1
            assert sizes[6] == _brute_h2_image(actZ, actQ, incl, proj, actU)
    assert len(instances) == 200 and brute >= 50
    assert seq["delta1"] == {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2}


def test_les_rejects_non_equivariant_and_non_central_extensions():
    # Z = C3 inside C6 with C2 inverting C6 but acting trivially on Z
    G, C6, C3, C2 = cyclic_group(2), cyclic_group(6), cyclic_group(3), \
        cyclic_group(2)
    actU = _cyclic_action(2, 6, 5)
    incl = {z: 2 * z for z in C3.elements()}
    proj = {u: u % 2 for u in C6.elements()}
    with pytest.raises(ValueError, match="do not commute"):
        les_group_cohomology(trivial_action(G, C3), actU,
                             trivial_action(G, C2), incl, proj)
    # with C3 inverted too the same extension is fine
    seq = les_group_cohomology(_cyclic_action(2, 3, 2), actU,
                               trivial_action(G, C2), incl, proj)
    assert seq["report"]["ok"]
    # A3 in S3 is normal but not central
    S3, C1 = symmetric_group(3), cyclic_group(1)
    r = S3.perms.index((1, 2, 0))
    a3 = {0: 0, 1: r, 2: S3.mul(r, r)}
    sign = {u: int(u not in a3.values()) for u in S3.elements()}
    with pytest.raises(ValueError, match="Z not central at level 0"):
        les_group_cohomology(trivial_action(C1, C3), trivial_action(C1, S3),
                             trivial_action(C1, C2), a3, sign)
    # pi^2 needs level 2
    one = C2.identity_hom
    X = CosimplicialGroup([C2] * 2, {1: [one] * 2}, {0: [one]}, check=False)
    with pytest.raises(ValueError, match="needs levels 0..2"):
        les_central_finite(X, X, X, [C2.identity_hom] * 2,
                           [C2.identity_hom] * 2)


def _failed_clauses(seq):
    return {name for name, ok in seq["clauses"].items() if not ok}


def test_les_faults_fail_named_clauses(monkeypatch):
    # faults injected into the engine's inputs on les-suite instances:
    # with no 2-cochain a coboundary, no obstruction has the trivial
    # label, so exactness at pi1(Q) fails everywhere; with the first two
    # pi^1 classes of every object merged, 58 of the 120 instances fail
    # exactness at pi0(Q) and one the orbit clause; with each pi^0 cut to
    # one element, 58 fail exactness at pi1(Z)
    instances = _suite_les_instances(120, 1)
    for args in instances:
        seq = les_group_cohomology(*args)
        assert seq["report"]["ok"] and not _failed_clauses(seq)
        assert set(seq["provenance"].values()) == {"enumerated"}
        assert len(seq["clauses"]) == 7
    walk = cosimpl._cocycle_walk

    def no_coboundary(U, target=None, first=False):
        return walk(U) if target is None else (None if first else [])
    monkeypatch.setattr(cosimpl, "_cocycle_walk", no_coboundary)
    for args in instances:
        seq = les_group_cohomology(*args)
        assert _failed_clauses(seq) == {"exact at pi1(Q)"}
        assert not seq["report"]["ok"]
        assert ("FAIL", "certificate: exact at pi1(Q)") in \
            seq["report"]["clauses"]
    monkeypatch.setattr(cosimpl, "_cocycle_walk", walk)
    pi1 = cosimpl.pi1_finite

    def merged(X):
        p = pi1(X)
        if p["count"] < 2:
            return p
        c0, c1 = p["classes"][:2]
        classes = [dict(c0, orbit=c0["orbit"] | c1["orbit"])] + \
            p["classes"][2:]
        return dict(p, classes=classes, count=len(classes), index={
            v: k - (k > 0) for v, k in p["index"].items()})
    monkeypatch.setattr(cosimpl, "pi1_finite", merged)
    failed = collections.Counter(
        name for args in instances
        for name in _failed_clauses(les_group_cohomology(*args)))
    assert failed == {"exact at pi0(Q)": 58,
                      "pi1(Z)-orbits are the fibers at pi1(U)": 1}
    monkeypatch.setattr(cosimpl, "pi1_finite", pi1)
    pi0 = cosimpl.pi0
    monkeypatch.setattr(cosimpl, "pi0", lambda X: pi0(X)[:1])
    failed = collections.Counter(
        name for args in instances
        for name in _failed_clauses(les_group_cohomology(*args)))
    assert failed == {"exact at pi1(Z)": 58}


def test_pi1_index_numbers_each_cocycle_by_its_orbit():
    # on double-coset objects and on cochain objects of group actions,
    # every cocycle is indexed, by the class whose orbit holds it
    rng = random.Random(5)
    objects = [cosimpl.cogenerate(cli._coset_object(
        *cli._random_double_coset(rng, 20000, 2)), N=2) for _ in range(6)]
    objects += [cochain_cosimplicial(_cyclic_action(m, n, a), N=2)
                for m, n, a in [(2, 3, 2), (2, 8, 7), (4, 10, 3), (6, 4, 3)]]
    for X in objects:
        p = cosimpl.pi1_finite(X)
        Z1 = z1_elements(X)
        assert sorted(p["index"]) == sorted(Z1)
        for v in Z1:
            assert [k for k, c in enumerate(p["classes"])
                    if v in c["orbit"]] == [p["index"][v]]
    assert max(cosimpl.pi1_finite(X)["count"] for X in objects) > 1


def test_gcohom_checks_raise_under_optimization():
    # input checks raise ValueError and broken identities RuntimeError,
    # so python -O keeps them
    root = pathlib.Path(__file__).resolve().parent.parent
    child = (
        "import json\n"
        "from cohw import gcohom\n"
        "from cohw.cosimpl import FiniteHom, cyclic_group\n"
        "from cohw.gcohom import GroupAction, h1_classes, serre_twist, "
        "trivial_action\n"
        "C2, C3 = cyclic_group(2), cyclic_group(3)\n"
        "inv = FiniteHom(C3, C3, {0: 0, 1: 2, 2: 1})\n"
        "def raised(call):\n"
        "    try:\n"
        "        call()\n"
        "    except Exception as e:\n"
        "        return [type(e).__name__, str(e)]\n"
        "out = {}\n"
        "out['action'] = raised(lambda: GroupAction(\n"
        "    C2, C3, {0: inv, 1: C3.identity_hom}, check=True))\n"
        "out['maps'] = raised(lambda: GroupAction(C2, C3, {0: inv}))\n"
        "act = trivial_action(C2, C3)\n"
        "out['twist'] = raised(lambda: serre_twist(act, {0: 0, 1: 1}))\n"
        "gcohom.z1_enumerate = lambda a: [{0: 0, 1: 1}]\n"
        "out['orbit'] = raised(lambda: h1_classes(act))\n"
        "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == {
        "action": ["ValueError", "the identity acts nontrivially"],
        "maps": ["ValueError", "need a map per element"],
        "twist": ["ValueError", "twisting datum must be a cocycle"],
        "orbit": ["RuntimeError", "H^1 orbit left Z^1 (bug)"],
    }
