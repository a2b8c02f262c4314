import collections
import itertools
import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

import basekit.group as group_module
from basekit import Perm, PermGroup, build_chain
from basekit.bases import SearchBudget, height, irredundant_base_sizes, minimal_base_sizes
from basekit.constructions import cyclic_regular, wreath_coset_action

import bruteforce as bf


def sym(n):
    gens = [Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))]
    return PermGroup(n, gens)


def random_two_gen(n, seed):
    rng = random.Random(seed)
    gens = []
    for _ in range(2):
        imgs = list(range(n))
        rng.shuffle(imgs)
        gens.append(Perm(imgs))
    return PermGroup(n, gens)


SMALL_GROUPS = [
    ("trivial", PermGroup(4)),
    ("sym3", sym(3)),
    ("sym4", sym(4)),
    ("sym5", sym(5)),
    ("c6", PermGroup(6, [Perm.from_cycles(6, tuple(range(6)))])),
    ("klein", PermGroup(4, [Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])),
    ("alt4", PermGroup(4, [Perm.from_cycles(4, (0, 1, 2)), Perm.from_cycles(4, (1, 2, 3))])),
] + [(f"rand{z}", random_two_gen(7, z)) for z in range(6)]


@pytest.mark.parametrize("name,G", SMALL_GROUPS, ids=[n for n, _ in SMALL_GROUPS])
def test_order_matches_bruteforce_closure(name, G):
    if G.is_trivial():
        assert G.order() == 1
        return
    elements = bf.closure([g.to_list() for g in G.generators], limit=6000)
    assert G.order() == len(elements)


def test_symmetric_orders():
    assert sym(4).order() == 24
    assert sym(5).order() == 120
    assert PermGroup(4).order() == 1


def test_orbit_examples():
    assert sym(3).orbit(0) == {0, 1, 2}
    assert PermGroup(4).orbit(2) == {2}
    G = PermGroup(5, [Perm([1, 0, 2, 3, 4]), Perm([0, 1, 3, 2, 4])])
    assert G.orbit(0) == {0, 1}
    assert G.orbit(4) == {4}
    assert G.orbits() == [[0, 1], [2, 3], [4]]
    assert not G.is_transitive()
    assert sym(3).is_transitive()


@pytest.mark.parametrize("name,G", SMALL_GROUPS, ids=[n for n, _ in SMALL_GROUPS])
def test_orbits_match_bruteforce(name, G):
    if G.is_trivial():
        return
    elements = bf.closure([g.to_list() for g in G.generators], limit=6000)
    for x in range(G.degree):
        assert G.orbit(x) == bf.orbit(elements, x)


def test_contains():
    G = sym(4)
    assert G.contains(Perm.from_cycles(4, (0, 3, 2)))
    alt = PermGroup(4, [Perm.from_cycles(4, (0, 1, 2)), Perm.from_cycles(4, (1, 2, 3))])
    assert not alt.contains(Perm.from_cycles(4, (0, 1)))
    g1, g2 = alt.generators
    assert alt.contains(g1 * g2)
    with pytest.raises(ValueError):
        G.contains(Perm.identity(5))


def test_contains_takes_image_sequences():
    G = sym(4)
    alt = PermGroup(4, [[1, 2, 0, 3], [0, 2, 3, 1]])
    assert G.contains([1, 0, 2, 3]) and not alt.contains([1, 0, 2, 3])
    assert alt.contains((1, 2, 0, 3)) and alt.contains(np.array([0, 2, 3, 1]))
    assert PermGroup(3).contains([0, 1, 2])
    for bad in ([0, 0, 1, 2], [0.0, 1.0, 2.0, 3.0], [], [0, 1, 2]):
        with pytest.raises(ValueError):
            G.contains(bad)


def test_trivial_group_contains_only_identity():
    G = PermGroup(3)
    assert G.contains(Perm.identity(3))
    assert not G.contains(Perm([1, 0, 2]))


@pytest.mark.parametrize("name,G", SMALL_GROUPS, ids=[n for n, _ in SMALL_GROUPS])
def test_chain_invariants(name, G):
    chain = G.stabilizer_chain()
    base = chain.base
    # level generators fix all earlier base points
    for i in range(len(chain.levels)):
        for g in chain.level_generators(i):
            assert all(g[b] == b for b in base[:i])
    # orbit sizes multiply to the group order
    order = 1
    for s in chain.orbit_sizes():
        order *= s
    assert order == G.order()
    # every generator sifts to the identity
    for g in G.generators:
        residue, lvl = chain.sift(g)
        assert residue.is_identity() and lvl == len(chain.levels)
    # each transversal is a Schreier vector of the level's basic orbit
    for level in chain.levels:
        gens = level.gens
        assert next(iter(level.transversal)) == level.point
        assert level.transversal[level.point] is None
        for x, edge in level.transversal.items():
            if x != level.point:
                parent, i = edge
                assert gens[i][parent] == x
            assert level.element(x)[level.point] == x
        assert set(level.transversal) == bf.orbit_under([g.to_list() for g in gens], level.point)


@pytest.mark.parametrize("name,G", SMALL_GROUPS, ids=[n for n, _ in SMALL_GROUPS])
def test_chain_elements_enumeration(name, G):
    if G.order() > 200:
        return
    listed = {p for p in G.stabilizer_chain().elements()}
    assert len(listed) == G.order()
    if not G.is_trivial():
        elements = bf.closure([g.to_list() for g in G.generators])
        assert {tuple(p.to_list()) for p in listed} == elements


def test_chain_determinism():
    for _, G in SMALL_GROUPS[:6]:
        a = build_chain(G.degree, G.generators)
        b = build_chain(G.degree, G.generators)
        assert a.base == b.base
        for la, lb in zip(a.levels, b.levels):
            assert list(la.transversal.items()) == list(lb.transversal.items())


def test_base_prefix_retained_without_descent():
    G = PermGroup(5, [Perm([1, 0, 2, 3, 4])])  # moves only 0,1
    chain = G.stabilizer_chain((4, 0))
    assert chain.base[:2] == (4, 0)
    assert chain.orbit_sizes()[0] == 1
    assert chain.order() == 2


def test_base_prefix_validation():
    G = sym(3)
    with pytest.raises(ValueError):
        G.stabilizer_chain((0, 0))
    with pytest.raises(ValueError):
        G.stabilizer_chain((7,))


def test_pointwise_stabilizer_examples():
    # regular group: any single point has trivial stabilizer
    c5 = PermGroup(5, [Perm.from_cycles(5, tuple(range(5)))])
    assert c5.point_stabilizer(3).order() == 1
    # last point of a symmetric group is forced
    assert sym(4).pointwise_stabilizer({0, 1, 2}).order() == 1
    s = sym(5).pointwise_stabilizer({0, 1})
    assert s.order() == 6
    for g in s.generators:
        assert g[0] == 0 and g[1] == 1
        assert sym(5).contains(g)


@pytest.mark.parametrize("name,G", SMALL_GROUPS, ids=[n for n, _ in SMALL_GROUPS])
def test_pointwise_stabilizer_matches_bruteforce(name, G):
    if G.is_trivial():
        return
    rng = random.Random(11)
    elements = bf.closure([g.to_list() for g in G.generators], limit=6000)
    for _ in range(6):
        pts = rng.sample(range(G.degree), rng.randint(1, min(3, G.degree)))
        S = G.pointwise_stabilizer(pts)
        assert S.order() == len(bf.stabilizer(elements, pts))
        for g in S.generators:
            assert all(g[x] == x for x in pts)
            assert G.contains(g)


@pytest.mark.parametrize("name,G", SMALL_GROUPS, ids=[n for n, _ in SMALL_GROUPS])
def test_orbit_stabilizer(name, G):
    for x in range(G.degree):
        assert len(G.orbit(x)) * G.point_stabilizer(x).order() == G.order()


def test_order_hint_checked():
    with pytest.raises(RuntimeError):
        PermGroup(3, [Perm([1, 0, 2])], order_hint=3).order()
    assert PermGroup(3, [Perm([1, 0, 2])], order_hint=2).order() == 2


@pytest.mark.parametrize("bad", [3.0, True, "3", 0, -1])
def test_degree_is_a_positive_int(bad):
    # 3.0 used to be accepted and fail later with a TypeError
    with pytest.raises(ValueError):
        PermGroup(bad, [Perm([1, 0, 2])])
    with pytest.raises(ValueError):
        PermGroup(bad, [])


@pytest.mark.parametrize("bad", [0, -2, 4.0, True, "2"])
def test_order_hint_is_none_or_a_positive_int(bad):
    # 0, -2 and 4.0 used to fail only later, as a RuntimeError
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        PermGroup(3, [Perm([1, 0, 2])], order_hint=bad)
    assert PermGroup(np.int64(3), [Perm([1, 0, 2])], order_hint=np.int64(2)).order() == 2


def test_identity_never_stored():
    G = PermGroup(3, [Perm.identity(3), Perm([1, 0, 2]), Perm([1, 0, 2])])
    assert len(G.generators) == 1


# -- stabilizers derived from the parent's chain --------------------------


def count_chain_builds(monkeypatch):
    """Record every new chain: ``()`` for a root ``build_chain``, the prefix for a rebase."""
    calls = []
    build, rebase = group_module.build_chain, group_module._rebase

    def counting_build(*args, **kwargs):
        calls.append(())
        return build(*args, **kwargs)

    def counting_rebase(source, prefix, order):
        calls.append(prefix)
        return rebase(source, prefix, order)

    monkeypatch.setattr(group_module, "build_chain", counting_build)
    monkeypatch.setattr(group_module, "_rebase", counting_rebase)
    return calls


def count_random_phases(monkeypatch):
    """Record the prefix of every rebase that sifts random elements."""
    calls = []
    original = group_module._uniform_elements

    def counting(source, prefix, order):
        # a generator: the prefix is recorded when the first element is drawn
        calls.append(prefix)
        yield from original(source, prefix, order)

    monkeypatch.setattr(group_module, "_uniform_elements", counting)
    return calls


def test_stabilizer_of_the_base_point_shares_the_suffix(monkeypatch):
    G = sym(5)
    chain = G.stabilizer_chain()
    calls = count_chain_builds(monkeypatch)
    H = G.point_stabilizer(chain.base[0])
    assert calls == []
    assert H._view[1] is None and H.stabilizer_chain().levels[0] is chain.levels[1]
    assert H.order() == 24 and H.orbits() == [[0], [1, 2, 3, 4]]


def test_stabilizer_in_the_basic_orbit_is_conjugated(monkeypatch):
    G = sym(6)
    calls = count_chain_builds(monkeypatch)
    G.order()
    H = G.point_stabilizer(3)
    K = H.point_stabilizer(5)  # composes the conjugators
    assert len(calls) == 1  # the root chain only
    assert H._view[1] is not None and K._view[1] is not None
    assert H._view[0].levels[0] is G.stabilizer_chain().levels[1]
    assert (H.order(), K.order()) == (120, 24)
    assert K.orbits() == [[0, 1, 2, 4], [3], [5]]
    for g in K.generators:
        assert g[3] == 3 and g[5] == 5 and G.contains(g) and H.contains(g)
    assert K.contains(Perm.from_cycles(6, (0, 4)))
    assert not K.contains(Perm.from_cycles(6, (0, 3)))
    assert not H.contains(Perm.from_cycles(6, (0, 3)))
    # the derived group's own chain is built on demand and agrees
    assert K.stabilizer_chain().order() == 24 and len(calls) == 2


def test_own_chain_of_a_conjugated_view_is_built_once(monkeypatch):
    G = sym(6)
    G.order()
    # twin views of one group: L answers before any rebuild, K after its own
    K, L = (G.point_stabilizer(3).point_stabilizer(5) for _ in range(2))
    assert K._view[1] is not None and L._view[1] is not None
    probes = [Perm.from_cycles(6, (0, 4)), Perm.from_cycles(6, (0, 3)),
              Perm.from_cycles(6, (0, 1, 2, 4)), Perm.from_cycles(6, (1, 5))]

    def answers(H):
        return ([H.contains(p) for p in probes], H.orbits(),
                [H.point_stabilizer(x).order() for x in range(6)])

    calls = count_chain_builds(monkeypatch)
    chain = K.stabilizer_chain()
    assert len(calls) == 1 and chain.order() == K.order() == 24
    # the view is now the group's own chain, and a second call reuses it
    assert K._view == (chain, None, None) and K.stabilizer_chain() is chain
    assert len(calls) == 1
    before = answers(L)
    assert answers(K) == before
    assert before[0] == [True, False, True, False]
    assert before[1] == [[0, 1, 2, 4], [3], [5]]


def test_stabilizer_off_the_first_orbit_rebuilds(monkeypatch):
    # S3 x S3 on {0,1,2} and {3,4,5}: point 4 lies outside level 0's orbit,
    # so the chain is rebased on it; no root chain is built
    G = PermGroup(6, [Perm.from_cycles(6, (0, 1)), Perm.from_cycles(6, (0, 1, 2)),
                      Perm.from_cycles(6, (3, 4)), Perm.from_cycles(6, (3, 4, 5))])
    G.order()
    calls = count_chain_builds(monkeypatch)
    H = G.point_stabilizer(4)
    assert calls == [(4,)]
    assert H.order() == 12 and H.orbits() == [[0, 1, 2], [3, 5], [4]]
    # 5 shares 4's orbit: the rebase on 4 is read, through its transversal
    K = G.point_stabilizer(5)
    assert calls == [(4,)]
    assert K._view[0].levels[0] is H._view[0].levels[0] and K._view[1] is not None
    assert K.order() == 12 and K.orbits() == [[0, 1, 2], [3, 4], [5]]
    # the fold goes point by point: 0 is the base point, then 3 and 4 each
    # lie off the first basic orbit of the stabilizer before them
    S = G.pointwise_stabilizer([0, 3, 4])
    assert calls == [(4,), (3,), (4,)]
    assert S.order() == 2 and S.orbits() == [[0], [1, 2], [3], [4], [5]]
    # the same fold again reads every rebase it made
    assert G.pointwise_stabilizer([4, 3, 0]).order() == 2
    assert calls == [(4,), (3,), (4,)]
    # a point the group fixes is skipped
    assert H.point_stabilizer(4) is H


def test_one_rebase_serves_an_orbit_from_every_view(monkeypatch):
    # S4 x S3 on {0..3} and {4,5,6}: the stabilizers of 2 and of 3 read one
    # chain through different conjugators, and {4,5,6} lies off its first
    # basic orbit.  Every point of that orbit, asked from either view, reads
    # the one rebase made for the orbit; asking again makes none
    G = PermGroup(7, [Perm.from_cycles(7, (0, 1, 2, 3)), Perm.from_cycles(7, (0, 1)),
                      Perm.from_cycles(7, (4, 5, 6)), Perm.from_cycles(7, (4, 5))])
    H, K = G.point_stabilizer(2), G.point_stabilizer(3)
    assert H._view[0].levels[0] is K._view[0].levels[0]
    assert H._view[1] is not None and K._view[1] is not None and H._view[1] != K._view[1]
    calls = count_chain_builds(monkeypatch)
    first = [(L, x, L.point_stabilizer(x)) for L in (H, K) for x in (4, 5, 6)]
    assert len(calls) == 1 and calls[0] in [(4,), (5,), (6,)]
    again = [L.point_stabilizer(x) for L in (H, K) for x in (4, 5, 6)]
    assert len(calls) == 1
    for (L, x, Lx), Mx in zip(first, again):
        fixed = 2 if L is H else 3
        assert Lx.order() == Mx.order() == 12
        assert Lx.orbits() == Mx.orbits() == sorted(
            [[p for p in range(4) if p != fixed], [fixed], [p for p in (4, 5, 6) if p != x], [x]])
        for g in Lx.generators:
            assert g[x] == x and g[fixed] == fixed and L.contains(g)


def test_every_level_of_a_view_chain_moves_its_base_point():
    # every level is opened at a point its new strong generator moves, and a
    # rebased view starts below its prefix, so level 0 of a view is its first
    # basic orbit: root, derived (suffix or conjugated) and rebased views
    s3xs3 = PermGroup(6, [Perm.from_cycles(6, (0, 1)), Perm.from_cycles(6, (0, 1, 2)),
                          Perm.from_cycles(6, (3, 4)), Perm.from_cycles(6, (3, 4, 5))])
    routes = set()
    for name, G in SMALL_GROUPS[1:] + [("s3xs3", s3xs3)]:
        root = G.stabilizer_chain()
        groups = [G] + [G.pointwise_stabilizer(S) for r in (1, 2, 3)
                        for S in itertools.combinations(range(G.degree), r)]
        for H in groups:
            chain, u, _ = H._get_view()
            assert all(len(level.transversal) > 1 for level in chain.levels), name
            if chain.levels and not any(chain.levels[0] is level for level in root.levels):
                routes.add("rebased")
            elif H is not G:
                routes.add("derived" if u is None else "conjugated")
    assert routes == {"derived", "conjugated", "rebased"}


@pytest.mark.parametrize("make", [
    lambda: sym(5),
    lambda: sym(5).point_stabilizer(0),
    lambda: sym(5).point_stabilizer(3),
    lambda: sym(5).point_stabilizer(3).point_stabilizer(1),
    lambda: PermGroup(5),
], ids=["plain", "suffix", "conjugated", "conjugated-twice", "trivial"])
def test_point_stabilizer_range_checks(make):
    G = make()
    for bad in (-1, G.degree):
        with pytest.raises(ValueError):
            G.point_stabilizer(bad)
        with pytest.raises(ValueError):
            G.pointwise_stabilizer([0, bad])


def _class_labels_oracle(G):
    elements = bf.closure([g.to_list() for g in G.generators], limit=6000) if G.generators \
        else {tuple(range(G.degree))}
    stabs = [frozenset(e for e in elements if e[x] == x) for x in range(G.degree)]
    return [min(y for y in range(G.degree) if stabs[y] == stabs[x]) for x in range(G.degree)]


CLASS_LABEL_GROUPS = SMALL_GROUPS + [
    ("s3xs3", PermGroup(6, [Perm.from_cycles(6, (0, 1, 2)), Perm.from_cycles(6, (1, 2)),
                            Perm.from_cycles(6, (3, 4, 5)), Perm.from_cycles(6, (4, 5))])),
    ("klein-fixed", PermGroup(6, [Perm([0, 2, 1, 4, 3, 5]), Perm([0, 3, 4, 1, 2, 5])])),
    ("sym6-stab3", sym(6).point_stabilizer(3)),
    ("sym6-stab3-stab5", sym(6).point_stabilizer(3).point_stabilizer(5)),
    ("c2wrc3-stab4", PermGroup(6, [Perm.from_cycles(6, (0, 1)), Perm.from_cycles(6, (0, 2, 4), (1, 3, 5))])
     .point_stabilizer(4)),
    # moved orbits {0,1,2}, {4,5,6,7}, {8,9}; points 3 and 10 fixed
    ("three-orbits-fixed", PermGroup(11, [Perm.from_cycles(11, (0, 1, 2)),
                                          Perm.from_cycles(11, (0, 1), (4, 5, 6, 7)),
                                          Perm.from_cycles(11, (4, 6), (8, 9))])),
    # S4 x S3 on {0..3} and {4,5,6}: the stabilizer of 2 is conjugated, and
    # its orbit {4,5,6} lies off its first basic orbit
    ("s4xs3-stab2", PermGroup(7, [Perm.from_cycles(7, (0, 1, 2, 3)), Perm.from_cycles(7, (0, 1)),
                                  Perm.from_cycles(7, (4, 5, 6)), Perm.from_cycles(7, (4, 5))])
     .point_stabilizer(2)),
    # S3 acting alike on the orbits {0,2,4} and {5,3,1}: x and 5 - x share a
    # stabilizer, so each class spans both orbits, and the generators carry
    # the class {2,3} to {4,1}, whose smallest point comes second
    ("interleaved-diagonal-s3", PermGroup(6, [Perm.from_cycles(6, (0, 2, 4), (5, 3, 1)),
                                              Perm.from_cycles(6, (2, 4), (3, 1))])),
]


@pytest.mark.parametrize("name,G", CLASS_LABEL_GROUPS, ids=[n for n, _ in CLASS_LABEL_GROUPS])
def test_stabilizer_class_labels_match_bruteforce(name, G):
    assert G.stabilizer_class_labels().tolist() == _class_labels_oracle(G)


def test_stabilizer_class_labels_are_linear_on_a_regular_group():
    # one class holds the whole orbit, and it is labelled once, not per point
    G = cyclic_regular(100003)
    start = time.perf_counter()
    labels = G.stabilizer_class_labels()
    assert time.perf_counter() - start < 1
    assert not labels.any()


def test_stabilizer_class_labels_build_one_chain_per_off_orbit(monkeypatch):
    G = sym(6)
    # S3 x S3: the orbit {3,4,5} lies off the first basic orbit
    K = PermGroup(6, [Perm.from_cycles(6, (0, 1, 2)), Perm.from_cycles(6, (1, 2)),
                      Perm.from_cycles(6, (3, 4, 5)), Perm.from_cycles(6, (4, 5))])
    G.order(), K.order()
    calls = count_chain_builds(monkeypatch)
    G.stabilizer_class_labels()
    assert calls == []
    K.stabilizer_class_labels()
    assert calls == [(3,)]


# -- the rebase: stabilizer_chain(prefix) --------------------------------


def _rebase_items(chain):
    return chain.base, [list(level.transversal.items()) for level in chain.levels]


@pytest.mark.parametrize("wrong", [40319, 2 * 40320], ids=["too-small", "too-large"])
@pytest.mark.parametrize("root", [False, True], ids=["fresh", "with-root-chain"])
def test_rebase_with_a_wrong_order_raises_promptly(wrong, root):
    # |S8| = 40320; neither wrong order is a product of orbit sizes (each
    # at most 8, and 40319 = 23 * 1753), so no partial chain stops on it.
    # With the true root chain in place, the random phase runs out of
    # useful draws and the deterministic verification must raise.
    G = sym(8)
    H = PermGroup(8, G.generators)
    H._order = wrong
    if root:
        H._view = (G.stabilizer_chain(), None, None)
    start = time.perf_counter()
    with pytest.raises(RuntimeError):
        H.stabilizer_chain((3,))
    assert time.perf_counter() - start < 2


def test_rebase_is_deterministic(monkeypatch):
    phases = count_random_phases(monkeypatch)
    a = sym(8).stabilizer_chain((5, 2))
    b = sym(8).stabilizer_chain((5, 2))
    assert phases == [(5, 2), (5, 2)]
    assert _rebase_items(a) == _rebase_items(b)
    assert a.order() == 40320


def test_rebase_ignores_the_global_random_stream(monkeypatch):
    phases = count_random_phases(monkeypatch)
    G = sym(8)
    random.seed(1)
    a = G.stabilizer_chain((7,))
    random.seed(2)
    b = G.stabilizer_chain((7,))
    assert phases == [(7,), (7,)]
    assert _rebase_items(a) == _rebase_items(b)


def test_rebase_leaves_the_global_random_state_alone(monkeypatch):
    phases = count_random_phases(monkeypatch)
    G = sym(8)
    G.order()
    before = random.getstate()
    G.stabilizer_chain((3,))
    assert phases == [(3,)]
    assert random.getstate() == before


def test_rebase_of_a_derived_group_keeps_idle_prefix_points(monkeypatch):
    # a conjugated stabilizer of S6, rebased on a point it fixes and then on
    # points it moves: random elements are read off its own chain
    phases = count_random_phases(monkeypatch)
    H = sym(6).point_stabilizer(3)
    assert H._view[1] is not None
    chain = H.stabilizer_chain((3, 0, 1))
    assert chain.base[:3] == (3, 0, 1)
    assert chain.orbit_sizes()[0] == 1
    assert chain.order() == 120
    assert phases == [(3, 0, 1)]
    for g in H.generators:
        assert chain.contains(g)
    assert not chain.contains(Perm.from_cycles(6, (0, 3)))


@pytest.mark.parametrize("derived", [False, True], ids=["root", "derived"])
def test_completed_rebase_caches_only_its_base_points(derived):
    # a rebase keeps no transversal element its completion formed, and its
    # random draws leave the caches of the chain they read as they were
    # the derived case rebases a conjugated view's chain, as the search does
    G = sym(8)
    H = G.point_stabilizer(3) if derived else G
    source = H._get_view()[0]
    before = [(list(level._elements), list(level._inverses)) for level in source.levels]
    chain = group_module._rebase(source, (5, 2), H.order()) if derived else H.stabilizer_chain((5, 2))
    assert chain.order() == H.order()
    for level in chain.levels:
        assert list(level._elements) == list(level._inverses) == [level.point]
        assert level._elements[level.point].is_identity()
    assert [(list(level._elements), list(level._inverses)) for level in source.levels] == before
    for level in chain.levels:
        for x in level.transversal:
            assert level.element(x)[level.point] == x


def test_rebase_of_a_conjugated_view_keeps_no_generators(monkeypatch):
    # S4 x S3 on {0..3} and {4,5,6}: the stabilizer of 2 is a conjugated
    # view, and 5 lies off its first basic orbit.  The search route rebases
    # the view's own chain and shares the view's conjugator, so no
    # conjugated generator is made
    G = PermGroup(7, [Perm.from_cycles(7, (0, 1, 2, 3)), Perm.from_cycles(7, (0, 1)),
                      Perm.from_cycles(7, (4, 5, 6)), Perm.from_cycles(7, (4, 5))])
    H = G.point_stabilizer(2)
    assert H._view[1] is not None and H._generators is None
    calls = count_chain_builds(monkeypatch)
    K = H.point_stabilizer(5)
    assert len(calls) == 1 and calls[0] != ()
    assert H._generators is None
    assert K._view[1] is H._view[1] and K._view[2] is H._view[2]
    assert K.order() == 12 and K.orbits() == [[0, 1, 3], [2], [4, 6], [5]]


def test_public_rebase_of_a_conjugated_view_is_a_chain_of_the_view():
    # stabilizer_chain builds the view's own chain first, then rebases it;
    # a twin view whose generators were read first gets the same chain
    H, stored = sym(8).point_stabilizer(3), sym(8).point_stabilizer(3)
    assert H._view[1] is not None and H._generators is None
    stored.generators
    chain = H.stabilizer_chain((5, 2))
    assert _rebase_items(chain) == _rebase_items(stored.stabilizer_chain((5, 2)))
    assert chain.base[:2] == (5, 2) and chain.order() == 5040
    for g in H.generators:
        assert chain.contains(g)
    assert not chain.contains(Perm.from_cycles(8, (0, 3)))


# -- level labels and suffix orders of finished chains ---------------------


def _finished_chains(G):
    """The root chain of ``G``, its rebases on one and two points, and the
    chains read by the conjugated views among its stabilizers of up to two
    points, after each of those views has read its orbit partition."""
    chains = [G.stabilizer_chain()]
    chains += [G.stabilizer_chain(S) for r in (1, 2)
               for S in itertools.permutations(range(G.degree), r)]
    for r in (1, 2):
        for S in itertools.combinations(range(G.degree), r):
            H = G.pointwise_stabilizer(S)
            if H._view[1] is not None:
                H.orbit_partition()
                chains.append(H._view[0])
    return chains


def test_level_labels_and_orders_match_bruteforce(monkeypatch):
    # every level of every finished chain: its labels, read top-down so that
    # levels above join the labels of those below, are those of its own
    # generators; its suffix order is the product of its orbit sizes
    joined = []
    join = group_module._join

    def counting_join(labels, gens):
        joined.append(len(gens))
        return join(labels, gens)

    monkeypatch.setattr(group_module, "_join", counting_join)
    levels_seen = 0
    for name, G in CLASS_LABEL_GROUPS[1:]:
        for chain in _finished_chains(G):
            levels = chain.levels
            for i, level in enumerate(levels):
                labels = group_module._chain_labels(chain.suffix(i))
                assert labels.dtype == np.int32 and not labels.flags.writeable, name
                images = [g.to_list() for g in level.gens]
                assert labels.tolist() == [min(bf.orbit_under(images, x)) for x in range(G.degree)]
                assert level.suffix_order == math.prod(len(lv.transversal) for lv in levels[i:])
                # the join's premise: the next level's group lies in this one's
                if i + 1 < len(levels):
                    assert all(chain.suffix(i).contains(g) for g in levels[i + 1].gens), name
                levels_seen += 1
    assert levels_seen > 4000 and len(joined) > 2000


def test_join_merges_whole_orbits_of_the_level_below():
    # the lower group has the orbit {3, 5}; a new generator swapping 5 and 0
    # must carry 3 along, though no new edge touches it
    lower = np.array([0, 1, 2, 3, 4, 3, 6], dtype=np.int32)
    swap = Perm.from_cycles(7, (0, 5))
    assert group_module._join(lower, [swap]).tolist() == [0, 1, 2, 0, 4, 0, 6]
    # a chain of hooks that needs several rounds: {1,6}, {2,5}, {3,4} under
    # the lower group, joined by 6 -> 2 and 5 -> 3
    lower = np.array([0, 1, 2, 3, 3, 2, 1], dtype=np.int32)
    joined = group_module._join(lower, [Perm.from_cycles(7, (6, 2), (5, 3))])
    assert joined.tolist() == [0, 1, 1, 1, 1, 1, 1]


@st.composite
def generator_lists(draw):
    """A degree of 1 to 12 and 0 to 3 generators as image lists, drawn from
    a small pool that holds the identity, so repeats and identities occur."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    gens = draw(st.lists(st.sampled_from(pool + [list(range(n))]), max_size=3))
    return n, gens


@settings(max_examples=300)
@given(generator_lists())
def test_orbit_partitions_match_bruteforce_orbits(case):
    # the group's partition, and the kernel's on the raw list, which keeps
    # the identities and repeats that PermGroup drops
    n, gens = case
    perms = [Perm(g) for g in gens]
    want = [bf.orbit_under(gens, x) for x in range(n)]
    for labels, sizes in (PermGroup(n, perms).orbit_partition(),
                          group_module._orbit_partition(n, tuple(perms))):
        assert labels.dtype == np.int64 and sizes.dtype == np.int32
        assert not labels.flags.writeable and not sizes.flags.writeable
        assert labels.tolist() == [min(orbit) for orbit in want]
        assert sizes.tolist() == [len(orbit) for orbit in want]


def test_degree_2400_orbit_partitions_match_breadth_first_search():
    # the (5,4) wreath coset group is transitive; its two-point stabilizer,
    # a conjugated view read off its chain, and a group made from that
    # view's generators have many orbits; every point reads its own
    # orbit's length
    W = wreath_coset_action(5, 4)
    H = W.pointwise_stabilizer((0, 1))
    for G in (W, H, PermGroup(W.degree, H.generators)):
        labels, sizes = G.orbit_partition()
        want = bf.orbit_labels(W.degree, [g.to_list() for g in G.generators])
        lengths = collections.Counter(want)
        assert labels.tolist() == want
        assert sizes.tolist() == [lengths[want[x]] for x in range(W.degree)]
    assert len(set(H.orbit_partition()[0].tolist())) > 2


def test_repr_leaves_a_views_generators_unmade():
    H = sym(6).point_stabilizer(3)
    assert H._generators is None
    assert repr(H) == f"PermGroup(degree=6, gens={len(H._view[0].levels[0].gens)})"
    assert H._generators is None
    assert repr(H) == f"PermGroup(degree=6, gens={len(H.generators)})"


def test_a_view_reads_its_order_off_its_chain(monkeypatch):
    # a finished chain keeps each level's suffix order, so the views of the
    # search take their order without multiplying orbit sizes again
    G = sym(8)
    G.order()
    reads = []
    order = group_module.StabilizerChain.order
    monkeypatch.setattr(group_module.StabilizerChain, "order",
                        lambda chain: reads.append(chain.levels[0].suffix_order) or order(chain))
    H = G.pointwise_stabilizer([3, 5])
    assert H.order() == 720 and reads and None not in reads


def test_relabelled_s20_sweeps_few_generators_through_partitions(monkeypatch):
    # S20 relabelled, with no order hint: M, I and height walk 19 nodes each.
    # The conjugated views read their labels off their chain, each level
    # joining only the generators it adds to the level below: 28 generators
    # in all go through the labelling kernel, where a fresh partition of each
    # level's generators sweeps 231.  Every partition is a ``_join``, so
    # counting the kernel counts each sweep once
    gens = [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 12, 13, 14, 15, 16, 11, 18, 19],
            [2, 18, 9, 6, 19, 1, 13, 5, 7, 4, 11, 17, 14, 16, 8, 10, 15, 12, 0, 3]]
    swept = []
    join = group_module._join

    def counting_join(labels, gens):
        swept.append(len(gens))
        return join(labels, gens)

    monkeypatch.setattr(group_module, "_join", counting_join)
    G = PermGroup(20, [Perm(g) for g in gens])
    nodes = []
    for search, want in ((minimal_base_sizes, [19]), (irredundant_base_sizes, [19]), (height, 19)):
        budget = SearchBudget(10**6)
        got = search(G, "pruned", budget)
        assert (got if search is height else got.to_list()) == want
        nodes.append(budget.used)
    assert nodes == [19, 19, 19]
    assert 0 < sum(swept) <= 60, swept


# -- points must be integers -----------------------------------------------


@pytest.mark.parametrize("bad", [1.5, 0.0, True, "1", None, (1,)])
def test_non_integer_points_are_rejected(bad):
    G = sym(5)
    for call in (lambda: G.pointwise_stabilizer([bad]),
                 lambda: G.pointwise_stabilizer([0, bad]),
                 lambda: G.point_stabilizer(bad),
                 lambda: G.stabilizer_chain((bad,)),
                 lambda: G.orbit(bad)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call()


def test_numpy_integer_points_are_accepted():
    G = sym(5)
    for x in (np.int64(2), np.int32(2), np.uint8(2)):
        assert G.point_stabilizer(x).order() == 24
        assert G.pointwise_stabilizer([x, 3]).order() == 6
        assert G.stabilizer_chain((x,)).base[0] == 2
    with pytest.raises(ValueError):
        G.point_stabilizer(np.bool_(True))


@st.composite
def groups_and_points(draw):
    """A group of degree <= 12 (half the time a direct product of two groups
    on complementary point sets), relabelled, with up to 3 points."""
    n = draw(st.integers(2, 12))
    cut = draw(st.sampled_from([n] + list(range(2, n - 1))))
    gens = []
    for lo, hi in [(0, cut), (cut, n)][: 1 + (cut < n)]:
        for _ in range(draw(st.integers(1, 2))):
            block = draw(st.permutations(range(lo, hi)))
            gens.append(list(range(lo)) + list(block) + list(range(hi, n)))
    relabel = draw(st.permutations(range(n)))
    inv = [0] * n
    for i, r in enumerate(relabel):
        inv[r] = i
    gens = [[relabel[g[inv[x]]] for x in range(n)] for g in gens]
    points = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return n, gens, points


@settings(max_examples=120)
@given(groups_and_points(), st.data())
def check_successive_point_stabilizers(case, data):
    n, gens, points = case
    G = PermGroup(n, [Perm(g) for g in gens])
    H = G
    for x in points:
        H = H.point_stabilizer(x)
    ref_G = PermutationGroup([Permutation(g) for g in gens])
    ref = ref_G.pointwise_stabilizer(points) if points else ref_G
    assert H.order() == ref.order()
    assert sorted(map(sorted, ref.orbits())) == H.orbits()
    for g in H.generators:
        assert all(g[x] == x for x in points)
        assert G.contains(g)
    for p in data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4)):
        assert H.contains(Perm(p)) == ref.contains(Permutation(p))
    if H.generators:
        word = data.draw(st.lists(st.sampled_from(H.generators), min_size=1, max_size=5))
        w = word[0]
        for g in word[1:]:
            w = w * g
        assert H.contains(w) and ref.contains(Permutation(w.to_list()))


def test_successive_point_stabilizers_match_sympy(monkeypatch):
    # the oracle must reach the rebase (off-orbit points) and its random phase
    calls = count_chain_builds(monkeypatch)
    phases = count_random_phases(monkeypatch)
    check_successive_point_stabilizers()
    rebases = [p for p in calls if p]
    assert len(rebases) >= 10 and len(phases) >= 5, (len(rebases), len(phases))


@st.composite
def intransitive_groups(draw):
    """A relabelled direct product of two or three blocks on at most 10
    points, each block a symmetric or cyclic group or an imprimitive wreath
    of a symmetric group by a symmetric or cyclic top group."""
    gens, n = [], 0
    count = draw(st.integers(2, 3))
    for b in range(count):
        room = 10 - n - 2 * (count - b - 1)  # two points for each block after this one
        kind = draw(st.sampled_from(["cyclic", "sym", "wreath"] if room >= 4 else ["cyclic", "sym"]))
        if kind == "wreath":
            m = draw(st.integers(2, min(3, room // 2)))
            k = draw(st.integers(2, min(3, room // m)))
            top = [[(x + 1) % k for x in range(k)]]
            if draw(st.booleans()):
                top.append([1, 0] + list(range(2, k)))
            block = [[(x + 1) % m if x < m else x for x in range(m * k)],
                     [1, 0] + list(range(2, m * k))]
            block += [[t[x // m] * m + x % m for x in range(m * k)] for t in top]
        else:
            m = draw(st.integers(2, min(4, room)))
            block = [[(x + 1) % m for x in range(m)]]
            if kind == "sym":
                block.append([1, 0] + list(range(2, m)))
        width = len(block[0])
        gens = [g + list(range(n, n + width)) for g in gens]
        gens += [list(range(n)) + [n + x for x in g] for g in block]
        n += width
    relabel = draw(st.permutations(range(n)))
    inv = [0] * n
    for i, r in enumerate(relabel):
        inv[r] = i
    return n, [[relabel[g[inv[x]]] for x in range(n)] for g in gens]


@settings(max_examples=25)
@given(intransitive_groups(), st.lists(st.integers(0, 9), min_size=2, max_size=4))
def check_cached_rebases(case, points):
    # every stabilizer of one or two points, then a sequence asked forwards
    # and backwards, so most off-orbit requests read a rebase made earlier
    n, gens = case
    points = [x % n for x in points]
    G = PermGroup(n, [Perm(g) for g in gens])
    elements = bf.closure(gens)
    assert G.order() == len(elements)
    for r in (1, 2):
        for S in itertools.combinations(range(n), r):
            assert G.pointwise_stabilizer(S).order() == len(bf.stabilizer(elements, S))
    want = bf.stabilizer(elements, points)
    ref = PermutationGroup([Permutation(g) for g in gens]).pointwise_stabilizer(points)
    assert ref.order() == len(want)
    for seq in (points, points[::-1]):
        H = G
        for x in seq:
            H = H.point_stabilizer(x)
        assert H.order() == len(want)
        assert H.orbits() == sorted(map(sorted, {frozenset(bf.orbit(want, x)) for x in range(n)}))
        for e in elements:
            assert H.contains(Perm(list(e))) == (e in want)


def test_cached_rebases_match_bruteforce_and_sympy(monkeypatch):
    # the oracle must reach rebases made and rebases read from the cache
    calls = count_chain_builds(monkeypatch)
    reads = []
    original = group_module._orbit_rebase

    def counting(chain, y):
        reads.append(y)
        return original(chain, y)

    monkeypatch.setattr(group_module, "_orbit_rebase", counting)
    check_cached_rebases()
    rebases = [p for p in calls if p]
    assert len(rebases) >= 20 and len(reads) >= 3 * len(rebases), (len(rebases), len(reads))


# -- build_chain and the rebase against sympy at larger degree -------------


@st.composite
def transitive_block(draw, max_degree):
    """A transitive group on 2 to ``max_degree`` points: (local generator
    images, a bound on its base length)."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "sym", "random"]))
    if kind in ("sym", "random"):
        m = draw(st.integers(2, min(6, max_degree)))
    else:
        m = draw(st.integers(3, max(3, max_degree)))
    cycle = [(x + 1) % m for x in range(m)]
    if kind == "cyclic":
        return [cycle], 1
    if kind == "dihedral":
        return [cycle, [(-x) % m for x in range(m)]], 2
    if kind == "sym":
        return [cycle, [1, 0] + list(range(2, m))], m - 1
    return [cycle, draw(st.permutations(range(m)))], m - 1


@st.composite
def large_groups(draw):
    """Relabelled direct products of up to three transitive blocks, or
    imprimitive wreaths of a block by a transitive top group, on up to
    about 300 points.  Base lengths stay below about 30, which keeps
    deterministic Schreier-Sims quick."""
    if draw(st.booleans()):
        gens, n = [], 0
        for _ in range(draw(st.integers(1, 3))):
            block, _ = draw(transitive_block(100))
            m = len(block[0])
            gens = [g + list(range(n, n + m)) for g in gens]
            gens += [list(range(n)) + [n + x for x in b] for b in block]
            n += m
    else:
        inner, levels = draw(transitive_block(30))
        m = len(inner[0])
        top, _ = draw(transitive_block(min(12, 300 // m, 24 // levels)))
        k = len(top[0])
        # inner acts on block 0 of k blocks; top permutes the blocks
        gens = [list(h) + list(range(m, m * k)) for h in inner]
        gens += [[t[x // m] * m + x % m for x in range(m * k)] for t in top]
        n = m * k
    relabel = draw(st.permutations(range(n)))
    inv = [0] * n
    for i, r in enumerate(relabel):
        inv[r] = i
    return n, [[relabel[g[inv[x]]] for x in range(n)] for g in gens]


@settings(max_examples=25)
@given(large_groups(), st.data())
def test_build_chain_matches_sympy_at_larger_degree(case, data):
    # no prefix: the root chain, with or without a hint; a prefix: the rebase
    n, gens = case
    ref = PermutationGroup([Permutation(g) for g in gens])
    prefix = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)))
    hint = ref.order() if data.draw(st.booleans()) else None
    if prefix:
        chain = PermGroup(n, [Perm(g) for g in gens], order_hint=hint).stabilizer_chain(prefix)
    else:
        chain = build_chain(n, [Perm(g) for g in gens], known_order=hint)
    assert chain.base[: len(prefix)] == prefix
    assert chain.order() == ref.order()
    # basic orbits and every level's orbit labels, top-down as a view reads
    # them, from a sympy strong generating set relative to the same base
    base, strong = ref.schreier_sims_incremental(base=list(chain.base))
    assert tuple(base) == chain.base
    for i, level in enumerate(chain.levels):
        fixing = [s for s in strong if all(s(b) == b for b in base[:i])]
        orbit = PermutationGroup(fixing).orbit(base[i]) if fixing else {base[i]}
        assert set(level.transversal) == orbit
        want = list(range(n))
        for orb in (PermutationGroup(fixing).orbits() if fixing else ()):
            for x in orb:
                want[x] = min(orb)
        assert group_module._chain_labels(chain.suffix(i)).tolist() == want
    # membership: words in the generators, their near misses, and random permutations
    for _ in range(3):
        word = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=6))
        w = Perm(word[0])
        for g in word[1:]:
            w = w * Perm(g)
        swap = Perm.from_cycles(n, tuple(data.draw(st.lists(st.integers(0, n - 1),
                                                             min_size=2, max_size=2, unique=True))))
        for p in (w, w * swap, Perm(data.draw(st.permutations(range(n))))):
            assert chain.contains(p) == ref.contains(Permutation(p.to_list()))
