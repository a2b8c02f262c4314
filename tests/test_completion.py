"""Root chains and rebases share one completion: sifting, random draws, the giant certificate."""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

import basekit.group as group_module
from basekit import Perm, PermGroup, constructions
from basekit.group import StabilizerChain, _add_strong_gen, _chain_labels, _chain_sizes, build_chain

import bruteforce as bf

SRC = Path(__file__).resolve().parent.parent / "src"


def relabelled(n, gens, seed):
    """``gens`` (image lists on n points) conjugated by a seeded relabelling."""
    label = list(range(n))
    random.Random(seed).shuffle(label)
    out = []
    for g in gens:
        h = [0] * n
        for i, j in enumerate(g):
            h[label[i]] = label[j]
        out.append(h)
    return out


def cycle(n, points):
    images = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return images


def symmetric_gens(n):
    return [cycle(n, [0, 1]), cycle(n, list(range(n)))]


def alternating_gens(n):
    # a 3-cycle and an even long cycle generate A_n
    long = list(range(n)) if n % 2 else list(range(1, n))
    return [cycle(n, [0, 1, 2]), cycle(n, long)]


def certificate(n, gens):
    gens = tuple(Perm(g) for g in gens)
    return group_module._giant_order(n, gens, group_module._product_replacement(n, gens))


# -- sift: the vectorized level skip ------------------------------------------


def scalar_sift(chain, p, start=0):
    """The reference: one base point read per level."""
    for i in range(start, len(chain.levels)):
        level = chain.levels[i]
        beta = p[level.point]
        if beta == level.point:
            continue
        if beta not in level.transversal:
            return p, i
        p = p * level.inv_transversal(beta)
    return p, len(chain.levels)


def test_sift_matches_the_scalar_loop_while_the_chain_grows():
    # permutations of 20 points with supports of every size, sifted into a
    # chain that grows from them to a 19-level chain of S_20; small supports
    # make the skip jump over runs of fixed levels
    n = 20
    rng = random.Random(3)
    probes = []
    for _ in range(200):
        support = rng.sample(range(n), rng.randint(2, n))
        images = list(range(n))
        for a, b in zip(support, rng.sample(support, len(support))):
            images[a] = b
        probes.append(Perm(images))
    chain = StabilizerChain(n)
    for g in probes[:80]:
        for p in probes[::7]:
            for start in (0, len(chain.levels) // 2):
                got, want = chain.sift(p, start), scalar_sift(chain, p, start)
                assert got[1] == want[1] and got[0] == want[0]
        residue, j = chain.sift(g)
        if not residue.is_identity():
            _add_strong_gen(chain, 0, residue, j)
    assert len(chain.levels) > 2 * group_module._SCAN_LEVELS


# -- the same chain in every process ----------------------------------------


_CHILD = """
import json, sys
from basekit import Perm
from basekit.group import build_chain
n, gens, hint = json.loads(sys.stdin.read())
chain = build_chain(n, [Perm(g) for g in gens], known_order=hint)
print(json.dumps([chain.base, [[g.to_list() for g in level.gens] for level in chain.levels]]))
"""


def _chain_in_child(case, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(case), env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_root_chains_do_not_depend_on_the_hash_seed():
    # the draws are seeded from a digest of the generators, not from hash()
    wreath = constructions.wreath_coset_action(5, 3)
    cases = [
        (16, relabelled(16, symmetric_gens(16), 5), None),
        (wreath.degree, [g.to_list() for g in wreath.generators], wreath.order()),
    ]
    for case in cases:
        a = _chain_in_child(case, 1)
        b = _chain_in_child(case, 2)
        assert a == b
        assert len(a[1]) > 1


# -- the giant certificate ----------------------------------------------------


@pytest.mark.parametrize("n", range(8, 41))
def test_certificate_fires_on_relabelled_giants(n):
    for gens, order in ((symmetric_gens(n), math.factorial(n)),
                        (alternating_gens(n), math.factorial(n) // 2)):
        gens = relabelled(n, gens, n)
        assert certificate(n, gens) == order
        G = PermGroup(n, [Perm(g) for g in gens])
        assert G.order() == order
        assert G.stabilizer_chain().order() == order


def test_certified_orders_match_sympy():
    for n in (8, 9, 12):
        for gens in (symmetric_gens(n), alternating_gens(n)):
            gens = relabelled(n, gens, 7 * n)
            ref = PermutationGroup([Permutation(g) for g in gens]).order()
            assert certificate(n, gens) == ref == PermGroup(n, [Perm(g) for g in gens]).order()


def _primitive_root(p):
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % r for r in range(2, q))]
    return next(a for a in range(2, p) if all(pow(a, (p - 1) // q, p) != 1 for q in factors))


def agl1(p):
    """AGL(1, p) on Z_p: every cycle length divides p or p - 1."""
    a = _primitive_root(p)
    return p, [[(x + 1) % p for x in range(p)], [(a * x) % p for x in range(p)]]


def pgl2(p):
    """PGL(2, p) on the p + 1 points of the projective line (p is infinity)."""
    a, inf = _primitive_root(p), p

    def act(f):
        return [f(x) for x in range(p + 1)]

    return p + 1, [
        act(lambda x: inf if x == inf else (x + 1) % p),
        act(lambda x: inf if x == inf else (a * x) % p),
        act(lambda x: 0 if x == inf else inf if x == 0 else (-pow(x, p - 2, p)) % p),
    ]


def _repo_action(spec):
    G, _ = constructions.build_group(spec)
    return G.degree, [g.to_list() for g in G.generators]


NON_GIANTS = ([(f"agl1({p})", *agl1(p)) for p in (11, 13, 17, 19, 23, 29, 31)]
              + [(f"pgl2({p})", *pgl2(p)) for p in (7, 11, 13, 17, 19, 23, 29, 31)]
              + [(f"k_subsets({n},{k})", *_repo_action({"type": "k_subsets", "n": n, "k": k}))
                 for n, k in ((7, 2), (9, 2), (8, 3))]
              + [("gl42_planes", *_repo_action({"type": "gl42_planes"}))]
              + [(f"wreath_coset(4,{k})", *_repo_action({"type": "wreath_coset", "n": 4, "k": k}))
                 for k in (2, 3)])


@pytest.mark.parametrize("name,n,gens", NON_GIANTS, ids=[c[0] for c in NON_GIANTS])
def test_certificate_never_fires_on_transitive_non_giants(name, n, gens):
    # each is transitive of degree >= 8, and most have prime cycles longer
    # than n/2, but none of prime length strictly between n/2 and n - 2
    G = PermGroup(n, [Perm(g) for g in gens])
    assert G.is_transitive()
    assert certificate(n, gens) is None
    assert G.order() == PermutationGroup([Permutation(g) for g in gens]).order()


def test_certificate_needs_a_transitive_group():
    # S_9 on 9 of 10 points: no certificate, and the verification finds 9!
    gens = [g + [9] for g in symmetric_gens(9)]
    assert certificate(10, gens) is None
    assert PermGroup(10, [Perm(g) for g in gens]).order() == math.factorial(9)


# -- nothing to prune ----------------------------------------------------------


def assert_nothing_to_prune(chain):
    """Every strong generator of every level is an edge of the level's
    Schreier tree or, the same object, a strong generator of the next level."""
    levels = chain.levels
    for i, level in enumerate(levels):
        edges = {edge[1] for edge in level.transversal.values() if edge is not None}
        below = {id(g) for g in levels[i + 1].gens} if i + 1 < len(levels) else set()
        for j, g in enumerate(level.gens):
            assert j in edges or id(g) in below, (chain.base, i, j)


def intransitive_gens(seed):
    """Two to four blocks of 2 to 5 points, each with two random generators,
    relabelled: a group with no order hint and no giant certificate."""
    rng = random.Random(seed)
    gens, n = [], 0
    for _ in range(rng.randint(2, 4)):
        m = rng.randint(2, 5)
        block = [rng.sample(range(m), m) for _ in range(2)]
        gens = [g + list(range(n, n + m)) for g in gens]
        gens += [list(range(n)) + [n + x for x in g] for g in block]
        n += m
    return n, [Perm(g) for g in relabelled(n, gens, seed)]


def test_no_completion_leaves_a_generator_to_prune(monkeypatch):
    # a residue stopping at level j joins the levels up to j and is level j's
    # tree edge from its base point, so every level's generators are tree
    # edges or the next level's; checked on every route a chain is made by,
    # each of which must have added residues in the phase it completes in;
    # a proven giant's chain is written down (group._giant_chain), so it
    # adds none, and must still leave nothing to prune
    phases = []
    add, verify = group_module._add_strong_gen, group_module._verify
    in_verify = []

    def recording_add(chain, low, g, stuck, *cap):
        phases.append("verify" if in_verify else "draw" if low == 1 else "generator")
        add(chain, low, g, stuck, *cap)

    def recording_verify(chain, order, *cap):
        in_verify.append(True)
        try:
            verify(chain, order, *cap)
        finally:
            in_verify.pop()

    monkeypatch.setattr(group_module, "_add_strong_gen", recording_add)
    monkeypatch.setattr(group_module, "_verify", recording_verify)

    def hinted():
        sym = constructions.symmetric
        for G in (constructions.k_subset_action(8, 3), constructions.k_subset_action(9, 2),
                  constructions.wreath_coset_action(4, 3), constructions.wreath_coset_action(3, 4),
                  constructions.wreath_imprimitive(4, 3), constructions.gl42_on_2subspaces(),
                  constructions.product_action(sym(4), sym(5)),
                  constructions.product_action(sym(3), sym(3), sym(4)),
                  constructions.disjoint_product(sym(5), constructions.wreath_imprimitive(3, 3)),
                  constructions.theorem2_group([1, 3, 4])[0]):
            yield G.stabilizer_chain()

    def giant():
        for n in (16, 20):
            for seed in range(4):
                for gens in (symmetric_gens(n), alternating_gens(n)):
                    yield build_chain(n, [Perm(g) for g in relabelled(n, gens, seed)])

    def verified():
        for seed in range(40):
            yield build_chain(*intransitive_gens(seed))

    def orbit_rebases():
        roots = list(hinted()) + [build_chain(*intransitive_gens(seed)) for seed in range(10)]
        for chain in roots:
            labels = group_module._chain_labels(chain)
            for y in sorted(set(labels.tolist())):
                yield group_module._orbit_rebase(chain, y)

    def prefix_rebases():
        groups = [constructions.k_subset_action(7, 2),
                  PermGroup(16, [Perm(g) for g in relabelled(16, symmetric_gens(16), 3)])]
        groups += [PermGroup(*intransitive_gens(seed)) for seed in range(10)]
        for G in groups:
            n = G.degree
            for prefix in ((n - 1, 0), (1, n - 2, 0), (n // 2, 2, n - 1, 1)):
                yield G.stabilizer_chain(prefix)

    for route, want in ((hinted, "draw"), (giant, None), (verified, "verify"),
                        (orbit_rebases, "draw"), (prefix_rebases, "draw")):
        phases.clear()
        chains = 0
        for chain in route():
            assert_nothing_to_prune(chain)
            chains += 1
        if want is None:
            assert chains >= 8 and phases == [], (route.__name__, chains, phases)
        else:
            assert chains >= 8 and phases.count(want) >= 10, (route.__name__, chains, phases.count(want))


# -- proven giants: the standard strong generators ----------------------------


@pytest.mark.parametrize("n", range(8, 41))
def test_proven_giants_complete_from_their_standard_generators(n):
    # with a proven order and without, S_n and A_n: the certificate proves
    # the order, and the chain is that of the transpositions (i, i+1) or the
    # 3-cycles (i, i+1, i+2), with base 0, 1, ...; the group keeps its own
    # generators
    full, half = math.factorial(n), math.factorial(n) // 2
    plain = [Perm(g) for g in symmetric_gens(n)]  # those of constructions.symmetric
    sym_gens = [Perm(g) for g in relabelled(n, symmetric_gens(n), n)]
    alt_gens = [Perm(g) for g in relabelled(n, alternating_gens(n), n)]
    cases = [(constructions.symmetric(n), plain, full),
             (PermGroup(n, sym_gens), sym_gens, full),
             (PermGroup._constructed(n, alt_gens, half), alt_gens, half),
             (PermGroup(n, alt_gens), alt_gens, half)]
    rng = random.Random(n)
    probes = [rng.sample(range(n), n) for _ in range(40)]
    for G, gens, order in cases:
        k = 2 if order == full else 3
        chain = G.stabilizer_chain()
        assert chain.order() == G.order() == order
        assert chain.base == tuple(range(n - k + 1))
        assert chain.level_generators(0) == tuple(
            Perm.from_cycles(n, tuple(range(i, i + k))) for i in range(n - k + 1))
        assert G.generators == tuple(gens)
        for images in probes:
            assert G.contains(images) == (order == full or Permutation(images).is_even)


def _incremental_giant_chain(n, order, complete):
    # the oracle: the chain the completion builds from the standard generators
    chain = StabilizerChain(n)
    complete(chain, group_module._standard_generators(n, order), order, iter(()))
    return chain


def _tails(chain):
    # the chain and the tails that suffix(1) caches below it, one per level
    tails = [chain]
    for _ in chain.levels[1:]:
        tails.append(tails[-1].suffix(1))
    return tails


@pytest.mark.parametrize("n", range(8, 41))
def test_proven_giants_chains_are_written_down_as_the_completion_builds_them(n, monkeypatch):
    # S_n and A_n, plain and relabelled, hintless and hinted: the chain is
    # written down with no completion, and equals the one the completion
    # builds from the standard generators: base, suffix orders, Schreier
    # vectors in insertion order, and each level's generators the very
    # objects of level 0 from its own base point on
    complete = group_module._complete

    def completing(*args):
        raise AssertionError("a proven giant's chain was completed")

    monkeypatch.setattr(group_module, "_complete", completing)
    full = math.factorial(n)
    for gens, order in ((symmetric_gens(n), full), (alternating_gens(n), full // 2)):
        want = _incremental_giant_chain(n, order, complete)
        for images, hint in ((gens, None), (relabelled(n, gens, n), order)):
            chain = build_chain(n, [Perm(g) for g in images], known_order=hint)
            assert chain.base == want.base
            top, ref_top = chain.levels[0].gens, want.levels[0].gens
            assert top == ref_top
            assert chain._order == want.order()
            assert [t.order() for t in _tails(chain)] == [t.order() for t in _tails(want)]
            for got, ref in zip(chain.levels, want.levels, strict=True):
                assert list(got.transversal.items()) == list(ref.transversal.items())
                assert [id(g) for g in got.gens] == [id(g) for g in top[got.point:]]
                assert [id(g) for g in ref.gens] == [id(g) for g in ref_top[ref.point:]]


def _brute_partition(degree, gens):
    # each point's smallest orbit point and orbit length, one orbit_under
    # per orbit
    labels, sizes = [None] * degree, [None] * degree
    for x in range(degree):
        if labels[x] is None:
            orbit = bf.orbit_under(gens, x)
            for y in orbit:
                labels[y], sizes[y] = x, len(orbit)
    return labels, sizes


@pytest.mark.parametrize("n", range(8, 41))
def test_proven_giants_levels_have_their_orbits_in_closed_form(n, monkeypatch):
    # every level of a written-down chain, S_n and A_n, plain and relabelled,
    # read through the tail it heads: the tail's sizes are written down
    # first, with no labels, no count and no join, together with its
    # fixed-point count, and then its labels, with no join; both equal the
    # brute-force orbits of the level's generators and are made once
    def forbidden(*args):
        raise AssertionError("a proven giant's level computed its orbits")

    monkeypatch.setattr(group_module, "_join", forbidden)
    monkeypatch.setattr(group_module, "_with_sizes", forbidden)
    for gens in (symmetric_gens(n), alternating_gens(n)):
        for images in (gens, relabelled(n, gens, n)):
            chain = build_chain(n, [Perm(g) for g in images])
            for level, tail in zip(chain.levels, _tails(chain), strict=True):
                want_labels, want_sizes = _brute_partition(
                    n, [tuple(g.to_list()) for g in level.gens])
                assert _chain_sizes(tail).tolist() == want_sizes
                assert tail._labels is None and tail._fixed == level.point
                assert _chain_labels(tail).tolist() == want_labels
                assert _chain_sizes(tail) is tail._sizes and _chain_labels(tail) is tail._labels


def test_a_full_hint_on_alternating_generators_raises_promptly(monkeypatch):
    # the certificate proves n!/2, the order of A_n, so the hint n! is wrong
    # and build_chain raises before the completion draws or verifies; the
    # hint's own route took 1.9 s to raise on A40
    def completing(*args):
        raise AssertionError("the completion ran")

    monkeypatch.setattr(group_module, "_complete", completing)
    for n in (8, 12, 20, 40):
        gens = [Perm(g) for g in relabelled(n, alternating_gens(n), n)]
        full = math.factorial(n)
        start = time.perf_counter()
        with pytest.raises(RuntimeError) as caught:
            build_chain(n, gens, known_order=full)
        assert time.perf_counter() - start < 0.5, n
        assert str(caught.value) == f"stabilizer chain order {full // 2} != expected {full}"


def count_draw_streams(monkeypatch):
    """Record every product-replacement stream that ``build_chain`` makes."""
    streams = []
    make_stream = group_module._product_replacement

    def counting(*args):
        streams.append(args)
        return make_stream(*args)

    monkeypatch.setattr(group_module, "_product_replacement", counting)
    return streams


# the hint n!/2 on generators of S_n, plain or relabelled by the seed: the
# certificate proves n! in all 12, and in all but (20, 20) a partial chain
# reaches n!/2, so nothing but the certificate shows that the hint is wrong
HALF_HINT_ON_SYMMETRIC_GENERATORS = [
    (8, None), (8, 8), (9, None), (9, 9), (10, None), (10, 10),
    (12, None), (12, 12), (16, None), (16, 16), (20, None), (20, 20),
]


@pytest.mark.parametrize("n,seed", HALF_HINT_ON_SYMMETRIC_GENERATORS)
def test_a_half_hint_on_symmetric_generators_keeps_the_hints_route(n, seed, monkeypatch):
    # the certificate proves n!, so the hint n!/2 is wrong and raises before
    # the completion draws or verifies, with the one draw stream it made
    def completing(*args):
        raise AssertionError("the completion ran")

    monkeypatch.setattr(group_module, "_complete", completing)
    streams = count_draw_streams(monkeypatch)
    gens = symmetric_gens(n) if seed is None else relabelled(n, symmetric_gens(n), seed)
    gens = [Perm(g) for g in gens]
    full = math.factorial(n)
    start = time.perf_counter()
    with pytest.raises(RuntimeError) as caught:
        build_chain(n, gens, known_order=full // 2)
    assert time.perf_counter() - start < 0.5
    assert str(caught.value) == f"stabilizer chain order {full} != expected {full // 2}"
    assert len(streams) == 1


def test_a_giant_hint_the_certificate_cannot_decide_completes_on_the_same_draws(monkeypatch):
    # S7 fixing point 7 is not transitive, so the certificate proves nothing;
    # the hint 8! runs the completion on the stream the certificate was
    # given, and the verification finds the true order
    streams = count_draw_streams(monkeypatch)
    gens = [Perm.from_cycles(8, (0, 1)), Perm.from_cycles(8, tuple(range(7)))]
    with pytest.raises(RuntimeError) as caught:
        build_chain(8, gens, known_order=math.factorial(8))
    assert str(caught.value) == f"stabilizer chain order {math.factorial(7)} != expected {math.factorial(8)}"
    assert len(streams) == 1


def test_a_hint_of_no_giant_order_computes_no_factorial_of_the_degree(monkeypatch):
    # n! of a spec's degree can take seconds, so a hint is first told apart
    # from n! and n!/2 by its bit length; S30 is the control that counts
    W = constructions.wreath_coset_action(5, 4)
    S = constructions.symmetric(30)
    calls = []
    factorial = math.factorial

    def counting(x):
        calls.append(x)
        return factorial(x)

    monkeypatch.setattr(math, "factorial", counting)
    assert W.degree == 2400
    assert W.order() == factorial(5) ** 4 * 4
    assert W.degree not in calls
    assert S.order() == factorial(30)
    assert 30 in calls


# -- the order hint on both routes --------------------------------------------


def _wrong_hint_cases():
    wreath = constructions.wreath_coset_action(5, 3)
    sym20 = [Perm(g) for g in relabelled(20, symmetric_gens(20), 1)]
    return [("S20", 20, sym20, math.factorial(20)),
            ("wreath(5,3)", wreath.degree, list(wreath.generators), wreath.order())]


@pytest.mark.parametrize("route", ["root", "rebase"])
def test_a_too_large_hint_raises_within_five_seconds(route):
    # no partial chain reaches twice the order, so the draws fall idle and
    # the verification finds the true order (each case takes about 0.2 s)
    for name, n, gens, order in _wrong_hint_cases():
        start = time.perf_counter()
        with pytest.raises(RuntimeError):
            if route == "root":
                build_chain(n, gens, known_order=2 * order)
            else:
                # the true root chain, read by a group told the wrong order
                H = PermGroup(n, gens)
                H._order = 2 * order
                H._view = (build_chain(n, gens, known_order=order), None)
                H.stabilizer_chain((n - 1,))
        assert time.perf_counter() - start < 5, name


def test_root_chains_meet_their_time_targets():
    # about 0.1 s each here; the deterministic verification took 20 s and 1 s
    sym60 = [Perm(g) for g in symmetric_gens(60)]
    for hint in (None, math.factorial(60)):
        start = time.perf_counter()
        assert build_chain(60, sym60, known_order=hint).order() == math.factorial(60)
        assert time.perf_counter() - start < 1
    from basekit.bases import height, irredundant_base_sizes, min_base_size, minimal_base_sizes

    start = time.perf_counter()
    G = PermGroup(30, [Perm(g) for g in symmetric_gens(30)])
    assert minimal_base_sizes(G).to_list() == [29]
    assert time.perf_counter() - start < 1
    # |S30| > 2^63: the searches divide it by int32 orbit sizes read as Python ints
    assert G.order() == math.factorial(30) > 2**63
    assert height(G) == 29
    assert irredundant_base_sizes(G).to_list() == [29]
    assert min_base_size(G) == 29


@pytest.mark.slow
def test_symmetric_root_chain_meets_its_time_target_at_degree_200():
    # the certificate, then the written-down chain of the 199 transpositions
    # (i, i+1): about 0.01 s on a shared 2-core VM, where completing it from
    # them took 0.5 to 1.0 s and from random draws 1.1 to 1.9 s
    G = constructions.symmetric(200)
    start = time.perf_counter()
    assert G.stabilizer_chain().order() == math.factorial(200)
    assert time.perf_counter() - start < 1.5


@pytest.mark.slow
def test_symmetric_searches_meet_their_time_target_at_degree_120():
    # the root chain, then M, height and I of S120: about 0.9 s here
    from basekit.bases import height, irredundant_base_sizes, minimal_base_sizes

    start = time.perf_counter()
    G = constructions.symmetric(120)
    assert minimal_base_sizes(G).to_list() == [119]
    assert height(G) == 119
    assert irredundant_base_sizes(G).to_list() == [119]
    assert time.perf_counter() - start < 2


@pytest.mark.slow
def test_symmetric_chain_and_searches_meet_their_time_target_at_degree_400():
    # the certificate and the written-down chain, then M, height and I of
    # S400: 2.37 to 3.31 s on a shared 2-core VM (chain about 0.05 s, M 2.2
    # to 2.6 s when run alone), where completing the chain alone took about
    # 3.6 s
    from basekit.bases import height, irredundant_base_sizes, minimal_base_sizes

    start = time.perf_counter()
    G = constructions.symmetric(400)
    assert G.stabilizer_chain().order() == math.factorial(400)
    assert minimal_base_sizes(G).to_list() == [399]
    assert height(G) == 399
    assert irredundant_base_sizes(G).to_list() == [399]
    assert time.perf_counter() - start < 5
