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
from basekit import Perm, PermGroup, build_chain, constructions
from basekit.group import StabilizerChain, _add_strong_gen

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
from basekit import Perm, build_chain
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
    # each of which must have added residues in its random or verify phase
    phases = []
    add, verify = group_module._add_strong_gen, group_module._verify
    in_verify = []

    def recording_add(chain, low, g, stuck):
        phases.append("verify" if in_verify else "draw" if low == 1 else "generator")
        add(chain, low, g, stuck)

    def recording_verify(chain, order):
        in_verify.append(True)
        try:
            verify(chain, order)
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
                yield build_chain(n, [Perm(g) for g in relabelled(n, symmetric_gens(n), seed)])

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

    for route, want in ((hinted, "draw"), (giant, "draw"), (verified, "verify"),
                        (orbit_rebases, "draw"), (prefix_rebases, "draw")):
        phases.clear()
        chains = 0
        for chain in route():
            assert_nothing_to_prune(chain)
            chains += 1
        assert chains >= 8 and phases.count(want) >= 10, (route.__name__, chains, phases.count(want))


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
                H._view = (build_chain(n, gens, known_order=order), None, None)
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
def test_symmetric_searches_meet_their_time_target_at_degree_120():
    # the root chain, then M, height and I of S120: about 0.9 s here
    from basekit.bases import height, irredundant_base_sizes, minimal_base_sizes

    start = time.perf_counter()
    G = constructions.symmetric(120)
    assert minimal_base_sizes(G).to_list() == [119]
    assert height(G) == 119
    assert irredundant_base_sizes(G).to_list() == [119]
    assert time.perf_counter() - start < 2
