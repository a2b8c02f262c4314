import os
import random
import re
import subprocess
import sys
import threading
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basekit
from basekit import (
    BudgetExceeded,
    Perm,
    PermGroup,
    SearchBudget,
    SizeSet,
    base_stats,
    cyclic_regular,
    disjoint_product,
    elem_abelian_regular,
    grid_minimal_base,
    height,
    indicator_vectors,
    irredundant_base_sizes,
    is_base,
    is_ibis,
    is_independent_set,
    is_irredundant_sequence,
    is_mibis,
    is_minimal_base,
    k_subset_action,
    min_base_size,
    minimal_base_sizes,
    product_action,
    symmetric,
    theorem2_group,
    wreath_coset_action,
)
from basekit import cli
from basekit.bases import _fixed_key, _SubgroupTable, _walk_independent

import bruteforce as bf
from test_group import count_chain_builds


def random_two_gen(n, seed):
    rng = random.Random(seed)
    gens = []
    for _ in range(2):
        imgs = list(range(n))
        rng.shuffle(imgs)
        gens.append(Perm(imgs))
    return PermGroup(n, gens)


ORACLE_GROUPS = [
    ("sym3", symmetric(3)),
    ("sym4", symmetric(4)),
    ("c5", cyclic_regular(5)),
    ("elemab22", elem_abelian_regular(2, 2)),
    ("klein_on_4", PermGroup(4, [Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])),
    ("s3xs3", product_action(symmetric(3), symmetric(3))),
    ("s3+c2", disjoint_product(symmetric(3), cyclic_regular(2))),
    ("ksub52", k_subset_action(5, 2)),
    ("thm2_13", theorem2_group([1, 3], 2)[0]),
] + [(f"rand{z}", random_two_gen(6, z)) for z in range(4)]


def closure_of(G):
    return bf.closure([g.to_list() for g in G.generators], limit=6000)


@pytest.mark.parametrize("name,G", ORACLE_GROUPS, ids=[n for n, _ in ORACLE_GROUPS])
@pytest.mark.parametrize("mode", ["pruned", "exhaustive"])
def test_minimal_base_sizes_vs_bruteforce(name, G, mode):
    elements = closure_of(G)
    expected = sorted(bf.minimal_base_sizes(G.degree, elements))
    assert minimal_base_sizes(G, mode).to_list() == expected


@pytest.mark.parametrize("name,G", ORACLE_GROUPS, ids=[n for n, _ in ORACLE_GROUPS])
@pytest.mark.parametrize("mode", ["pruned", "exhaustive"])
def test_irredundant_base_sizes_vs_bruteforce(name, G, mode):
    elements = closure_of(G)
    expected = sorted(bf.irredundant_base_sizes(G.degree, elements) - {0})
    assert irredundant_base_sizes(G, mode).to_list() == expected


@pytest.mark.parametrize("name,G", ORACLE_GROUPS, ids=[n for n, _ in ORACLE_GROUPS])
@pytest.mark.parametrize("mode", ["pruned", "exhaustive"])
def test_height_vs_bruteforce(name, G, mode):
    elements = closure_of(G)
    assert height(G, mode) == bf.height(G.degree, elements)


@pytest.mark.parametrize("name,G", ORACLE_GROUPS, ids=[n for n, _ in ORACLE_GROUPS])
def test_min_base_size_vs_bruteforce(name, G):
    elements = closure_of(G)
    assert min_base_size(G) == min(bf.minimal_base_sizes(G.degree, elements))


@pytest.mark.parametrize("n,k,b,nodes", [(9, 2, 6, 49), (11, 2, 7, 224)])
def test_min_base_size_node_counts_on_k_subsets(n, k, b, nodes):
    # the bound in the candidate hook alone decides which subtrees are entered
    budget = SearchBudget()
    assert min_base_size(k_subset_action(n, k), budget) == b
    assert budget.used == nodes


@pytest.mark.parametrize("mode", ["pruned", "exhaustive"])
def test_walker_never_enters_a_base(mode):
    # a hook that always asks to descend is refused at every base: the nodes
    # entered are the root and the non-base candidates it saw, the same tree
    # that minimal_base_sizes and height each walk
    for name, G in ORACLE_GROUPS:
        seen = []

        def visit(points, x, hx_order, counts):
            seen.append(hx_order)
            return True

        budget = SearchBudget()
        _walk_independent(PermGroup(G.degree, G.generators), budget, mode, False, visit)
        assert 1 in seen, name
        assert budget.used == 1 + sum(h > 1 for h in seen), name
        for search in (minimal_base_sizes, height):
            other = SearchBudget()
            search(PermGroup(G.degree, G.generators), mode, other)
            assert other.used == budget.used, (name, search.__name__)


def test_is_base_examples():
    s4 = symmetric(4)
    assert is_base(s4, {0, 1, 2})
    assert not is_base(s4, {0, 1})
    c7 = cyclic_regular(7)
    for x in range(7):
        assert is_base(c7, {x})


def test_is_minimal_base_examples():
    s4 = symmetric(4)
    assert is_minimal_base(s4, {0, 1, 2})
    assert not is_minimal_base(s4, {0, 1, 2, 3})
    # weave on 182 points: one point of the second block plus one point from
    # each of the last four 2-point blocks
    G, dom = theorem2_group([1, 3, 5, 7], 2)
    pts = {dom.block("D2")[0]} | {dom.block(f"D4_{i}")[0] for i in (4, 5, 6, 7)}
    assert is_minimal_base(G, pts)


def test_theorem2_stabilizer_structure():
    # the stabilizer of a point of the second block is generated by the last
    # four weave generators and has order 16
    G, dom = theorem2_group([1, 3, 5, 7], 2)
    y2 = dom.block("D2")[0]
    stab = G.point_stabilizer(y2)
    assert stab.order() == 16
    expected = PermGroup(G.degree, G.generators[3:])
    assert expected.order() == 16
    assert all(expected.contains(g) for g in stab.generators)


def test_is_irredundant_sequence_examples():
    s4 = symmetric(4)
    assert is_irredundant_sequence(s4, (0, 1, 2))
    assert not is_irredundant_sequence(s4, (0, 0, 1, 2))
    assert not is_irredundant_sequence(s4, (0, 1))  # does not reach the identity


def test_every_ordering_of_a_minimal_base_is_irredundant():
    for name, G in ORACLE_GROUPS[:8]:
        sizes, wits = minimal_base_sizes(G, witnesses=True)
        for base in wits.values():
            for order in list(permutations(base))[:24]:
                assert is_irredundant_sequence(G, order), (name, order)


def test_is_independent_set():
    c5 = cyclic_regular(5)
    assert is_independent_set(c5, {3})
    assert not is_independent_set(c5, {1, 2})
    for name, G in ORACLE_GROUPS[:6]:
        _, wits = minimal_base_sizes(G, witnesses=True)
        for base in wits.values():
            assert is_independent_set(G, base), name


def test_height_examples():
    assert height(cyclic_regular(6)) == 1
    assert height(elem_abelian_regular(2, 3)) == 1
    assert height(symmetric(5)) == 4


def test_height_product_subadditive():
    pool = [symmetric(3), symmetric(4), cyclic_regular(3), elem_abelian_regular(2, 2)]
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            A, B = pool[i], pool[j]
            assert height(product_action(A, B)) <= height(A) + height(B)


def test_ibis_mibis():
    assert is_ibis(symmetric(5)) and is_mibis(symmetric(5))
    G, _ = theorem2_group([1, 3], 2)
    assert not is_ibis(G) and not is_mibis(G)


def test_base_stats():
    st = base_stats(symmetric(5))
    assert (st.b, st.B, st.Imax) == (4, 4, 4)
    prod = product_action(symmetric(3), symmetric(3))
    st = base_stats(prod)
    assert (st.b, st.B, st.Imax) == (2, 2, 3)


def test_trivial_group_rejected():
    T = PermGroup(4)
    for fn in (minimal_base_sizes, irredundant_base_sizes, height, min_base_size, base_stats):
        with pytest.raises(ValueError):
            fn(T)


def test_budget_exceeded_is_an_error_not_a_truncation():
    G = symmetric(6)
    with pytest.raises(BudgetExceeded):
        minimal_base_sizes(G, budget=2)
    shared = SearchBudget(10**6)
    minimal_base_sizes(G, budget=shared)
    assert 0 < shared.used < 10**6
    # the limit is exact, and 0 is a limit
    assert minimal_base_sizes(G, budget=shared.used) == SizeSet({5})
    for limit in (shared.used - 1, 0):
        with pytest.raises(BudgetExceeded):
            minimal_base_sizes(G, budget=limit)


def test_budget_takes_numpy_integers_as_ints():
    assert minimal_base_sizes(symmetric(4), budget=np.int64(100)) == SizeSet({3})
    limit = SearchBudget(np.int32(5)).limit
    assert limit == 5 and type(limit) is int


@pytest.mark.parametrize("budget", [2.7, 3.0, True, False, "7", -1, [5],
                                    np.int64(-1), np.bool_(True), np.float64(3.0)],
                         ids=["float", "integral-float", "true", "false", "str", "negative", "list",
                              "numpy-negative", "numpy-bool", "numpy-float"])
def test_budget_is_none_a_search_budget_or_a_non_negative_int(budget):
    # never truncated (2.7 -> 2, True -> 1) or parsed ("7" -> 7)
    with pytest.raises(ValueError):
        SearchBudget(budget)
    for fn in (minimal_base_sizes, irredundant_base_sizes, height, min_base_size):
        with pytest.raises(ValueError):
            fn(symmetric(4), budget=budget)


@pytest.mark.parametrize("mode", ["pruned", "exhaustive"])
@pytest.mark.parametrize("search", [minimal_base_sizes, irredundant_base_sizes],
                         ids=["minimal", "irredundant"])
def test_witnesses_cost_no_search_nodes(search, mode, monkeypatch):
    # nor stabilizer computations: witnesses are read from what the search built
    original = PermGroup.pointwise_stabilizer
    calls = []

    def counting(self, points):
        calls.append(points)
        return original(self, points)

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", counting)
    for name, G in ORACLE_GROUPS[:9] + [("sym5", symmetric(5))]:
        plain, with_witnesses = SearchBudget(), SearchBudget()
        # a fresh copy per search, so neither reads the other's cached results
        del calls[:]
        sizes = search(PermGroup(G.degree, G.generators), mode, plain)
        plain_calls = len(calls)
        del calls[:]
        assert search(PermGroup(G.degree, G.generators), mode, with_witnesses, witnesses=True)[0] == sizes
        assert with_witnesses.used == plain.used, name
        assert len(calls) == plain_calls, name


_SPARE_FRAMES_SCRIPT = """
import inspect, sys
from basekit import height, irredundant_base_sizes, minimal_base_sizes, symmetric
G = symmetric(14)
sys.setrecursionlimit(len(inspect.stack()) + 16)
print(minimal_base_sizes(G).to_list(), irredundant_base_sizes(G).to_list(), height(G))
"""


def test_searches_run_within_a_few_spare_frames():
    # S14's searches descend 13 levels; explicit stacks keep the Python stack
    # shallow however deep the stabilizer chain goes.  A fresh interpreter,
    # because a test runner's own C-level calls use up recursion depth that
    # inspect.stack() does not list.
    env = dict(os.environ, PYTHONPATH=str(Path(basekit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _SPARE_FRAMES_SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[13] [13] 13\n"


@pytest.mark.parametrize(
    "run",
    [lambda: cli.analyze_report({"type": "k_subsets", "n": 5, "k": 2}, witnesses=True),
     lambda: cli.analyze_report({"type": "wreath_coset", "n": 4, "k": 2}, witnesses=True),
     # a search on a conjugated view carries its stabilizer classes through
     # its conjugator, not by its generators
     lambda: minimal_base_sizes(symmetric(7).point_stabilizer(3))],
    ids=["k_subsets(5,2)", "wreath_coset(4,2)", "sym7-stab3"],
)
def test_analyze_makes_no_views_generators(run, monkeypatch):
    # orbit lengths, fixed points, subgroup keys and stabilizer classes are
    # all read off orbit partitions and chains, so no conjugated view's
    # generators are made: only the public property makes them
    made = []
    prop = PermGroup.generators

    def generators(self):
        if self._generators is None:
            made.append(self)
        return prop.fget(self)

    monkeypatch.setattr(PermGroup, "generators", property(generators))
    run()
    assert made == []


def test_fixed_point_key_is_exact_on_pointwise_stabilizers():
    # G_(S) = G_(Fix(G_(S))), so two pointwise stabilizers of one group are
    # equal iff they fix the same points; checked against element sets.  A
    # key is an int with bit x set iff x is fixed.  A request
    # K.point_stabilizer(x) with K = G_(S) is named by Fix(K) | 1 << x:
    # its points fix exactly G_(S ∪ {x}), so equal request keys are equal
    # subgroups.  The converse fails (in c5 every request is the trivial
    # group, under five keys), which costs the walker a recomputation only.
    for name, G in ORACLE_GROUPS:
        elements = closure_of(G)
        keys, stabs = [], []
        for r in range(4):
            for S in combinations(range(G.degree), r):
                K = G.pointwise_stabilizer(S)
                keys.append(_fixed_key(K))
                stabs.append(frozenset(bf.stabilizer(elements, S)))
                for x in np.nonzero(K.orbit_partition()[1] > 1)[0].tolist():
                    key = _fixed_key(K) | 1 << x
                    named = [y for y in range(G.degree) if key >> y & 1]
                    want = frozenset(bf.stabilizer(elements, S + (x,)))
                    assert frozenset(bf.stabilizer(elements, named)) == want, (name, S, x)
        # equal keys iff equal subgroups, for every pair of point sets
        assert len(set(keys)) == len(set(stabs)) == len(set(zip(keys, stabs))), name


@pytest.mark.parametrize("search", [minimal_base_sizes, height], ids=["minimal", "height"])
@pytest.mark.parametrize(
    "mode,make,nodes,computed",
    [
        ("exhaustive", lambda: k_subset_action(6, 2), 541, 65),
        ("exhaustive", lambda: theorem2_group([1, 3, 5, 7])[0], 2739, 126),
        ("exhaustive", lambda: symmetric(6), 57, 56),
        ("pruned", lambda: k_subset_action(6, 2), 9, 15),
        ("pruned", lambda: theorem2_group([1, 3, 5, 7])[0], 145, 126),
        ("pruned", lambda: symmetric(6), 5, 10),
    ],
    ids=["ksub62", "thm2_1357", "sym6", "pruned-ksub62", "pruned-thm2_1357", "pruned-sym6"],
)
def test_exhaustive_walk_computes_each_stabilizer_once(search, mode, make, nodes, computed,
                                                       monkeypatch):
    # in either mode a request K.point_stabilizer(x) is computed only when no
    # stored subgroup answers it, whether a node or a deletion stabilizer
    # asks, so every computation yields a subgroup, named by its fixed
    # points, not seen before
    G = make()
    G.order()
    G.stabilizer_class_labels()  # its stabilizers, one per orbit, are not the walk's
    original = PermGroup.pointwise_stabilizer
    requests, results = [], []

    def counting(self, points):
        [x] = points
        requests.append(_fixed_key(self) | 1 << x)
        out = original(self, points)
        results.append(_fixed_key(out))
        return out

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", counting)
    budget = SearchBudget()
    search(G, mode, budget)
    assert budget.used == nodes
    assert len(set(requests)) == len(requests) == computed
    assert len(set(results)) == len(results) == computed


@pytest.mark.parametrize(
    "make", [lambda: k_subset_action(6, 2), lambda: theorem2_group([1, 3, 5, 7])[0]],
    ids=["ksub62", "thm2_1357"],
)
def test_exhaustive_irredundant_after_minimal_computes_no_stabilizer(make, monkeypatch):
    # every node of the irredundant search is a pointwise stabilizer that the
    # minimal-base walk on the same group already stored in the group's table
    G = make()
    minimal_base_sizes(G, "exhaustive")
    calls = []
    original = PermGroup.pointwise_stabilizer

    def counting(self, points):
        calls.append(points)
        return original(self, points)

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", counting)
    budget = SearchBudget()
    sizes = irredundant_base_sizes(G, "exhaustive", budget)
    assert calls == []
    fresh = SearchBudget()
    assert irredundant_base_sizes(make(), "exhaustive", fresh) == sizes
    assert fresh.used == budget.used


@pytest.mark.parametrize(
    "make", [lambda: k_subset_action(6, 2), lambda: theorem2_group([1, 3, 5, 7])[0]],
    ids=["ksub62", "thm2_1357"],
)
def test_pruned_height_after_minimal_computes_no_stabilizer(make, monkeypatch):
    # pruned height walks the tree pruned M walked, so every stabilizer it
    # asks for is already in the group's pruned table
    G = make()
    minimal_base_sizes(G)
    calls = []
    original = PermGroup.pointwise_stabilizer

    def counting(self, points):
        calls.append(points)
        return original(self, points)

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", counting)
    budget = SearchBudget()
    h = height(G, "pruned", budget)
    assert calls == []
    fresh = SearchBudget()
    assert height(make(), "pruned", fresh) == h
    assert fresh.used == budget.used


def test_pruned_and_exhaustive_searches_keep_separate_tables(monkeypatch):
    # each mode reads and fills only its own table, so the exhaustive
    # cross-check of analyze never reads a group a pruned search produced:
    # every request goes to the table of the running search's mode, and
    # asks about the root or a group that same table answered
    spec = {"type": "k_subsets", "n": 6, "k": 2}
    roots, modes, answered, asked = [], [], {}, []
    original = _SubgroupTable.point_stabilizer

    def recording(self, k, K, x):
        assert k == _fixed_key(K)
        asked.append((modes[-1], self, K))
        key, Kx = original(self, k, K, x)
        answered.setdefault(id(self), set()).add(id(Kx))
        return key, Kx

    def in_mode(search):
        def run(G, mode, *args, **kwargs):
            modes.append(mode)
            try:
                return search(G, mode, *args, **kwargs)
            finally:
                modes.pop()
        return run

    def building(s):
        out = real_build(s)
        roots.append(out[0])
        return out

    real_build = cli.build_group
    monkeypatch.setattr(_SubgroupTable, "point_stabilizer", recording)
    monkeypatch.setattr(cli, "build_group", building)
    for name in ("minimal_base_sizes", "irredundant_base_sizes", "height"):
        monkeypatch.setattr(cli, name, in_mode(getattr(cli, name)))
    report = cli.analyze_report(spec)
    assert report["exhaustive_cross_check"] == "match"
    [G] = roots
    pruned, exhaustive = G._subgroups["pruned"], G._subgroups["exhaustive"]
    assert pruned is not exhaustive
    assert set(map(id, pruned.groups.values())).isdisjoint(map(id, exhaustive.groups.values()))
    assert {mode for mode, _, _ in asked} == {"pruned", "exhaustive"}
    for mode, table, K in asked:
        assert table is G._subgroups[mode]
        assert K is G or id(K) in answered[id(table)]
    monkeypatch.undo()
    # a pruned search on a group whose exhaustive table is full leaves it as it was
    H = k_subset_action(6, 2)
    height(H, "exhaustive")
    table = H._subgroups["exhaustive"]
    before = (dict(table.requests), dict(table.groups), dict(table.cands))
    minimal_base_sizes(H)
    irredundant_base_sizes(H, witnesses=True)
    height(H)
    min_base_size(H)
    assert (table.requests, table.groups, table.cands) == before
    assert H._subgroups["pruned"].groups and H._subgroups["pruned"].cands


@pytest.mark.parametrize("mode", ["pruned", "exhaustive"])
def test_each_keys_candidates_are_made_once_per_table(mode, monkeypatch):
    # M, height and I in one mode read a subgroup's candidates off one list
    # per key in the group's table, made the first time a search enters the
    # key: the minima of its moved orbits (pruned) or its moved points
    G = k_subset_action(6, 2)
    returned = {}
    original = _SubgroupTable.candidates

    def recording(self, k, H):
        cands = original(self, k, H)
        returned.setdefault(k, []).append(cands)
        return cands

    monkeypatch.setattr(_SubgroupTable, "candidates", recording)
    minimal_base_sizes(G, mode)
    table = G._subgroups[mode]
    after_m = dict(table.cands)
    height(G, mode)
    irredundant_base_sizes(G, mode, witnesses=True)
    assert len(table.cands) >= len(after_m) > 1
    assert all(table.cands[k] is cands for k, cands in after_m.items())
    assert set(returned) == set(table.cands)
    assert all(c is lists[0] for lists in returned.values() for c in lists)
    assert sum(map(len, returned.values())) > len(returned)
    groups = {**table.groups, _fixed_key(G): G}
    for k, cands in table.cands.items():
        labels, sizes = groups[k].orbit_partition()
        assert cands == [x for x in range(G.degree)
                         if sizes[x] > 1 and (mode == "exhaustive" or labels[x] == x)]


def test_threads_sharing_a_subgroup_table_get_the_sequential_answers():
    # threads racing on one group's table may compute a subgroup twice, but
    # every answer stays the same, and so does every stored entry's name
    want = (minimal_base_sizes(k_subset_action(6, 2), "exhaustive"),
            irredundant_base_sizes(k_subset_action(6, 2), "exhaustive"),
            height(k_subset_action(6, 2), "exhaustive"))
    G = k_subset_action(6, 2)
    results, errors = [], []

    def work():
        try:
            results.append((minimal_base_sizes(G, "exhaustive"),
                            irredundant_base_sizes(G, "exhaustive"),
                            height(G, "exhaustive")))
        except Exception as exc:  # reraised below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [want] * 4
    table = G._subgroups["exhaustive"]
    assert all(_fixed_key(H) == key for key, H in table.groups.items())
    assert set(table.requests.values()) == set(table.groups)


def _check_table_answers(G, mode):
    # routes 1 and 2 of the group's subgroup table for ``mode`` (a repeated
    # request, or a stored subgroup of the request's order fixing its
    # points) against a fresh pointwise_stabilizer, compared as element
    # sets; route 3 is a fresh computation itself, seen as a new stored group
    minimal_base_sizes(G, mode)
    irredundant_base_sizes(G, mode)
    table = G._subgroups[mode]
    elements = closure_of(G)
    closures = {}  # id -> element set of each answer, a group the table keeps alive
    answered = 0
    for r in range(3):
        for S in combinations(range(G.degree), r):
            K = G.pointwise_stabilizer(S)
            fixing_s = bf.stabilizer(elements, S)
            for x in np.nonzero(K.orbit_partition()[1] > 1)[0].tolist():
                stored = len(table.groups)
                key, Kx = table.point_stabilizer(_fixed_key(K), K, x)
                if len(table.groups) > stored:
                    continue
                answered += 1
                want = frozenset(bf.stabilizer(fixing_s, (x,)))
                if id(Kx) not in closures:  # a trivial Kx has no generators
                    closures[id(Kx)] = frozenset(closure_of(Kx) | {tuple(range(G.degree))})
                assert closures[id(Kx)] == want, (S, x)
                assert key == _fixed_key(G.pointwise_stabilizer(S + (x,))), (S, x)
    return answered


@pytest.mark.parametrize("name,G", ORACLE_GROUPS, ids=[n for n, _ in ORACLE_GROUPS])
def test_subgroup_table_answers_equal_fresh_stabilizers(name, G):
    for mode in ("pruned", "exhaustive"):
        assert _check_table_answers(G, mode) > 0, mode


@pytest.mark.parametrize("search", [minimal_base_sizes, height], ids=["minimal", "height"])
def test_exhaustive_budget_running_out_mid_walk_is_budget_exceeded(search):
    # running out at any node is the budget's error, and the group's
    # subgroup table, kept across the aborted walks, changes no node count
    G = k_subset_action(6, 2)
    for limit in (0, 1, 60, 300, 540):
        with pytest.raises(BudgetExceeded, match="budget"):
            search(G, "exhaustive", limit)
    budget = SearchBudget(541)
    search(G, "exhaustive", budget)
    assert budget.used == 541


# -- random-group oracles -------------------------------------------------


@st.composite
def two_generator_groups(draw, min_degree=2, max_degree=7):
    # a non-trivial group on two drawn generators
    n = draw(st.integers(min_value=min_degree, max_value=max_degree))
    first = draw(st.permutations(range(n)).filter(lambda p: p != sorted(p)))
    return PermGroup(n, [Perm(first), Perm(draw(st.permutations(range(n))))])


def brute_spectra(G, limit=6000):
    # (M, I, height) of G from its elements
    elements = bf.closure([g.to_list() for g in G.generators], limit=limit)
    return (bf.minimal_base_sizes(G.degree, elements),
            bf.irredundant_base_sizes(G.degree, elements) - {0},
            bf.height(G.degree, elements))


def check_spectra(G, want_m, want_i, want_h):
    for mode in ("pruned", "exhaustive"):
        M, I = minimal_base_sizes(G, mode), irredundant_base_sizes(G, mode)
        assert set(M) == want_m and set(I) == want_i, mode
        assert height(G, mode) == want_h, mode
        assert set(M) <= set(I) and M.min == I.min and I.is_interval, mode
    assert min_base_size(G) == min(want_m)


@given(two_generator_groups())
def test_random_group_spectra_match_bruteforce(G):
    check_spectra(G, *brute_spectra(G))


@settings(max_examples=8)
@given(two_generator_groups(min_degree=8, max_degree=8))
def test_degree_8_random_group_spectra_match_bruteforce(G):
    # most random pairs generate A8 or S8, which the 6,000-element cap of
    # closure_of would cut short
    check_spectra(G, *brute_spectra(G, limit=40320))


@given(two_generator_groups())
def test_random_group_subgroup_table_answers_equal_fresh_stabilizers(G):
    for mode in ("pruned", "exhaustive"):
        _check_table_answers(G, mode)


def check_product_spectra(P, factors):
    # the spectra of a disjoint product are the sumsets of its factors'
    want_m, want_i, want_h = {0}, {0}, 0
    for F in factors:
        m, i, h = brute_spectra(F)
        want_m = {a + b for a in want_m for b in m}
        want_i = {a + b for a in want_i for b in i}
        want_h += h
    for mode in ("pruned", "exhaustive"):
        assert set(minimal_base_sizes(P, mode)) == want_m, mode
        assert set(irredundant_base_sizes(P, mode)) == want_i, mode
        assert height(P, mode) == want_h, mode


@given(two_generator_groups(), st.sampled_from([2, 3]), st.booleans())
def test_random_disjoint_product_spectra_are_sumsets(G, p, cyclic_first):
    C = cyclic_regular(p)
    factors = (C, G) if cyclic_first else (G, C)
    check_product_spectra(disjoint_product(*factors), factors)


@st.composite
def interleaved_three_factor_products(draw):
    """(P, factors): a random two-generator group, ``C_p`` and a second small
    group, as a disjoint product whose points are relabelled so that the
    three orbits interleave."""
    factors = (draw(two_generator_groups(max_degree=6)), cyclic_regular(draw(st.sampled_from([2, 3]))),
               draw(two_generator_groups(max_degree=4)))
    P = disjoint_product(disjoint_product(factors[0], factors[1]), factors[2])
    n = P.degree
    label = draw(st.permutations(range(n)))
    gens = []
    for g in P.generators:
        images = [0] * n
        for x in range(n):
            images[label[x]] = label[g[x]]
        gens.append(Perm(images))
    return PermGroup(n, gens, order_hint=P.order()), factors


@settings(max_examples=40)
@given(interleaved_three_factor_products())
def check_interleaved_three_factor_products(case):
    check_product_spectra(*case)


def test_interleaved_three_factor_product_spectra_are_sumsets(monkeypatch):
    # the stabilizers rebase on more than one orbit, and the oracle must
    # reach rebases of conjugated views
    calls = count_chain_builds(monkeypatch)
    conjugated = []
    stabilizer = PermGroup.pointwise_stabilizer

    def recording(self, points):
        before = len(calls)
        K = stabilizer(self, points)
        if len(calls) > before and K._view[1] is not None:
            conjugated.append(K)
        return K

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", recording)
    check_interleaved_three_factor_products()
    assert len(conjugated) >= 10, len(conjugated)


def _relabelled_symmetric(n, seed):
    # S_n from a transposition and an n-cycle, points shuffled, no order hint
    lab = list(range(n))
    random.Random(seed).shuffle(lab)
    t = list(range(n))
    t[lab[0]], t[lab[1]] = lab[1], lab[0]
    c = list(range(n))
    for i in range(n):
        c[lab[i]] = lab[(i + 1) % n]
    return PermGroup(n, [Perm(t), Perm(c)])


def test_searches_build_a_bounded_number_of_chains(monkeypatch):
    # stabilizers come from the root chain, so the number of Schreier-Sims
    # runs does not grow with the depth of the search
    import basekit.group as group_module

    original = group_module.build_chain
    counts = {}
    for n in (8, 12):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(group_module, "build_chain", counting)
        G = _relabelled_symmetric(n, 7)
        assert minimal_base_sizes(G) == SizeSet({n - 1})
        assert irredundant_base_sizes(G) == SizeSet({n - 1})
        assert height(G) == n - 1
        counts[n] = len(calls)
    assert counts[8] == counts[12] <= 2


def test_search_makes_a_bounded_number_of_multiplications(monkeypatch):
    # transversal elements are formed only when read, not rebuilt in full
    # whenever a level gains a strong generator; rebuilding made 2,320 here
    G = wreath_coset_action(4, 3)
    original = Perm.__mul__
    calls = [0]

    def counting(p, q):
        calls[0] += 1
        return original(p, q)

    monkeypatch.setattr(Perm, "__mul__", counting)
    assert minimal_base_sizes(G) == SizeSet({3, 4})
    assert calls[0] <= 1160


def test_off_orbit_stabilizers_make_a_bounded_number_of_multiplications(monkeypatch):
    # off-orbit stabilizers are rebased by sifting random elements of the
    # known-order parent; rebuilding them from the generators made 13,460
    G = wreath_coset_action(5, 3)
    G.order()
    original = Perm.__mul__
    calls = [0]

    def counting(p, q):
        calls[0] += 1
        return original(p, q)

    monkeypatch.setattr(Perm, "__mul__", counting)
    assert minimal_base_sizes(G) == SizeSet({3, 5})
    assert height(G) == 5
    assert irredundant_base_sizes(G) == SizeSet(range(3, 9))
    assert calls[0] <= 4000


def test_each_orbit_of_a_chain_level_is_rebased_once(monkeypatch):
    # an off-orbit stabilizer reads the rebase of its orbit, made once per
    # chain level and orbit and shared by both search modes; a rebase per
    # request made 19 on the wreath, and 26 then 347 on the 2-subsets
    calls = count_chain_builds(monkeypatch)

    def rebases():
        return len([prefix for prefix in calls if prefix])

    W = wreath_coset_action(5, 3)
    assert minimal_base_sizes(W) == SizeSet({3, 5})
    assert irredundant_base_sizes(W) == SizeSet(range(3, 9))
    assert height(W) == 5
    assert rebases() == 8
    del calls[:]
    K = k_subset_action(7, 2)
    assert minimal_base_sizes(K) == SizeSet({4, 5})
    assert irredundant_base_sizes(K) == SizeSet({4, 5, 6})
    assert height(K) == 5
    assert rebases() == 10
    assert minimal_base_sizes(K, "exhaustive") == SizeSet({4, 5})
    assert rebases() == 10


def test_witnesses_are_real_bases():
    for (name, G), mode in product(ORACLE_GROUPS[:8], ["pruned", "exhaustive"]):
        sizes, wits = minimal_base_sizes(G, mode, witnesses=True)
        assert sorted(wits) == sizes.to_list()
        for size, base in wits.items():
            assert len(base) == size
            assert is_minimal_base(G, base), name
        isizes, iwits = irredundant_base_sizes(G, mode, witnesses=True)
        assert sorted(iwits) == isizes.to_list()
        for size, seq in iwits.items():
            assert len(seq) == size
            assert is_irredundant_sequence(G, seq), name


@pytest.mark.parametrize("mode", ["pruned", "exhaustive"])
def test_irredundant_witnesses_are_the_first_in_candidate_order(mode):
    # candidates ascend (orbit minima when pruned), so each length's witness
    # is the lexicographically first irredundant base of that length
    for name, G in ORACLE_GROUPS[:9]:
        _, wits = irredundant_base_sizes(G, mode, witnesses=True)
        want = bf.first_irredundant_bases(G.degree, closure_of(G), minima=mode == "pruned")
        assert wits == want, name


def test_size_set():
    s = SizeSet([3, 1, 3, 2])
    assert s.to_list() == [1, 2, 3]
    assert s.min == 1 and s.max == 3 and s.is_interval
    assert not SizeSet([1, 3]).is_interval
    assert 2 in s and len(s) == 3
    assert SizeSet([2, 1]) == SizeSet((1, 2))
    with pytest.raises(ValueError):
        SizeSet([])
    with pytest.raises(ValueError):
        SizeSet([0, 1])
    assert SizeSet([np.int64(2), 1]) == SizeSet([1, 2])
    # sizes are never truncated: 1.5 used to become 1, and True to become 1
    for sizes, bad in (([1.5, 2.9], 1.5), ([True], True), ([2, "3"], "3")):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            SizeSet(sizes)


def test_mode_validation():
    with pytest.raises(ValueError):
        minimal_base_sizes(symmetric(3), mode="fast")


# -- indicator vectors ----------------------------------------------------


def test_indicator_vectors_examples():
    iv = indicator_vectors(symmetric(3), symmetric(3), [(0, 0), (1, 1)])
    assert iv.vG == (1, 1) and iv.vH == (1, 1)
    assert iv.nG == 2 and iv.nH == 2
    iv = indicator_vectors(symmetric(3), symmetric(4), [(0, 0), (1, 1), (1, 2)])
    assert iv.vG == (1, 0, 0)
    assert iv.vH == (1, 1, 1)


@pytest.mark.parametrize("bad", [0.5, True, "1", np.float64(1.0)])
def test_predicates_reject_non_integer_points(bad):
    # 0.5 used to truncate to 0, which made [0.5, 1, 2, 3] an irredundant base of S5
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        is_irredundant_sequence(symmetric(5), [bad, 1, 2, 3])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        indicator_vectors(symmetric(3), symmetric(3), [(bad, 0), (1, 1)])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        indicator_vectors(symmetric(3), symmetric(3), [(0, 0), (1, bad)])
    # checked before deduplication: True used to collapse into 1
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        is_independent_set(symmetric(4), [0, 1, bad])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        is_minimal_base(symmetric(4), [0, 1, 2, bad])
    # [0.5, 1.7] used to truncate to the base [0, 1]
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        grid_minimal_base([bad, 1], [0, 1, 2], 3)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        grid_minimal_base([0, 1], [0, 1, bad], 3)
    assert is_irredundant_sequence(symmetric(5), [np.int64(0), 1, 2, 3])


def test_indicator_vectors_rejects_non_minimal():
    with pytest.raises(ValueError):
        indicator_vectors(symmetric(3), symmetric(3), [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        indicator_vectors(symmetric(3), symmetric(3), [(0, 7)])


LEMMAVECT_PAIRS = [
    (symmetric(3), symmetric(3)),
    (symmetric(3), symmetric(4)),
    (symmetric(4), symmetric(4)),
    (elem_abelian_regular(2, 2), symmetric(3)),
    (product_action(symmetric(3), symmetric(3)), product_action(symmetric(3), symmetric(3))),
]


@pytest.mark.parametrize("A,B", LEMMAVECT_PAIRS, ids=["s3,s3", "s3,s4", "s4,s4", "elemab22,s3", "s3xs3,s3xs3"])
def test_indicator_vectors_match_bruteforce_stabilizers(A, B):
    # coordinate i is 1 iff some element fixing the other coordinates moves
    # coordinate i, on every witness of the lemmavect suite's pairs
    closures = [closure_of(A), closure_of(B)]
    _, wits = minimal_base_sizes(product_action(A, B), witnesses=True)
    for base in wits.values():
        coords = [divmod(p, B.degree) for p in base]
        iv = indicator_vectors(A, B, coords)
        for vector, elements, side in zip((iv.vG, iv.vH), closures, (0, 1)):
            points = [c[side] for c in coords]
            want = []
            for i, x in enumerate(points):
                fixing = bf.stabilizer(elements, points[:i] + points[i + 1:])
                want.append(int(any(e[x] != x for e in fixing)))
            assert vector == tuple(want), (base, side)


def test_indicator_vector_facts_on_witnesses():
    pairs = [(symmetric(3), symmetric(3)), (symmetric(3), symmetric(4)), (symmetric(4), symmetric(4))]
    for A, B in pairs:
        prod = product_action(A, B)
        _, wits = minimal_base_sizes(prod, witnesses=True)
        b_a = minimal_base_sizes(A).max
        b_b = minimal_base_sizes(B).max
        for base in wits.values():
            coords = [divmod(p, B.degree) for p in base]
            iv = indicator_vectors(A, B, coords)
            assert iv.nG <= b_a and iv.nH <= b_b
            assert all(iv.vG[i] or iv.vH[i] for i in range(len(coords)))
            assert iv.nG + iv.nH >= len(coords)


# -- grid recipe ----------------------------------------------------------


def test_grid_recipe_instances():
    assert grid_minimal_base([0, 1], [0, 1], 2) == [(0, 0), (1, 1)]
    assert grid_minimal_base([0, 1], [0, 1, 2], 3) == [(0, 0), (1, 1), (1, 2)]
    assert len(grid_minimal_base([0, 1, 2], [0, 1, 2], 4)) == 4


def test_grid_recipe_swaps_longer_first_base():
    flipped = grid_minimal_base([0, 1, 2], [0, 1], 3)
    assert flipped == [(d, l) for l, d in grid_minimal_base([0, 1], [0, 1, 2], 3)]


def test_grid_recipe_range_errors():
    with pytest.raises(ValueError):
        grid_minimal_base([0, 1], [0, 1], 3)
    with pytest.raises(ValueError):
        grid_minimal_base([0, 1], [0, 1, 2], 2)


def test_grid_recipe_yields_minimal_bases():
    cases = [
        (symmetric(3), symmetric(3), [0, 1], [0, 1]),
        (symmetric(3), symmetric(4), [0, 1], [0, 1, 2]),
        (symmetric(4), symmetric(4), [0, 1, 2], [0, 1, 2]),
    ]
    for A, B, base_a, base_b in cases:
        prod = product_action(A, B)
        lo = max(len(base_a), len(base_b))
        hi = len(base_a) + len(base_b) - 2
        for k in range(lo, hi + 1):
            pts = {d * B.degree + l for d, l in grid_minimal_base(base_a, base_b, k)}
            assert is_minimal_base(prod, pts), (A.degree, B.degree, k)
