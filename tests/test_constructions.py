import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from basekit import (
    BudgetExceeded,
    Perm,
    PermGroup,
    SpecError,
    build_group,
    cyclic_regular,
    disjoint_product,
    elem_abelian_regular,
    gl42_on_2subspaces,
    k_subset_action,
    minimal_base_sizes,
    product_action,
    product_coords,
    product_point,
    symmetric,
    theorem2_group,
    theorem3_groups,
    wreath_coset_action,
    wreath_imprimitive,
)
from basekit.constructions import _spec_degree, coset_action

import bruteforce as bf


def test_symmetric():
    assert symmetric(3).order() == 6
    assert symmetric(3).degree == 3
    s1 = symmetric(1)
    assert s1.is_trivial() and s1.degree == 1
    for n in range(2, 8):
        assert symmetric(n).order() == math.factorial(n)


def test_cyclic_regular():
    assert cyclic_regular(2).generators[0].cycles() == [(0, 1)]
    assert cyclic_regular(3).order() == 3
    with pytest.raises(ValueError):
        cyclic_regular(1)


def test_elem_abelian_regular():
    G = elem_abelian_regular(2, 3)
    assert G.degree == 8 and G.order() == 8
    for g in G.generators:
        assert (g * g).is_identity()
        for h in G.generators:
            assert g * h == h * g
    assert elem_abelian_regular(2, 7).order() == 128
    # regularity
    G = elem_abelian_regular(3, 2)
    assert G.orbit(4) == set(range(9))
    assert G.point_stabilizer(4).order() == 1
    with pytest.raises(ValueError):
        elem_abelian_regular(4, 2)


def test_disjoint_product():
    d = disjoint_product(symmetric(3), symmetric(4))
    assert d.degree == 7
    assert d.order() == 6 * 24
    assert d.orbits() == [[0, 1, 2], [3, 4, 5, 6]]
    assert minimal_base_sizes(disjoint_product(symmetric(3), symmetric(3))).to_list() == [4]


def test_disjoint_product_sumset_property():
    pool = [symmetric(3), symmetric(4), cyclic_regular(3), elem_abelian_regular(2, 2)]
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            A, B = pool[i], pool[j]
            ma = minimal_base_sizes(A)
            mb = minimal_base_sizes(B)
            want = sorted({a + b for a in ma for b in mb})
            assert minimal_base_sizes(disjoint_product(A, B)).to_list() == want


def test_product_action():
    p = product_action(symmetric(3), symmetric(4))
    assert p.degree == 12
    assert p.order() == 6 * 24
    assert p.is_transitive()
    assert product_point(2, 3, 4) == 11
    assert product_coords(11, 4) == (2, 3)
    # order equals brute-force closure
    elements = bf.closure([g.to_list() for g in p.generators], limit=200)
    assert len(elements) == 144
    # coordinatewise action
    g = p.generators[0]
    for d in range(3):
        for l in range(4):
            img = g[product_point(d, l, 4)]
            d2, l2 = product_coords(img, 4)
            assert l2 == l


def test_product_point_round_trips_on_valid_pairs():
    for h_degree in (1, 2, 5):
        for d in range(4):
            for l in range(h_degree):
                point = product_point(d, l, h_degree)
                assert product_coords(point, h_degree) == (d, l)
    assert product_coords(np.int64(11), np.int32(4)) == (2, 3)


@pytest.mark.parametrize("args", [(1.5, 2, 3), (0, 2.0, 3), (0, 2, 3.0), (True, 0, 3),
                                  (0, 3, 3), (0, 5, 3), (0, -1, 3), (-1, 0, 3),
                                  (0, 0, 0), (0, 0, -2)])
def test_product_point_rejects_bad_pairs(args):
    with pytest.raises(ValueError):
        product_point(*args)


@pytest.mark.parametrize("args", [(-1, 3), (1.5, 3), ("4", 3), (4, 0), (4, -3), (4, 2.0)])
def test_product_coords_rejects_bad_points(args):
    with pytest.raises(ValueError):
        product_coords(*args)


def test_product_action_many():
    p = product_action(symmetric(3), symmetric(3), symmetric(3), symmetric(3))
    assert p.degree == 81
    assert p.order() == 6**4


def test_theorem2_degrees_and_labels():
    G, dom = theorem2_group([1, 3, 5, 7], 2)
    assert G.degree == 182
    assert G.order() == 128
    assert [lbl for lbl, _, _ in dom.blocks] == [
        "D1", "D2", "D3", "D4_1", "D4_2", "D4_3", "D4_4", "D4_5", "D4_6", "D4_7",
    ]
    assert dom.block("D1") == range(0, 128)
    assert dom.block("D2") == range(128, 136)
    assert dom.block("D3") == range(136, 168)
    assert dom.block("D4_1") == range(168, 170)
    # every generator moves the first block (its vectors act regularly there)
    for g in G.generators:
        assert g[0] != 0


def test_theorem2_shifted_start():
    # {2,3} is a symmetric factor glued to the {1,2} weave
    G, dom = theorem2_group([2, 3], 2)
    assert dom.blocks[0][0] == "Sym"
    assert G.degree == 2 + (4 + 2 * 2)  # symmetric factor + the {1,2} weave
    assert minimal_base_sizes(G).to_list() == [2, 3]


def test_theorem2_validation():
    with pytest.raises(ValueError):
        theorem2_group([], 2)
    with pytest.raises(ValueError):
        theorem2_group([0, 2], 2)
    with pytest.raises(ValueError):
        theorem2_group([1, 3], 4)
    # [1.5, 3] used to build the group of {1, 3}
    for bad in ([1.5, 3], [True, 3]):
        with pytest.raises(ValueError, match="not an integer"):
            theorem2_group(bad, 2)


NON_INTEGER_ARGS = {
    "symmetric-float": (symmetric, (4.0,), "n 4.0 is not an integer"),
    "cyclic-bool": (cyclic_regular, (True,), "p True is not an integer"),
    "elem-abelian-float-d": (elem_abelian_regular, (2, 2.0), "d 2.0 is not an integer"),
    "elem-abelian-string-p": (elem_abelian_regular, ("2", 2), "p '2' is not an integer"),
    "k-subsets-float-k": (k_subset_action, (5, 2.0), "k 2.0 is not an integer"),
    "wreath-imprimitive-float-n": (wreath_imprimitive, (3.5, 2), "n 3.5 is not an integer"),
    "wreath-coset-float-n": (wreath_coset_action, (3.0, 2), "n 3.0 is not an integer"),
    "wreath-coset-bool-k": (wreath_coset_action, (3, True), "k True is not an integer"),
    "wreath-coset-float-max-index": (wreath_coset_action, (3, 2, 5000.0), "max_index 5000.0 is not an integer"),
    "theorem3-float-a": (theorem3_groups, (2.0, 3), "a 2.0 is not an integer"),
    "theorem3-float-b": (theorem3_groups, (2, 3.5), "b 3.5 is not an integer"),
    "theorem2-float-p": (theorem2_group, ([1, 3], 2.0), "p 2.0 is not an integer"),
    # these used to raise BudgetExceeded, as if the ceiling had been reached
    "wreath-coset-zero-max-index": (wreath_coset_action, (3, 2, 0), "max_index 0 must be at least 1"),
    "wreath-coset-negative-max-index": (wreath_coset_action, (3, 2, -5), "max_index -5 must be at least 1"),
}


@pytest.mark.parametrize("build,args,message", NON_INTEGER_ARGS.values(), ids=NON_INTEGER_ARGS.keys())
def test_constructors_name_a_non_integer_argument(build, args, message):
    # the non-integers used to raise TypeError, or a ValueError about
    # something else ("p must be at least 2", "degree 8.0 is not an integer")
    with pytest.raises(ValueError, match=re.escape(message)):
        build(*args)


def test_theorem3_recipes():
    assert theorem3_groups(3, 3, "M").degree == 4
    G = theorem3_groups(2, 4, "M")
    assert G.degree == 81
    assert minimal_base_sizes(G).to_list() == [2, 3, 4]
    with pytest.raises(ValueError):
        theorem3_groups(1, 3, "M")
    with pytest.raises(ValueError):
        theorem3_groups(3, 2, "M")
    with pytest.raises(ValueError):
        theorem3_groups(2, 3, "X")


def test_wreath_imprimitive_order():
    W = wreath_imprimitive(4, 3)
    assert W.degree == 12
    # brute-force closure confirms the order
    elements = bf.closure([g.to_list() for g in W.generators], limit=50000)
    assert len(elements) == 41472
    assert W.order() == 41472


def test_wreath_coset_action_basics():
    w = wreath_coset_action(4, 2)
    assert w.degree == 192
    assert w.order() == 1152
    assert w.is_transitive()
    # the seed coset's stabilizer has the subgroup's order
    assert w.point_stabilizer(0).order() == 6
    w3 = wreath_coset_action(4, 3)
    assert w3.degree == 288
    assert w3.order() == 41472
    assert w3.point_stabilizer(0).order() == 144


def test_stabilizer_families_match_subset_scan():
    # the reduction from bases to stabilizer families, on groups small
    # enough to scan every subset of points
    for G in (
        cyclic_regular(3),
        symmetric(4),
        product_action(symmetric(3), symmetric(3)),
        k_subset_action(5, 2),
    ):
        elements = bf.closure([g.to_list() for g in G.generators])
        classes = bf.stabilizer_classes(G.degree, elements)
        assert bf.minimal_trivial_families(classes) == bf.minimal_base_sizes(
            G.degree, elements
        )


def test_wreath_coset_spectra_bruteforce():
    # imprimitive model: the coset action's point stabilizers are the
    # conjugates of the subgroup, so its minimal base sizes are the sizes of
    # the minimal conjugate families with trivial intersection
    for n, k, want in ((4, 2, {2, 3}), (5, 2, {2, 4}), (4, 3, {3, 4})):
        W = wreath_imprimitive(n, k)
        gens = [tuple(g.to_list()) for g in W.generators]
        elements = bf.closure(gens, limit=50000)
        # S_n^(k-2) x Stab(n-1) x 1: every block kept, block k-1 fixed
        # pointwise, the last point of block k-2 fixed
        fixed = [(k - 2) * n + n - 1, *range((k - 1) * n, k * n)]
        H = {
            e
            for e in elements
            if all(e[b * n] // n == b for b in range(k))
            and all(e[x] == x for x in fixed)
        }
        assert len(H) == math.factorial(n) ** (k - 2) * math.factorial(n - 1)
        conj = bf.conjugates(H, gens)
        assert len(conj) == n * k
        assert bf.minimal_trivial_families(conj) == want, (n, k)

    # the coset action itself, its point stabilizers read off its elements
    w = wreath_coset_action(4, 2)
    elements = bf.closure([g.to_list() for g in w.generators], limit=2000)
    classes = bf.stabilizer_classes(w.degree, elements)
    assert len(classes) == 8
    assert bf.minimal_trivial_families(classes) == {2, 3}


def test_wreath_coset_numbering_matches_triples_oracle():
    # cosets named by point images against a different exact coset
    # invariant; n = 3 has Stab(n-1) = S_2, k = 4 two free blocks
    for n, k in ((3, 2), (3, 4), (4, 2), (4, 3), (4, 4), (5, 2)):
        gens = [g.to_list() for g in wreath_imprimitive(n, k).generators]
        want = bf.wreath_coset_images(n, k, gens)
        assert len(want[0]) == math.factorial(n) * n * k
        got = [g.to_list() for g in wreath_coset_action(n, k).generators]
        assert got == want, (n, k)


def test_wreath_coset_index_ceiling():
    with pytest.raises(BudgetExceeded):
        wreath_coset_action(6, 4)
    with pytest.raises(ValueError):
        wreath_coset_action(2, 3)
    # the index 4!*4*2 = 192 sits exactly on the ceiling or one past it
    assert wreath_coset_action(4, 2, max_index=192).degree == 192
    with pytest.raises(BudgetExceeded, match=r"coset index 4!\*4\*2 exceeds the configured ceiling 191"):
        wreath_coset_action(4, 2, max_index=191)
    # an index far past the ceiling is refused before n! or the wreath
    # product is built
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="ceiling 5000"):
        wreath_coset_action(300000, 2)
    assert time.perf_counter() - start < 0.1


def test_generic_coset_action():
    # simple check: the symmetric group on cosets of a point stabilizer is
    # the natural action in disguise
    G = symmetric(4)
    act = coset_action(G, (3,), 4)
    assert act.degree == 4 and act.order() == 24
    # a wrong index is an error, never a truncated or padded action
    for wrong in (3, 5):
        with pytest.raises(RuntimeError, match=f"found 4 cosets, expected {wrong}"):
            coset_action(G, (3,), wrong)
    with pytest.raises(BudgetExceeded, match="enumeration exceeded the ceiling 3"):
        coset_action(G, (3,), 3, max_index=3)


def test_k_subset_action():
    G = k_subset_action(6, 2)
    assert G.degree == 15
    assert G.order() == 720
    G = k_subset_action(7, 2)
    assert G.degree == 21
    assert G.is_transitive()
    with pytest.raises(ValueError):
        k_subset_action(5, 3)


def test_gl42():
    G = gl42_on_2subspaces()
    # 35 = (2^4-1)(2^4-2) / ((2^2-1)(2^2-2))
    assert G.degree == (15 * 14) // (3 * 2) == 35
    # order from an independent no-hint build matches the product formula
    fresh = PermGroup(35, G.generators)
    order = 1
    for i in range(4):
        order *= 2**4 - 2**i
    assert fresh.order() == order == 20160
    assert G.is_transitive()


def test_build_group_dispatch():
    specs = [
        ({"type": "sym", "n": 5}, 5, 120),
        ({"type": "cyclic_regular", "p": 5}, 5, 5),
        ({"type": "elem_abelian_regular", "p": 2, "d": 3}, 8, 8),
        ({"type": "theorem2", "X": [1, 4], "p": 2}, 24, 16),
        ({"type": "product_action", "factors": [{"type": "sym", "n": 3}] * 4}, 81, 1296),
        (
            {"type": "disjoint_product", "factors": [{"type": "sym", "n": 3}, {"type": "sym", "n": 4}]},
            7,
            144,
        ),
        ({"type": "wreath_coset", "n": 4, "k": 3}, 288, 41472),
        ({"type": "k_subsets", "n": 6, "k": 2}, 15, 720),
        ({"type": "gl42_planes"}, 35, 20160),
        ({"type": "theorem3_m", "a": 2, "b": 4}, 81, 1296),
        ({"type": "theorem3_i", "a": 2, "b": 3}, 18, 72),
        ({"type": "explicit", "degree": 3, "generators": [[1, 0, 2]]}, 3, 2),
    ]
    for spec, degree, order in specs:
        G, dom = build_group(spec)
        assert G.degree == degree, spec
        assert G.order() == order, spec
        assert dom.degree == degree


def test_build_group_theorem2_spectrum():
    G, _ = build_group({"type": "theorem2", "X": [1, 4], "p": 2})
    assert minimal_base_sizes(G).to_list() == [1, 4]


def test_build_group_errors():
    for bad in (
        {"type": "nope"},
        {"type": "sym"},
        {"no_type": 1},
        {"type": "theorem2", "X": []},
        {"type": "product_action", "factors": [{"type": "sym", "n": 3}]},
        {"type": "explicit", "degree": 3, "generators": [[0, 0, 1]]},
        [1, 2, 3],
    ):
        with pytest.raises(SpecError):
            build_group(bad)


# -- order hints and degrees against independent counts ----------------------


def _small_spec_strategies():
    sym = st.builds(lambda n: {"type": "sym", "n": n}, st.integers(2, 8))
    cyclic = st.builds(lambda p: {"type": "cyclic_regular", "p": p}, st.integers(2, 12))
    elemab = st.sampled_from([(2, 1), (2, 2), (2, 4), (2, 6), (3, 1), (3, 3), (5, 2)]).map(
        lambda pd: {"type": "elem_abelian_regular", "p": pd[0], "d": pd[1]})
    factor = st.one_of(sym.filter(lambda s: s["n"] <= 4), cyclic.filter(lambda s: s["p"] <= 5))
    products = st.builds(lambda t, fs: {"type": t, "factors": fs},
                         st.sampled_from(["disjoint_product", "product_action"]),
                         st.lists(factor, min_size=2, max_size=3))
    theorem2 = st.builds(lambda xs, p: {"type": "theorem2", "X": xs, "p": p},
                         st.lists(st.integers(1, 5), min_size=1, max_size=4), st.sampled_from([2, 3]))
    theorem3 = st.builds(lambda t, a, extra: {"type": t, "a": a, "b": a + extra},
                         st.sampled_from(["theorem3_m", "theorem3_i"]),
                         st.integers(2, 3), st.integers(0, 3))
    wreath = st.sampled_from([(3, 2), (4, 2), (3, 3), (3, 4)]).map(
        lambda nk: {"type": "wreath_coset", "n": nk[0], "k": nk[1]})
    ksub = st.integers(4, 8).flatmap(lambda n: st.builds(
        lambda k: {"type": "k_subsets", "n": n, "k": k}, st.integers(1, n // 2)))
    return st.one_of(sym, cyclic, elemab, products, theorem2, theorem3, wreath, ksub,
                     st.just({"type": "gl42_planes"}))


SMALL_SPECS = _small_spec_strategies()


@settings(max_examples=60)
@given(SMALL_SPECS)
def test_order_hints_equal_sympy_orders(spec):
    # every construction passes an order hint that build_chain trusts as
    # exact, so each must equal the order sympy computes from the same
    # generators; the hint is read before any chain of this group exists
    G, _ = build_group(spec)
    assert G._view is None and G._hint is not None, spec
    want = PermutationGroup([Permutation(g.to_list()) for g in G.generators]).order()
    assert G._hint == want, spec


@given(SMALL_SPECS)
def test_spec_degree_is_the_built_degree(spec):
    assert _spec_degree(spec) == build_group(spec)[0].degree, spec
