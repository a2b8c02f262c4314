"""Builders for the groups and actions under study.

Point encodings are fixed so witness bases are reproducible:

* ``elem_abelian_regular(p, d)``: point m encodes the vector whose i-th
  coordinate is digit i of m in base p (place value p**i); generator i adds
  the i-th unit vector.
* ``product_action(G, H, ...)``: the tuple (x1, ..., xk) of factor points
  is one mixed-radix number, first factor most significant, so the pair
  (d, l) is point ``d * H.degree + l``.  A factor's generator moves only
  its own digit, by stride arithmetic, never on a k-dimensional grid:
  degree-1 factors make more factors legal than numpy has dimensions.
* ``disjoint_product(G, H, ...)``: each factor's points are shifted by the
  sum of the degrees before it.
* ``k_subset_action(n, k)``: points are the k-subsets of {0..n-1} in
  lexicographic order.
* ``gl42_on_2subspaces``: the 35 planes are ordered lexicographically by
  their reduced-row-echelon basis (two 4-bit row vectors, bit i = basis
  coordinate i).
* ``wreath_coset_action(n, k)``: point 0 is the seed coset, the pointwise
  stabilizer ``W_(S)`` of a tuple S of n+1 points, and a coset is named by
  where it sends S; further cosets are numbered in breadth-first discovery
  order under right multiplication by the three wreath generators (block-0
  transposition, block-0 n-cycle, block rotation), in that order.
  ``coset_action`` finds them one breadth-first level at a time,
  parent-major and generator-minor, which gives the numbering of a
  one-coset-at-a-time queue.

``product_action`` and ``disjoint_product`` take any number of factors,
at least two, and make one generator list and one group in one step: no
partial product is built, so none builds a chain.  The product's proven
order is the product of the factors' orders.

Every construction here but ``coset_action`` proves its group's order,
and records it through ``PermGroup._constructed``, the one route by which
a group gets an order that no chain of its own has proven: its chain stops
at that order, and a product reads it (``_proven_order``) without building
the factor's chain.  A factor made from plain generators is asked for
``order()``, which builds its own chain.  The product's own chain is
built on its first order read, like any group's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded, SpecError
from .group import PermGroup, _as_int, _as_point, _is_prime
from .perm import Perm

__all__ = [
    "LabeledDomain",
    "symmetric",
    "cyclic_regular",
    "elem_abelian_regular",
    "disjoint_product",
    "product_action",
    "product_point",
    "product_coords",
    "theorem2_group",
    "theorem3_groups",
    "wreath_imprimitive",
    "wreath_coset_action",
    "k_subset_action",
    "gl42_on_2subspaces",
    "build_group",
]


@dataclass(frozen=True)
class LabeledDomain:
    """Named blocks partitioning {0, ..., degree-1}."""

    degree: int
    blocks: tuple[tuple[str, int, int], ...]  # (label, start, size)

    def __post_init__(self):
        covered = 0
        for _, start, size in self.blocks:
            if start != covered or size < 1:
                raise ValueError("blocks must tile the domain in order")
            covered += size
        if covered != self.degree:
            raise ValueError("blocks do not cover the domain")

    def block(self, label: str) -> range:
        for name, start, size in self.blocks:
            if name == label:
                return range(start, start + size)
        raise KeyError(label)


def _one_block(G: PermGroup, label: str = "omega") -> tuple[PermGroup, LabeledDomain]:
    return G, LabeledDomain(G.degree, ((label, 0, G.degree),))


def symmetric(n: int) -> PermGroup:
    """Natural action of the symmetric group on n points."""
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return PermGroup(1)
    gens = [Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))]
    return PermGroup._constructed(n, gens, math.factorial(n))


def cyclic_regular(p: int) -> PermGroup:
    """A single p-cycle on p points."""
    p = _as_int(p, "p")
    if p < 2:
        raise ValueError("p must be at least 2")
    return PermGroup._constructed(p, [Perm.from_cycles(p, tuple(range(p)))], p)


def elem_abelian_regular(p: int, d: int) -> PermGroup:
    """Regular action of (Z_p)^d on itself, one generator per unit vector."""
    p, d = _as_int(p, "p"), _as_int(d, "d")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("d must be positive")
    degree = p**d
    points = np.arange(degree, dtype=np.int32)
    gens = []
    for i in range(d):
        place = p**i
        digit = (points // place) % p
        gens.append(Perm._wrap(points + ((digit + 1) % p - digit) * place))
    return PermGroup._constructed(degree, gens, degree)


def disjoint_product(G: PermGroup, H: PermGroup, *rest: PermGroup) -> PermGroup:
    """G x H x ... acting coordinatewise on the disjoint union of the domains."""
    groups = (G, H, *rest)
    degree = sum(F.degree for F in groups)
    gens = []
    start = 0
    for F in groups:
        for f in F.generators:
            images = np.arange(degree, dtype=np.int32)
            images[start : start + F.degree] = f.images + start
            gens.append(Perm._wrap(images))
        start += F.degree
    return PermGroup._constructed(degree, gens, math.prod(F._proven_order() for F in groups))


def product_action(G: PermGroup, H: PermGroup, *rest: PermGroup) -> PermGroup:
    """G x H x ... acting coordinatewise on the cartesian product of the domains."""
    groups = (G, H, *rest)
    degree = math.prod(F.degree for F in groups)
    gens = []
    stride = degree
    for F in groups:
        # a point is (high, digit, low) with digit < F.degree and low < stride;
        # F's generators move only the digit
        stride //= F.degree
        high = np.arange(degree // (F.degree * stride), dtype=np.int32)[:, None, None]
        kept = high * (F.degree * stride) + np.arange(stride, dtype=np.int32)
        for f in F.generators:
            gens.append(Perm._wrap((kept + f.images[:, None] * stride).ravel()))
    return PermGroup._constructed(degree, gens, math.prod(F._proven_order() for F in groups))


def product_point(d: int, l: int, h_degree: int) -> int:
    """Encode the pair (d, l), ``d >= 0``, ``0 <= l < h_degree``, as a product-action point."""
    d, l, h_degree = _as_int(d, "d"), _as_int(l, "l"), _as_int(h_degree, "h_degree")
    if h_degree < 1 or d < 0 or not 0 <= l < h_degree:
        raise ValueError(f"({d}, {l}) is not a pair of a product action with h_degree {h_degree}")
    return d * h_degree + l


def product_coords(point: int, h_degree: int) -> tuple[int, int]:
    """The pair (d, l) that ``product_point`` encodes as ``point``."""
    point, h_degree = _as_int(point, "point"), _as_int(h_degree, "h_degree")
    if h_degree < 1 or point < 0:
        raise ValueError(f"{point} is not a point of a product action with h_degree {h_degree}")
    return divmod(point, h_degree)


# -- prescribed minimal-base spectra --------------------------------------


def _theorem2_layout(xs: list[int]) -> tuple[int, list[int], int]:
    """The blocks of ``theorem2_group`` for sorted distinct ``xs``, all >= 1.

    Returns the degree of the symmetric factor (0 when x1 = 1), the
    dimensions of the elementary abelian blocks D1, D2, ... and the number
    of p-cycle blocks (0 when X has one entry).
    """
    shift = xs[0] - 1
    top = xs[-1] - shift
    dims = [top] + [top - x + shift + 1 for x in reversed(xs[1:-1])]
    return (xs[0] if shift else 0), dims, (top if len(xs) > 1 else 0)


def theorem2_group(X, p: int = 2) -> tuple[PermGroup, LabeledDomain]:
    """A group whose minimal-base cardinalities are exactly the set X.

    For X = {x1 < ... < xn} with x1 = 1, weave n-1 regular elementary
    abelian p-groups with xn disjoint p-cycles: block D1 carries (Z_p)^xn,
    block Dj (j = 2..n-1) carries (Z_p)^(xn - x_{n-j+1} + 1), and blocks
    Dn_1..Dn_xn carry one p-cycle each.  Generator i is the product of the
    i-th generator of every block (identity where the block has fewer than
    i generators).  For x1 > 1 the spectrum is shifted by x1 - 1 points via
    a disjoint symmetric factor.
    """
    xs = sorted({_as_int(x, "X entry") for x in X})
    p = _as_int(p, "p")
    if not xs:
        raise ValueError("X must be non-empty")
    if xs[0] < 1:
        raise ValueError("X must contain positive integers")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")

    sym_degree, dims, cycles = _theorem2_layout(xs)
    block_groups = [elem_abelian_regular(p, dim) for dim in dims]
    if not cycles:
        G, dom = _one_block(block_groups[0], "D1")
    else:
        cycle = cyclic_regular(p).generators[0]
        sizes = [g.degree for g in block_groups] + [p] * cycles
        labels = [f"D{j + 1}" for j in range(len(dims))] + [
            f"D{len(xs)}_{i + 1}" for i in range(cycles)
        ]
        starts = np.cumsum([0] + sizes[:-1]).tolist()
        degree = sum(sizes)
        gens = []
        for i in range(cycles):
            images = np.arange(degree, dtype=np.int32)
            for grp, dim, start in zip(block_groups, dims, starts):
                if i < dim:
                    piece = grp.generators[i]
                    images[start : start + piece.degree] = piece.images + start
            cyc_start = starts[len(dims) + i]
            images[cyc_start : cyc_start + p] = cycle.images + cyc_start
            gens.append(Perm._wrap(images))
        G = PermGroup._constructed(degree, gens, p**cycles)
        dom = LabeledDomain(degree, tuple(zip(labels, starts, sizes)))
    if sym_degree:
        G = disjoint_product(symmetric(sym_degree), G)
        dom = LabeledDomain(G.degree, (("Sym", 0, sym_degree),) + tuple(
            (label, start + sym_degree, size) for label, start, size in dom.blocks
        ))
    return G, dom


def _theorem3_factors(a: int, b: int, kind: str) -> list[tuple[int, int]]:
    """The symmetric factors of ``theorem3_groups(a, b, kind)`` for
    2 <= a <= b, as (degree, copies) pairs."""
    if a == b:
        return [(a + 1, 1)]
    t, r = divmod(b, a - 1)
    if kind == "M":
        return [(a + 1, t)] + ([(r + 2, 1)] if r else [])
    return [(a + 1, t), (r + 1, 1)] if r else [(a + 1, t - 1), (a, 1)]


def theorem3_groups(a: int, b: int, kind: str = "M") -> PermGroup:
    """A transitive group whose minimal (kind="M") or irredundant (kind="I")
    base spectrum is the interval {a, ..., b}, with 2 <= a <= b.

    Products of symmetric groups in their product action.  Writing
    b = t(a-1) + r with 0 <= r < a-1: for kind="M" take t copies of S_{a+1}
    (plus one S_{r+2} when r > 0); for kind="I" take t copies plus S_{r+1}
    when r > 0, and t-1 copies plus S_a when r = 0 (t copies alone would
    overshoot the longest irredundant base by one).  For a = b it is
    S_{a+1}.
    """
    if kind not in ("M", "I"):
        raise ValueError("kind must be 'M' or 'I'")
    a, b = _as_int(a, "a"), _as_int(b, "b")
    if a < 2:
        raise ValueError("a must be at least 2: a transitive group with a "
                         "minimal base of size 1 is regular and has spectrum {1}")
    if b < a:
        raise ValueError("need a <= b")
    factors = [
        G for degree, copies in _theorem3_factors(a, b, kind)
        for G in [symmetric(degree)] * copies
    ]
    return factors[0] if len(factors) == 1 else product_action(*factors)


# -- wreath products and coset actions ------------------------------------


def wreath_imprimitive(n: int, k: int) -> PermGroup:
    """S_n wr C_k on n*k points: k blocks of n, plus the block rotation."""
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 and k >= 2")
    degree = n * k
    t = Perm.from_cycles(degree, (0, 1))
    c = Perm.from_cycles(degree, tuple(range(n)))
    rot = Perm._wrap(
        np.concatenate([np.arange(n, dtype=np.int32) + ((b + 1) % k) * n for b in range(k)])
    )
    return PermGroup._constructed(degree, [t, c, rot], math.factorial(n) ** k * k)


def coset_action(
    W: PermGroup,
    points,
    expected_index: int,
    max_index: int = 5000,
) -> PermGroup:
    """Right-multiplication action of W on the right cosets of ``W_(points)``.

    ``Hg = Hg'`` for ``H = W_(points)`` exactly when g and g' send the tuple
    ``points`` to the same image tuple, so each coset is named by that
    tuple, and the enumeration is a breadth-first walk over image tuples,
    one level at a time.  Point 0 is the coset H; further cosets are
    numbered in discovery order, parent-major and generator-minor: a
    level's cosets in their own order, each times the generators in list
    order.  That is the order of a one-coset-at-a-time FIFO queue.
    """
    expected_index = _as_int(expected_index, "expected_index")
    max_index = _as_int(max_index, "max_index")
    for name, value in (("expected_index", expected_index), ("max_index", max_index)):
        if value < 1:
            raise ValueError(f"{name} {value} must be at least 1")
    if expected_index > max_index:
        raise BudgetExceeded(
            f"coset index {expected_index} exceeds the configured ceiling {max_index}"
        )
    seed = np.array([_as_point(p, W.degree) for p in points], dtype=np.int32)
    gens = W.generators
    if gens and seed.size:
        table = _coset_table(gens, seed, max_index)
    else:  # every generator fixes the seed tuple, so H = W
        table = np.zeros((1, len(gens)), dtype=np.int32)
    if len(table) != expected_index:
        raise RuntimeError(
            f"coset enumeration found {len(table)} cosets, expected {expected_index}"
        )
    return PermGroup(expected_index, [Perm(col) for col in table.T])


def _coset_table(gens, seed: np.ndarray, max_index: int) -> np.ndarray:
    # row i: the numbers of coset i times each generator.  A coset's name is
    # the raw bytes of its image tuple, which fit every degree and length
    row = np.dtype((np.void, seed.nbytes))
    number = {seed.tobytes(): 0}
    targets: list[int] = []
    frontier = seed[None, :]
    while len(frontier):
        # (F, G, L): the frontier's rows in order, each times every generator
        moved = np.stack([g.images.take(frontier) for g in gens], axis=1)
        new = []
        for key in moved.reshape(-1, len(seed)).view(row).ravel().tolist():
            t = number.get(key)
            if t is None:
                t = len(number)
                if t >= max_index:
                    raise BudgetExceeded(
                        f"coset enumeration exceeded the ceiling {max_index}"
                    )
                number[key] = t
                new.append(key)
            targets.append(t)
        frontier = np.frombuffer(b"".join(new), dtype=np.int32).reshape(-1, len(seed))
    return np.array(targets, dtype=np.int32).reshape(len(number), len(gens))


def _coset_index(n: int, k: int, ceiling: int) -> int | None:
    # n!*n*k for n >= 2, or None once it is past the ceiling, before it
    # grows any larger
    index = n * k
    for m in range(2, n + 1):
        index *= m
        if index > ceiling:
            return None
    return index


def wreath_coset_action(n: int, k: int, max_index: int = 5000) -> PermGroup:
    """S_n wr C_k acting on the right cosets of H = S_n^(k-2) x Stab(n-1) x 1.

    H is the pointwise stabilizer ``W_(S)`` of the tuple S made of the last
    point of block k-2 and the n points of block k-1.  An element fixing a
    point of block k-1 maps that block to itself, and C_k is regular on the
    blocks, so its block rotation is trivial.  What is left of ``W_(S)`` is
    the base-group elements that are trivial on block k-1 and fix the last
    point of block k-2, which is H.  So a coset is named by where it sends
    S (see ``coset_action``).

    The minimal base sizes are {2, n-1} for k=2, {3, n} for k=3 and
    {4, n+1, 2n-2} for k=4, so the first gapped spectra are {2, 4} at
    (5, 2) and {4, 6, 8} at (5, 4).
    """
    n, k = _as_int(n, "n"), _as_int(k, "k")
    max_index = _as_int(max_index, "max_index")
    if n < 3 or k < 2:
        raise ValueError("need n >= 3 and k >= 2")
    if max_index < 1:
        raise ValueError(f"max_index {max_index} must be at least 1")
    expected = _coset_index(n, k, max_index)
    if expected is None:
        raise BudgetExceeded(f"coset index {n}!*{n}*{k} exceeds the configured ceiling {max_index}")
    W = wreath_imprimitive(n, k)
    S = ((k - 2) * n + n - 1, *range((k - 1) * n, k * n))
    action = coset_action(W, S, expected, max_index)
    return PermGroup._constructed(expected, action.generators, math.factorial(n) ** k * k)


# -- symmetric group on k-subsets ------------------------------------------


def k_subset_action(n: int, k: int) -> PermGroup:
    """S_n on the k-subsets of {0..n-1}, subsets in lexicographic order."""
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if not 1 <= k <= n // 2:
        raise ValueError("need 1 <= k <= n/2")
    subsets = list(combinations(range(n), k))
    rank = {s: i for i, s in enumerate(subsets)}
    gens = []
    for g in symmetric(n).generators:
        img = [rank[tuple(sorted(g[x] for x in s))] for s in subsets]
        gens.append(Perm(img))
    return PermGroup._constructed(len(subsets), gens, math.factorial(n))


# -- GL(4, 2) on planes ----------------------------------------------------


def _rref_pair(a: int, b: int) -> tuple[int, int]:
    # reduced row echelon basis of the span of two independent 4-bit vectors
    if a.bit_length() < b.bit_length():
        a, b = b, a
    if a.bit_length() == b.bit_length():
        a ^= b
        if a.bit_length() < b.bit_length():
            a, b = b, a
    if (a >> (b.bit_length() - 1)) & 1:
        a ^= b
    return a, b


def gl42_on_2subspaces() -> PermGroup:
    """GL(4, 2) on the 35 planes (2-dimensional subspaces) of (F_2)^4.

    Generated by the basis rotation e_i -> e_{i+1} and the transvection
    e_0 -> e_0 + e_1; planes act by mapping basis vectors and
    re-canonicalizing.
    """
    planes = sorted({_rref_pair(a, b) for a in range(1, 16) for b in range(1, a)})
    assert len(planes) == 35
    rank = {pl: i for i, pl in enumerate(planes)}

    def apply(mat: list[int], v: int) -> int:
        out = 0
        for i in range(4):
            if (v >> i) & 1:
                out ^= mat[i]
        return out

    rotation = [1 << ((i + 1) % 4) for i in range(4)]
    transvection = [0b0011, 0b0010, 0b0100, 0b1000]
    gens = []
    for mat in (rotation, transvection):
        img = [rank[_rref_pair(apply(mat, a), apply(mat, b))] for a, b in planes]
        gens.append(Perm(img))
    return PermGroup._constructed(35, gens, 20160)


# -- spec documents --------------------------------------------------------


MAX_SPEC_DEPTH = 32
# the most points a spec's group may act on; a larger one is refused before
# anything is built (its arrays alone could exhaust memory)
MAX_SPEC_DEGREE = 1 << 20
_CAP = MAX_SPEC_DEGREE + 1

# the kind of every field that is not an integer
_KINDS = {"X": list[int], "factors": list, "generators": list}


def _checked(key: str, value, kind=int):
    # exact values only: 4.7 or "4" is an error, never truncated or parsed
    if kind == list[int]:
        return [_checked(key, x) for x in _checked(key, value, list)]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SpecError(f"bad value for {key!r}: {value!r} (need {kind.__name__})")
    return value


def _field_values(spec: dict, fields: dict) -> list:
    # the checked value of each field in table order; a missing field takes
    # its default, and one whose default is None is an error
    values = []
    for key, default in fields.items():
        if key not in spec and default is None:
            raise SpecError(f"spec {spec.get('type')!r} is missing {key!r}")
        values.append(_checked(key, spec.get(key, default), _KINDS.get(key, int)))
    return values


def _power(base: int, exp: int) -> int:
    # base**exp for base >= 2, and 1 otherwise; _CAP once past the ceiling
    out = 1
    for _ in range(exp if base > 1 else 0):
        out *= base
        if out >= _CAP:
            return _CAP
    return out


def _product(degrees) -> int:
    out = 1
    for d in degrees:
        out = min(out * d, _CAP)
    return out


def _theorem2_degree(X: list[int], p: int) -> int:
    if not X or min(X) < 1 or p < 2:
        return 1
    sym_degree, dims, cycles = _theorem2_layout(sorted(set(X)))
    return sym_degree + sum(_power(p, dim) for dim in dims) + p * cycles


def _theorem3_spec(kind: str) -> tuple:
    def degree(a: int, b: int) -> int:
        if a < 2 or b < a:
            return 1
        return _product(_power(d, copies) for d, copies in _theorem3_factors(a, b, kind))

    return {"a": None, "b": None}, degree, lambda a, b: _one_block(theorem3_groups(a, b, kind), "tuples")


def _k_subsets_degree(n: int, k: int) -> int:
    if not 1 <= k <= n // 2:
        return 1
    out = 1
    for i in range(1, k + 1):  # C(n, i) grows with i up to n/2
        out = out * (n - i + 1) // i
        if out >= _CAP:
            return _CAP
    return out


def _factor_groups(t: str, factors: list) -> list[tuple[PermGroup, LabeledDomain]]:
    if len(factors) < 2:
        raise SpecError(f"{t} needs at least two factors")
    return [build_group(f) for f in factors]


def _disjoint_group(factors: list) -> tuple[PermGroup, LabeledDomain]:
    parts = _factor_groups("disjoint_product", factors)
    blocks = []
    off = 0
    for i, (H, dom) in enumerate(parts, start=1):
        blocks += [(f"F{i}:{lbl}", st + off, sz) for lbl, st, sz in dom.blocks]
        off += H.degree
    G = disjoint_product(*(H for H, _ in parts))
    return G, LabeledDomain(G.degree, tuple(blocks))


# Each spec type, as in the README's spec table: its fields (name -> default,
# None for a required field), its degree from the checked field values alone
# (arithmetic only, never a group or an array; a value the construction
# rejects gives a lower bound), and its builder from the same values.  Every
# spec also takes "type" and the boolean tag "product_indecomposable".
_SPECS = {
    "sym": ({"n": None}, lambda n: n, lambda n: _one_block(symmetric(n))),
    "cyclic_regular": ({"p": None}, lambda p: p, lambda p: _one_block(cyclic_regular(p))),
    "elem_abelian_regular": (
        {"p": None, "d": None}, _power,
        lambda p, d: _one_block(elem_abelian_regular(p, d), "vectors"),
    ),
    "disjoint_product": (
        {"factors": None}, lambda factors: sum(map(_spec_degree, factors)), _disjoint_group,
    ),
    "product_action": (
        {"factors": None}, lambda factors: _product(map(_spec_degree, factors)),
        lambda factors: _one_block(
            product_action(*(G for G, _ in _factor_groups("product_action", factors))), "pairs"
        ),
    ),
    "theorem2": ({"X": None, "p": 2}, _theorem2_degree, theorem2_group),
    "theorem3_m": _theorem3_spec("M"),
    "theorem3_i": _theorem3_spec("I"),
    "wreath_coset": (
        # an index past max_index counts as 1: the construction refuses it
        # before it builds anything
        {"n": None, "k": None, "max_index": 5000},
        lambda n, k, max_index: n >= 3 and k >= 2 and _coset_index(n, k, max_index) or 1,
        lambda n, k, max_index: _one_block(wreath_coset_action(n, k, max_index), "cosets"),
    ),
    "k_subsets": (
        {"n": None, "k": None}, _k_subsets_degree,
        lambda n, k: _one_block(k_subset_action(n, k), "subsets"),
    ),
    "gl42_planes": ({}, lambda: 35, lambda: _one_block(gl42_on_2subspaces(), "planes")),
    "explicit": (
        {"degree": None, "generators": None}, lambda degree, generators: degree,
        lambda degree, generators: _one_block(PermGroup(degree, [Perm(g) for g in generators])),
    ),
}
_SPEC_FIELDS = {t: tuple(fields) for t, (fields, _, _) in _SPECS.items()}


def _spec_depth(spec) -> int:
    """Nesting depth of ``factors`` lists (1 for a spec without factors).

    Iterative, and stops once past ``MAX_SPEC_DEPTH``.
    """
    deepest = 0
    stack = [(spec, 1)]
    while stack and deepest <= MAX_SPEC_DEPTH:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        factors = node.get("factors") if isinstance(node, dict) else None
        if isinstance(factors, list):
            stack.extend((f, depth + 1) for f in factors)
    return deepest


def _spec_degree(spec) -> int:
    """The degree of the group ``spec`` builds, from its fields alone.

    Nothing is allocated, and every value stops growing once past
    ``MAX_SPEC_DEGREE``.  A malformed spec or field counts as degree 1 and
    is left to ``build_group``'s own checks, so the result is a lower bound;
    so is a coset index past ``max_index``, which the construction refuses
    before it builds anything.  Called on a spec no deeper than
    ``MAX_SPEC_DEPTH``.
    """
    t = spec.get("type") if isinstance(spec, dict) else None
    if not isinstance(t, str) or t not in _SPECS:
        return 1
    fields, degree, _ = _SPECS[t]
    try:
        values = _field_values(spec, fields)
    except SpecError:
        return 1
    return max(1, min(degree(*values), _CAP))


def build_group(spec: dict) -> tuple[PermGroup, LabeledDomain]:
    """Evaluate a group-spec document (see the JSON schema in the README).

    Specs may nest ``factors`` at most ``MAX_SPEC_DEPTH`` levels deep; a
    deeper spec is a ``SpecError``, since evaluation recurses per level.
    A spec whose group would act on more than ``MAX_SPEC_DEGREE`` points
    is a ``SpecError`` too, raised before anything is built.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise SpecError("a group spec is an object with a 'type' field")
    if _spec_depth(spec) > MAX_SPEC_DEPTH:
        raise SpecError(f"spec nests factors more than {MAX_SPEC_DEPTH} levels deep")
    t = spec["type"]
    if not isinstance(t, str) or t not in _SPECS:
        raise SpecError(f"unknown construction type {t!r}")
    fields, _, build = _SPECS[t]
    for key in spec:
        if key not in fields and key not in ("type", "product_indecomposable"):
            takes = ", ".join(map(repr, fields)) or "no other field"
            raise SpecError(f"spec {t!r} has no field {key!r}; it takes {takes}")
    tag = spec.get("product_indecomposable", False)
    if not isinstance(tag, bool):
        raise SpecError(f"'product_indecomposable' is true or false, got {tag!r}")
    if _spec_degree(spec) > MAX_SPEC_DEGREE:
        raise SpecError(f"spec {t!r} acts on more than {MAX_SPEC_DEGREE} points")
    values = _field_values(spec, fields)
    try:
        return build(*values)
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"invalid spec {spec!r}: {exc}") from exc
