"""Builders for the groups and actions under study.

Point encodings are fixed so witness bases are reproducible:

* ``elem_abelian_regular(p, d)``: point m encodes the vector whose i-th
  coordinate is digit i of m in base p (place value p**i); generator i adds
  the i-th unit vector.
* ``product_action(G, H)``: pair (d, l) is point ``d * H.degree + l``;
  more factors fold left, giving a mixed-radix encoding.
* ``disjoint_product(G, H)``: H's points are shifted by ``G.degree``.
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded, SpecError
from .group import PermGroup, _as_int, _as_point
from .perm import Perm

__all__ = [
    "LabeledDomain",
    "symmetric",
    "cyclic_regular",
    "elem_abelian_regular",
    "disjoint_product",
    "product_action",
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


def _single_block(degree: int, label: str = "omega") -> LabeledDomain:
    return LabeledDomain(degree, ((label, 0, degree),))


def symmetric(n: int) -> PermGroup:
    """Natural action of the symmetric group on n points."""
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return PermGroup(1)
    gens = [Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))]
    return PermGroup(n, gens, order_hint=math.factorial(n))


def cyclic_regular(p: int) -> PermGroup:
    """A single p-cycle on p points."""
    p = _as_int(p, "p")
    if p < 2:
        raise ValueError("p must be at least 2")
    return PermGroup(p, [Perm.from_cycles(p, tuple(range(p)))], order_hint=p)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


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
    return PermGroup(degree, gens, order_hint=degree)


def disjoint_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """G x H acting coordinatewise on the disjoint union of the two domains."""
    degree = G.degree + H.degree
    gens = []
    tail = np.arange(G.degree, degree, dtype=np.int32)
    for g in G.generators:
        gens.append(Perm._wrap(np.concatenate([g.images, tail])))
    head = np.arange(G.degree, dtype=np.int32)
    for h in H.generators:
        gens.append(Perm._wrap(np.concatenate([head, h.images + G.degree])))
    return PermGroup(degree, gens, order_hint=G.order() * H.order())


def product_action(G: PermGroup, H: PermGroup, *rest: PermGroup) -> PermGroup:
    """G x H acting coordinatewise on the cartesian product of the domains."""
    if rest:
        return product_action(product_action(G, H), *rest)
    dg, dh = G.degree, H.degree
    degree = dg * dh
    gens = []
    cols = np.arange(dh, dtype=np.int32)
    for g in G.generators:
        gens.append(Perm._wrap((g.images[:, None] * dh + cols[None, :]).ravel()))
    rows = np.arange(dg, dtype=np.int32)
    for h in H.generators:
        gens.append(Perm._wrap((rows[:, None] * dh + h.images[None, :]).ravel()))
    return PermGroup(degree, gens, order_hint=G.order() * H.order())


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

    if xs[0] > 1:
        shift = xs[0] - 1
        inner, inner_dom = theorem2_group([x - shift for x in xs], p)
        sym = symmetric(xs[0])
        G = disjoint_product(sym, inner)
        blocks = (("Sym", 0, xs[0]),) + tuple(
            (label, start + xs[0], size) for label, start, size in inner_dom.blocks
        )
        return G, LabeledDomain(G.degree, blocks)

    n = len(xs)
    xn = xs[-1]
    if n == 1:
        G = elem_abelian_regular(p, xn)
        return G, _single_block(G.degree, "D1")

    # per-block generator builders; block j=1 first, then middles, then cycles
    block_dims = [xn] + [xn - xs[n - j] + 1 for j in range(2, n)]
    block_groups = [elem_abelian_regular(p, dim) for dim in block_dims]
    cycle = cyclic_regular(p).generators[0]

    sizes = [g.degree for g in block_groups] + [p] * xn
    labels = [f"D{j + 1}" for j in range(len(block_groups))] + [
        f"D{n}_{i + 1}" for i in range(xn)
    ]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    degree = sum(sizes)

    gens = []
    for i in range(xn):
        images = np.arange(degree, dtype=np.int32)
        for grp, dim, start in zip(block_groups, block_dims, starts):
            if i < dim:
                piece = grp.generators[i]
                images[start : start + piece.degree] = piece.images + start
        cyc_start = starts[len(block_groups) + i]
        images[cyc_start : cyc_start + p] = cycle.images + cyc_start
        gens.append(Perm._wrap(images))

    G = PermGroup(degree, gens, order_hint=p**xn)
    dom = LabeledDomain(
        degree, tuple((lbl, st, sz) for lbl, st, sz in zip(labels, starts, sizes))
    )
    return G, dom


def theorem3_groups(a: int, b: int, kind: str = "M") -> PermGroup:
    """A transitive group whose minimal (kind="M") or irredundant (kind="I")
    base spectrum is the interval {a, ..., b}, with 2 <= a <= b.

    Products of symmetric groups in their product action.  Writing
    b = t(a-1) + r with 0 <= r < a-1: for kind="M" take t copies of S_{a+1}
    (plus one S_{r+2} when r > 0); for kind="I" take t copies plus S_{r+1}
    when r > 0, and t-1 copies plus S_a when r = 0 (t copies alone would
    overshoot the longest irredundant base by one).
    """
    if kind not in ("M", "I"):
        raise ValueError("kind must be 'M' or 'I'")
    a, b = _as_int(a, "a"), _as_int(b, "b")
    if a < 2:
        raise ValueError("a must be at least 2: a transitive group with a "
                         "minimal base of size 1 is regular and has spectrum {1}")
    if b < a:
        raise ValueError("need a <= b")
    if a == b:
        return symmetric(a + 1)
    t, r = divmod(b, a - 1)
    factors: list[PermGroup]
    if kind == "M":
        factors = [symmetric(a + 1)] * t
        if r > 0:
            factors.append(symmetric(r + 2))
    else:
        if r > 0:
            factors = [symmetric(a + 1)] * t + [symmetric(r + 1)]
        else:
            factors = [symmetric(a + 1)] * (t - 1) + [symmetric(a)]
    if len(factors) == 1:
        return factors[0]
    return product_action(*factors)


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
    return PermGroup(degree, [t, c, rot], order_hint=math.factorial(n) ** k * k)


def coset_action(
    W: PermGroup,
    points,
    expected_index: int,
    max_index: int = 5000,
) -> PermGroup:
    """Right-multiplication action of W on the right cosets of ``W_(points)``.

    ``Hg = Hg'`` for ``H = W_(points)`` exactly when g and g' send the tuple
    ``points`` to the same image tuple, so each coset is named by that
    tuple and the enumeration is a breadth-first walk over image tuples.
    Point 0 is the coset H; further cosets are numbered in discovery order
    over representatives times generators (generator list order).
    """
    if expected_index > max_index:
        raise BudgetExceeded(
            f"coset index {expected_index} exceeds the configured ceiling {max_index}"
        )
    seed = tuple(_as_point(p, W.degree) for p in points)
    gens = [g.to_list() for g in W.generators]
    number = {seed: 0}
    queue = [seed]
    images: list[list[int]] = [[] for _ in gens]
    for tup in queue:
        for col, img in zip(images, gens):
            moved = tuple(img[p] for p in tup)
            target = number.get(moved)
            if target is None:
                target = len(queue)
                if target >= max_index:
                    raise BudgetExceeded(
                        f"coset enumeration exceeded the ceiling {max_index}"
                    )
                number[moved] = target
                queue.append(moved)
            col.append(target)

    if len(queue) != expected_index:
        raise RuntimeError(
            f"coset enumeration found {len(queue)} cosets, expected {expected_index}"
        )
    return PermGroup(expected_index, [Perm(col) for col in images])


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
    return PermGroup(
        expected, action.generators, order_hint=math.factorial(n) ** k * k
    )


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
    return PermGroup(len(subsets), gens, order_hint=math.factorial(n))


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
    return PermGroup(35, gens, order_hint=20160)


# -- spec documents --------------------------------------------------------


def _need(spec: dict, key: str, kind=int):
    if key not in spec:
        raise SpecError(f"spec {spec.get('type')!r} is missing {key!r}")
    return _checked(key, spec[key], kind)


def _checked(key: str, value, kind=int):
    # exact values only: 4.7 or "4" is an error, never truncated or parsed
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SpecError(f"bad value for {key!r}: {value!r} (need {kind.__name__})")
    return value


MAX_SPEC_DEPTH = 32
# the most points a spec's group may act on; a larger one is refused before
# anything is built (its arrays alone could exhaust memory)
MAX_SPEC_DEGREE = 1 << 20

# the fields each spec type takes, as in the README's spec table; every spec
# also takes "type" and the boolean tag "product_indecomposable"
_SPEC_FIELDS = {
    "sym": ("n",),
    "cyclic_regular": ("p",),
    "elem_abelian_regular": ("p", "d"),
    "disjoint_product": ("factors",),
    "product_action": ("factors",),
    "theorem2": ("X", "p"),
    "theorem3_m": ("a", "b"),
    "theorem3_i": ("a", "b"),
    "wreath_coset": ("n", "k", "max_index"),
    "k_subsets": ("n", "k"),
    "gl42_planes": (),
    "explicit": ("degree", "generators"),
}


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
    cap = MAX_SPEC_DEGREE + 1

    def field(key, default=None):
        value = spec.get(key, default)
        return value if isinstance(value, int) and not isinstance(value, bool) else None

    def power(base, exp):
        out = 1
        for _ in range(exp if base > 1 else 0):
            out *= base
            if out >= cap:
                return cap
        return out

    if not isinstance(spec, dict):
        return 1
    t = spec.get("type")
    if t in ("disjoint_product", "product_action"):
        factors = spec.get("factors")
        degrees = [_spec_degree(f) for f in factors] if isinstance(factors, list) else []
        if t == "disjoint_product":
            return min(max(sum(degrees), 1), cap)
        out = 1
        for d in degrees:
            out = min(out * d, cap)
        return out
    if t in ("sym", "cyclic_regular", "explicit"):
        n = field({"sym": "n", "cyclic_regular": "p", "explicit": "degree"}[t])
        return min(n, cap) if n is not None and n > 1 else 1
    if t == "elem_abelian_regular":
        p, d = field("p"), field("d")
        return 1 if p is None or d is None else power(p, d)
    if t == "theorem2":
        xs, p = spec.get("X"), field("p", 2)
        if not isinstance(xs, list) or not xs or p is None or p < 2 or any(
                not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in xs):
            return 1
        xs = sorted(set(xs))
        out = xs[0] if xs[0] > 1 else 0  # a symmetric factor shifts X to start at 1
        xs = [x - xs[0] + 1 for x in xs]
        dims = [xs[-1]] + [xs[-1] - x + 1 for x in xs[1:-1]]
        for dim in dims:
            out = min(out + power(p, dim), cap)
        return min(out + (p * xs[-1] if len(xs) > 1 else 0), cap)
    if t in ("theorem3_m", "theorem3_i"):
        a, b = field("a"), field("b")
        if a is None or b is None or a < 2 or b < a:
            return 1
        if a == b:
            return min(a + 1, cap)
        q, r = divmod(b, a - 1)
        if t == "theorem3_m":
            degree = power(a + 1, q) * (r + 2 if r else 1)
        elif r:
            degree = power(a + 1, q) * (r + 1)
        else:
            degree = power(a + 1, q - 1) * a
        return min(degree, cap)
    if t == "wreath_coset":
        n, k, ceiling = field("n"), field("k"), field("max_index", 5000)
        if n is None or k is None or ceiling is None or n < 3 or k < 2:
            return 1
        index = _coset_index(n, k, ceiling)
        return 1 if index is None else min(index, cap)
    if t == "k_subsets":
        n, k = field("n"), field("k")
        if n is None or k is None or not 1 <= k <= n // 2:
            return 1
        out = 1
        for i in range(1, k + 1):  # C(n, i) grows with i up to n/2
            out = out * (n - i + 1) // i
            if out >= cap:
                return cap
        return out
    if t == "gl42_planes":
        return 35
    return 1


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
    if not isinstance(t, str) or t not in _SPEC_FIELDS:
        raise SpecError(f"unknown construction type {t!r}")
    fields = _SPEC_FIELDS[t]
    for key in spec:
        if key not in fields and key not in ("type", "product_indecomposable"):
            takes = ", ".join(map(repr, fields)) or "no other field"
            raise SpecError(f"spec {t!r} has no field {key!r}; it takes {takes}")
    tag = spec.get("product_indecomposable", False)
    if not isinstance(tag, bool):
        raise SpecError(f"'product_indecomposable' is true or false, got {tag!r}")
    if _spec_degree(spec) > MAX_SPEC_DEGREE:
        raise SpecError(f"spec {t!r} acts on more than {MAX_SPEC_DEGREE} points")
    try:
        if t == "sym":
            G = symmetric(_need(spec, "n"))
            return G, _single_block(G.degree)
        if t == "cyclic_regular":
            G = cyclic_regular(_need(spec, "p"))
            return G, _single_block(G.degree)
        if t == "elem_abelian_regular":
            G = elem_abelian_regular(_need(spec, "p"), _need(spec, "d"))
            return G, _single_block(G.degree, "vectors")
        if t == "disjoint_product":
            factors = _need(spec, "factors", list)
            if len(factors) < 2:
                raise SpecError("disjoint_product needs at least two factors")
            parts = [build_group(f) for f in factors]
            G = parts[0][0]
            blocks = [
                (f"F1:{lbl}", st, sz) for lbl, st, sz in parts[0][1].blocks
            ]
            for i, (Hi, dom) in enumerate(parts[1:], start=2):
                off = G.degree
                G = disjoint_product(G, Hi)
                blocks += [(f"F{i}:{lbl}", st + off, sz) for lbl, st, sz in dom.blocks]
            return G, LabeledDomain(G.degree, tuple(blocks))
        if t == "product_action":
            factors = _need(spec, "factors", list)
            if len(factors) < 2:
                raise SpecError("product_action needs at least two factors")
            parts = [build_group(f)[0] for f in factors]
            G = product_action(*parts)
            return G, _single_block(G.degree, "pairs")
        if t == "theorem2":
            xs = [_checked("X", x) for x in _need(spec, "X", list)]
            return theorem2_group(xs, _checked("p", spec.get("p", 2)))
        if t == "theorem3_m":
            G = theorem3_groups(_need(spec, "a"), _need(spec, "b"), "M")
            return G, _single_block(G.degree, "tuples")
        if t == "theorem3_i":
            G = theorem3_groups(_need(spec, "a"), _need(spec, "b"), "I")
            return G, _single_block(G.degree, "tuples")
        if t == "wreath_coset":
            G = wreath_coset_action(
                _need(spec, "n"),
                _need(spec, "k"),
                max_index=_checked("max_index", spec.get("max_index", 5000)),
            )
            return G, _single_block(G.degree, "cosets")
        if t == "k_subsets":
            G = k_subset_action(_need(spec, "n"), _need(spec, "k"))
            return G, _single_block(G.degree, "subsets")
        if t == "gl42_planes":
            return gl42_on_2subspaces(), _single_block(35, "planes")
        # t == "explicit"
        degree = _need(spec, "degree")
        gens = [Perm(img) for img in _need(spec, "generators", list)]
        return PermGroup(degree, gens), _single_block(degree)
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"invalid spec {spec!r}: {exc}") from exc
