"""Base-size analytics: spectra of minimal and irredundant bases.

Search notes, which justify the pruned mode and the searches' stabilizer reuse:

* Shrinking a group refines its orbits, so the minimum of a point's orbit
  never decreases along a descending stabilizer chain, and a point lying in
  an orbit of size > 1 is never one of the already-fixed points.  Repeatedly
  translating a target set by stabilizer elements so that its next point
  becomes the minimum of that point's current orbit therefore yields an
  enumeration of one representative per set in strictly ascending order of
  the chosen minima.  Minimal bases and independent sets are searched that
  way: per-level orbit minima, ascending.
* Every subset of a minimal base (and of an independent set) is itself
  independent, so branches whose chosen points stop being independent are
  pruned without losing any leaf.
* The walker keeps, per node ``points = (p_0, ..., p_{k-1})``, the deletion
  stabilizers ``dels[j] = G_(points \\ p_j)`` for its independence test.  A
  child ``points + (x,)`` is entered only after passing that test, so it is
  independent, and so is its subset ``(points \\ p_j) + (x,)``: hence
  ``dels[j]`` always moves ``x``, and each child deletion stabilizer is a
  genuine ``dels[j].point_stabilizer(x)``.
* Irredundant sequences are order-sensitive, so their search keeps every
  orbit minimum as a candidate at each level and instead collapses repeated
  stabilizer subgroups: the set of reachable lengths below a node depends
  only on the node's pointwise stabilizer.  Every node is some ``G_(S)``,
  and ``G_(S) = G_(F)`` for its fixed-point set ``F = Fix(G_(S))``: it fixes
  ``F``, and ``F`` contains ``S`` (the closure of Cameron and
  Fon-Der-Flaass, 1995).  So two nodes are the same subgroup exactly when
  they fix the same points, and the memo is a plain dict keyed by the
  subgroup's key: the int ``Fix(G_(S))`` with bit ``x`` set iff ``x`` is
  fixed.  Its value maps each reachable length to the first
  candidate reaching it and that candidate's child key, so a witness is a
  chain of lookups: candidates ascend, and one skipped as a repeat of a
  stabilizer class has the same stabilizer as an earlier one.
* The searches of one group ``G`` in one mode share one table of the
  subgroups they computed, kept in ``G``'s slot: it is made by the first
  search in that mode on ``G`` and lives as long as ``G``.  A request
  ``K.point_stabilizer(x)``, with ``K`` a node or a deletion stabilizer, is
  named by ``R = Fix(K) ∪ {x}``, the int ``Fix(K) | 1 << x``, and
  ``K_x = G_(R)`` because ``K = G_(Fix(K))``.  The table is one map from a
  point set ``S`` to ``G_(S)``, and it holds both kinds of point set: the
  requests it answered, and the key ``Fix(L)`` of each stored ``L``.  So a
  repeated ``R``, or one that is a stored key, is one lookup.  Otherwise
  let ``t = |K| / |x^K|``: a stored ``L`` with ``|L| = t`` and
  ``Fix(L) ⊇ R`` is ``G_(R) = K_x``, because ``L = G_(Fix(L)) ≤ G_(R)`` and
  ``|G_(R)| = |K_x| = t``.  Only when no stored ``L`` qualifies is ``K_x``
  computed, and it is stored once, under ``Fix(K_x)``.  Two proofs spare
  most of that naming and scanning.  ``Fix(K_x)`` contains ``R``, so when
  ``K_x`` fixes exactly as many points as ``R`` holds, ``Fix(K_x) = R``
  and the request is the key.  That count is cached on the chain
  ``K_x`` views (``basekit.group``'s module notes), so it costs no array
  work; only when it is larger is ``Fix(K_x)`` read off ``K_x``'s sizes.
  And a stored key of order ``t`` that contains ``R`` with no more points
  than ``R`` is ``R`` itself, which the lookup has tried: so the table
  keeps, per order, the largest popcount among the stored keys, and scans
  the keys of order ``t`` only when it exceeds ``R``'s.  On ``S_n`` every
  request is a new subgroup fixing exactly its own points, so no request
  scans, and no key but the root's is computed.  So each subgroup is
  computed once per group and mode, whichever search or key asks for it:
  pruned height after pruned M on the same group computes none.  The table
  stores each subgroup as one immutable record ``(key, group, order,
  size)``, with ``size`` its sizes array's ``item``, made once when the
  group is stored, and a request takes and returns records.  The walks
  keep records in their frames and deletion lists, so a key, an order and
  a sizes array are read off a group only for the root, once per walk, and
  for each subgroup the table stores.  The root's record is never stored:
  the root holds the table, and a stored record of it would be a
  reference cycle that keeps the root alive until the cyclic collector
  runs.
* The table also keeps, per key a search has entered (the root's
  included), that subgroup's candidate points as an ascending list, made
  the first time the key is entered: the minima of its moved orbits in
  pruned mode, read off its orbit labels, and its moved points in
  exhaustive mode, read off its orbit sizes.  A node reads the candidates
  above its last point by bisection, and the order arithmetic of its
  independence test uses Python ints: orbit sizes read one at a time from
  each group's int32 ``orbit_sizes`` array, through the record's ``size``,
  and orders read off the records.  So a walk makes no array operation at
  a node, and the orders, which exceed 2^63 from S21 on, never meet a
  fixed-width integer.  A node with no stabilizer classes, as in
  exhaustive mode, iterates its slice of the candidate list directly.
  Most stored groups are deletion stabilizers that no walk enters, and the
  walks read only their sizes: a stored group holds its sizes and makes
  its labels on first read, and no search makes the inverse of its
  conjugator (``basekit.group``'s module notes), so only the groups a
  pruned walk enters ever hold labels.
* Each mode has its own table, never the other's.  The exhaustive searches
  are the cross-check of the pruned ones, so no subgroup a pruned search
  computed may answer an exhaustive request: a wrong stored group would
  then give both modes the same wrong answer, and the check would pass.
  The price is that a subgroup both modes need is computed once in each.
  Below the tables, both modes share the group layer, as they always
  have: the root chain, and the rebases ``basekit.group`` keeps on each
  chain, one per orbit, so an exhaustive stabilizer may read a
  rebase a pruned search made.  The cross-check still means something:
  a rebase is a deterministic function of its chain and point, exact by
  the order stop, and what each mode computes from it, its own
  stabilizers and spectra, still comes from its own table and walk.
  The tables keep their groups and candidate lists as long as ``G``
  lives, which at degree 2400 is about 141 groups and 31 candidate lists,
  8,825 candidates in all, for one M search; ``basekit.group`` keeps a
  stored group small (its module notes).

All searches are deterministic functions of immutable groups.  The only
state they leave is those tables, caches that change no result; threads
racing on one at worst compute a subgroup twice, and store it twice.  A
largest popcount that another thread's store left stale skips a scan that
would have found a stored group: that too costs only a recomputation,
never a wrong answer.
They run on explicit stacks, so their depth is not bounded by Python's
recursion limit.  Node budgets abort with ``BudgetExceeded`` rather than
truncate a result.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .group import PermGroup, _as_int, _as_point

__all__ = [
    "SizeSet",
    "BaseStats",
    "IndicatorVectors",
    "SearchBudget",
    "is_base",
    "is_minimal_base",
    "is_irredundant_sequence",
    "is_independent_set",
    "minimal_base_sizes",
    "irredundant_base_sizes",
    "min_base_size",
    "height",
    "base_stats",
    "is_ibis",
    "is_mibis",
    "indicator_vectors",
    "grid_minimal_base",
]

class SizeSet:
    """A sorted set of base cardinalities."""

    __slots__ = ("sizes",)

    def __init__(self, sizes):
        normalized = tuple(sorted({_as_int(s, "base size") for s in sizes}))
        if not normalized:
            raise ValueError("a size set cannot be empty")
        if normalized[0] < 1:
            raise ValueError("base sizes are positive")
        self.sizes = normalized

    @property
    def min(self) -> int:
        return self.sizes[0]

    @property
    def max(self) -> int:
        return self.sizes[-1]

    @property
    def is_interval(self) -> bool:
        return self.max - self.min + 1 == len(self.sizes)

    def to_list(self) -> list[int]:
        return list(self.sizes)

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self):
        return len(self.sizes)

    def __contains__(self, item):
        return item in self.sizes

    def __eq__(self, other):
        if isinstance(other, SizeSet):
            return self.sizes == other.sizes
        return NotImplemented

    def __hash__(self):
        return hash(self.sizes)

    def __repr__(self):
        return f"SizeSet({{{', '.join(map(str, self.sizes))}}})"


@dataclass(frozen=True)
class BaseStats:
    """b = smallest base size, B = largest minimal-base size, Imax = longest irredundant base."""

    b: int
    B: int
    Imax: int


@dataclass(frozen=True)
class IndicatorVectors:
    """Per-coordinate movability vectors of a minimal base of a product action."""

    vG: tuple[int, ...]
    vH: tuple[int, ...]

    @property
    def nG(self) -> int:
        return sum(self.vG)

    @property
    def nH(self) -> int:
        return sum(self.vH)


class SearchBudget:
    """Shared node-count ceiling for one run of searches.

    ``limit`` is ``None`` (no ceiling) or a non-negative ``int`` or numpy
    integer, kept as an ``int``; anything else, ``bool`` included, raises
    ``ValueError`` rather than being truncated or parsed.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        if limit is not None:
            limit = _as_int(limit, "node budget")
            if limit < 0:
                raise ValueError(f"node budget {limit} is negative")
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} nodes exceeded")


def _as_budget(budget) -> SearchBudget:
    if isinstance(budget, SearchBudget):
        return budget
    return SearchBudget(budget)


def _require_nontrivial(G: PermGroup) -> None:
    if G.is_trivial():
        raise ValueError("the trivial group has no bases; its size sets are undefined")


def _check_mode(mode: str) -> None:
    if mode not in ("pruned", "exhaustive"):
        raise ValueError(f"mode must be 'pruned' or 'exhaustive', got {mode!r}")


def _candidates(cands, classes):
    """An iterator over ``cands`` in order, but over only the first of each
    stabilizer class if ``classes`` is given.

    Points of one class have equal point stabilizers, so a later one is
    interchangeable with the first.  With no classes it is the list's own
    iterator.
    """
    return iter(cands) if classes is None else _one_per_class(cands, classes)


def _one_per_class(cands, classes):
    seen = set()
    for x in cands:
        c = classes[x]
        if c not in seen:
            seen.add(c)
            yield x


# -- predicates ---------------------------------------------------------


def is_base(G: PermGroup, points) -> bool:
    """True iff the pointwise stabilizer of ``points`` is trivial."""
    return G.pointwise_stabilizer(points).order() == 1


def is_minimal_base(G: PermGroup, points) -> bool:
    """True iff ``points`` is a base and no single deletion stays one.

    For a base, a deletion that is no base has a larger stabilizer, so a
    minimal base is exactly an independent base.
    """
    pts = tuple(points)
    return is_base(G, pts) and is_independent_set(G, pts)


def is_irredundant_sequence(G: PermGroup, seq) -> bool:
    """True iff each point strictly shrinks the stabilizer, ending at the identity."""
    H = G
    for x in seq:
        Hx = H.point_stabilizer(x)
        if Hx.order() == H.order():
            return False
        H = Hx
    return H.order() == 1


def is_independent_set(G: PermGroup, points) -> bool:
    """True iff removing any point enlarges the pointwise stabilizer."""
    pts = tuple(sorted({_as_point(x, G.degree) for x in points}))
    full = G.pointwise_stabilizer(pts).order()
    return all(
        G.pointwise_stabilizer(pts[:i] + pts[i + 1 :]).order() > full
        for i in range(len(pts))
    )


# -- pointwise stabilizers named by their fixed points --------------------


def _fixed_key(H: PermGroup) -> int:
    """``Fix(H)`` as an int, bit ``x`` set iff ``H`` fixes ``x``.  For
    pointwise stabilizers of one group it names ``H``: equal iff the
    subgroups are equal (module notes)."""
    fixed = H.orbit_sizes() == 1
    return int.from_bytes(np.packbits(fixed, bitorder="little").tobytes(), "little")


def _record(H: PermGroup, key: int | None = None) -> tuple:
    """``(key, H, order, size)``: what the walks read of a pointwise
    stabilizer ``H``, with ``key = Fix(H)``, ``order = |H|`` and
    ``size(x)`` the length of ``x``'s orbit, a Python int.  ``key`` is
    ``Fix(H)`` when the caller proved it, and computed otherwise."""
    if key is None:
        key = _fixed_key(H)
    return key, H, H.order(), H.orbit_sizes().item


class _SubgroupTable:
    """The pointwise stabilizers of one group that its searches in one mode computed.

    Each stored subgroup is one record ``(key, group, order, size)``
    (``_record``), made when the group is stored.  ``known`` maps a point
    set ``S``, as an int, to the record of ``G_(S)``: every request key
    ``Fix(K) | 1 << x`` answered, and every stored group's key ``Fix(L)``.
    ``by_order`` maps an order to the keys of the stored groups of that
    order, and ``most_fixed`` maps it to the largest popcount among those
    keys.  Each subgroup is stored once (module notes).  ``cands`` maps
    the key of each group a search entered, the root's included, to its
    ascending candidate points: the minima of its moved orbits when
    ``pruned``, else its moved points.  The root's own record is never
    stored: the root holds its tables, so a stored record of it would be a
    reference cycle.
    """

    __slots__ = ("pruned", "known", "by_order", "most_fixed", "cands")

    def __init__(self, pruned: bool):
        self.pruned = pruned
        self.known: dict[int, tuple] = {}
        self.by_order: dict[int, list[int]] = {}
        self.most_fixed: dict[int, int] = {}
        self.cands: dict[int, list[int]] = {}

    def candidates(self, k: int, H: PermGroup) -> list[int]:
        """The search candidates of ``H``, ``k = Fix(H)``, made the first time ``k`` is entered."""
        cands = self.cands.get(k)
        if cands is None:
            moved = H.orbit_sizes() > 1
            if self.pruned:
                labels = H.orbit_partition()[0]
                moved &= labels == np.arange(labels.size)
            cands = self.cands[k] = np.nonzero(moved)[0].tolist()
        return cands

    def point_stabilizer(self, rec: tuple, x: int) -> tuple:
        """The record of ``K_x``, for ``rec`` the record of a pointwise stabilizer ``K``.

        A request that is a known point set, answered before or a stored
        key, is one lookup.  Otherwise a stored ``L`` of order
        ``|K| / |x^K|`` fixing every point of the request is ``K_x``, and
        its key has more points than the request, so the keys of that
        order are scanned only when one has.  Only when there is none is
        ``K_x`` computed, and then stored, under the request itself when
        ``K_x`` fixes as many points as the request names.
        """
        request = rec[0] | 1 << x
        child = self.known.get(request)
        if child is None:
            _, K, order, size = rec
            t = order // size(x)
            count = request.bit_count()
            key = None
            if self.most_fixed.get(t, 0) > count:
                key = next((f for f in self.by_order[t] if f & request == request), None)
            if key is None:
                Kx = K.point_stabilizer(x)
                child = _record(Kx, request if Kx._fixed_count() == count else None)
                key = child[0]
                self.known[key] = child
                self.by_order.setdefault(t, []).append(key)
                self.most_fixed[t] = max(self.most_fixed.get(t, 0), key.bit_count())
            else:
                child = self.known[key]
            self.known[request] = child
        return child


def _subgroup_table(G: PermGroup, mode: str) -> _SubgroupTable:
    # one table per mode in G's slot, so it dies with G (module notes)
    tables = G._subgroups
    if tables is None:
        tables = G._subgroups = {}
    table = tables.get(mode)
    if table is None:
        table = tables[mode] = _SubgroupTable(mode == "pruned")
    return table


# -- the independent-set walker -----------------------------------------


def _walk_independent(G: PermGroup, counter: SearchBudget, mode: str, largest_first: bool,
                      visit) -> None:
    """Depth-first over independent point sets with strict stabilizer descent.

    Runs on an explicit stack, and a node's next candidate is evaluated only
    after the previous child's subtree is done, so the hook sees every
    earlier result.  Candidates are per-level orbit minima, one per
    stabilizer class (pruned), or every larger moved point (exhaustive);
    ascending, or largest orbit first; each node slices its group's list
    in the table above its last point.  ``visit(points, x, hx_order, H)``
    sees each independent candidate ``x`` of the node's group ``H`` and
    returns whether to descend into it; a candidate completing a base
    (``hx_order == 1``) is never entered.  The node and every deletion stabilizer are records
    ``(key, group, order, size)`` (``_record``): the root's is made once
    per walk, and every other comes from ``G``'s subgroup table for the
    walk's mode, so the walk computes each subgroup once per group, and
    none that an earlier search on ``G`` in the same mode computed (module
    notes).  A frame keeps its deletion stabilizers' records as they are,
    and the independence test reads each one's order and sizes off it.
    """
    table = _subgroup_table(G, mode)
    stabilizer = table.point_stabilizer
    classes = G.stabilizer_class_labels().tolist() if table.pruned else None
    stack = []

    def enter(points, rec, dels):
        counter.tick()
        k, H, _, size = rec
        cands = table.candidates(k, H)
        if points:
            cands = cands[bisect_right(cands, points[-1]):]
        if not cands:
            return
        if largest_first:
            cands = sorted(cands, key=lambda x: -size(x))  # stable: ties stay ascending
        stack.append((points, rec, dels, _candidates(cands, classes)))

    enter((), _record(G), ())
    while stack:
        points, rec, dels, cands = stack[-1]
        _, H, h_ord, size = rec
        for x in cands:
            hx_order = h_ord // size(x)
            for _, _, order, ks in dels:
                if order // ks(x) <= hx_order:
                    break  # not independent: x is fixed without p_j
            else:  # a break here leaves the candidate loop
                if visit(points, x, hx_order, H) and hx_order > 1:
                    enter(points + (x,), stabilizer(rec, x),
                          [stabilizer(d, x) for d in dels] + [rec])
                    break
        else:
            stack.pop()


def _independent_sets(G: PermGroup, mode: str, budget) -> tuple[dict[int, tuple[int, ...]], int]:
    """One walk over the independent sets of ``G``.

    Returns the first minimal base found of each size, keyed by size, and
    the size of the largest independent set.  A minimal base is an
    independent set that is a base, so both are read off the same tree.
    """
    _require_nontrivial(G)
    _check_mode(mode)
    counter = _as_budget(budget)
    G.order()
    found: dict[int, tuple[int, ...]] = {}
    largest = 0

    def visit(points, x, hx_order, H):
        nonlocal largest
        size = len(points) + 1
        largest = max(largest, size)
        if hx_order == 1:
            found.setdefault(size, points + (x,))
        return True

    _walk_independent(G, counter, mode, largest_first=False, visit=visit)
    return found, largest


# -- minimal bases ------------------------------------------------------


def minimal_base_sizes(G: PermGroup, mode: str = "pruned", budget=None, witnesses: bool = False):
    """The exact set of cardinalities of minimal bases of ``G``.

    Depth-first over independent point sets with strict stabilizer descent:
    a set that is both independent and a base is a minimal base.  Exhaustive
    mode extends with any larger point, pruned mode with per-level orbit
    minima (ascending; see the module notes).  With ``witnesses=True``
    returns ``(sizes, {size: points})`` with one witness per size.
    """
    found, _ = _independent_sets(G, mode, budget)
    sizes = SizeSet(found)
    if witnesses:
        return sizes, {s: found[s] for s in sorted(found)}
    return sizes


def min_base_size(G: PermGroup, budget=None) -> int:
    """Smallest base cardinality, by branch and bound over the pruned tree.

    Candidates are tried largest orbit first so a good bound appears early;
    a candidate is not entered when even dividing by its parent's largest
    orbit size at every remaining step cannot reach the identity before the
    incumbent.  Orbits only shrink down the tree, so no smaller base is
    lost.
    """
    _require_nontrivial(G)
    counter = _as_budget(budget)
    G.order()
    best: int | None = None

    def bound_steps(order: int, max_orbit: int) -> int:
        k = 0
        v = 1
        while v < order:
            v *= max_orbit
            k += 1
        return k

    def visit(points, x, hx_order, H):
        nonlocal best
        depth = len(points) + 1
        if hx_order == 1 and (best is None or depth < best):
            best = depth
        return best is None or depth + bound_steps(hx_order, int(H.orbit_sizes().max())) < best

    _walk_independent(G, counter, "pruned", largest_first=True, visit=visit)
    assert best is not None  # every non-trivial group has a base
    return best


# -- independent sets ---------------------------------------------------


def height(G: PermGroup, mode: str = "pruned", budget=None) -> int:
    """Maximum cardinality of an independent set.

    The same walk as ``minimal_base_sizes``, run afresh: its own budget
    nodes, and the largest independent set it meets.
    """
    return _independent_sets(G, mode, budget)[1]


# -- irredundant bases --------------------------------------------------


def irredundant_base_sizes(G: PermGroup, mode: str = "pruned", budget=None, witnesses: bool = False):
    """The exact set of lengths of irredundant bases of ``G``.

    Ordered sequences with strict stabilizer descent.  Pruned mode restricts
    candidates to per-level orbit minima, one per stabilizer class;
    exhaustive mode takes every moved point.  Nodes with equal pointwise
    stabilizers, i.e. equal fixed points, share their futures, so each is
    memoized by its key, the int of its fixed points, with its reachable
    lengths, each mapped to the first candidate reaching it and that
    candidate's child key.  Each frame keeps its group's record ``(key,
    group, order, size)`` (``_record``), and each child's record comes from
    ``G``'s subgroup table for the mode, shared with the other searches on
    ``G`` in that mode (module notes); a child the memo already holds still
    costs its budget node but no stabilizer.  With
    ``witnesses=True`` a witness of each length is read off the memo by
    lookups from ``G``'s key, at no further search or stabilizer cost.
    """
    _require_nontrivial(G)
    _check_mode(mode)
    counter = _as_budget(budget)
    G.order()
    table = _subgroup_table(G, mode)
    stabilizer = table.point_stabilizer
    classes = G.stabilizer_class_labels().tolist() if table.pruned else None
    memo: dict[int, dict[int, tuple[int, int | None]]] = {}
    # explicit stack; each frame keeps the candidate that led to it, and
    # ``done = (x, key)`` carries a finished subtree (or memo hit) below
    # candidate ``x`` up to the frame that tried it
    stack = []

    def enter(x, rec):
        counter.tick()
        key, H, _, _ = rec
        if key in memo:
            return x, key
        stack.append((x, rec, _candidates(table.candidates(key, H), classes), {}))
        return None

    done = enter(None, _record(G))
    while stack:
        _, rec, cands, out = stack[-1]
        if done is not None:
            x, child = done
            for l in memo[child]:
                out.setdefault(l + 1, (x, child))
            done = None
        _, _, h_ord, size = rec
        for x in cands:
            if h_ord // size(x) == 1:
                out.setdefault(1, (x, None))
                continue
            done = enter(x, stabilizer(rec, x))
            break
        else:
            memo[rec[0]] = out
            done = stack.pop()[0], rec[0]
    root = done[1]
    sizes = SizeSet(memo[root])
    if not witnesses:
        return sizes
    found: dict[int, tuple[int, ...]] = {}
    for target in sizes:
        seq, key = [], root
        for rem in range(target, 0, -1):
            x, key = memo[key][rem]
            seq.append(x)
        found[target] = tuple(seq)
    return sizes, found


# -- aggregates ---------------------------------------------------------


def base_stats(G: PermGroup, mode: str = "pruned", budget=None) -> BaseStats:
    """b, B, and Imax from the two size-set searches."""
    m = minimal_base_sizes(G, mode, budget)
    i = irredundant_base_sizes(G, mode, budget)
    if m.min != i.min:
        raise RuntimeError(
            f"minimal and irredundant spectra disagree on b: {m.min} vs {i.min}"
        )
    return BaseStats(b=m.min, B=m.max, Imax=i.max)


def is_ibis(G: PermGroup, mode: str = "pruned", budget=None) -> bool:
    """All irredundant bases share one length."""
    return len(irredundant_base_sizes(G, mode, budget)) == 1


def is_mibis(G: PermGroup, mode: str = "pruned", budget=None) -> bool:
    """All minimal bases share one cardinality."""
    return len(minimal_base_sizes(G, mode, budget)) == 1


# -- product-action tooling ---------------------------------------------


def indicator_vectors(G: PermGroup, H: PermGroup, base) -> IndicatorVectors:
    """Movability vectors of a minimal base of the product action of G and H.

    ``base`` is a list of (G-point, H-point) pairs.  Coordinate ``i`` of the
    G-vector is 1 iff some element of G moves the i-th first coordinate while
    fixing every other first coordinate, i.e. iff the pointwise stabilizer in
    G of the other first coordinates does not fix it; the H-vector likewise.
    """
    from .constructions import product_action, product_point

    pairs = [(_as_point(d, G.degree), _as_point(l, H.degree)) for d, l in base]
    prod = product_action(G, H)
    points = {product_point(d, l, H.degree) for d, l in pairs}
    if not is_minimal_base(prod, points):
        raise ValueError("the given pairs are not a minimal base of the product action")

    def vector(group, coords):
        out = []
        for i in range(len(coords)):
            others = {coords[j] for j in range(len(coords)) if j != i}
            sizes = group.pointwise_stabilizer(others).orbit_sizes()
            out.append(1 if sizes[coords[i]] > 1 else 0)
        return tuple(out)

    return IndicatorVectors(
        vG=vector(G, [d for d, _ in pairs]),
        vH=vector(H, [l for _, l in pairs]),
    )


def grid_minimal_base(base_g, base_h, k: int) -> list[tuple[int, int]]:
    """The diagonal-then-horizontal-then-vertical grid recipe.

    Takes ordered minimal bases of the two factors and a target size ``k``
    with ``max(a, b) <= k <= a + b - 2``; returns ``k`` pairs forming a
    minimal base of the product action.  Columns are points of the first
    base, rows of the second; the layout avoids closing any rectangle.
    """
    g = [_as_int(x, "point") for x in base_g]
    h = [_as_int(x, "point") for x in base_h]
    k = _as_int(k, "k")
    if len(g) > len(h):
        return [(d, l) for l, d in grid_minimal_base(h, g, k)]
    a, b = len(g), len(h)
    lo, hi = max(a, b), a + b - 2
    if not lo <= k <= hi:
        raise ValueError(f"k={k} outside [{lo}, {hi}]")
    diag = a + b - k - 1
    pairs = [(g[t], h[t]) for t in range(diag)]
    pairs += [(g[t], h[diag - 1]) for t in range(diag, a - 1)]
    pairs += [(g[a - 1], h[t]) for t in range(diag, b)]
    return pairs
