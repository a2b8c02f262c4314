"""Permutation groups, orbits, and exact stabilizer chains.

The chain is the classic incremental Schreier-Sims structure: level ``i``
stores a base point, the strong generators fixing all earlier base points,
and the base point's orbit under those generators as a Schreier vector:
each orbit point records the point it was reached from and the index of
the generator that took it there.  A new strong generator extends the
orbit incrementally: only that generator is applied to the points already
there, and every generator to the points it adds.  Coset representatives
are products along the Schreier tree, formed only when read and then
cached with their inverses.  Orbits grow breadth-first with generators in
list order, and a new base point is always the smallest point moved by the
residue that forced it.  Each read of one point's image, in these scans,
in ``sift`` and in ``Perm.__getitem__``, is a ``.item`` call, which
returns a Python int at about half the cost of indexing the array and
converting.  A gather through int32 images (a
product, a join round, orbit sizes, a coset table's frontier) is an
``ndarray.take`` with its bounds check kept: indexing by an int32 array
casts the index to ``intp`` on every call, and with numpy 2.4 a gather
took 6.8-8.1 µs by indexing against 3.1-4.5 µs by ``take`` at degree
2,400, and 0.76 against 0.55 µs at degree 8.  A scatter (``Perm.inverse``,
a view's sizes, ``_conjugated_labels``, the carry of stabilizer classes)
stays an assignment: ``ndarray.put`` took 10.3-13.3 against 8.1-9.6 µs
at degree 2,400, though it was the faster at degree 300 and below.
``tests/gather_timing.py`` times all four.

Every chain but a proven giant's is built by one completion,
``_complete``: sift the generators, then sift random elements of the group
until the orbit sizes multiply up to its known order.  This stop is exact: the products of one transversal
element per level are pairwise distinct group elements, so the product of
orbit sizes can never exceed the group order, and it reaches it exactly
when every element sifts.  A random element lies in the group of level 0's
generators, so its residue joins the levels from 1 on, as the residue of
a Schreier generator of level ``i`` joins those from ``i + 1`` on; each
level's generators still generate the stabilizer of the earlier base
points.
After ``_IDLE_DRAWS`` draws in a row that add nothing, or with no known
order, the deterministic verification ``_verify`` sifts every Schreier
generator instead.  The two routes differ only in where their
random elements come from, and both streams are seeded from their inputs,
so a chain is the same in every process:

- a root chain (``build_chain``) draws by product replacement from the
  generators.  Its order is the one its construction proved
  (``PermGroup._constructed``) or, for a transitive group of degree at
  least 8 with none, the giant certificate (``_giant_order``): a drawn
  element with a cycle of prime length ``p``, ``n/2 < p < n - 2``, proves
  the group contains ``A_n``.  A known order of ``n!`` or ``n!/2`` runs
  the certificate too: a known order other than the one it proves raises
  at once, and one it neither proves nor disproves is completed on the
  same draws.  A proven giant's chain is not completed
  but written down (``_giant_chain``, Seress 2003, sections 5.4 and
  10.2): the chain of its standard strong generators
  (``_standard_generators``), with base ``0, 1, ...`` and every Schreier
  vector known in closed form, exactly as the completion would build it
  from those generators.  Its level-0 generators are those, while the
  group's ``PermGroup.generators`` stay the ones it was given;
- a rebase (``_rebase``) of a chain on a base prefix draws uniform
  elements off that chain.  A rebase knows a bound on each level it
  opens (Seress 2003, sections 4.2 and 5.4): the level's group fixes the
  earlier base points and lies in the source's group, so the orbit of its
  base point lies in the source's level-0 orbit of that point, less the
  earlier base points in it.  That bound is the level's ``cap``, and
  ``add_gen`` stops scanning once the orbit holds it: the scan could add
  no further point, so the Schreier vector is the same as without a cap,
  insertion order included.  A root chain has no such bound and no cap.

Every strong generator of a finished level is an edge of the level's
Schreier tree or a strong generator, the same object, of the level
below.  A residue that stops at level ``j`` joins the levels up to ``j``,
so above ``j`` it is in the next level's list.  At ``j`` it takes the
base point out of the basic orbit, or opens the level at a point it
moves, and ``add_gen`` records it as the edge from the base point.  So
no level keeps a generator that neither its tree nor the level below
uses, and a completion has nothing to prune.

A group whose stabilizers ``basekit.bases`` stores in a subgroup table
lives as long as the search's root group, so three things keep a stored
group small.  A completed rebase drops the transversal elements and
inverses its levels cached while completing, keeping only the base
point's identity; the derived stabilizers read from it form the few they
need again.  The chain it rebased keeps it, one per orbit, as long as
that chain lives.  Uniform draws read the parent's transversal elements
without caching them, so a stored parent does not grow with every rebase
below it.  And a stored group makes only what is read of it.  The
searches read most stored groups only for their orbit sizes, so a
group holds its int32 sizes (``orbit_sizes``) and makes its labels on
first read.  A finished chain caches its group's orbit ``labels`` and
``sizes``, both int32; a root group's sizes are the chain's array, and a
conjugated view's are one scatter of it through ``u``.  The chain also
caches how many points its group fixes, counted once off those sizes,
and every view of the chain reads that count
(``PermGroup._fixed_count``): conjugation keeps it, so no view scatters
or scans for it.  ``basekit.bases`` reads it to name a new stored
stabilizer by the request that made it, with no degree-long key.
``orbit_partition`` makes a group's ``labels`` on its first call,
widened to int64 because they index arrays (``_conjugated_labels``).  A
view keeps no inverse of its conjugator: deriving a stabilizer needs only
``x^(u^-1)``, the point that ``u`` sends to ``x``, found by one
comparison over ``u``, so no search forms ``u^-1``; a membership test
forms it for each call, and the first read of a conjugated view's
generators once.

Every orbit label of a group comes from its chain (``_chain_labels``),
through one kernel, ``_join(labels, gens)``: the orbits of ``<K, gens>``
from the labels of ``K``, each orbit labelled by its smallest point.  A
view's chain is labelled by its level 0 alone: that level's own
generators are joined onto the single points once, on first read, and
no level below it is read or labelled.  A chain with no levels labels
the single points.  A level of a proven giant's written-down chain
(``_GiantLevel``) acts on the points from its base point on and fixes
the rest, so its chain's labels, sizes and fixed-point count are written
down in closed form on first read, and a proven giant's chain never
joins.  A group made from generators builds its chain for its first
orbit read; before that, the giant certificate tests transitivity by one
orbit walk from point 0 (``_is_transitive``).  A finished chain also
keeps its order, set as it is finished, and ``suffix(1)`` divides it by
level 0's orbit size, so a view's order is a read.

Every group reads a chain through one view ``(chain, u)``: the group
is ``u^-1 <chain> u`` (``u`` is ``None`` for the chain's own group), and
membership sifts ``u p u^-1`` through the chain.  A group made from
generators builds its chain on first use; a stabilizer is born a view of
its parent's chain, copying no level or transversal.  Every level of a
view's chain has a basic orbit of more than one point: each level is
opened by ``_add_strong_gen`` at a point its new strong generator moves,
and a rebase's view starts below its prefix.  Let ``b`` be the base point
of level 0 and ``t_y`` its transversal element taking ``b`` to ``y``.
In ``<chain>`` the stabilizer of ``b`` is the group of the suffix from
level 1, and that of ``y`` is ``t_y^-1 <suffix> t_y``.  So for
``y = x^(u^-1)`` the view's stabilizer of ``x`` is the view ``(suffix,
t_y u)``, or ``(suffix, u)`` when ``y = b``.  A point
``x`` outside that basic orbit (moved by the group, but in another orbit)
takes the same route from a chain whose level 0 is the orbit of ``y``:
the rebase of the view's chain, never of the view, on one point of that
orbit (``_orbit_rebase``).  The view's chain keeps that rebase under the
orbit's label, and each level heads one chain, so each orbit of each
level's group is rebased at most once, for every view of the level,
every conjugator and every point of the orbit: the first request rebases
on its own ``y``, and a later one reads ``t_y`` off the rebase's level 0.
This is base change by conjugation (Seress 2003, section 5.4), one orbit
at a time: no rebase takes or applies a conjugator.  Stabilizer class labels take this same
route, at most one ``point_stabilizer`` per orbit.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import numpy as np

from .perm import Perm, _as_int

__all__ = ["PermGroup", "StabilizerChain"]

# consecutive random draws that add nothing before a completion falls back
# to the deterministic verification; a uniform draw from an incomplete chain
# adds a strong generator with probability at least 1/2
_IDLE_DRAWS = 20
# a numpy comparison of the remaining base points costs about as much as
# this many one-point reads
_SCAN_LEVELS = 8
# product replacement: slots, and the steps taken before the first draw;
# sympy takes 50, but the stop is exact however well the draws mix, and
# after 20 the certificate needs about as many draws as for uniform ones
_PR_SLOTS = 10
_PR_WARMUP = 20
# the chance that a giant escapes the certificate's draws, were they uniform
_GIANT_MISS = 1e-3


class _Level:
    """One level of a stabilizer chain.

    ``transversal`` is the Schreier vector of the basic orbit: an
    insertion-ordered ``point -> (parent point, generator index)`` dict,
    with the base point mapped to ``None``, such that ``gens[i]`` takes the
    parent to the point; a parent always precedes its children.  Coset
    representatives are materialized on demand by ``element`` and cached,
    together with their inverses.  The tree of a finished chain never
    changes, so an entry never goes stale, and dropping entries
    (``drop_caches``) only means forming them again when read.  A
    completed rebase drops its levels' entries, and random draws
    (``element(..., cache=False)``) add none (module notes).

    ``cap`` is ``None`` or, on a level a rebase opened, the most points
    its orbit can hold (``_rebase``); ``add_gen`` stops scanning there.
    A level keeps only this Schreier-Sims data: what is known of the group
    of its generators is kept by the chain it heads (``StabilizerChain``).
    """

    __slots__ = ("point", "gens", "transversal", "cap", "_elements", "_inverses")

    def __init__(self, point: int, degree: int, cap: int | None = None):
        self.point = point
        self.cap = cap
        self.gens: list[Perm] = []
        self.transversal: dict[int, tuple[int, int] | None] = {point: None}
        ident = Perm.identity(degree)
        self._elements: dict[int, Perm] = {point: ident}
        self._inverses: dict[int, Perm] = {point: ident}

    def add_gen(self, g: Perm) -> None:
        """Append a strong generator and extend the orbit.

        Only ``g`` is applied to the points already in the orbit; every
        generator is applied to the points it gains, breadth-first in list
        order.  A level with a ``cap`` stops at the insertion that fills
        it, and scans nothing when its orbit already holds it: no later
        insertion could happen, so the Schreier vector and its insertion
        order are those of the full scan.
        """
        trans = self.transversal
        gens = self.gens
        gens.append(g)
        cap = self.cap
        if len(trans) == cap:
            return
        images = g.images
        k = len(gens) - 1
        new = []
        for beta in list(trans):
            gamma = images.item(beta)
            if gamma not in trans:
                trans[gamma] = (beta, k)
                if len(trans) == cap:
                    return
                new.append(gamma)
        for beta in new:  # grows while walked: a breadth-first queue
            for i, s in enumerate(gens):
                gamma = s.images.item(beta)
                if gamma not in trans:
                    trans[gamma] = (beta, i)
                    if len(trans) == cap:
                        return
                    new.append(gamma)

    def element(self, point: int, cache: bool = True) -> Perm:
        """The coset representative taking the base point to ``point``.

        Walks the Schreier vector up to the nearest cached ancestor and
        caches every element on the way back down, unless ``cache`` is
        false: then the cache is read but left as it was.
        """
        elements = self._elements
        u = elements.get(point)
        if u is not None:
            return u
        path = []
        x = point
        while u is None:
            path.append(x)
            x = self.transversal[x][0]
            u = elements.get(x)
        gens = self.gens
        for y in reversed(path):
            u = u * gens[self.transversal[y][1]]
            if cache:
                elements[y] = u
        return u

    def inv_transversal(self, point: int) -> Perm:
        u = self._inverses.get(point)
        if u is None:
            u = self.element(point).inverse()
            self._inverses[point] = u
        return u

    def drop_caches(self) -> None:
        """Forget every cached representative but the base point's identity."""
        ident = self._elements[self.point]
        self._elements = {self.point: ident}
        self._inverses = {self.point: ident}


class _GiantLevel(_Level):
    """A level of a proven giant's written-down chain (``_giant_chain``).

    Its group is the giant on the points from its base point ``i`` on, and
    it fixes every point below ``i``.  So its orbit labels are the points
    themselves below ``i`` and ``i`` from ``i`` on, and its orbit sizes are
    1 below ``i`` and ``n - i`` from ``i`` on: ``_chain_labels`` and
    ``_chain_sizes`` write them down on first read, with no join, and
    ``_chain_sizes`` sets the count of ``i`` fixed points with the sizes.
    """

    __slots__ = ()


class StabilizerChain:
    """Base points with per-level strong generators, orbits, and transversals.

    ``_points`` caches the base points as an array for ``sift``; it is made
    again whenever the chain has grown a level since.  ``_tail`` caches
    ``suffix(1)``, which only a finished chain is asked for.

    Five values of the chain's group are kept once the chain is finished,
    for every view of it: ``_order``, set as the chain is finished
    (``build_chain``, ``_rebase``, ``_giant_chain``, ``suffix(1)``);
    ``_labels``, its int32 orbit labels (``_chain_labels``); ``_sizes``,
    its int32 orbit sizes (``_chain_sizes``); ``_fixed``, how many points
    it fixes (``PermGroup._fixed_count``); and ``_rebases``, its rebases on
    single points, at most one per orbit, keyed by the orbit's label
    (``_orbit_rebase``).  A chain still being completed keeps all five
    ``None``.  Inside basekit each level heads one chain object, a root
    chain, a rebase or a cached tail, so every view of a level reads the
    same values.
    """

    __slots__ = ("degree", "levels", "_points", "_tail", "_order", "_labels", "_sizes", "_fixed",
                 "_rebases")

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._points = self._tail = self._order = None
        self._labels = self._sizes = self._fixed = self._rebases = None

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self.levels)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(level.transversal) for level in self.levels)

    def order(self) -> int:
        """The product of the orbit sizes: a read once the chain is finished."""
        if self._order is not None:
            return self._order
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def level_generators(self, i: int) -> tuple[Perm, ...]:
        """Strong generators fixing the first ``i`` base points pointwise."""
        if i >= len(self.levels):
            return ()
        return tuple(self.levels[i].gens)

    def sift(self, p: Perm, start: int = 0) -> tuple[Perm, int]:
        """Strip ``p`` level by level; returns (residue, level reached).

        ``p`` must be a ``Perm`` of the chain's degree: every completion
        sifts each generator and draw here, so ``p`` is neither converted
        nor checked (``contains`` does both).  Membership holds iff the
        residue is the identity, in which case the level reached is
        ``len(self.levels)``.  After a level whose base point the residue
        fixes, one comparison of its images of the remaining base points
        finds the next level it moves, when at least ``_SCAN_LEVELS``
        levels remain.
        """
        levels, points = self.levels, self._points
        i = start
        while i < len(levels):
            level = levels[i]
            beta = p.images.item(level.point)
            if beta == level.point:
                i += 1
                if len(levels) - i >= _SCAN_LEVELS:
                    if points is None or len(points) != len(levels):
                        points = self._points = np.array([lv.point for lv in levels])
                    rest = points[i:]
                    moved = p.images[rest] != rest
                    k = int(moved.argmax())
                    if not moved[k]:
                        break
                    i += k
                continue
            if beta not in level.transversal:
                return p, i
            p = p * level.inv_transversal(beta)
            i += 1
        return p, len(levels)

    def contains(self, p) -> bool:
        """Membership of ``p``, a ``Perm`` or an image sequence."""
        if not isinstance(p, Perm):
            p = Perm(p)
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        residue, _ = self.sift(p)
        return residue.is_identity()

    def suffix(self, start: int) -> "StabilizerChain":
        """The tail from level ``start`` on: a chain for the stabilizer of the first base points.

        Shares level objects with this chain; chains are never mutated after
        construction, so sharing is safe.  The tail from level 1, which
        every stabilizer derived from this chain reads, is made once and
        kept, so those views share one level list and its caches; its order
        is this chain's over the orbit size of level 0.  Any other tail is
        a fresh chain with its own caches.
        """
        if start == 1 and self._tail is not None:
            return self._tail
        sub = StabilizerChain(self.degree)
        sub.levels = self.levels[start:]
        if start == 1:
            if self.levels:
                sub._order = self.order() // len(self.levels[0].transversal)
            self._tail = sub
        return sub

    def elements(self):
        """Yield every group element once (products of transversal elements)."""

        def walk(i: int):
            if i == len(self.levels):
                yield Perm.identity(self.degree)
                return
            level = self.levels[i]
            for tail in walk(i + 1):
                for x in level.transversal:
                    yield tail * level.element(x)

        yield from walk(0)


def build_chain(degree: int, generators, known_order: int | None = None) -> StabilizerChain:
    """The default-base chain of ``<generators>``, exact.

    The one completion (``_complete``, see the module notes) with random
    elements drawn by product replacement, seeded from the generators,
    stopped at ``known_order``; a group with no known order and no giant
    certificate is completed by the deterministic verification.  With no
    known order, or one of ``n!`` or ``n!/2`` (``_giant_sized``), the giant
    certificate (``_giant_order``) runs first; a proven order that is the
    known one, or that stands for a missing one, is not completed: the
    chain of the giant's standard strong generators is written down
    (``_giant_chain``), so the chain's level-0 generators are those and its
    base is ``0, 1, ...``.  Once the certificate proves an order, any other
    known order is wrong, ``n!`` on ``A_n`` as much as ``n!/2`` on
    ``S_n``, and raises ``RuntimeError`` naming both orders at once, before
    any draw of the completion.  A known order the certificate neither
    proves nor disproves is completed on the same draw stream, from where
    the certificate left it.

    ``known_order`` is an order proven elsewhere, and must be exact: the
    order a construction proved (``PermGroup._constructed``), or a view's
    order that ``PermGroup.stabilizer_chain`` rebuilds a chain for.  The
    completion stops as soon as the orbit sizes multiply up to it (exact
    when it is the order, by the module notes).  A value no partial chain
    reaches, such as one larger than the order, raises ``RuntimeError``
    once ``_IDLE_DRAWS`` draws in a row add nothing and the verification
    finds the true order; a smaller one that a partial chain reaches would
    be returned as the order unchecked, which is why only proven orders
    reach it.  Chains with a prescribed base prefix come from ``_rebase``
    (``PermGroup.stabilizer_chain`` in the public API).
    """
    generators = tuple(generators)
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    draws = _product_replacement(degree, generators)
    if known_order is None or _giant_sized(degree, known_order):
        proven = _giant_order(degree, generators, draws)
        if proven is not None:
            if known_order not in (None, proven):
                raise RuntimeError(f"stabilizer chain order {proven} != expected {known_order}")
            return _giant_chain(degree, proven)
    chain = StabilizerChain(degree)
    _complete(chain, generators, known_order, draws)
    chain._order = chain.order()
    return chain


def _add_strong_gen(chain: StabilizerChain, low: int, g: Perm, stuck: int, cap=None) -> None:
    # g fixes the base points of all levels before ``stuck``; a new level
    # takes the smallest point g moves, and a rebase's ``cap(base, point)``
    # bounds its orbit
    levels = chain.levels
    if stuck == len(levels):
        point = g.smallest_moved()
        bound = None if cap is None else cap(chain.base, point)
        levels.append(_Level(point, chain.degree, bound))
    for l in range(low, stuck + 1):
        levels[l].add_gen(g)


def _complete(chain: StabilizerChain, generators, order: int | None, draws, cap=None) -> None:
    """Complete ``chain`` to a chain of ``<generators>`` of order ``order``.

    The one completion of root chains and rebases.  Sift the generators in;
    then, while the orbit sizes do not multiply up to ``order``, sift the
    elements of ``draws``, random elements of ``<generators>``, and add each
    nontrivial residue as a strong generator.  A draw is already in the
    group of level 0's generators, so its residue joins the levels from 1
    on.  Every residue is a tree edge of the last level it joins (module
    notes), so no level needs pruning afterwards.  With no order, or after
    ``_IDLE_DRAWS`` consecutive draws that add nothing, ``_verify``
    finishes the chain.  A rebase passes ``cap``, which bounds the orbit of
    each level it opens (``_rebase``); a root chain passes none.
    """
    for g in generators:
        residue, j = chain.sift(g)
        if not residue.is_identity():
            _add_strong_gen(chain, 0, residue, j, cap)
            if chain.order() == order:
                return
    if chain.order() == order:
        return
    if order is not None:
        idle = 0
        for g in draws:
            residue, j = chain.sift(g)
            if residue.is_identity():
                idle += 1
                if idle == _IDLE_DRAWS:
                    break
                continue
            idle = 0
            _add_strong_gen(chain, 1, residue, j, cap)
            if chain.order() == order:
                return
    _verify(chain, order, cap)


def _seed(degree: int, generators) -> int:
    # a digest of the generators, the same in every process
    h = hashlib.blake2b(degree.to_bytes(8, "little"), digest_size=8)
    for g in generators:
        h.update(g.images.astype("<i4").tobytes())
    return int.from_bytes(h.digest(), "little")


def _product_replacement(degree: int, generators):
    """Random elements of ``<generators>`` by product replacement.

    Celler et al. (1995), with Leedham-Green's accumulator, as in
    ``sympy.combinatorics``' ``random_pr``: ``_PR_SLOTS`` slots start as
    the generators, repeated; each step replaces a slot ``s`` by
    ``s * t^e`` or ``t^e * s`` for another slot ``t`` and ``e = +-1``, and
    multiplies the accumulator by the new slot.  After ``_PR_WARMUP``
    steps every step yields the accumulator.  The stream is seeded from
    ``_seed``, never from the module-global one, and does nothing until
    its first element is asked for.
    """
    rng = random.Random(_seed(degree, generators))
    slots = list(generators) or [Perm.identity(degree)]
    slots = [slots[i % len(slots)] for i in range(max(_PR_SLOTS, len(slots)))]
    acc = Perm.identity(degree)
    r = len(slots)
    steps = 0
    while True:
        s = rng.randrange(r)
        t = rng.randrange(r - 1)
        t += t >= s
        h = slots[t] if rng.random() < 0.5 else slots[t].inverse()
        if rng.random() < 0.5:
            slots[s] = slots[s] * h
            acc = acc * slots[s]
        else:
            slots[s] = h * slots[s]
            acc = slots[s] * acc
        steps += 1
        if steps > _PR_WARMUP:
            yield acc


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _jordan_primes(degree: int) -> list[int]:
    # the primes p with degree/2 < p < degree - 2; none below degree 8
    return [p for p in range(degree // 2 + 1, degree - 2) if _is_prime(p)]


def _giant_order(degree: int, generators, draws) -> int | None:
    """``|G|`` if a draw certifies ``G = <generators>`` to contain ``A_n``, else None.

    The certificate is a proof, not a Monte Carlo answer (Jordan; Seress
    2003, section 10.2).  Let ``G`` be transitive of degree ``n`` and let
    ``g`` have a cycle of prime length ``p``, ``n/2 < p < n - 2``.  The
    other cycles of ``g`` are shorter than ``p``, so a power of ``g`` is a
    ``p``-cycle.  ``G`` is primitive: a ``p``-cycle fixes each of at most
    ``n/2 < p`` blocks, so its support would lie in one block of at most
    ``n/2`` points.  A primitive group with a ``p``-cycle, ``p <= n - 3``,
    contains ``A_n``; it is ``S_n`` iff some generator is odd.

    In ``S_n`` and in ``A_n`` a share ``sum(1/p)`` of the elements has such
    a cycle (the proportion ``_eval_is_alt_sym_monte_carlo`` in
    ``sympy.combinatorics`` estimates), so for uniform draws a giant
    escapes the fixed number tried with probability at most
    ``_GIANT_MISS``.  A group no draw certifies is left to the exact path.
    Transitivity is tested before any draw, by one orbit walk over the
    generators (``_is_transitive``), not by an orbit partition.  A proven
    order names the giant, so ``build_chain`` writes down the chain of its
    standard strong generators (``_giant_chain``), made neither from
    ``generators`` nor by a completion, whose orbits are known in closed
    form (``_GiantLevel``).
    """
    primes = _jordan_primes(degree)
    if not primes:
        return None
    if not _is_transitive(degree, generators):
        return None
    weight = sum(1 / p for p in primes)  # over the ascending list, so ``tries`` is fixed
    tries = math.ceil(math.log(1 / _GIANT_MISS) / weight)
    lengths = set(primes)
    for g in itertools.islice(draws, tries):
        if any(len(c) in lengths for c in g.cycles()):
            odd = any(sum(len(c) - 1 for c in s.cycles()) % 2 for s in generators)
            return math.factorial(degree) // (1 if odd else 2)
    return None


def _is_transitive(degree: int, generators) -> bool:
    """Whether ``<generators>`` is transitive, by one orbit walk from point 0.

    Depth-first over the generators' image lists, each read once into a
    Python list.  Its cost does not depend on the labelling, unlike the
    rounds of pointer jumping of a join onto the single points (``_join``):
    on relabelled ``S_n`` generators, on a shared 2-core VM, it took 4
    against 48 us at degree 20 and 55 against 133 us at degree 400, and
    is slower only far beyond the searchable degrees (41 against 27 ms at
    degree 100,000, once per root chain with no proven order).
    """
    images = [g.images.tolist() for g in generators]
    seen = [False] * degree
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        x = stack.pop()
        for im in images:
            y = im[x]
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    return reached == degree


def _giant_sized(degree: int, order: int) -> bool:
    """Whether ``order`` is ``n!`` or ``n!/2`` for ``n = degree >= 8``.

    The bit length of ``order`` is compared with ``log2(n!)`` first, so an
    order that is neither computes no ``n!``: at the degrees a spec may
    have, ``n!`` alone can take seconds.  ``n!`` has between ``log2(n!)``
    and one more bits, and ``n!/2`` one fewer.
    """
    if degree < 8:  # no certificate below degree 8 (``_jordan_primes``)
        return False
    bits = math.lgamma(degree + 1) / math.log(2)
    if abs(order.bit_length() - bits) > 2:
        return False
    full = math.factorial(degree)
    return order in (full, full // 2)


def _standard_generators(degree: int, order: int) -> list[Perm]:
    """The standard strong generators of the giant of ``order`` on ``degree`` points.

    The transpositions ``(i, i+1)`` for ``S_n`` and the 3-cycles
    ``(i, i+1, i+2)`` for ``A_n``.  Level ``i`` of their chain has base
    point ``i`` and the generators moving no point below ``i``, whose group
    is the giant on ``i, ..., n-1``.  ``_giant_chain`` writes that chain
    down; sifted in this order by ``_complete``, each generator would open
    the level at its smallest point and reach the same chain, with
    ``order`` reached at the last generator.
    """
    k = 2 if order == math.factorial(degree) else 3
    return [Perm.from_cycles(degree, tuple(range(i, i + k))) for i in range(degree - k + 1)]


def _giant_chain(degree: int, order: int) -> StabilizerChain:
    """The chain of the giant of ``order`` on its standard strong generators, written down.

    With ``k = 2`` for ``S_n`` and ``k = 3`` for ``A_n``, level ``i`` has
    base point ``i`` and the generators ``gens[i:]`` of level 0, the very
    objects, for ``i <= n - k``.  Its basic orbit is ``i, ..., n-1``, in
    that order, and ``j > i`` is reached from ``j - 1`` by the level's
    first generator that takes ``j - 1`` to ``j``: the cycle starting at
    ``max(j - k + 1, i)``.  This is the chain ``_complete`` builds from
    these generators, Schreier vectors and their insertion order included,
    made without sifting or scanning an orbit.  Its levels are
    ``_GiantLevel``s, whose orbit labels and sizes are known in closed form
    and are written down only when first read: a chain built only for its
    order, as for a group's first ``order()``, reads none of them.
    """
    gens = _standard_generators(degree, order)
    k = degree - len(gens) + 1  # the length of a cycle of gens
    chain = StabilizerChain(degree)
    for i in range(len(gens)):
        level = _GiantLevel(i, degree)
        level.gens = gens[i:]
        level.transversal.update((j, (j - 1, max(j - k + 1, i) - i)) for j in range(i + 1, degree))
        chain.levels.append(level)
    chain._order = order
    return chain


def _verify(chain: StabilizerChain, order: int | None, cap=None) -> None:
    """Complete ``chain`` by sifting its Schreier generators, bottom-up.

    A new strong generator at level ``j`` restarts verification there.
    Stops early once the chain's order is ``order``; if the complete chain
    has another order, raises ``RuntimeError``.  ``cap`` is ``_complete``'s.
    """
    levels = chain.levels
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        restart_at = None
        trans = level.transversal
        for beta in sorted(trans):
            for gi, s in enumerate(level.gens):
                gamma = s.images.item(beta)
                if trans[gamma] == (beta, gi):
                    continue  # a tree edge: its Schreier generator is trivial
                w = level.element(beta) * s
                if (w.images == level.element(gamma).images).all():
                    continue
                schreier = w * level.inv_transversal(gamma)
                residue, j = chain.sift(schreier, i + 1)
                if residue.is_identity():
                    continue
                _add_strong_gen(chain, i + 1, residue, j, cap)
                if chain.order() == order:
                    return
                restart_at = j
                break
            if restart_at is not None:
                break
        if restart_at is not None:
            i = restart_at
        else:
            i -= 1

    if order is not None and chain.order() != order:
        raise RuntimeError(f"stabilizer chain order {chain.order()} != expected {order}")


def _rebase(source: StabilizerChain, prefix: tuple[int, ...], order: int) -> StabilizerChain:
    """A fresh chain of ``<source>`` whose base starts with ``prefix``.

    Open one level per prefix point (a point with no descent keeps a level
    of orbit size 1) and complete the chain to ``order`` by ``_complete``
    (see the module notes) from the generators of ``source``'s level 0 and
    from ``_uniform_elements`` of ``source``.  The random stream is a fresh
    ``random.Random`` seeded from the prefix and the order, so the same call
    gives the same chain in every process and the module-global stream is
    never read.  A wrong order raises ``RuntimeError`` from the
    verification.  The finished levels keep no cached transversal element
    but the base point's (module notes).

    Every level the rebase opens, a prefix level or one that the
    completion appends, gets a ``cap`` (``_level_cap``): the orbit of its
    base point under ``source``'s level 0, less the earlier base points in
    that orbit.  The level's group is a subgroup of ``<source>`` that
    fixes the earlier base points, so its orbit never exceeds the cap, and
    ``add_gen`` stops scanning once the orbit holds it.
    """
    labels, sizes = _chain_labels(source), _chain_sizes(source)

    def cap(base, point):
        return _level_cap(labels, sizes, base, point)

    chain = StabilizerChain(source.degree)
    chain.levels = [_Level(b, source.degree, cap(prefix[:k], b)) for k, b in enumerate(prefix)]
    _complete(chain, source.level_generators(0), order, _uniform_elements(source, prefix, order), cap)
    for level in chain.levels:
        level.drop_caches()
    chain._order = order
    return chain


def _level_cap(labels: np.ndarray, sizes: np.ndarray, base, point: int) -> int:
    """The most points a rebased level at ``point`` can reach, below ``base``.

    ``labels`` and ``sizes`` are the source chain's level-0 orbit labels and
    sizes: the size of ``point``'s orbit, less the points of ``base`` in it,
    which the level's group fixes.
    """
    label = labels.item(point)
    return sizes.item(point) - sum(labels.item(b) == label for b in base)


def _orbit_rebase(chain: StabilizerChain, y: int) -> StabilizerChain:
    """The rebase of the finished ``chain`` on the orbit of ``y``, made once per orbit.

    The first request in an orbit makes ``_rebase(chain, (y,), order)`` and
    keeps it on ``chain`` under the orbit's label; a later request for any
    point of that orbit reads it, and ``y`` is then in its level 0's basic
    orbit.  Every view of ``chain`` reads the same rebases, whatever its
    conjugator.
    """
    label = int(_chain_labels(chain)[y])
    rebases = chain._rebases
    if rebases is None:
        rebases = chain._rebases = {}
    rebased = rebases.get(label)
    if rebased is None:
        rebased = rebases[label] = _rebase(chain, (y,), chain.order())
    return rebased


def _uniform_elements(source: StabilizerChain, prefix: tuple[int, ...], order: int):
    # uniform random elements of <source>, one random transversal element
    # per level, read without caching in it; the stream is seeded from the
    # prefix and the order, and starts when its first element is asked for
    levels = [(level, list(level.transversal)) for level in reversed(source.levels)]
    seed = order
    for b in prefix:
        seed = seed * source.degree + b
    rng = random.Random(seed)
    while True:
        # deepest level first: tail * t_0 runs over the group once
        g = None
        for level, points in levels:
            t = level.element(points[rng.randrange(len(points))], cache=False)
            g = t if g is None else g * t
        yield g


def _as_point(x, degree: int) -> int:
    """``x`` as a point of {0, ..., degree-1}."""
    x = _as_int(x, "point")
    if not 0 <= x < degree:
        raise ValueError(f"point {x} outside 0..{degree - 1}")
    return x


def _with_sizes(labels: np.ndarray) -> np.ndarray:
    """``sizes``, read-only, with ``sizes[x]`` the int32 length of x's orbit under ``labels``."""
    sizes = np.bincount(labels, minlength=labels.size).astype(np.int32).take(labels)
    sizes.setflags(write=False)
    return sizes


def _join(labels: np.ndarray, gens) -> np.ndarray:
    """The orbit labels of ``<K, gens>`` from ``labels``, those of ``K``.

    Each round hooks, for every edge ``x -> x^g``, the larger of the two
    labels onto the smaller (``np.minimum.at``), so a whole orbit of ``K``
    moves with its label, then jumps pointers until every point reads its
    root.  A round that hooks nothing ends the join: every edge then joins
    equal labels, each orbit's label is its smallest point, and it is one
    of the labels of ``K``.  Min-label sweeps along the new edges alone
    would not do: they move single points, not the ``K``-orbits behind
    their labels.
    """
    roots = labels.astype(np.int64)
    images = [g.images for g in gens]
    while True:
        hooked = roots.copy()
        for im in images:
            ends = roots.take(im)
            np.minimum.at(hooked, np.maximum(roots, ends), np.minimum(roots, ends))
        if (hooked == roots).all():
            return roots
        while True:
            roots = hooked[hooked]
            if (roots == hooked).all():
                break
            hooked = roots


def _chain_labels(chain: StabilizerChain) -> np.ndarray:
    """The int32 orbit labels of ``chain``'s group, cached on the chain.

    One join of level 0's own generators onto the single points
    (``_join``), made on first read; no level below is read or labelled.
    A chain with no levels, of the trivial group, labels the single
    points, and a proven giant's level (``_GiantLevel``) is labelled in
    closed form, with no join.  Only for a finished chain: a later
    ``add_gen`` would not reset the labels.
    """
    if chain._labels is None:
        labels = np.arange(chain.degree, dtype=np.int32)
        if chain.levels:
            level = chain.levels[0]
            if type(level) is _GiantLevel:
                labels[level.point:] = level.point
            else:
                labels = _join(labels, level.gens).astype(np.int32)
        labels.setflags(write=False)
        chain._labels = labels
    return chain._labels


def _chain_sizes(chain: StabilizerChain) -> np.ndarray:
    """The int32 orbit sizes of ``chain``'s group, cached on the chain.

    Counted once from the chain's labels (``_chain_labels``), so every
    view of the chain reads the same array.  A proven giant's level
    (``_GiantLevel``) writes its sizes down in closed form, with no labels
    and no count, and sets the chain's fixed-point count with them.  Only
    for a finished chain.
    """
    if chain._sizes is None:
        level = chain.levels[0] if chain.levels else None
        if type(level) is _GiantLevel:
            sizes = np.ones(chain.degree, dtype=np.int32)
            sizes[level.point:] = chain.degree - level.point
            sizes.setflags(write=False)
            chain._fixed = level.point
        else:
            sizes = _with_sizes(_chain_labels(chain))
        chain._sizes = sizes
    return chain._sizes


def _conjugated_labels(labels: np.ndarray, u: Perm | None) -> np.ndarray:
    """The int64 orbit labels of ``u^-1 <G> u`` from the int32 labels of ``G``, read-only.

    ``x^u`` and ``y^u`` share an orbit iff ``x`` and ``y`` share a
    ``G``-orbit, so one scatter through ``u`` gives each point a label
    of its orbit; each orbit is then labelled by its smallest point again.
    With no ``u`` it is the labels of ``G``, widened.
    """
    if u is None:
        out = labels.astype(np.int64)
    else:
        degree = labels.size
        ids = np.empty(degree, dtype=np.int64)  # np.minimum.at is slower on int32 ids
        ids[u.images] = labels
        smallest = np.full(degree, degree, dtype=np.int64)
        np.minimum.at(smallest, ids, np.arange(degree, dtype=np.int64))
        out = smallest[ids]
    out.setflags(write=False)
    return out


class PermGroup:
    """A permutation group on {0, ..., degree-1} given by generators.

    The trivial group is an empty generator list (the identity is never
    stored).  The group never changes after construction; its caches fill
    lazily and are safe for concurrent reads.  It reads its chain through
    one view, ``_view = (chain, u)``: the group is ``u^-1 <chain> u``, and
    ``u`` is ``None`` when ``chain`` is the group's own chain.  A group made from generators fills its view from
    ``build_chain`` on first use, and its first order, membership, orbit
    or stabilizer read is such a use.  Its order comes only from a proof:
    the chain's, or the one its construction made, which
    ``_constructed`` keeps in ``_proven`` for its chain to stop at and for
    a product to read (``_proven_order``); a group with no generators is
    proven trivial.  A stabilizer is born a view of a
    suffix of its parent's chain or of its rebase (see the module notes),
    whose generators are made only when ``generators`` is first read; no
    view keeps ``u^-1``.
    ``_subgroups`` maps a search mode of ``basekit.bases``, ``"pruned"`` or
    ``"exhaustive"``, to the table of pointwise stabilizers that the
    searches in that mode fill and share; the two are kept apart so that
    the exhaustive cross-check never reads a pruned search's group.  It
    stays ``None`` until a search runs on this group, and lives as long as
    the group.
    """

    __slots__ = (
        "degree",
        "_generators",
        "_view",
        "_order",
        "_proven",
        "_sizes",
        "_partition",
        "_stab_classes",
        "_subgroups",
    )

    def __init__(self, degree: int, generators=()):
        degree = _as_int(degree, "degree")
        if degree < 1:
            raise ValueError("degree must be positive")
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.degree = degree
        self._generators = tuple(gens)
        self._view = None
        self._order = self._proven = None if gens else 1
        self._sizes = None
        self._partition = None
        self._stab_classes = None
        self._subgroups = None

    @classmethod
    def _from_view(cls, chain: StabilizerChain, u=None) -> "PermGroup":
        # the group u^-1 <chain> u, sharing the chain's levels; the trivial
        # group is its own conjugate, so it keeps no conjugator
        g = object.__new__(cls)
        g.degree = chain.degree
        g._order = chain.order()
        g._view = (chain, None if g._order == 1 else u)
        g._generators = g._proven = g._sizes = g._partition = g._stab_classes = None
        g._subgroups = None
        return g

    @classmethod
    def _constructed(cls, degree: int, generators, order: int) -> "PermGroup":
        # a group whose construction proves its order: its own chain stops
        # at that order, and a product of it reads the order
        # (``_proven_order``) without building that chain
        g = cls(degree, generators)
        g._proven = order
        return g

    def _proven_order(self) -> int:
        # the order a construction proved, else ``order()``, which builds
        # the chain of a group made from plain generators
        return self._proven or self.order()

    def _get_view(self) -> tuple:
        # the view ``(chain, u)``, after building the chain of a group made
        # from generators
        if self._view is None:
            chain = build_chain(self.degree, self.generators, known_order=self._proven)
            self._order = chain.order()
            self._view = (chain, None)
        return self._view

    @property
    def generators(self) -> tuple[Perm, ...]:
        if self._generators is None:  # a view's, made on first read
            chain, u = self._get_view()
            gens = chain.level_generators(0)
            if u is not None:
                inv = u.inverse()
                gens = tuple(inv * s * u for s in gens)
            self._generators = gens
        return self._generators

    def is_trivial(self) -> bool:
        # a group made from generators has order 1 iff it has none; a view
        # takes its order from its chain
        return self._order == 1

    def order(self) -> int:
        if self._order is None:
            self._get_view()
        return self._order

    def contains(self, p) -> bool:
        """Membership of ``p``, a ``Perm`` or an image sequence; the chain checks it.

        A conjugated view conjugates ``p`` only if its degree is the
        group's, so on every route a ``p`` of another degree reaches the
        chain, which raises ``ValueError`` naming that degree first.
        """
        if not isinstance(p, Perm):
            p = Perm(p)
        chain, u = self._get_view()
        if u is not None and p.degree == self.degree:
            p = u * p * u.inverse()
        return chain.contains(p)

    def orbit_sizes(self) -> np.ndarray:
        """``sizes[x]``: the int32 length of x's orbit, read-only and cached.

        The group fixes exactly the points with ``sizes == 1``.  A root
        group reads the array its chain keeps (``_chain_sizes``);
        a conjugated view ``u^-1 <chain> u`` scatters that array through
        ``u`` once, since the orbit of ``y^u`` is as long as that of ``y``.
        No labels are made, and the first read on a group made from
        generators builds its chain.
        """
        if self._sizes is None:
            chain, u = self._get_view()
            sizes = _chain_sizes(chain)
            if u is not None:
                out = np.empty_like(sizes)
                out[u.images] = sizes
                out.setflags(write=False)
                sizes = out
            self._sizes = sizes
        return self._sizes

    def _fixed_count(self) -> int:
        # how many points the group fixes: conjugation keeps the count, so
        # a view reads the one its chain caches, counted once off the
        # chain's sizes (a proven giant's chain sets it with its sizes)
        chain = self._get_view()[0]
        sizes = _chain_sizes(chain)
        if chain._fixed is None:
            chain._fixed = int(np.count_nonzero(sizes == 1))
        return chain._fixed

    def orbit_partition(self):
        """``(labels, sizes)``: x's orbit's smallest point and its int32 length.

        ``labels[x]`` is the smallest point of x's orbit, int64, and
        ``sizes`` is the very array ``orbit_sizes`` returns.  Both are
        read-only and cached.  The labels are made on the first call, off
        the chain's labels (``_chain_labels``), relabelled through
        the conjugator of a conjugated view (``_conjugated_labels``); a
        caller that reads only sizes should call ``orbit_sizes``, which
        makes no labels.
        """
        if self._partition is None:
            chain, u = self._get_view()
            self._partition = (_conjugated_labels(_chain_labels(chain), u), self.orbit_sizes())
        return self._partition

    def orbit(self, point: int) -> set[int]:
        """Smallest invariant set containing ``point``."""
        point = _as_point(point, self.degree)
        labels, _ = self.orbit_partition()
        return {int(x) for x in np.nonzero(labels == labels[point])[0]}

    def orbits(self) -> list[list[int]]:
        """All orbits, each sorted, ordered by smallest point."""
        labels, _ = self.orbit_partition()
        buckets: dict[int, list[int]] = {}
        for x in range(self.degree):
            buckets.setdefault(int(labels[x]), []).append(x)
        return [buckets[rep] for rep in sorted(buckets)]

    def is_transitive(self) -> bool:
        return int(self.orbit_sizes()[0]) == self.degree

    def stabilizer_class_labels(self) -> np.ndarray:
        """``label[x] = min{y : the stabilizers of x and y are equal}``.

        Points with equal labels have literally equal point stabilizers, so
        they are interchangeable in bases and independent sets.  The class
        of ``x`` is the set of fixed points of ``G_x`` with ``x``'s orbit
        length: such a ``y`` has ``G_x <= G_y`` and ``|G_x| = |G_y|``.  It
        is computed once per class, not per point: for the smallest point
        ``rep`` of an orbit not yet labelled, the class of ``rep`` is read
        off the orbit partition of ``point_stabilizer(rep)``, and carried
        breadth-first by the generators, since ``g`` maps the class of ``x``
        onto that of ``x^g``.  Each class is labelled whole on first reach,
        so every point is labelled once.  A class ``{rep}`` of one point is
        carried nowhere: the generators map classes onto classes of equal
        size, so every class of that orbit is a single point, and the orbit
        is labelled with its own points at once.  The group's own
        ``generators`` carry the classes, made when a first class is carried
        if not yet read (a view's), so every carry is one gather.
        """
        if self._stab_classes is not None:
            return self._stab_classes
        degree = self.degree
        labels, sizes = self.orbit_partition()
        out = np.full(degree, -1, dtype=np.int64)
        images = None
        for rep in np.nonzero(labels == np.arange(degree))[0].tolist():
            if out[rep] >= 0:  # labelled with a class of an earlier orbit
                continue
            fixed = self.point_stabilizer(rep).orbit_sizes() == 1
            row = np.nonzero(fixed & (sizes == sizes[rep]))[0]
            if row.size == 1:  # a singleton class: so is every class of the orbit
                orbit = np.nonzero(labels == rep)[0]
                out[orbit] = orbit
                continue
            if images is None:
                images = [s.images for s in self.generators]
            out[row] = row[0]
            queue = [row]
            for row in queue:  # grows while walked: a breadth-first queue
                for im in images:
                    image = im[row]
                    if out[image[0]] < 0:
                        out[image] = image.min()
                        queue.append(image)
        out.setflags(write=False)
        self._stab_classes = out
        return out

    def stabilizer_chain(self, base_prefix=()) -> StabilizerChain:
        """A chain of this group whose base starts with ``base_prefix``.

        With ``base_prefix=()`` it is the group's own chain, which the views
        made from the group share: treat it as read-only.  With a prefix it
        is a fresh ``_rebase`` of that chain; the search's stabilizers
        rebase their view's chain instead (``pointwise_stabilizer``).  A
        conjugated view has no chain of its own until asked: it builds one
        from its generators, once, and from then on reads everything
        through it.
        """
        prefix = tuple(_as_point(b, self.degree) for b in base_prefix)
        for k, b in enumerate(prefix):
            if b in prefix[:k]:
                raise ValueError(f"duplicate base point {b}")
        chain, u = self._get_view()
        if u is not None:
            chain = build_chain(self.degree, self.generators, known_order=self._order)
            self._view = (chain, None)
        return _rebase(chain, prefix, self.order()) if prefix else chain

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """The subgroup fixing every point of ``points``.

        Folded point by point in ascending order.  A point fixed by the whole
        group, of orbit size 1 (``orbit_sizes``), is skipped; otherwise
        its stabilizer is derived from the chain (see the module notes),
        after reading or making the rebase of its orbit when it lies outside
        the chain's level-0 basic orbit.
        """
        H = self
        for x in sorted({_as_point(x, self.degree) for x in points}):
            if H.orbit_sizes()[x] > 1:
                H = H._derived_point_stabilizer(x)
        return H

    def point_stabilizer(self, point: int) -> "PermGroup":
        return self.pointwise_stabilizer((point,))

    def _derived_point_stabilizer(self, x: int) -> "PermGroup":
        # H_x, for a point x that H moves, by the module notes' suffix and
        # conjugator route, from the rebase of y's orbit when y lies outside
        # the basic orbit of level 0.  y = x^(u^-1) is the point u sends to
        # x, found by one comparison, so no inverse conjugator is made
        chain, u = self._get_view()
        y = x if u is None else int((u.images == x).argmax())
        if y not in chain.levels[0].transversal:
            chain = _orbit_rebase(chain, y)
        level = chain.levels[0]
        if y != level.point:
            t = level.element(y)
            u = t if u is None else t * u
        return PermGroup._from_view(chain.suffix(1), u)

    def __repr__(self) -> str:
        # a view counts its chain's level-0 generators, left unmade
        gens = self._generators
        if gens is None:
            count = len(self._get_view()[0].level_generators(0))
        else:
            count = len(gens)
        return f"PermGroup(degree={self.degree}, gens={count})"
