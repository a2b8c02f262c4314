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
residue that forced it.

Every chain is built by one completion, ``_complete``: sift the generators,
then sift random elements of the group until the orbit sizes multiply up
to its known order.  This stop is exact: the products of one transversal
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
  generators.  Its order is the caller's hint or, for a transitive group
  of degree at least 8 with no hint, the giant certificate
  (``_giant_order``): a drawn element with a cycle of prime length ``p``,
  ``n/2 < p < n - 2``, proves the group contains ``A_n``;
- a rebase (``_rebase``) of a chain on a base prefix draws uniform
  elements off that chain.

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
need again.  The level it rebased keeps it, one per orbit, as long as
that level lives.  Uniform draws read the parent's transversal elements
without caching them, so a stored parent does not grow with every rebase
below it.  And orbit partitions keep their ``sizes`` as int32.  A group's
``labels`` stay int64, because they index arrays on every search node,
and int32 indices cost more time there than their memory saves.  A level
of a finished chain caches the ``labels`` of its generators' partition
as int32, and nothing else of it; ``_relabelled_partition`` widens them
as it reads them for a conjugated view.

Every orbit label comes from one kernel, ``_join(labels, gens)``: the
orbits of ``<K, gens>`` from the labels of ``K``, each orbit labelled by
its smallest point.  It has two starting points.  Groups made from
generators, and views with no conjugator, join their own generators onto
the single points, the orbits of the trivial group (``_orbit_partition``).
A level of a finished chain joins the generators it adds onto the labels
of the level below (``_chain_labels``), so a level that shares most of its
generators with the next level joins the few it adds, and a level whose
generators are all shared keeps the very array of the level below.  A
finished level also keeps its suffix order (``_finish``), so a view's
order is a read.

Every group reads a chain through one view ``(chain, u, u_inv)``: the group
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
t_y u, (t_y u)^-1)``, or ``(suffix, u, u_inv)`` when ``y = b``.  A point
``x`` outside that basic orbit (moved by the group, but in another orbit)
takes the same route from a chain whose level 0 is the orbit of ``y``:
the rebase of the view's chain, never of the view, on one point of that
orbit (``_orbit_rebase``).  Level 0 of the view's chain keeps that rebase
under the orbit's label, so each orbit of each level's group is rebased
at most once, for every view of the level, every conjugator and every
point of the orbit: the first request rebases on its own ``y``, and a
later one reads ``t_y`` off the rebase's level 0.  This is base change by
conjugation (Seress 2003, section 5.4), one orbit at a time: no rebase
takes or applies a conjugator.  Stabilizer class labels take this same
route, at most one ``point_stabilizer`` per orbit.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import numpy as np

from .perm import Perm, _as_int

__all__ = ["PermGroup", "StabilizerChain", "build_chain"]

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

    Three values of the group of this level's generators are kept once the
    chain is finished: ``suffix_order``, the product of the orbit sizes
    from this level to the bottom, set by ``_finish``; ``_labels``, the
    int32 orbit labels that ``_chain_labels`` fills for conjugated views;
    and ``_rebases``, the group's rebases on single points, at most one
    per orbit, keyed by the orbit's label (``_orbit_rebase``).  None is
    reset by a later ``add_gen``, so a chain still being completed keeps
    all three ``None``.
    """

    __slots__ = ("point", "gens", "transversal", "suffix_order", "_elements", "_inverses",
                 "_labels", "_rebases")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Perm] = []
        self.transversal: dict[int, tuple[int, int] | None] = {point: None}
        ident = Perm.identity(degree)
        self._elements: dict[int, Perm] = {point: ident}
        self._inverses: dict[int, Perm] = {point: ident}
        self.suffix_order: int | None = None
        self._labels = None
        self._rebases: dict[int, StabilizerChain] | None = None

    def add_gen(self, g: Perm) -> None:
        """Append a strong generator and extend the orbit.

        Only ``g`` is applied to the points already in the orbit; every
        generator is applied to the points it gains, breadth-first in list
        order.
        """
        trans = self.transversal
        gens = self.gens
        gens.append(g)
        images = g.images
        new = []
        for beta in list(trans):
            gamma = int(images[beta])
            if gamma not in trans:
                trans[gamma] = (beta, len(gens) - 1)
                new.append(gamma)
        for beta in new:  # grows while walked: a breadth-first queue
            for i, s in enumerate(gens):
                gamma = int(s.images[beta])
                if gamma not in trans:
                    trans[gamma] = (beta, i)
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


class StabilizerChain:
    """Base points with per-level strong generators, orbits, and transversals.

    ``_points`` caches the base points as an array for ``sift``; it is made
    again whenever the chain has grown a level since.
    """

    __slots__ = ("degree", "levels", "_points")

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._points = None

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self.levels)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(level.transversal) for level in self.levels)

    def order(self) -> int:
        """The product of the orbit sizes: a read once the chain is finished."""
        if self.levels and self.levels[0].suffix_order is not None:
            return self.levels[0].suffix_order
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

        Membership holds iff the residue is the identity, in which case the
        level reached is ``len(self.levels)``.  After a level whose base
        point the residue fixes, one comparison of its images of the
        remaining base points finds the next level it moves, when at least
        ``_SCAN_LEVELS`` levels remain.
        """
        levels, points = self.levels, self._points
        i = start
        while i < len(levels):
            level = levels[i]
            beta = int(p.images[level.point])
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

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        residue, _ = self.sift(p)
        return residue.is_identity()

    def suffix(self, start: int) -> "StabilizerChain":
        """The tail from level ``start`` on: a chain for the stabilizer of the first base points.

        Shares level objects with this chain; chains are never mutated after
        construction, so sharing is safe.
        """
        sub = StabilizerChain(self.degree)
        sub.levels = self.levels[start:]
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
    elements drawn by product replacement, seeded from the generators.  The
    order it stops at is ``known_order`` or, with none, the order proven by
    the giant certificate (``_giant_order``); a group with neither is
    completed by the deterministic verification.

    ``known_order`` is trusted as the exact order: construction stops as
    soon as the orbit sizes multiply up to it (exact when it is the order,
    by the module notes).  A value no partial chain reaches, such as one
    larger than the order, raises ``RuntimeError`` once ``_IDLE_DRAWS``
    draws in a row add nothing and the verification finds the true order;
    a smaller one that a partial chain reaches is returned as the order
    unchecked, since checking it would cost the verification the hint
    exists to skip.  Chains with a prescribed base prefix come from
    ``_rebase`` (``PermGroup.stabilizer_chain`` in the public API).
    """
    generators = tuple(generators)
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    draws = _product_replacement(degree, generators)
    if known_order is None:
        known_order = _giant_order(degree, generators, draws)
    chain = StabilizerChain(degree)
    _complete(chain, generators, known_order, draws)
    _finish(chain)
    return chain


def _add_strong_gen(chain: StabilizerChain, low: int, g: Perm, stuck: int) -> None:
    # g fixes the base points of all levels before ``stuck``; a new level
    # takes the smallest point g moves
    levels = chain.levels
    if stuck == len(levels):
        levels.append(_Level(g.smallest_moved(), chain.degree))
    for l in range(low, stuck + 1):
        levels[l].add_gen(g)


def _complete(chain: StabilizerChain, generators, order: int | None, draws) -> None:
    """Complete ``chain`` to a chain of ``<generators>`` of order ``order``.

    The one completion of root chains and rebases.  Sift the generators in;
    then, while the orbit sizes do not multiply up to ``order``, sift the
    elements of ``draws``, random elements of ``<generators>``, and add each
    nontrivial residue as a strong generator.  A draw is already in the
    group of level 0's generators, so its residue joins the levels from 1
    on.  Every residue is a tree edge of the last level it joins (module
    notes), so no level needs pruning afterwards.  With no order, or after
    ``_IDLE_DRAWS`` consecutive draws that add nothing, ``_verify``
    finishes the chain.
    """
    for g in generators:
        residue, j = chain.sift(g)
        if not residue.is_identity():
            _add_strong_gen(chain, 0, residue, j)
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
            _add_strong_gen(chain, 1, residue, j)
            if chain.order() == order:
                return
    _verify(chain, order)


def _finish(chain: StabilizerChain) -> None:
    # a finished chain never changes, so each level keeps its suffix's
    # order, bottom-up, and a view's order is a read
    n = 1
    for level in reversed(chain.levels):
        n *= len(level.transversal)
        level.suffix_order = n


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


def _jordan_primes(degree: int) -> list[int]:
    # the primes p with degree/2 < p < degree - 2; none below degree 8
    return [p for p in range(degree // 2 + 1, degree - 2)
            if all(p % q for q in range(2, math.isqrt(p) + 1))]


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
    """
    primes = _jordan_primes(degree)
    if not primes:
        return None
    if _orbit_partition(degree, generators)[1][0] != degree:
        return None
    weight = sum(1 / p for p in primes)
    tries = math.ceil(math.log(1 / _GIANT_MISS) / weight)
    for g in itertools.islice(draws, tries):
        if any(len(c) in primes for c in g.cycles()):
            odd = any(sum(len(c) - 1 for c in s.cycles()) % 2 for s in generators)
            return math.factorial(degree) // (1 if odd else 2)
    return None


def _verify(chain: StabilizerChain, order: int | None) -> None:
    """Complete ``chain`` by sifting its Schreier generators, bottom-up.

    A new strong generator at level ``j`` restarts verification there.
    Stops early once the chain's order is ``order``; if the complete chain
    has another order, raises ``RuntimeError``.
    """
    levels = chain.levels
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        restart_at = None
        trans = level.transversal
        for beta in sorted(trans):
            for gi, s in enumerate(level.gens):
                gamma = int(s.images[beta])
                if trans[gamma] == (beta, gi):
                    continue  # a tree edge: its Schreier generator is trivial
                w = level.element(beta) * s
                if (w.images == level.element(gamma).images).all():
                    continue
                schreier = w * level.inv_transversal(gamma)
                residue, j = chain.sift(schreier, i + 1)
                if residue.is_identity():
                    continue
                _add_strong_gen(chain, i + 1, residue, j)
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
    """
    chain = StabilizerChain(source.degree)
    chain.levels = [_Level(b, source.degree) for b in prefix]
    _complete(chain, source.level_generators(0), order, _uniform_elements(source, prefix, order))
    for level in chain.levels:
        level.drop_caches()
    _finish(chain)
    return chain


def _orbit_rebase(chain: StabilizerChain, y: int) -> StabilizerChain:
    """The rebase of the finished ``chain`` on the orbit of ``y``, made once per orbit.

    The first request in an orbit makes ``_rebase(chain, (y,), order)`` and
    keeps it on ``chain``'s level 0 under the orbit's label; a later
    request for any point of that orbit reads it, and ``y`` is then in its
    level 0's basic orbit.  A level heads the same levels below it in
    every chain that shares it, so its group, and the rebase, is the same
    whichever chain or view asks.
    """
    level = chain.levels[0]
    label = int(_chain_labels(chain)[y])
    rebases = level._rebases
    if rebases is None:
        rebases = level._rebases = {}
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


def _orbit_partition(degree: int, gens: tuple[Perm, ...]):
    """Label every point with the smallest point of its orbit: ``_join`` from the single points."""
    return _with_sizes(_join(np.arange(degree), gens))


def _with_sizes(labels: np.ndarray):
    """``(labels, sizes)``, read-only, with ``sizes[x]`` the int32 length of x's orbit."""
    sizes = np.bincount(labels, minlength=labels.size).astype(np.int32)[labels]
    labels.setflags(write=False)
    sizes.setflags(write=False)
    return labels, sizes


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
            ends = roots[im]
            np.minimum.at(hooked, np.maximum(roots, ends), np.minimum(roots, ends))
        if (hooked == roots).all():
            return roots
        while True:
            roots = hooked[hooked]
            if (roots == hooked).all():
                break
            hooked = roots


def _chain_labels(chain: StabilizerChain) -> np.ndarray:
    """The int32 orbit labels of the group of ``chain``'s level 0, cached on each level.

    A level's group contains the next level's group, by the definition of
    a stabilizer chain (Seress 2003), so its orbits are the next level's
    orbits joined by the level's generators that are not in the next
    level's list (``_join``).  The route walks down while a level shares at
    least half of its generators, by identity, with the next level, since
    then its join sweeps at most half of them; it stops at a level whose
    labels are cached, at the first level that shares fewer, or at the
    bottom level, joins all of that level's generators onto the single
    points, and joins back up.  A level that adds no generator keeps the
    array of the level below.  Only for a finished chain: a later
    ``add_gen`` would not reset the labels.
    """
    levels = chain.levels
    path = []
    i = 0
    while levels[i]._labels is None and i + 1 < len(levels):
        below = {id(g) for g in levels[i + 1].gens}
        new = [g for g in levels[i].gens if id(g) not in below]
        if 2 * len(new) > len(levels[i].gens):
            break
        path.append(new)
        i += 1
    labels = levels[i]._labels
    if labels is None:  # join all of this level's generators onto the single points
        labels = np.arange(chain.degree, dtype=np.int32)
        labels.setflags(write=False)
        path.append(levels[i].gens)
        i += 1
    while path:
        new = path.pop()
        i -= 1
        if new:
            labels = _join(labels, new).astype(np.int32)
            labels.setflags(write=False)
        levels[i]._labels = labels
    return labels


def _relabelled_partition(labels: np.ndarray, u_inv: Perm):
    """The orbit partition of ``u_inv <G> u`` from that of ``G``.

    ``x`` and ``y`` share an orbit iff ``x^u_inv`` and ``y^u_inv`` share a
    ``G``-orbit; each orbit is then labelled by its smallest point again.
    """
    degree = labels.size
    ids = labels[u_inv.images].astype(np.int64)  # np.minimum.at is slower on int32 ids
    smallest = np.full(degree, degree, dtype=np.int64)
    np.minimum.at(smallest, ids, np.arange(degree, dtype=np.int64))
    return _with_sizes(smallest[ids])


class PermGroup:
    """A permutation group on {0, ..., degree-1} given by generators.

    The trivial group is an empty generator list (the identity is never
    stored).  The group never changes after construction; its caches fill
    lazily and are safe for concurrent reads.  It reads its chain through
    one view, ``_view = (chain, u, u_inv)``: the group is
    ``u_inv * <chain> * u``, and ``u`` is ``None`` when ``chain`` is the
    group's own chain.  A group made from generators fills its view from
    ``build_chain`` on first use; a stabilizer is born a view of a suffix
    of its parent's chain or of its rebase (see the module notes), whose
    conjugated generators are made only when ``generators`` is first read.
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
        "_hint",
        "_partition",
        "_stab_classes",
        "_subgroups",
    )

    def __init__(self, degree: int, generators=(), *, order_hint: int | None = None):
        degree = _as_int(degree, "degree")
        if degree < 1:
            raise ValueError("degree must be positive")
        if order_hint is not None:
            order_hint = _as_int(order_hint, "order hint")
            if order_hint < 1:
                raise ValueError(f"order hint {order_hint} is not positive")
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
        self._partition = None
        self._stab_classes = None
        self._subgroups = None
        if not gens:
            if order_hint is not None and order_hint != 1:
                raise ValueError("generator-free group must have order 1")
            self._order = 1
            self._hint = None
        else:
            # the hint is trusted as the exact order (see build_chain)
            self._order = None
            self._hint = order_hint

    @classmethod
    def _from_view(cls, degree: int, chain: StabilizerChain, u=None, u_inv=None) -> "PermGroup":
        # the group u_inv <chain> u, sharing the chain's levels; the trivial
        # group is its own conjugate, so it keeps no conjugator
        g = object.__new__(cls)
        levels = chain.levels
        if not levels or not levels[0].gens:
            u = u_inv = None
        g.degree = degree
        g._generators = chain.level_generators(0) if u is None else None  # conjugated when first read
        g._view = (chain, u, u_inv)
        g._order = chain.order()
        g._hint = g._partition = g._stab_classes = g._subgroups = None
        return g

    def _get_view(self) -> tuple:
        # the view, after building the chain of a group made from generators
        if self._view is None:
            chain = build_chain(
                self.degree,
                self.generators,
                known_order=self._order if self._order is not None else self._hint,
            )
            if self._order is None:
                self._order = chain.order()
            self._view = (chain, None, None)
        return self._view

    @property
    def generators(self) -> tuple[Perm, ...]:
        if self._generators is None:
            chain, u, u_inv = self._view
            self._generators = tuple(u_inv * s * u for s in chain.level_generators(0))
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
        """Membership of ``p``, a ``Perm`` or an image sequence."""
        if not isinstance(p, Perm):
            p = Perm(p)
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        if self.is_trivial():
            return p.is_identity()
        chain, u, u_inv = self._get_view()
        return chain.contains(p if u is None else u * p * u_inv)

    def orbit_partition(self):
        """``(labels, sizes)``: x's orbit's smallest point and its int32 length.

        ``labels[x]`` is the smallest point of x's orbit and ``sizes[x]`` the
        orbit's length, so the group fixes exactly the points with
        ``sizes == 1``.  Both arrays are read-only and cached.
        """
        if self._partition is None:
            # the slot, not _get_view: a partition never builds a chain
            view = self._view
            if view is None or view[1] is None:
                self._partition = _orbit_partition(self.degree, self.generators)
            else:
                chain, _, u_inv = view
                self._partition = _relabelled_partition(_chain_labels(chain), u_inv)
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
        return int(self.orbit_partition()[1][0]) == self.degree

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
        so every point is labelled once.  A conjugated view carries them by
        its chain's level-0 generators ``s`` through its conjugator, ``x``
        to ``x^(u_inv s u)`` in three gathers, so its generators stay unmade.
        """
        if self._stab_classes is not None:
            return self._stab_classes
        degree = self.degree
        labels, sizes = self.orbit_partition()
        out = np.full(degree, -1, dtype=np.int64)
        view = self._view
        if view is None or view[1] is None:
            images, u = [g.images for g in self.generators], None
        else:
            chain, u, u_inv = view
            images = [s.images for s in chain.levels[0].gens]
        for rep in np.nonzero(labels == np.arange(degree))[0].tolist():
            if out[rep] >= 0:  # labelled with a class of an earlier orbit
                continue
            fixed = self.point_stabilizer(rep).orbit_partition()[1] == 1
            row = np.nonzero(fixed & (sizes == sizes[rep]))[0]
            out[row] = row[0]
            queue = [row]
            for row in queue:  # grows while walked: a breadth-first queue
                for im in images:
                    image = im[row] if u is None else u.images[im[u_inv.images[row]]]
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
        chain, u, _ = self._get_view()
        if u is not None:
            chain = build_chain(self.degree, self.generators, known_order=self._order)
            self._view = (chain, None, None)
        return _rebase(chain, prefix, self.order()) if prefix else chain

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """The subgroup fixing every point of ``points``.

        Folded point by point in ascending order.  A point fixed by the whole
        group, of orbit size 1 in its orbit partition, is skipped; otherwise
        its stabilizer is derived from the chain (see the module notes),
        after reading or making the rebase of its orbit when it lies outside
        the chain's level-0 basic orbit.
        """
        H = self
        for x in sorted({_as_point(x, self.degree) for x in points}):
            if H.orbit_partition()[1][x] > 1:
                H = H._derived_point_stabilizer(x)
        return H

    def point_stabilizer(self, point: int) -> "PermGroup":
        return self.pointwise_stabilizer((point,))

    def _derived_point_stabilizer(self, x: int) -> "PermGroup":
        # H_x, for a point x that H moves, by the module notes' suffix and
        # conjugator route, from the rebase of y's orbit when y lies outside
        # the basic orbit of level 0
        chain, u, u_inv = self._get_view()
        y = x if u_inv is None else int(u_inv.images[x])
        if y not in chain.levels[0].transversal:
            chain = _orbit_rebase(chain, y)
        level = chain.levels[0]
        if y != level.point:
            t = level.element(y)
            u = t if u is None else t * u
            u_inv = u.inverse()
        return PermGroup._from_view(self.degree, chain.suffix(1), u, u_inv)

    def __repr__(self) -> str:
        # a conjugated view counts its chain's level-0 generators, left unmade
        gens = self._generators
        count = len(self._view[0].levels[0].gens) if gens is None else len(gens)
        return f"PermGroup(degree={self.degree}, gens={count})"
