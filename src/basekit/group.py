"""Permutation groups, orbits, and deterministic stabilizer chains.

The chain is the classic incremental Schreier-Sims structure: level ``i``
stores a base point, the strong generators fixing all earlier base points,
and an explicit transversal of the base point's orbit under those
generators.  Everything is deterministic: orbits are explored breadth-first
with generators in list order, and a new base point is always the smallest
point moved by the residue that forced it.

When the order of the generated group is known up front, construction stops
as soon as the transversal sizes multiply up to it.  This is sound because
the products of one transversal element per level are pairwise distinct
group elements, so the product of orbit sizes can never exceed the group
order and reaches it exactly when the strong generating set is complete.
"""

from __future__ import annotations

import numpy as np

from .perm import Perm

__all__ = ["PermGroup", "StabilizerChain", "build_chain"]


class _Level:
    __slots__ = ("point", "gens", "transversal", "_inverses")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Perm] = []
        ident = Perm.identity(degree)
        self.transversal: dict[int, Perm] = {point: ident}
        self._inverses: dict[int, Perm] = {point: ident}

    def recompute_orbit(self, degree: int) -> None:
        # breadth-first, generators in list order; insertion order is the
        # deterministic point numbering of the orbit
        ident = Perm.identity(degree)
        trans = {self.point: ident}
        queue = [self.point]
        qi = 0
        gens = self.gens
        while qi < len(queue):
            beta = queue[qi]
            qi += 1
            u = trans[beta]
            for s in gens:
                gamma = int(s.images[beta])
                if gamma not in trans:
                    trans[gamma] = u * s
                    queue.append(gamma)
        self.transversal = trans
        self._inverses = {self.point: ident}

    def inv_transversal(self, point: int) -> Perm:
        u = self._inverses.get(point)
        if u is None:
            u = self.transversal[point].inverse()
            self._inverses[point] = u
        return u


class StabilizerChain:
    """Base points with per-level strong generators, orbits, and transversals."""

    __slots__ = ("degree", "levels")

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self.levels)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(level.transversal) for level in self.levels)

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def suffix_order(self, start: int) -> int:
        """Order of the stabilizer of the first ``start`` base points."""
        n = 1
        for level in self.levels[start:]:
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
        level reached is ``len(self.levels)``.
        """
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            beta = int(p.images[level.point])
            if beta == level.point:
                continue
            if beta not in level.transversal:
                return p, i
            p = p * level.inv_transversal(beta)
        return p, len(self.levels)

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
            for tail in walk(i + 1):
                for u in self.levels[i].transversal.values():
                    yield tail * u

        yield from walk(0)


def build_chain(
    degree: int,
    generators,
    base_prefix: tuple[int, ...] = (),
    known_order: int | None = None,
) -> StabilizerChain:
    """Deterministic Schreier-Sims.

    The chain's base starts with ``base_prefix``; prefix points whose level
    ends up with no descent are retained with orbit size 1.  ``known_order``
    is an early-exit hint only: if given and the finished chain disagrees,
    a ``RuntimeError`` reports the inconsistency.
    """
    chain = StabilizerChain(degree)
    seen_prefix = set()
    for b in base_prefix:
        if not 0 <= b < degree:
            raise ValueError(f"base point {b} outside 0..{degree - 1}")
        if b in seen_prefix:
            raise ValueError(f"duplicate base point {b}")
        seen_prefix.add(b)
        chain.levels.append(_Level(b, degree))
    levels = chain.levels

    def done() -> bool:
        return known_order is not None and chain.order() == known_order

    def add_strong_gen(low: int, g: Perm, stuck: int) -> None:
        # g fixes the base points of all levels before ``stuck``
        if stuck == len(levels):
            levels.append(_Level(g.smallest_moved(), degree))
        for l in range(low, stuck + 1):
            level = levels[l]
            level.gens.append(g)
            level.recompute_orbit(degree)

    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
        if g.is_identity():
            continue
        residue, j = chain.sift(g)
        if not residue.is_identity():
            add_strong_gen(0, residue, j)
            if done():
                return chain

    # verify levels bottom-up; a new strong generator at level j restarts
    # verification there
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        restart_at = None
        for beta in sorted(level.transversal):
            u_beta = level.transversal[beta]
            for s in level.gens:
                gamma = int(s.images[beta])
                w = u_beta * s
                u_gamma = level.transversal[gamma]
                if (w.images == u_gamma.images).all():
                    continue
                schreier = w * level.inv_transversal(gamma)
                residue, j = chain.sift(schreier, i + 1)
                if residue.is_identity():
                    continue
                add_strong_gen(i + 1, residue, j)
                if done():
                    return chain
                restart_at = j
                break
            if restart_at is not None:
                break
        if restart_at is not None:
            i = restart_at
        else:
            i -= 1

    if known_order is not None and chain.order() != known_order:
        raise RuntimeError(
            f"stabilizer chain order {chain.order()} != expected {known_order}"
        )
    return chain


def _orbit_partition(degree: int, gens: tuple[Perm, ...]):
    """Label every point with the smallest point of its orbit.

    Iterated min-label propagation along generator edges with path halving;
    the fixpoint is independent of sweep order.
    """
    labels = np.arange(degree, dtype=np.int64)
    if gens:
        images = [g.images for g in gens]
        while True:
            before = labels.copy()
            for im in images:
                np.minimum(labels, labels[im], out=labels)
                labels[im] = np.minimum(labels[im], labels)
            labels = labels[labels]
            if (labels == before).all():
                break
    counts = np.bincount(labels, minlength=degree)
    labels.setflags(write=False)
    counts.setflags(write=False)
    return labels, counts


class PermGroup:
    """A permutation group on {0, ..., degree-1} given by generators.

    The trivial group is an empty generator list (the identity is never
    stored).  The stabilizer chain is built lazily and cached; instances are
    immutable after construction and safe for concurrent reads.
    """

    __slots__ = (
        "degree",
        "generators",
        "_chain",
        "_order",
        "_hint",
        "_partition",
        "_stab_classes",
    )

    def __init__(self, degree: int, generators=(), *, order_hint: int | None = None):
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
        self.generators = tuple(gens)
        self._chain: StabilizerChain | None = None
        self._partition = None
        self._stab_classes = None
        if not gens:
            if order_hint is not None and order_hint != 1:
                raise ValueError("generator-free group must have order 1")
            self._order = 1
            self._hint = None
        else:
            # a hint is only trusted after the chain confirms it
            self._order = None
            self._hint = order_hint

    @classmethod
    def _with_order(cls, degree: int, generators: tuple[Perm, ...], order: int) -> "PermGroup":
        g = object.__new__(cls)
        g.degree = degree
        g.generators = generators
        g._chain = None
        g._order = order
        g._partition = None
        g._stab_classes = None
        g._hint = order
        return g

    def is_trivial(self) -> bool:
        return not self.generators

    def chain(self) -> StabilizerChain:
        """The cached default-base stabilizer chain."""
        if self._chain is None:
            self._chain = build_chain(
                self.degree,
                self.generators,
                known_order=self._order if self._order is not None else self._hint,
            )
            order = self._chain.order()
            if self._order is None:
                self._order = order
        return self._chain

    def order(self) -> int:
        if self._order is None:
            self.chain()
        return self._order

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        if self.is_trivial():
            return p.is_identity()
        return self.chain().contains(p)

    def orbit_partition(self):
        """(labels, counts): ``labels[x]`` is min of x's orbit, ``counts[x]`` ignored off-labels."""
        if self._partition is None:
            self._partition = _orbit_partition(self.degree, self.generators)
        return self._partition

    def orbit(self, point: int) -> set[int]:
        """Smallest invariant set containing ``point``."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} outside 0..{self.degree - 1}")
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
        labels, counts = self.orbit_partition()
        return int(counts[labels[0]]) == self.degree

    def stabilizer_class_labels(self) -> np.ndarray:
        """``label[x] = min{y : the stabilizers of x and y are equal}``.

        Points with equal labels have literally equal point stabilizers, so
        they are interchangeable in bases and independent sets.  Computed
        orbit by orbit: the fixed-point set of one representative stabilizer
        is carried around the orbit by transversal elements (those of the
        first level of the chain based at the representative), and a fixed
        point with the same orbit length has the same (not just containing)
        stabilizer.
        """
        if self._stab_classes is not None:
            return self._stab_classes
        degree = self.degree
        part_labels, part_counts = self.orbit_partition()
        orbsize = part_counts[part_labels]
        ar = np.arange(degree)
        out = np.full(degree, -1, dtype=np.int64)
        for rep in np.nonzero(part_labels == ar)[0]:
            rep = int(rep)
            chain = self.stabilizer_chain((rep,))
            fixmask = np.ones(degree, dtype=bool)
            for g in chain.level_generators(1):
                fixmask &= g.images == ar
            fixed = np.nonzero(fixmask)[0]
            for x, u in chain.levels[0].transversal.items():
                cls = u.images[fixed]
                out[x] = int(cls[orbsize[cls] == orbsize[x]].min())
        out.setflags(write=False)
        self._stab_classes = out
        return out

    def moved_points(self) -> list[int]:
        labels, counts = self.orbit_partition()
        return [int(x) for x in np.nonzero(counts[labels] > 1)[0]]

    def stabilizer_chain(self, base_prefix=()) -> StabilizerChain:
        """A fresh chain whose base starts with ``base_prefix``.

        Deterministic for identical inputs.  The group's order is computed
        first (via the cached default chain) so prefixed builds can stop as
        soon as they are complete.
        """
        prefix = tuple(base_prefix)
        if not prefix:
            return self.chain()
        return build_chain(self.degree, self.generators, prefix, known_order=self.order())

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """The subgroup fixing every point of ``points`` (prefix taken in ascending order)."""
        prefix = tuple(sorted(set(points)))
        if not prefix:
            return PermGroup._with_order(self.degree, self.generators, self.order())
        if self.is_trivial():
            for b in prefix:
                if not 0 <= b < self.degree:
                    raise ValueError(f"point {b} outside 0..{self.degree - 1}")
            return PermGroup._with_order(self.degree, (), 1)
        chain = self.stabilizer_chain(prefix)
        gens = chain.level_generators(len(prefix))
        return PermGroup._with_order(self.degree, gens, chain.suffix_order(len(prefix)))

    def point_stabilizer(self, point: int) -> "PermGroup":
        return self.pointwise_stabilizer((point,))

    def _point_stabilizer_chained(self, point: int) -> "PermGroup":
        # like point_stabilizer, but keeps the tail chain attached so the
        # result's own chain needs no rebuild
        chain = self.stabilizer_chain((point,))
        sub = PermGroup._with_order(
            self.degree, chain.level_generators(1), chain.suffix_order(1)
        )
        sub._chain = chain.suffix(1)
        return sub

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"
