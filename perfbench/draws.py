"""Random 2-generator subgroups of S8 for ``corpus-analyze``.

    python3 perfbench/draws.py SEED    # prints the specs as JSON

Draws generator pairs like ``basekit.corpus.random_two_generator_subgroups``
and keeps, for each slot, the first pair whose group has the same orbit lengths
and order as the default seed's draw for that slot (S7 fixing a point, S8, A8,
a group of order 72 with orbits 1, 3 and 4, ...).
Search cost is set mostly by the group, so the work, and each input's rank
among the latencies, stays the same at every seed while the seed still picks
the generators; at the default seed every first draw is kept, which
reproduces the corpus.  Orders come from ``sympy.combinatorics``, independent
of basekit.
"""

from __future__ import annotations

import json
import random
import sys

DEGREE = 8
# (orbit lengths, order) of the default seed's draws, slot by slot
_S7, _S8, _A8 = ((1, 7), 5040), ((8,), 40320), ((8,), 20160)
SLOT_SHAPES = (_S7, _S8, _A8, ((1, 3, 4), 72), _S8, _S8, _S8, _A8, _S8, _S8, _A8, _A8)


def group_order(generators) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup

    return int(PermutationGroup([Permutation(g) for g in generators]).order())


def orbit_lengths(generators) -> tuple[int, ...]:
    parent = list(range(DEGREE))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in generators:
        for x, y in enumerate(g):
            parent[root(x)] = root(y)
    sizes: dict[int, int] = {}
    for x in range(DEGREE):
        r = root(x)
        sizes[r] = sizes.get(r, 0) + 1
    return tuple(sorted(sizes.values()))


def random_subgroup_specs(seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(seed)
    out = []
    for i, (slot_orbits, slot_order) in enumerate(SLOT_SHAPES):
        while True:
            gens = []
            for _ in range(2):
                images = list(range(DEGREE))
                rng.shuffle(images)
                gens.append(images)
            if orbit_lengths(gens) == slot_orbits and group_order(gens) == slot_order:
                break
        out.append(
            (f"rand2gen_s{DEGREE}_{i}",
             {"type": "explicit", "degree": DEGREE, "generators": gens})
        )
    return out


if __name__ == "__main__":
    json.dump(random_subgroup_specs(int(sys.argv[1])), sys.stdout)
