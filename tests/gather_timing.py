"""Time gathers and scatters through int32 permutation images.

``basekit`` stores a permutation's images as an int32 array.  It gathers
through them with ``ndarray.take`` and scatters through them by fancy
assignment (``basekit.group`` module notes), because indexing by an int32
array casts the index to ``intp`` on every call while ``take`` is cheaper,
and ``ndarray.put`` is dearer than assignment.  Both rest on numpy's
costs, not on basekit's, so this script re-checks them after a numpy
upgrade.  It prints, per degree, the nanoseconds per call of:

- ``gather``: ``a[p]``, fancy indexing;
- ``take``: ``a.take(p)``;
- ``scatter``: ``out[p] = a``, fancy assignment;
- ``put``: ``out.put(p, a)``.

``a`` and ``p`` are int32 permutations of the degree.  Each figure is the
best of 7 repeats of a loop of calls.  numpy and the stdlib only, no
options; run it as ``python tests/gather_timing.py``.  Its name keeps
pytest from collecting it.
"""

from __future__ import annotations

import timeit

import numpy as np

DEGREES = (8, 20, 300, 2400)
REPEATS = 7


def _ns_per_call(stmt, number: int) -> float:
    return min(timeit.repeat(stmt, number=number, repeat=REPEATS)) / number * 1e9


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}; ns per call, best of {REPEATS}")
    print(f"{'degree':>7} {'gather':>8} {'take':>8} {'scatter':>8} {'put':>8}")
    for degree in DEGREES:
        a = rng.permutation(degree).astype(np.int32)
        p = rng.permutation(degree).astype(np.int32)
        out = np.empty_like(a)
        number = max(1000, 2_000_000 // degree)

        def scatter():
            out[p] = a

        row = [
            _ns_per_call(lambda: a[p], number),
            _ns_per_call(lambda: a.take(p), number),
            _ns_per_call(scatter, number),
            _ns_per_call(lambda: out.put(p, a), number),
        ]
        print(f"{degree:>7} " + " ".join(f"{ns:>8.0f}" for ns in row))


if __name__ == "__main__":
    main()
