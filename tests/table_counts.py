"""Count the subgroup-table work of one ``analyze`` per spec.

A search's subgroup table (``basekit.bases``) names each group it stores
by its fixed points, and answers a request it has not seen by scanning
the stored keys of the request's order.  This script prints, for one
``cli.analyze_report`` of each spec below, in a fresh group:

- ``keys``: the ``_fixed_key`` runs, each a degree-long pass over a
  stored group's orbit sizes;
- ``scans``: the ``by_order`` lists iterated;
- ``comparisons``: the stored keys those scans read.

The counts are deterministic, so they compare two versions of the code
exactly.  They are taken by wrapping from outside: ``_fixed_key`` is
replaced in ``basekit.bases``, and each new table's ``by_order`` map is
replaced by one whose lists count their iterations, so ``src/`` keeps no
counter.  Stdlib and basekit only, no options; run it from anywhere as
``python tests/table_counts.py``.  Its name keeps pytest from collecting
it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from basekit import bases, cli  # noqa: E402

SPECS = (
    {"type": "sym", "n": 200},
    {"type": "sym", "n": 400},
    {"type": "k_subsets", "n": 12, "k": 3},
)

counts = {"keys": 0, "scans": 0, "comparisons": 0}


class _CountedList(list):
    def __iter__(self):
        counts["scans"] += 1
        for key in super().__iter__():
            counts["comparisons"] += 1
            yield key


class _CountedLists(dict):
    def __setitem__(self, order, keys):
        super().__setitem__(order, _CountedList(keys))

    def setdefault(self, order, keys=()):
        if order not in self:
            self[order] = keys
        return self[order]


def _install() -> None:
    fixed_key, subgroup_table = bases._fixed_key, bases._subgroup_table

    def counting_key(H):
        counts["keys"] += 1
        return fixed_key(H)

    def counting_table(G, mode):
        table = subgroup_table(G, mode)
        if not isinstance(table.by_order, _CountedLists):  # a new, empty table
            table.by_order = _CountedLists()
        return table

    bases._fixed_key = counting_key
    bases._subgroup_table = counting_table


def main() -> None:
    _install()
    print(f"{'spec':<28} {'keys':>8} {'scans':>8} {'comparisons':>12}")
    for spec in SPECS:
        for name in counts:
            counts[name] = 0
        cli.analyze_report(spec)
        label = " ".join(f"{k}={v}" for k, v in spec.items())
        print(f"{label:<28} {counts['keys']:>8} {counts['scans']:>8} {counts['comparisons']:>12}")


if __name__ == "__main__":
    main()
