"""Count the chain and table work of one seed-91 pass of each benchmark workload.

For one pass over the inputs of each workload in ``perfbench/workloads.py``
(corpus-analyze, wreath-pair, symmetric-deep; each input run once, in
order, in this one process), this script prints:

- ``derived``: stabilizers derived from a chain
  (``PermGroup._derived_point_stabilizer``);
- ``rebases``: chains rebased on a base prefix (``group._rebase``);
- ``roots``: root chains built from generators (``group.build_chain``);
- ``keys``: ``bases._fixed_key`` runs, each a degree-long pass over a
  stored group's orbit sizes;
- ``joins``: orbit-label joins (``group._join``);
- ``swept``: the generators those joins swept.

The counts are deterministic, so they compare two versions of the code
exactly; they are the per-pass guards that ROADMAP.md keeps.  They are
taken by wrapping from outside, so ``src/`` keeps no counter, and the
workload module is imported, not changed.  Stdlib and basekit only (the
corpus workload draws its random subgroups in a child process, as the
benchmark does), no options; run it from anywhere as
``python tests/guard_counts.py``.  Its name keeps pytest from collecting
it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from basekit import bases  # noqa: E402
from basekit import group as group_module  # noqa: E402

SEED = 91
counts = dict.fromkeys(("derived", "rebases", "roots", "keys", "joins", "swept"), 0)


def _counting(name, fn):
    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def _install() -> None:
    PermGroup = group_module.PermGroup
    PermGroup._derived_point_stabilizer = _counting("derived", PermGroup._derived_point_stabilizer)
    group_module._rebase = _counting("rebases", group_module._rebase)
    group_module.build_chain = _counting("roots", group_module.build_chain)
    bases._fixed_key = _counting("keys", bases._fixed_key)
    join = group_module._join

    def counting_join(labels, gens):
        counts["joins"] += 1
        counts["swept"] += len(gens)
        return join(labels, gens)

    group_module._join = counting_join


def main() -> None:
    expected = workloads.load_expected()
    runs = [(workload, workload.inputs(SEED)) for workload in
            (cls(expected) for cls in workloads.WORKLOADS.values())]
    _install()
    print(f"{'workload':<16}" + "".join(f"{name:>9}" for name in counts))
    for workload, inputs in runs:
        for name in counts:
            counts[name] = 0
        for name, spec in inputs:
            workload.run_input(name, spec)
        print(f"{workload.name:<16}" + "".join(f"{value:>9}" for value in counts.values()))


if __name__ == "__main__":
    main()
