"""The benchmark's per-layer tracer still finds what it wraps.

``perfbench/tracer.py`` patches basekit's functions and methods by name, so
deleting or renaming one of them breaks ``perfbench/run.py --trace 1``; this
runs the tracer once on a small report.
"""

import sys
from pathlib import Path

from basekit import bases, cli, group, perm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _attributes():
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "basekit" or name.startswith("basekit.")]
    owners += [perm.Perm, group.StabilizerChain, group.PermGroup, bases.SearchBudget]
    return {(repr(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_records_spans_and_restores_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = _attributes()
    t = tracer.Tracer()
    t.install()
    try:
        report = cli.analyze_report({"type": "sym", "n": 4})
    finally:
        t.uninstall()
    after = _attributes()
    assert report["M_set"] == [3]
    spans = t.span_summary()
    for name in ("group.build_chain", "group.pointwise_stabilizer", "group.stabilizer_class_labels",
                 "bases.minimal", "bases.irredundant", "bases.height", "cli.analyze"):
        assert spans.get(name, (0,))[0] > 0, name
    assert t.search_nodes() == report["budget"]["used"]
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_counts_wreath_cosets(monkeypatch):
    # the wreath-pair benchmark reads its set-up from this span and counter
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        report = cli.analyze_report({"type": "wreath_coset", "n": 4, "k": 2})
    finally:
        t.uninstall()
    assert report["degree"] == 192
    assert t.span_summary()["constructions.coset_action"][0] == 1
    assert t.counts["constructions.cosets"] == 192


def test_tracer_sees_one_chain_for_a_product_of_constructions(monkeypatch):
    # the product is built in one step, so no partial product builds a
    # chain, and it reads its factors' proven orders, so no factor does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        report = cli.analyze_report(
            {"type": "product_action", "factors": [{"type": "sym", "n": 3}] * 4})
    finally:
        t.uninstall()
    assert report["degree"] == 81
    assert t.span_summary()["group.build_chain"][0] == 1
