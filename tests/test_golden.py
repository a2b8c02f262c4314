"""``basekit analyze`` output pinned byte for byte.

Each file under ``tests/data`` is the stdout of
``basekit analyze SPEC --witnesses``, ``basekit analyze SPEC --mode
exhaustive`` or ``basekit analyze SPEC --mode exhaustive --witnesses``;
the last pins the order in which the exhaustive walks meet their
witnesses.  A change to the group layer or the searches that keeps the
same results keeps these bytes.  The specs cover the three ways a
stabilizer is formed: the base point's suffix (``sym5``), a conjugated
suffix (``sym5``, ``prod_s3_s3``) and a rebase on a point off the first
basic orbit (``theorem2_1_3``, ``sym3_x_cyclic3``, ``ksubsets_6_2``).
"""

from pathlib import Path

import pytest

from test_cli import run_cli

DATA = Path(__file__).parent / "data"

SPECS = {
    "sym5": '{"type":"sym","n":5}',
    "theorem2_1_3": '{"type":"theorem2","X":[1,3]}',
    "sym3_x_cyclic3": '{"type":"disjoint_product","factors":'
                      '[{"type":"sym","n":3},{"type":"cyclic_regular","p":3}]}',
    "ksubsets_6_2": '{"type":"k_subsets","n":6,"k":2}',
    "prod_s3_s3": '{"type":"product_action","factors":[{"type":"sym","n":3},{"type":"sym","n":3}]}',
}
FLAGS = {
    "witnesses": ["--witnesses"],
    "exhaustive": ["--mode", "exhaustive"],
    "exhaustive_witnesses": ["--mode", "exhaustive", "--witnesses"],
}


@pytest.mark.parametrize("flags", FLAGS, ids=FLAGS)
@pytest.mark.parametrize("name", SPECS, ids=SPECS)
def test_analyze_report_matches_the_recorded_bytes(name, flags):
    code, out, _ = run_cli(["analyze", SPECS[name], *FLAGS[flags]])
    assert code == 0
    assert out == (DATA / f"analyze.{name}.{flags}.json").read_text(encoding="utf-8")
