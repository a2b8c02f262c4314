"""Record the answers the benchmark checks against, from the current program.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: every ``corpus-analyze`` report at the
default seed (compared byte for byte at that seed, and field by field for the
seed-independent specs at every seed) and the ``wreath-pair`` answers.  Run it
only when the answers are meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    nothing_recorded = {"corpus_reports_seed91": [], "wreath_pair": {}}
    corpus = workloads.CorpusAnalyze(nothing_recorded)
    reports = [
        {"name": name, "report": corpus.run_input(name, spec)}
        for name, spec in corpus.inputs(workloads.DEFAULT_SEED)
    ]
    wreath = workloads.WreathPair(nothing_recorded)
    pair = {name: wreath.run_input(name, spec) for name, spec in wreath.inputs(workloads.DEFAULT_SEED)}
    doc = {"corpus_reports_seed91": reports, "wreath_pair": pair}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
