"""``basekit analyze`` output on the standing-guard documents, checked by hash.

``data/analyze_manifest.json`` lists 170 documents: the 56 specs of the
desk-scale corpus (``basekit.corpus.interval_corpus``, its random subgroups
drawn at seed 91) with no flag, with ``--witnesses`` and with ``--mode
exhaustive --witnesses``, and ``wreath_coset`` (5,3) with no flag and with
``--witnesses``.  Each entry holds the spec, the flags and the sha256 of the
command's stdout.  A change that keeps the results keeps every hash.  A
change to the report itself re-records the hashes with

    PYTHONPATH=src python tests/test_analyze_manifest.py

and says which fields changed.  The exhaustive ``wreath_coset`` (4,3)
document walks some 2.4 million search nodes, so it runs under ``--runslow``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from test_cli import run_cli

MANIFEST = Path(__file__).parent / "data" / "analyze_manifest.json"
SLOW = ("wreath_coset(4,3)", ["--mode", "exhaustive", "--witnesses"])


def _documents(slow):
    docs = json.loads(MANIFEST.read_text(encoding="utf-8"))["documents"]
    return [d for d in docs if ((d["name"], d["flags"]) == SLOW) == slow]


def _digest(doc):
    code, out, err = run_cli(["analyze", json.dumps(doc["spec"]), *doc["flags"]])
    assert code == 0, (doc["name"], doc["flags"], err)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def _changed(docs):
    return [(d["name"], " ".join(d["flags"])) for d in docs if _digest(d) != d["sha256"]]


def test_fast_documents_match_the_manifest():
    docs = _documents(slow=False)
    assert len(docs) == 169
    assert _changed(docs) == []


@pytest.mark.slow
def test_exhaustive_wreath_document_matches_the_manifest():
    docs = _documents(slow=True)
    assert len(docs) == 1
    assert _changed(docs) == []


if __name__ == "__main__":
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    for doc in manifest["documents"]:
        doc["sha256"] = _digest(doc)
    lines = ",\n".join("  " + json.dumps(d) for d in manifest["documents"])
    MANIFEST.write_text(f'{{"documents": [\n{lines}\n]}}\n', encoding="utf-8")
