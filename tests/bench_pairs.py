"""Run the benchmark on two checkouts in alternating pairs and summarize each metric.

    python tests/bench_pairs.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are checkout directories, each with its own
``perfbench/`` and ``src/``.  For each workload that ``BENCHMARK.json`` (next
to this script's ``tests/``, read only) lists, it runs ``PAIRS`` pairs of the
benchmark's command with ``--seed 91 --seconds 15 --trace 0``, one fresh
process per run, in the checkout's directory and with
``PYTHONDONTWRITEBYTECODE=1``.  The parent runs first in even pairs and the
change first in odd ones.  A run that is not ``correct`` or has ``failed > 0``
stops the script with exit 1.

The last line of stdout is one JSON object, laid out as the
``BENCH_<pr>.json`` files: ``untraced_runs`` (each run's end-to-end metrics)
and ``summary``, per workload and end-to-end metric: both sides' medians,
``change_vs_parent`` (the change's median over the parent's, less 1), the
parent's interquartile range (``statistics.quantiles``, exclusive method),
and in how many pairs the change read lower.  Progress goes to stderr.  The
pair count, run length and seed are the measurement protocol, so they are
constants.  A full run takes about 20 minutes.  Not collected by pytest.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PAIRS = 10
SECONDS = 15
SEED = 91
SIDES = ("parent", "change")


def _run(checkout: Path, command: list[str], workload: str, metrics: list[str]) -> dict:
    # one untraced run; its last stdout line is the runner's JSON result
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = command + ["--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
                      "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] > 0:
        sys.exit(f"error: {workload} in {checkout}: correct={result['correct']} "
                 f"failed={result['failed']}\n{done.stderr}")
    run = {key: result[key] for key in ("correct", "failed", "attempted")}
    run.update((name, result["metrics"][name]["value"]) for name in metrics)
    return run


def _summary(parent: list[float], change: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4)
    before, after = statistics.median(parent), statistics.median(change)
    return {"parent_median": before, "change_median": after, "change_vs_parent": after / before - 1,
            "parent_iqr": q3 - q1, "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent)}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    checkouts = dict(zip(SIDES, (Path(a).resolve() for a in argv)))
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = [m["name"] for m in bench["end_to_end"]]
    runs, summary = {}, {}
    for workload in (w["name"] for w in bench["workloads"]):
        sides = runs[workload] = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            first = SIDES[pair % 2]
            for side in (SIDES if first == "parent" else SIDES[::-1]):
                run = _run(checkouts[side], bench["command"], workload, metrics)
                sides[side].append({"pair": pair, "first": first, **run})
                sys.stderr.write(f"{workload} pair {pair} {side}: wall_s {run['wall_s']:.6g}\n")
        summary[workload] = {
            m: _summary([r[m] for r in sides["parent"]], [r[m] for r in sides["change"]])
            for m in metrics}
    print(json.dumps({"untraced_runs": runs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
