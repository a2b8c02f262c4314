"""basekit benchmark: one closed-loop caller, single process, single thread.

    python3 perfbench/run.py --workload corpus-analyze --seed 91 --seconds 15 --trace 0

Run from the repository root; basekit is imported from ``src/``.  Each input
starts only when the previous one has finished.  The run repeats passes over
the workload's inputs, with set-up (every input's ``build_group`` plus its
first stabilizer chain) timed before, between and after them, until
``--seconds`` have gone by and at least two passes are done; then it checks
every answer.  Times are calibrated to a reference host speed (see
``calibration.py``).  ``--trace 1`` instead runs one untraced and one traced
pass and reports per-layer numbers.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 2
# cheap inputs are sampled several times per pass, so that the latency
# percentiles do not rest on two samples each
MIN_INPUT_SECONDS = 0.1
MAX_INPUT_REPEATS = 5
SETUP_WINDOW_REPEATS = 3
SETUP_WINDOW_SECONDS = 0.3


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def time_setup(clock, inputs, setup_input) -> list[float]:
    """Calibrated times of repeated set-up passes over all inputs (one window)."""
    def setup_all():
        for _, spec in inputs:
            setup_input(spec)

    times = []
    start = time.perf_counter()
    while len(times) < SETUP_WINDOW_REPEATS or time.perf_counter() - start < SETUP_WINDOW_SECONDS:
        error, _, calibrated = clock.measure(setup_all)
        if error is not None:
            raise error
        times.append(calibrated)
    return times


def run_pass(clock, workload, inputs, min_input_seconds=0.0, tracer=None):
    """One pass: (raw seconds, calibrated seconds, answer or exception) per input.

    An input that takes less than ``min_input_seconds`` is run again, up to
    ``MAX_INPUT_REPEATS`` times, and each run is one latency sample; its first
    answer is the one checked.
    """
    raw, calibrated, answers = [], [], []
    for name, spec in inputs:
        raw_samples, samples = [], []
        while not samples or (len(samples) < MAX_INPUT_REPEATS
                              and sum(raw_samples) < min_input_seconds):
            span = tracer.open_span("bench.input") if tracer is not None else None
            answer, elapsed, scaled = clock.measure(lambda: workload.run_input(name, spec))
            if span is not None:
                tracer.close_span(span)
            raw_samples.append(elapsed)
            samples.append(scaled)
            if len(samples) == 1:
                answers.append(answer)
        raw.append(raw_samples)
        calibrated.append(samples)
    return raw, calibrated, answers


def check_pass(workload, inputs, answers, seed) -> dict[str, list[str]]:
    """Problems per failed input of one pass."""
    problems = {}
    for (name, spec), answer in zip(inputs, answers):
        if isinstance(answer, Exception):
            found = [f"raised {type(answer).__name__}: {answer}"]
        else:
            found = workload.check(name, spec, answer, seed)
        if found:
            problems[name] = found
    return problems


def untraced_run(clock, workload, inputs, seed, seconds):
    from workloads import setup_input

    # set-up is timed in windows before, between and after the passes, so
    # that one slow spell of the host does not set the median
    setup_times = []
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        setup_times += time_setup(clock, inputs, setup_input)
        passes.append(run_pass(clock, workload, inputs, MIN_INPUT_SECONDS))
    setup_times += time_setup(clock, inputs, setup_input)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [check_pass(workload, inputs, answers, seed) for _, _, answers in passes]
    per_input = [statistics.median(x for _, cal, _ in passes for x in cal[i])
                 for i in range(len(inputs))]
    # inputs named "X#k" are relabelled copies of one input X; X's latency,
    # for the percentiles, is the mean over its copies
    copies: dict[str, list[float]] = {}
    for (name, _), latency in zip(inputs, per_input):
        copies.setdefault(name.split("#")[0], []).append(latency)
    latencies = [statistics.fmean(values) for values in copies.values()]
    metrics = {
        "wall_s": (sum(per_input), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "input_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "input_p80_ms": (percentile(latencies, 80) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "passes": len(passes),
        "raw_pass_s": [round(sum(statistics.median(x) for x in raw), 3) for raw, _, _ in passes],
        "calibrated_pass_s": [round(sum(statistics.median(x) for x in cal), 3)
                              for _, cal, _ in passes],
        "setup_repeats": len(setup_times),
    }
    return metrics, len(passes) * len(inputs), failures, info


def traced_run(clock, workload, inputs, seed):
    from tracer import Tracer

    _, untraced_cal, plain_answers = run_pass(clock, workload, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced_raw, traced_cal, traced_answers = run_pass(clock, workload, inputs, tracer=tracer)
    finally:
        tracer.uninstall()

    failures = [check_pass(workload, inputs, answers, seed)
                for answers in (plain_answers, traced_answers)]
    for (name, _), plain, traced in zip(inputs, plain_answers, traced_answers):
        if not isinstance(plain, Exception) and plain != traced:
            failures[1].setdefault(name, []).append("traced answer differs from the untraced one")

    # one sample per input in both passes
    traced_s, untraced_s = (sum(x for x, in cal) for cal in (traced_cal, untraced_cal))
    metrics = tracer.layer_metrics(sum(x for x, in traced_raw))
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    walker_nodes = tracer.search_nodes()
    program_nodes = sum(workload.nodes(a) for a in plain_answers if not isinstance(a, Exception))
    if walker_nodes != program_nodes:
        failures.append({"trace": [f"search nodes {walker_nodes} != the program's count {program_nodes}"]})

    out = ROOT / ".bench_trace" / f"{workload.name}-seed{seed}.json"
    tracer.write_spans(out)
    info = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s, "spans": len(tracer.spans),
            "spans_file": str(out.relative_to(ROOT))}
    return metrics, 2 * len(inputs), failures, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "basekit" / "__init__.py").is_file():
        sys.stderr.write(f"error: basekit sources not found under {SRC}; run from a full checkout\n")
        return 2
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import workloads
    from calibration import HostClock

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload](workloads.load_expected())
    inputs = workload.inputs(seed)

    clock = HostClock()
    if args.trace:
        metrics, attempted, failures, info = traced_run(clock, workload, inputs, seed)
    else:
        metrics, attempted, failures, info = untraced_run(clock, workload, inputs, seed, args.seconds)
    failed = sum(len(f) for f in failures)
    for pass_failures in failures:
        for name, found in pass_failures.items():
            for problem in found:
                sys.stderr.write(f"wrong: {name}: {problem}\n")
    print(f"# {workload.name} seed={seed} inputs={len(inputs)} trace={args.trace} "
          + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    print(f"{'failed_frac':<36} {failed / attempted:>14.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
