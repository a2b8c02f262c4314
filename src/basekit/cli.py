"""Command-line interface.

JSON-first: every command prints a canonical JSON document on stdout
(byte-identical across runs with the same flags); human-readable tables are
renderings of that JSON behind ``--table``, and timings go to stderr.

Exit codes: 0 pass, 1 suite failure or detected anomaly, 2 usage or spec
error (a spec nested too deeply to decode or evaluate included), 3 search
budget exceeded, 4 internal error (a broken invariant such as a chain-order
mismatch, or ``RecursionError``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bases import (
    SearchBudget,
    height,
    irredundant_base_sizes,
    minimal_base_sizes,
)
from .constructions import MAX_SPEC_DEGREE, build_group, product_action
from .errors import BudgetExceeded, SpecError
from .formulas import measure_epsilon, predict_thm41
from .suites import SUITE_NAMES, run_suite

DEFAULT_BUDGET = 10**8
CROSS_CHECK_MAX_DEGREE = 30
REPORT_SCHEMA = "basekit-report/1"


def _load_spec(arg: str) -> dict:
    """Spec argument: a file path, '-' for stdin, or inline JSON."""
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {arg!r}: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecError(f"spec is nested too deeply to decode: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("a group spec is a JSON object")
    return spec


def analyze_report(spec: dict, *, mode: str = "pruned", budget_limit: int = DEFAULT_BUDGET,
                   witnesses: bool = False) -> dict:
    """Full analysis of one group spec; anomalies make the run fail."""
    budget = SearchBudget(budget_limit)
    G, domain = build_group(spec)
    anomalies: list[str] = []

    report: dict = {
        "schema": REPORT_SCHEMA,
        "spec": spec,
        "degree": G.degree,
        "order": G.order(),
        "transitive": G.is_transitive(),
        "domain_blocks": [
            {"label": lbl, "start": start, "size": size}
            for lbl, start, size in domain.blocks
        ],
        "mode": mode,
    }
    if G.is_trivial():
        raise SpecError("the spec builds the trivial group; size sets are undefined")

    m_set, m_wits = minimal_base_sizes(G, mode, budget, witnesses=True)
    i_set, i_wits = irredundant_base_sizes(G, mode, budget, witnesses=True)

    cross = "skipped"
    if mode == "pruned" and G.degree <= CROSS_CHECK_MAX_DEGREE:
        cross = "match"
        if minimal_base_sizes(G, "exhaustive", budget) != m_set:
            cross = "mismatch"
            anomalies.append("pruned and exhaustive minimal-base spectra differ")
        if irredundant_base_sizes(G, "exhaustive", budget) != i_set:
            cross = "mismatch"
            anomalies.append("pruned and exhaustive irredundant spectra differ")

    if not set(m_set.sizes) <= set(i_set.sizes):
        anomalies.append("minimal spectrum is not contained in the irredundant spectrum")
    if m_set.min != i_set.min:
        anomalies.append("smallest minimal and irredundant sizes differ")
    if not i_set.is_interval:
        anomalies.append("irredundant spectrum is not an interval")

    report.update(
        {
            "b": m_set.min,
            "B": m_set.max,
            "Imax": i_set.max,
            "M_set": m_set.to_list(),
            "I_set": i_set.to_list(),
            "I_is_interval": i_set.is_interval,
            "is_ibis": len(i_set) == 1,
            "is_mibis": len(m_set) == 1,
            "height": height(G, mode, budget),
            "exhaustive_cross_check": cross,
            "budget": {"limit": budget.limit, "used": budget.used},
            "anomalies": anomalies,
        }
    )
    if witnesses:  # reading them costs no search nodes, so the budget is the same
        report["witnesses"] = {
            "minimal": {str(k): list(v) for k, v in m_wits.items()},
            "irredundant": {str(k): list(v) for k, v in i_wits.items()},
        }
    return report


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=False) + "\n")


def _render_report_table(report: dict) -> None:
    rows = [
        ("degree", report["degree"]),
        ("order", report["order"]),
        ("transitive", report["transitive"]),
        ("b / B / Imax", f"{report['b']} / {report['B']} / {report['Imax']}"),
        ("M set", report["M_set"]),
        ("I set", report["I_set"]),
        ("I interval", report["I_is_interval"]),
        ("IBIS / MiBIS", f"{report['is_ibis']} / {report['is_mibis']}"),
        ("height", report["height"]),
        ("cross-check", report["exhaustive_cross_check"]),
        ("budget used", report["budget"]["used"]),
    ]
    if "witnesses" in report:
        for tag, kind in (("M", "minimal"), ("I", "irredundant")):
            rows += [(f"{tag} witness {k}", w) for k, w in report["witnesses"][kind].items()]
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        sys.stdout.write(f"{key:<{width}}  {val}\n")
    for a in report["anomalies"]:
        sys.stdout.write(f"ANOMALY: {a}\n")


def _render_suite_table(doc: dict) -> None:
    for check in doc["checks"]:
        tag = "pass" if check["passed"] else "FAIL"
        sys.stdout.write(f"[{tag}] {check['check']}\n")
        if not check["passed"]:
            sys.stdout.write(f"       expected: {check['expected']}\n")
            sys.stdout.write(f"       computed: {check['computed']}\n")
    sys.stdout.write(f"suite {doc['suite']}: {'pass' if doc['passed'] else 'FAIL'}\n")


def cmd_analyze(args) -> int:
    spec = _load_spec(args.spec)
    t0 = time.monotonic()
    report = analyze_report(
        spec, mode=args.mode, budget_limit=args.budget, witnesses=args.witnesses
    )
    elapsed = time.monotonic() - t0
    if args.table:
        _render_report_table(report)
    else:
        _print_json(report)
    sys.stderr.write(f"analyze: {elapsed:.2f}s\n")
    return 1 if report["anomalies"] else 0


def cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        sys.stderr.write(
            f"unknown suite {args.suite!r}; choose from: {', '.join(sorted(SUITE_NAMES))}\n"
        )
        return 2
    t0 = time.monotonic()
    result = run_suite(args.suite, slow=args.slow, budget=SearchBudget(args.budget))
    elapsed = time.monotonic() - t0
    doc = result.to_dict()
    if args.table:
        _render_suite_table(doc)
    else:
        _print_json(doc)
    sys.stderr.write(f"verify {args.suite}: {elapsed:.2f}s\n")
    return 0 if result.passed else 1


def cmd_probe_epsilon(args) -> int:
    spec_a = _load_spec(args.spec_a)
    spec_b = _load_spec(args.spec_b)
    budget = SearchBudget(args.budget)
    A, _ = build_group(spec_a)
    B, _ = build_group(spec_b)
    if A.degree * B.degree > MAX_SPEC_DEGREE:
        raise SpecError(f"the product of the two factors acts on more than {MAX_SPEC_DEGREE} points")
    if A.is_trivial() or B.is_trivial():
        raise SpecError("both factors must be non-trivial")
    m_a = minimal_base_sizes(A, "pruned", budget)
    m_b = minimal_base_sizes(B, "pruned", budget)
    prod = product_action(A, B)
    m_prod = minimal_base_sizes(prod, "pruned", budget)
    prediction = predict_thm41(m_a.min, m_b.min, m_a.max, m_b.max)
    anomalies: list[str] = []
    try:
        measured = measure_epsilon(prediction, m_prod).measured_epsilon
    except ValueError as exc:  # the spectrum is none of the predicted intervals
        measured = None
        anomalies.append(str(exc))
    doc = {
        "schema": "basekit-epsilon/1",
        "factors": [
            {"spec": spec_a, "b": m_a.min, "B": m_a.max},
            {"spec": spec_b, "b": m_b.min, "B": m_b.max},
        ],
        "product_degree": prod.degree,
        "M_set": m_prod.to_list(),
        "prediction": {
            "lower": prediction.lower,
            "upper_by_epsilon": list(prediction.upper_by_epsilon),
        },
        "measured_epsilon": measured,
    }
    tag_a = spec_a.get("product_indecomposable")
    tag_b = spec_b.get("product_indecomposable")
    if tag_a is not None and tag_b is not None:
        conjectured = 2 if (tag_a and tag_b) else (0 if (not tag_a and not tag_b) else 1)
        doc["conjectured_epsilon"] = conjectured
        doc["matches_conjecture"] = conjectured == measured
    doc["anomalies"] = anomalies
    _print_json(doc)
    return 1 if anomalies else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="basekit",
        description="Base-size analytics for finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full report for one group spec")
    p_analyze.add_argument("spec", help="spec file, '-' for stdin, or inline JSON")
    p_analyze.add_argument("--table", action="store_true", help="human table instead of JSON")
    p_analyze.add_argument("--witnesses", action="store_true", help="include one witness base per size")
    p_analyze.add_argument("--mode", choices=("pruned", "exhaustive"), default="pruned")
    p_analyze.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node ceiling")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(sorted(SUITE_NAMES))}")
    p_verify.add_argument("--slow", action="store_true", help="include long-running instances")
    p_verify.add_argument("--table", action="store_true", help="human table instead of JSON")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_verify.set_defaults(func=cmd_verify)

    p_probe = sub.add_parser("probe-epsilon", help="measure the product-action interval deficit")
    p_probe.add_argument("spec_a")
    p_probe.add_argument("spec_b")
    p_probe.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_probe.set_defaults(func=cmd_probe_epsilon)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except RuntimeError as exc:  # after BudgetExceeded, which subclasses it
        sys.stderr.write(f"error: internal: {exc}\n")
        return 4
    except SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
