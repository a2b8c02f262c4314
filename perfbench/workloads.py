"""The benchmark's workloads: inputs made from a seed, the calls a user makes, and answer checks.

Every workload is a list of named inputs.  An input is a group spec (the JSON
document ``basekit analyze`` reads) plus the calls run on it.  ``run_input``
performs those calls through basekit's public API and returns a JSON-able
answer; ``check`` compares an answer with values that do not come from the
search under test: closed-form results from ``basekit.formulas`` and the
paper, group orders from ``sympy.combinatorics``, and answers recorded at the
commit that defined the benchmark (``expected.json``).

The program only ever sees the generated specs; the seed stays here.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import draws
from basekit import bases, cli, constructions, formulas

DEFAULT_SEED = 91  # the seed of the corpus's random subgroups (basekit.corpus.RANDOM_SEED)

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Answer fields of an analyze report, i.e. everything but the schema, the
# echoed spec and the node budget.
REPORT_ANSWER_KEYS = (
    "degree", "order", "transitive", "b", "B", "Imax", "M_set", "I_set",
    "I_is_interval", "is_ibis", "is_mibis", "height", "exhaustive_cross_check",
    "anomalies",
)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def canonical(doc) -> str:
    """The serialisation the byte-identity check compares."""
    return json.dumps(doc, sort_keys=False, separators=(",", ":"))


def _sym(n: int) -> dict:
    return {"type": "sym", "n": n}


def _sym_generators(n: int) -> list[list[int]]:
    transposition = list(range(n))
    transposition[0], transposition[1] = 1, 0
    cycle = [(i + 1) % n for i in range(n)]
    return [transposition, cycle]


def _relabel(images: list[int], label: list[int]) -> list[int]:
    # conjugate by the relabelling i -> label[i]
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[label[i]] = label[j]
    return out


# -- corpus-analyze --------------------------------------------------------

_SUMSET_POOL = [
    ("sym3", _sym(3)),
    ("sym4", _sym(4)),
    ("cyclic3", {"type": "cyclic_regular", "p": 3}),
    ("elemab_2_2", {"type": "elem_abelian_regular", "p": 2, "d": 2}),
    ("theorem2_{1,3}", {"type": "theorem2", "X": [1, 3]}),
]


def _fixed_corpus_specs() -> list[tuple[str, dict]]:
    """The 44 seed-independent specs of ``basekit.corpus.interval_corpus``, in its order."""
    out = [(f"sym{n}", _sym(n)) for n in range(2, 8)]
    out += [(f"cyclic{p}", {"type": "cyclic_regular", "p": p}) for p in (3, 5, 7)]
    out += [
        (f"elemab_{p}_{d}", {"type": "elem_abelian_regular", "p": p, "d": d})
        for p, d in ((2, 2), (2, 3), (3, 2), (2, 7))
    ]
    for X in ([1], [2], [1, 3], [1, 4], [2, 5], [3, 4, 7], [1, 3, 5, 7]):
        out.append(("theorem2_{" + ",".join(map(str, X)) + "}", {"type": "theorem2", "X": X}))
    for i, (name_a, spec_a) in enumerate(_SUMSET_POOL):
        for name_b, spec_b in _SUMSET_POOL[i + 1:]:
            out.append(
                (f"disjoint[{name_a}+{name_b}]",
                 {"type": "disjoint_product", "factors": [spec_a, spec_b]})
            )
    for ns in ((3, 3), (3, 4), (4, 4), (3, 3, 3, 3), (4, 3, 3)):
        out.append(
            ("prod[" + ",".join(f"s{n}" for n in ns) + "]",
             {"type": "product_action", "factors": [_sym(n) for n in ns]})
        )
    out.append(("theorem3M(2,3)", {"type": "theorem3_m", "a": 2, "b": 3}))
    out.append(("theorem3M(3,5)", {"type": "theorem3_m", "a": 3, "b": 5}))
    out.append(("theorem3I(3,5)", {"type": "theorem3_i", "a": 3, "b": 5}))
    out.append(("wreath_coset(4,2)", {"type": "wreath_coset", "n": 4, "k": 2}))
    out.append(("wreath_coset(4,3)", {"type": "wreath_coset", "n": 4, "k": 3}))
    for n in (5, 6, 7):
        out.append((f"ksubsets({n},2)", {"type": "k_subsets", "n": n, "k": 2}))
    out.append(("gl42_planes", {"type": "gl42_planes"}))
    return out


def _random_subgroup_specs(seed: int) -> list[tuple[str, dict]]:
    # drawn in a child process: matching the draws needs sympy, whose memory
    # must not count towards the program's peak_rss_mb
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("draws.py")), str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return [(name, spec) for name, spec in json.loads(proc.stdout)]


def _corpus_oracle(spec: dict) -> dict:
    """Answer fields that follow from theory, keyed like the report."""
    t = spec["type"]
    if t == "sym":
        n = spec["n"]
        return {"order": math.factorial(n), "M_set": [n - 1], "I_set": [n - 1], "height": n - 1}
    if t in ("cyclic_regular", "elem_abelian_regular"):
        # regular: every point stabilizer is trivial
        return {"M_set": [1], "I_set": [1], "height": 1}
    if t == "theorem2":
        return {"M_set": sorted(spec["X"])}
    if t == "product_action":
        ns = [f["n"] for f in spec["factors"]]
        return {
            "order": math.prod(math.factorial(n) for n in ns),
            "M_set": formulas.predict_prodsym_M(ns).to_list(),
        }
    if t == "theorem3_m":
        return {"M_set": list(range(spec["a"], spec["b"] + 1))}
    if t == "theorem3_i":
        return {"I_set": list(range(spec["a"], spec["b"] + 1))}
    if t == "k_subsets":
        n, k = spec["n"], spec["k"]
        return {
            "order": math.factorial(n),
            "b": formulas.halasi_b(n, k),
            "Imax": formulas.gill_loda_I(n, k),
        }
    if t == "gl42_planes":
        return {"order": 20160, "degree": 35}
    if t == "explicit":
        return {"order": draws.group_order(spec["generators"])}
    return {}


class CorpusAnalyze:
    """The desk-scale corpus through ``basekit.cli.analyze_report``."""

    name = "corpus-analyze"

    def __init__(self, expected: dict):
        self.expected_reports = {r["name"]: r["report"] for r in expected["corpus_reports_seed91"]}

    def inputs(self, seed: int) -> list[tuple[str, dict]]:
        return _fixed_corpus_specs() + _random_subgroup_specs(seed)

    def run_input(self, name: str, spec: dict) -> dict:
        return cli.analyze_report(spec)

    @staticmethod
    def nodes(answer: dict) -> int:
        return answer["budget"]["used"]

    def check(self, name: str, spec: dict, report: dict, seed: int) -> list[str]:
        problems = []
        if report["anomalies"]:
            problems.append(f"anomalies {report['anomalies']}")
        want_cross = "match" if report["degree"] <= cli.CROSS_CHECK_MAX_DEGREE else "skipped"
        if report["exhaustive_cross_check"] != want_cross:
            problems.append(f"cross-check {report['exhaustive_cross_check']!r} != {want_cross!r}")
        for key, want in _corpus_oracle(spec).items():
            if report[key] != want:
                problems.append(f"{key} {report[key]} != {want} (theory)")
        recorded = self.expected_reports.get(name)
        if spec["type"] != "explicit":
            for key in REPORT_ANSWER_KEYS:
                if report[key] != recorded[key]:
                    problems.append(f"{key} {report[key]} != recorded {recorded[key]}")
        if seed == DEFAULT_SEED and canonical(report) != canonical(recorded):
            problems.append("report is not byte-identical to the recorded one")
        return problems


# -- searches on built groups ----------------------------------------------


def _run_calls(spec: dict, calls) -> dict:
    """Build the group, then run the named searches, each with its own node budget."""
    G, _ = constructions.build_group(spec)
    answer = {"order": G.order()}
    for call in calls:
        budget = bases.SearchBudget(cli.DEFAULT_BUDGET)
        if call == "M":
            answer["M"] = bases.minimal_base_sizes(G, "pruned", budget).to_list()
        elif call == "I":
            answer["I"] = bases.irredundant_base_sizes(G, "pruned", budget).to_list()
        else:
            answer["height"] = bases.height(G, "pruned", budget)
        answer[f"{call}_nodes"] = budget.used
    return answer


def _call_nodes(answer: dict) -> int:
    return sum(v for k, v in answer.items() if k.endswith("_nodes"))


def _compare(answer: dict, want: dict, source: str) -> list[str]:
    return [
        f"{key} {answer.get(key)} != {value} ({source})"
        for key, value in want.items()
        if answer.get(key) != value
    ]


# -- wreath-pair -----------------------------------------------------------


class WreathPair:
    """The slow wreath coset pair: M, I and height on (5,3); M on (5,4)."""

    name = "wreath-pair"

    # M is what the construction provably gives; the published {4,5,8} for
    # (5,4) stays asserted (and failing) in the acceptance tests.
    ORACLE = {
        "wreath_coset(5,3)": {"order": math.factorial(5) ** 3 * 3, "M": [3, 5], "M_nodes": 35},
        "wreath_coset(5,4)": {"order": math.factorial(5) ** 4 * 4, "M": [4, 6, 8], "M_nodes": 208},
    }
    CALLS = {"wreath_coset(5,3)": ("M", "I", "height"), "wreath_coset(5,4)": ("M",)}

    def __init__(self, expected: dict):
        self.recorded = expected["wreath_pair"]

    def inputs(self, seed: int) -> list[tuple[str, dict]]:
        return [(f"wreath_coset(5,{k})", {"type": "wreath_coset", "n": 5, "k": k}) for k in (3, 4)]

    def run_input(self, name: str, spec: dict) -> dict:
        return _run_calls(spec, self.CALLS[name])

    nodes = staticmethod(_call_nodes)

    def check(self, name: str, spec: dict, answer: dict, seed: int) -> list[str]:
        problems = _compare(answer, self.ORACLE[name], "theory")
        problems += _compare(answer, self.recorded[name], "recorded")
        return problems


# -- symmetric-deep --------------------------------------------------------


class SymmetricDeep:
    """S16 and S20 with seed-relabelled points and no order hint, M, I and height on each."""

    name = "symmetric-deep"
    # The cost of a chain build depends on where the labels fall along the
    # n-cycle (M, I and height of S20 make 351k-662k multiplications over 20
    # seeds), so each degree comes in several relabellings and a seed moves
    # their mean much less than one input's cost.  S16 is cheap and its
    # mean is the workload's input_p50_ms, so it gets more of them.
    RELABELLINGS = {16: 8, 20: 4}

    def __init__(self, expected: dict):
        pass

    def inputs(self, seed: int) -> list[tuple[str, dict]]:
        rng = random.Random(seed)
        out = []
        for n, copies in self.RELABELLINGS.items():
            for copy in range(copies):
                label = list(range(n))
                rng.shuffle(label)
                gens = [_relabel(g, label) for g in _sym_generators(n)]
                out.append((f"S{n}#{copy}", {"type": "explicit", "degree": n, "generators": gens}))
        return out

    def run_input(self, name: str, spec: dict) -> dict:
        return _run_calls(spec, ("M", "I", "height"))

    nodes = staticmethod(_call_nodes)

    def check(self, name: str, spec: dict, answer: dict, seed: int) -> list[str]:
        n = spec["degree"]
        want = {"order": math.factorial(n), "M": [n - 1], "I": [n - 1], "height": n - 1}
        return _compare(answer, want, "theory")


WORKLOADS = {w.name: w for w in (CorpusAnalyze, WreathPair, SymmetricDeep)}


def setup_input(spec: dict) -> None:
    """What set-up builds for one input: the group and its first stabilizer chain."""
    G, _ = constructions.build_group(spec)
    G.order()
