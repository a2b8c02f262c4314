"""Per-layer tracing of basekit from outside the package.

The tracer replaces public callables on the module or class that defines them
with timing wrappers, and rebinds every other ``basekit`` module attribute
that refers to the same function (``cli`` imports the searches by name), so
internal callers are caught too.  ``uninstall`` puts the originals back.

Two kinds of wrapper keep the cost bounded:

* coarse calls (report, searches, chain builds, stabilizers, constructions)
  record a span: name, start, end and the index of the enclosing span;
* hot calls (``Perm.__mul__`` and ``inverse``, ``sift``, ``orbit_partition``,
  ``elements``, ``SearchBudget.tick``) only add to a call count and a time
  total, because ``k_subsets(7,2)`` alone makes 653,184 multiplications.

Spans stay in memory until ``write_spans``.  Inclusive time of a name counts
only spans with no ancestor of the same name (``build_group`` recurses);
self time is a span's duration minus its child spans'.  Hot-call time is
inclusive of the hot calls inside it (``sift`` multiplies).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

from basekit import bases, cli, constructions, group, perm

HOT_CALLS = ("perm.mul", "perm.inverse", "group.sift", "group.orbit_partition", "group.elements")
SEARCHES = ("bases.minimal", "bases.irredundant", "bases.height", "bases.exhaustive")
SPANS = ("group.build_chain", "group.pointwise_stabilizer", "group.stabilizer_class_labels",
         "constructions.build_group", "constructions.coset_action") + SEARCHES + ("cli.analyze",)
# spans that enclose other spans, so their self time differs from their inclusive time
SPANS_WITH_CHILDREN = ("group.pointwise_stabilizer", "group.stabilizer_class_labels",
                       "constructions.build_group") + SEARCHES
COUNTS = ("group.chain_levels", "group.transversal_points", "constructions.cosets")

WALKERS = {
    "minimal_base_sizes": "bases.minimal",
    "irredundant_base_sizes": "bases.irredundant",
    "height": "bases.height",
}


def _mode(args, kwargs) -> str:
    # the searches take (G, mode="pruned", budget=None, ...)
    return kwargs.get("mode", args[1] if len(args) > 1 else "pruned")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index, outermost]
        self._stack: list[int] = []
        self._open: dict[int, int] = defaultdict(int)
        self.hot: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open_span(self, name: str) -> int:
        nid = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, perf_counter_ns(), 0, parent, int(self._open[nid] == 0)])
        self._open[nid] += 1
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        self._open[span[0]] -= 1
        self._stack.pop()

    def _span_wrapper(self, fn, name_of, on_exit=None, count_nodes=False):
        tracer = self
        ticks = self.hot.setdefault("bases.tick", [0, 0])

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            ticks_before = ticks[0]
            idx = tracer.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)
                if count_nodes:
                    tracer.counts[name + "_nodes"] += ticks[0] - ticks_before
            if on_exit is not None:
                on_exit(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hot calls -----------------------------------------------------------

    def _hot_wrapper(self, fn, name):
        stat = self.hot.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            t = perf_counter_ns()
            result = fn(*args, **kwargs)
            stat[1] += perf_counter_ns() - t
            stat[0] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot_generator_wrapper(self, fn, name):
        # time runs from the call to exhaustion, including the consumer's work
        # between items
        stat = self.hot.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            t = perf_counter_ns()
            stat[0] += 1
            try:
                yield from fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter_ns() - t

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == "basekit" or mod_name.startswith("basekit.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, alias, original))
                    setattr(mod, alias, wrapper)

    def install(self) -> None:
        hot = self._hot_wrapper
        fixed = lambda name: (lambda args, kwargs: name)  # noqa: E731
        self._patch(bases.SearchBudget, "tick", hot(bases.SearchBudget.tick, "bases.tick"))
        self._patch(perm.Perm, "__mul__", hot(perm.Perm.__mul__, "perm.mul"))
        self._patch(perm.Perm, "inverse", hot(perm.Perm.inverse, "perm.inverse"))
        self._patch(group.StabilizerChain, "sift", hot(group.StabilizerChain.sift, "group.sift"))
        self._patch(group.PermGroup, "orbit_partition",
                    hot(group.PermGroup.orbit_partition, "group.orbit_partition"))
        self._patch(group.StabilizerChain, "elements",
                    self._hot_generator_wrapper(group.StabilizerChain.elements, "group.elements"))

        def chain_built(chain):
            self.counts["group.chain_levels"] += len(chain.levels)
            self.counts["group.transversal_points"] += sum(len(l.transversal) for l in chain.levels)

        def cosets_built(action):
            self.counts["constructions.cosets"] += action.degree

        span = self._span_wrapper
        self._patch(group, "build_chain",
                    span(group.build_chain, fixed("group.build_chain"), chain_built))
        for meth in ("pointwise_stabilizer", "stabilizer_class_labels"):
            self._patch(group.PermGroup, meth,
                        span(getattr(group.PermGroup, meth), fixed(f"group.{meth}")))
        self._patch(constructions, "build_group",
                    span(constructions.build_group, fixed("constructions.build_group")))
        self._patch(constructions, "coset_action",
                    span(constructions.coset_action, fixed("constructions.coset_action"),
                         cosets_built))
        for fn_name, name in WALKERS.items():
            def name_of(args, kwargs, _name=name):
                return "bases.exhaustive" if _mode(args, kwargs) == "exhaustive" else _name

            self._patch(bases, fn_name,
                        span(getattr(bases, fn_name), name_of, count_nodes=True))
        self._patch(cli, "analyze_report", span(cli.analyze_report, fixed("cli.analyze")))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def span_summary(self) -> dict[str, tuple[int, float, float]]:
        """(calls, inclusive seconds, self seconds) per span name."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        summary: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for span, children in zip(self.spans, child_ns):
            entry = summary[self.names[span[0]]]
            duration = span[2] - span[1]
            entry[0] += 1
            if span[4]:
                entry[1] += duration / 1e9
            entry[2] += (duration - children) / 1e9
        return {name: tuple(entry) for name, entry in summary.items()}

    def search_nodes(self) -> int:
        return sum(self.counts[f"{name}_nodes"] for name in SEARCHES)

    def layer_metrics(self, pass_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced pass that took ``pass_s`` seconds."""
        spans = self.span_summary()
        calls = {name: c for name, (c, _, _) in spans.items()}
        inclusive = {name: t for name, (_, t, _) in spans.items()}
        self_s = {name: t for name, (_, _, t) in spans.items()}
        for name, (n, ns) in self.hot.items():
            calls[name] = n
            inclusive[name] = ns / 1e9

        def get(table, name):
            return table.get(name, 0)

        out: dict[str, tuple[float, str]] = {}
        for name in HOT_CALLS:
            out[f"{name}_calls"] = (get(calls, name), "count")
            out[f"{name}_s"] = (get(inclusive, name), "s")
        out["perm.mul_ns"] = (get(inclusive, "perm.mul") * 1e9 / max(1, get(calls, "perm.mul")), "ns")
        for name in SPANS:
            out[f"{name}_calls"] = (get(calls, name), "count")
            out[f"{name}_s"] = (get(inclusive, name), "s")
            if name in SPANS_WITH_CHILDREN:
                out[f"{name}_self_s"] = (get(self_s, name), "s")
        out["group.build_chain_share"] = (get(inclusive, "group.build_chain") / pass_s, "ratio")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        for name in SEARCHES:
            out[f"{name}_nodes"] = (self.counts[f"{name}_nodes"], "count")
        out["bases.chains_per_node"] = (
            get(calls, "group.build_chain") / max(1, self.search_nodes()), "ratio")
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "outermost"],
               "names": self.names, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
