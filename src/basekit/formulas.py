"""Closed-form predictions for cross-checking computed size sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bases import SizeSet
from .group import _as_int

__all__ = [
    "ProductIntervalPrediction",
    "predict_thm41",
    "measure_epsilon",
    "predict_prodsym_M",
    "predict_product_I",
    "halasi_b",
    "gill_loda_I",
    "section6_replay",
]


@dataclass(frozen=True)
class ProductIntervalPrediction:
    """Predicted minimal-base interval of a product action.

    The lower endpoint is max(b_G, b_H); the upper endpoint is
    B_G + B_H - eps for an eps in {0, 1, 2} that has to be measured from the
    computed spectrum, never predicted.
    """

    lower: int
    upper_by_epsilon: tuple[int, int, int]  # eps = 0, 1, 2
    measured_epsilon: int | None = field(default=None)

    def interval(self, epsilon: int) -> SizeSet:
        return SizeSet(range(self.lower, self.upper_by_epsilon[epsilon] + 1))


def predict_thm41(b_g: int, b_h: int, B_g: int, B_h: int) -> ProductIntervalPrediction:
    """Candidate minimal-base intervals of a product action from factor stats."""
    b_g, b_h = _as_int(b_g, "b_g"), _as_int(b_h, "b_h")
    B_g, B_h = _as_int(B_g, "B_g"), _as_int(B_h, "B_h")
    for lo, hi in ((b_g, B_g), (b_h, B_h)):
        if not 1 <= lo <= hi:
            raise ValueError("need 1 <= b <= B for both factors")
    top = B_g + B_h
    return ProductIntervalPrediction(
        lower=max(b_g, b_h), upper_by_epsilon=(top, top - 1, top - 2)
    )


def measure_epsilon(
    prediction: ProductIntervalPrediction, m_set: SizeSet
) -> ProductIntervalPrediction:
    """Fill in the epsilon realized by a computed minimal-base spectrum.

    Checks that the spectrum is exactly one of the three predicted
    intervals; anything else is reported as an anomaly.
    """
    eps = prediction.upper_by_epsilon[0] - m_set.max
    if eps not in (0, 1, 2):
        raise ValueError(
            f"spectrum top {m_set.max} is not within 2 of {prediction.upper_by_epsilon[0]}"
        )
    if m_set != prediction.interval(eps):
        raise ValueError(
            f"spectrum {m_set} is not the interval "
            f"[{prediction.lower}, {prediction.upper_by_epsilon[eps]}]"
        )
    return ProductIntervalPrediction(
        prediction.lower, prediction.upper_by_epsilon, measured_epsilon=eps
    )


def predict_prodsym_M(n_list) -> SizeSet:
    """Minimal-base spectrum of a product of symmetric groups S_{n_1} x ... x S_{n_t}.

    {max_i (n_i - 1), ..., sum_i (n_i - 1) - t}; a single factor, of any
    degree n >= 2, degenerates to the singleton {n - 1}.  With several
    factors every degree must be at least 3: a factor S_2 takes the formula
    outside its range (for S_2 x S_3 it gives the empty set, where the
    spectrum is {2}).
    """
    ns = [_as_int(n, "degree") for n in n_list]
    if not ns or any(n < 2 for n in ns):
        raise ValueError("need at least one factor, all of degree >= 2")
    if len(ns) == 1:
        return SizeSet([ns[0] - 1])
    if min(ns) < 3:
        raise ValueError(f"with several factors every degree must be at least 3, got {ns}")
    lo = max(n - 1 for n in ns)
    hi = sum(n - 1 for n in ns) - len(ns)
    return SizeSet(range(lo, hi + 1))


def predict_product_I(i_list) -> int:
    """Longest irredundant base of a product action from the factors' values."""
    vals = [_as_int(i, "factor value") for i in i_list]
    if not vals or any(v < 1 for v in vals):
        raise ValueError("need at least one factor value, all >= 1")
    return sum(vals) - (len(vals) - 1)


def halasi_b(n: int, k: int) -> int:
    """Smallest base size of S_n on k-subsets when n >= k^2."""
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if k < 1:
        raise ValueError("k must be positive")
    if n < k * k:
        raise ValueError(f"outside validity range: need n >= k^2, got n={n}, k={k}")
    return math.ceil(2 * (n - 1) / (k + 1))


def gill_loda_I(n: int, k: int) -> int:
    """Longest irredundant base of S_n on k-subsets."""
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if not 1 <= k <= n // 2:
        raise ValueError("need 1 <= k <= n/2")
    return n - 1 if math.gcd(n, k) == 1 else n - 2


# Published smallest base sizes of S_13 and S_14 on k-subsets, used as
# constants; only section6_replay(recompute=True) recomputes them (the
# slow verify suite does not).
S13_B_TABLE = {1: 12, 2: 8, 3: 6, 4: 5, 5: 5, 6: 4}
S14_B_TABLE = {2: 9, 4: 6, 6: 5, 7: 4}


def section6_replay(recompute: bool = False, budget=None) -> dict:
    """Why no S_n on k-subsets has irredundant-base lengths {3, ..., 12}.

    The interval would force the longest irredundant base to 12, hence
    n = 13 (coprime case) or n = 14 (non-coprime case), and the smallest
    base size to 3; the tabulated smallest base sizes rule both out.  Table
    values are carried as published constants unless ``recompute`` is set,
    which re-derives them by search (slow).
    """

    def case(n: int, ks: list[int], table: dict[int, int]) -> dict:
        entries = []
        for k in ks:
            if recompute:
                from .bases import min_base_size
                from .constructions import k_subset_action

                b = min_base_size(k_subset_action(n, k), budget)
                source = "computed"
            else:
                b = table[k]
                source = "published"
            entry = {"k": k, "b": b, "source": source}
            if n >= k * k:
                entry["halasi_b"] = halasi_b(n, k)
            entries.append(entry)
        return {
            "n": n,
            "I_max": gill_loda_I(n, ks[0]),
            "required_b": 3,
            "entries": entries,
            "contradiction": all(e["b"] != 3 for e in entries),
        }

    coprime = case(13, [1, 2, 3, 4, 5, 6], S13_B_TABLE)
    non_coprime = case(14, [2, 4, 6, 7], S14_B_TABLE)
    realized = not (coprime["contradiction"] and non_coprime["contradiction"])
    return {
        "target_interval": list(range(3, 13)),
        "cases": [
            {"gcd": "coprime", **coprime},
            {"gcd": "non-coprime", **non_coprime},
        ],
        "verdict": "interval {3,...,12} not realized" if not realized else "inconclusive",
    }
