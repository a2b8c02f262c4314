import pytest

from basekit import (
    SizeSet,
    gill_loda_I,
    halasi_b,
    irredundant_base_sizes,
    k_subset_action,
    measure_epsilon,
    min_base_size,
    minimal_base_sizes,
    predict_product_I,
    predict_prodsym_M,
    predict_thm41,
    product_action,
    section6_replay,
    symmetric,
)
from basekit.formulas import S13_B_TABLE, S14_B_TABLE


def test_predict_thm41():
    pred = predict_thm41(2, 2, 2, 2)
    assert pred.lower == 2
    assert pred.upper_by_epsilon == (4, 3, 2)
    assert pred.interval(2) == SizeSet([2])
    assert pred.interval(0) == SizeSet([2, 3, 4])
    with pytest.raises(ValueError):
        predict_thm41(3, 1, 2, 2)
    # 1.5 used to give lower=2, upper_by_epsilon=(7, 6, 5)
    for bad in ((1.5, 2, 3, 4), (2, True, 3, 4), (2, 2, "3", 4), (2, 2, 3, 4.0)):
        with pytest.raises(ValueError, match="not an integer"):
            predict_thm41(*bad)


def test_measure_epsilon():
    pred = predict_thm41(2, 2, 2, 2)
    assert measure_epsilon(pred, SizeSet([2])).measured_epsilon == 2
    assert measure_epsilon(pred, SizeSet([2, 3])).measured_epsilon == 1
    assert measure_epsilon(pred, SizeSet([2, 3, 4])).measured_epsilon == 0
    with pytest.raises(ValueError):
        measure_epsilon(pred, SizeSet([2, 4]))  # not an interval
    with pytest.raises(ValueError):
        measure_epsilon(pred, SizeSet([1, 2]))


def test_measured_epsilon_trio():
    h = product_action(symmetric(3), symmetric(3))
    assert measure_epsilon(predict_thm41(2, 2, 2, 2), minimal_base_sizes(h)).measured_epsilon == 2
    hh = product_action(h, h)
    assert measure_epsilon(predict_thm41(2, 2, 2, 2), minimal_base_sizes(hh)).measured_epsilon == 0
    s4h = product_action(symmetric(4), h)
    assert measure_epsilon(predict_thm41(3, 2, 3, 2), minimal_base_sizes(s4h)).measured_epsilon == 1


def test_predict_prodsym():
    assert predict_prodsym_M([3, 3]).to_list() == [2]
    assert predict_prodsym_M([3, 3, 3, 3]).to_list() == [2, 3, 4]
    assert predict_prodsym_M([4, 4, 4]).to_list() == [3, 4, 5, 6]
    assert predict_prodsym_M([5]).to_list() == [4]
    assert predict_prodsym_M([2]).to_list() == [1]
    # S2 x S3, S2 x S2 and S2 x S5 have the searched spectra {2}, {1} and
    # {4}; the formula gave no size and raised "a size set cannot be empty"
    for degrees in ([2, 3], [2, 2], [2, 5], [4, 3, 2]):
        with pytest.raises(ValueError, match="with several factors every degree must be at least 3"):
            predict_prodsym_M(degrees)
    with pytest.raises(ValueError):
        predict_prodsym_M([])
    with pytest.raises(ValueError):
        predict_prodsym_M([3, 1])
    # 3.7 used to truncate to 3
    for bad in ([3.7, 4], [True, 3], ["3"]):
        with pytest.raises(ValueError, match="not an integer"):
            predict_prodsym_M(bad)


def test_predict_prodsym_matches_search():
    for ns in ([3, 3], [4, 4], [3, 4]):
        G = product_action(*[symmetric(n) for n in ns])
        assert minimal_base_sizes(G) == predict_prodsym_M(ns)


def test_predict_product_I():
    assert predict_product_I([2, 2]) == 3
    assert predict_product_I([3, 3, 3]) == 7
    assert predict_product_I([6]) == 6
    with pytest.raises(ValueError):
        predict_product_I([])
    for bad in ([2.5, 3], [True, 3], ["2"]):
        with pytest.raises(ValueError, match="not an integer"):
            predict_product_I(bad)


def test_halasi():
    assert halasi_b(9, 2) == 6
    assert halasi_b(16, 4) == 6
    assert halasi_b(13, 1) == 12
    assert halasi_b(13, 2) == 8
    assert halasi_b(13, 3) == 6
    with pytest.raises(ValueError):
        halasi_b(13, 6)
    # halasi_b(9.5, 2) used to be 6
    for n, k in ((9.5, 2), (9, 2.0), (9, True)):
        with pytest.raises(ValueError, match="not an integer"):
            halasi_b(n, k)


def test_halasi_matches_search():
    for n, k in ((4, 2), (5, 2), (6, 2), (9, 2)):
        if n >= k * k:
            assert halasi_b(n, k) == min_base_size(k_subset_action(n, k))


def test_gill_loda():
    assert gill_loda_I(7, 2) == 6
    assert gill_loda_I(6, 2) == 4
    for k in (1, 2, 3, 4, 5, 6):
        assert gill_loda_I(13, k) == 12
    with pytest.raises(ValueError):
        gill_loda_I(5, 3)
    for n, k in ((9.5, 2), (9, True)):
        with pytest.raises(ValueError, match="not an integer"):
            gill_loda_I(n, k)


def test_gill_loda_matches_search():
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (8, 2)):
        assert gill_loda_I(n, k) == irredundant_base_sizes(k_subset_action(n, k)).max


@pytest.mark.slow
def test_section6_replay_recomputes_the_published_tables():
    # every tabulated smallest base size re-derived by min_base_size
    report = section6_replay(recompute=True)
    for case, table in zip(report["cases"], (S13_B_TABLE, S14_B_TABLE)):
        assert all(e["source"] == "computed" for e in case["entries"])
        assert {e["k"]: e["b"] for e in case["entries"]} == table
    assert report["verdict"] == "interval {3,...,12} not realized"


def test_section6_replay():
    report = section6_replay()
    assert report["verdict"] == "interval {3,...,12} not realized"
    coprime, non_coprime = report["cases"]
    assert coprime["n"] == 13 and non_coprime["n"] == 14
    by_k = {e["k"]: e["b"] for e in coprime["entries"]}
    assert by_k == {1: 12, 2: 8, 3: 6, 4: 5, 5: 5, 6: 4}
    by_k = {e["k"]: e["b"] for e in non_coprime["entries"]}
    assert by_k == {2: 9, 4: 6, 6: 5, 7: 4}
    assert coprime["contradiction"] and non_coprime["contradiction"]
    # quoted values marked as published constants
    for case in report["cases"]:
        assert all(e["source"] == "published" for e in case["entries"])
    # where the ceiling formula applies, it corroborates the published value
    for case in report["cases"]:
        for e in case["entries"]:
            if "halasi_b" in e:
                assert e["halasi_b"] == e["b"]
