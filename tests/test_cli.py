import io
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basekit.cli import main
from basekit.constructions import _SPEC_FIELDS, MAX_SPEC_DEGREE, MAX_SPEC_DEPTH, build_group
from basekit.errors import SpecError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_analyze_json():
    code, out, err = run_cli(["analyze", '{"type":"sym","n":5}'])
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 5
    assert report["order"] == 120
    assert (report["b"], report["B"], report["Imax"]) == (4, 4, 4)
    assert report["M_set"] == [4] and report["I_set"] == [4]
    assert report["is_ibis"] and report["is_mibis"]
    assert report["exhaustive_cross_check"] == "match"
    assert report["anomalies"] == []
    assert "timing" not in report


def test_analyze_gl42():
    code, out, _ = run_cli(["analyze", '{"type":"gl42_planes"}'])
    assert code == 0
    report = json.loads(out)
    assert report["M_set"] == [4]
    assert report["I_set"] == [4, 5]
    assert report["is_mibis"] and not report["is_ibis"]


def test_analyze_theorem2():
    code, out, _ = run_cli(["analyze", '{"type":"theorem2","X":[1,3,5,7],"p":2}'])
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 182
    assert report["M_set"] == [1, 3, 5, 7]
    assert not report["I_is_interval"] is True or report["I_is_interval"]


def test_reports_are_byte_identical():
    _, out1, _ = run_cli(["analyze", '{"type":"theorem2","X":[1,3],"p":2}', "--witnesses"])
    _, out2, _ = run_cli(["analyze", '{"type":"theorem2","X":[1,3],"p":2}', "--witnesses"])
    assert out1 == out2


def test_analyze_witnesses_and_table():
    code, out, _ = run_cli(["analyze", '{"type":"sym","n":4}', "--witnesses"])
    report = json.loads(out)
    assert report["witnesses"]["minimal"]["3"] == [0, 1, 2]
    code, out, _ = run_cli(["analyze", '{"type":"sym","n":4}', "--table"])
    assert code == 0
    assert "M set" in out


def test_exit_code_2_on_bad_spec():
    for bad in ['{"type":"nope"}', "{broken json", "/nonexistent/path.json", '{"type":"sym"}',
                # a non-positive ceiling used to exit 3, as if the budget had run out
                '{"type":"wreath_coset","n":3,"k":2,"max_index":0}',
                '{"type":"wreath_coset","n":3,"k":2,"max_index":-5}',
                # a point count past the machine's index range
                '{"type":"cyclic_regular","p":100000000000000000000000}',
                # a field the type does not take, at the top or in a factor,
                # used to be ignored (here running with max_index 5000)
                '{"type":"wreath_coset","n":4,"k":2,"max_idx":10}',
                '{"type":"gl42_planes","n":4}',
                '{"type":"disjoint_product","factors":[{"type":"sym","n":3,"k":2},{"type":"sym","n":2}]}',
                # a tag that is not a JSON boolean
                '{"type":"sym","n":3,"product_indecomposable":"false"}',
                '{"type":["sym"],"n":3}']:
        code, out, err = run_cli(["analyze", bad])
        assert code == 2, bad
        assert out == "" and err.startswith("error: ") and "Traceback" not in err, err


def test_unknown_spec_field_is_named():
    with pytest.raises(SpecError, match="'wreath_coset' has no field 'max_idx'.*'max_index'"):
        build_group({"type": "wreath_coset", "n": 4, "k": 2, "max_idx": 10})
    # every documented field, and the tag on any type, is accepted
    G, _ = build_group({"type": "theorem2", "X": [1, 3], "p": 2, "product_indecomposable": False})
    assert G.degree == 14


NON_INTEGER_SPECS = {
    "sym-float": '{"type":"sym","n":4.7}',
    "sym-integral-float": '{"type":"sym","n":4.0}',
    "sym-string": '{"type":"sym","n":"4"}',
    "sym-bool": '{"type":"sym","n":true}',
    "theorem2-float-entry": '{"type":"theorem2","X":[1.5,3]}',
    "theorem2-bool-entry": '{"type":"theorem2","X":[1,true]}',
    "theorem2-string-X": '{"type":"theorem2","X":"13"}',
    "theorem2-float-p": '{"type":"theorem2","X":[1,3],"p":2.5}',
    "wreath-float-max-index": '{"type":"wreath_coset","n":4,"k":2,"max_index":5000.9}',
    "product-string-factors": '{"type":"disjoint_product","factors":"ab"}',
    "explicit-float-images": '{"type":"explicit","degree":3,"generators":[[1.5,0.2,2]]}',
    "explicit-string-images": '{"type":"explicit","degree":3,"generators":[["1","0","2"]]}',
    "explicit-bool-images": '{"type":"explicit","degree":3,"generators":[[true,false,2]]}',
    "explicit-float-degree": '{"type":"explicit","degree":3.0,"generators":[[1,0,2]]}',
}


@pytest.mark.parametrize("spec", NON_INTEGER_SPECS.values(), ids=NON_INTEGER_SPECS.keys())
def test_exit_code_2_on_non_integer_spec_values(spec):
    code, out, err = run_cli(["analyze", spec])
    assert code == 2, spec
    assert out == "" and err.startswith("error"), err


def _nested_disjoint_product(levels):
    leaf = '{"type":"cyclic_regular","p":2}'
    return '{"type":"disjoint_product","factors":[' * levels + leaf + (',' + leaf + ']}') * levels


def test_exit_code_2_on_deeply_nested_spec(tmp_path):
    # 1200 levels overflow the JSON decoder, 40 pass it but exceed the spec depth limit
    for levels in (1200, MAX_SPEC_DEPTH + 8):
        path = tmp_path / f"nested{levels}.json"
        path.write_text(_nested_disjoint_product(levels))
        code, out, err = run_cli(["analyze", str(path)])
        assert code == 2, levels
        assert out == ""
        assert err.startswith("error") and "internal" not in err, err


def test_spec_depth_limit_is_inclusive():
    G, _ = build_group(json.loads(_nested_disjoint_product(MAX_SPEC_DEPTH - 1)))
    assert G.degree == 2 * MAX_SPEC_DEPTH and G.order() == 2**MAX_SPEC_DEPTH
    with pytest.raises(SpecError):
        build_group(json.loads(_nested_disjoint_product(MAX_SPEC_DEPTH)))


_HUGE = st.integers(MAX_SPEC_DEGREE + 1, 10**30)
_OVERSIZED_LEAVES = st.one_of(
    st.builds(lambda n: {"type": "sym", "n": n}, _HUGE),
    st.builds(lambda p: {"type": "cyclic_regular", "p": p}, _HUGE),
    st.builds(lambda p, d: {"type": "elem_abelian_regular", "p": p, "d": d},
              st.sampled_from([2, 3, 5]), st.integers(21, 10**18)),
    st.builds(lambda p, d: {"type": "elem_abelian_regular", "p": p, "d": d},
              _HUGE, st.integers(1, 10**18)),
    st.builds(lambda xs, x, p: {"type": "theorem2", "X": xs + [x], "p": p},
              st.lists(st.integers(1, 30), max_size=3), _HUGE, st.sampled_from([2, 3])),
    st.builds(lambda n, k: {"type": "k_subsets", "n": n, "k": k}, _HUGE, st.integers(1, 10**6)),
)
_SMALL_FACTORS = st.sampled_from([{"type": "sym", "n": 3}, {"type": "cyclic_regular", "p": 2}])


@st.composite
def _oversized_specs(draw, depth=2):
    # one oversized leaf, or factors holding one, or factors each small
    # enough alone whose product action is not
    kind = draw(st.sampled_from(["leaf", "factors", "product"] if depth else ["leaf"]))
    if kind == "leaf":
        return draw(_OVERSIZED_LEAVES)
    if kind == "product":
        ns = draw(st.lists(st.integers(1025, 4000), min_size=2, max_size=3))
        return {"type": "product_action", "factors": [{"type": "sym", "n": n} for n in ns]}
    factors = draw(st.lists(_SMALL_FACTORS, max_size=2))
    factors.insert(draw(st.integers(0, len(factors))), draw(_oversized_specs(depth - 1)))
    if len(factors) < 2:
        factors.append(draw(_SMALL_FACTORS))
    t = draw(st.sampled_from(["disjoint_product", "product_action"]))
    return {"type": t, "factors": factors}


@example({"type": "theorem2", "X": [1, 40]})
@example({"type": "elem_abelian_regular", "p": 2, "d": 40})
@given(_oversized_specs())
def test_exit_code_2_on_oversized_spec(spec):
    # refused from the spec's fields, before any array of that degree exists
    code, out, err = run_cli(["analyze", json.dumps(spec)])
    assert code == 2, spec
    assert out == "" and err.startswith("error: ") and "Traceback" not in err, err
    assert f"more than {MAX_SPEC_DEGREE} points" in err


def test_spec_degree_ceiling_is_inclusive():
    assert build_group({"type": "cyclic_regular", "p": MAX_SPEC_DEGREE})[0].degree == MAX_SPEC_DEGREE
    with pytest.raises(SpecError, match="more than"):
        build_group({"type": "cyclic_regular", "p": MAX_SPEC_DEGREE + 1})


@pytest.mark.parametrize("argv,message", [
    (['{"type":"sym","n":6}', "--budget", "2"], "budget"),
    # the index n!*n*k has some 77,000 digits: refused before it is formed
    (['{"type":"wreath_coset","n":20000,"k":2}'], "exceeds the configured ceiling 5000"),
], ids=["search-budget", "coset-ceiling"])
def test_exit_code_3_on_budget(argv, message):
    code, out, err = run_cli(["analyze", *argv])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ["analyze", '{"type":"sym","n":4}'],
    ["verify", "gl42"],
    ["probe-epsilon", '{"type":"sym","n":3}', '{"type":"sym","n":3}'],
], ids=["analyze", "verify", "probe-epsilon"])
def test_exit_code_2_on_negative_budget(argv):
    code, out, err = run_cli(argv + ["--budget", "-1"])
    assert code == 2
    assert out == ""
    assert "budget" in err and "internal" not in err


def test_exit_code_4_on_internal_error(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stabilizer chain order 5 != expected 6")

    monkeypatch.setattr("basekit.cli.minimal_base_sizes", broken)
    code, out, err = run_cli(["analyze", '{"type":"sym","n":3}'])
    assert code == 4
    assert out == ""
    assert err == "error: internal: stabilizer chain order 5 != expected 6\n"
    assert "Traceback" not in err


def test_exit_code_2_on_unknown_suite():
    code, _, _ = run_cli(["verify", "nonsense"])
    assert code == 2


def test_verify_gl42():
    code, out, _ = run_cli(["verify", "gl42"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert any("M == {4}" in c["check"] for c in doc["checks"])


def test_verify_section5_reports_known_defect():
    code, out, _ = run_cli(["verify", "section5"])
    assert code == 1
    doc = json.loads(out)
    failing = [c for c in doc["checks"] if not c["passed"]]
    assert len(failing) == 1
    assert failing[0]["computed"] == [2, 3]


def test_verify_table_rendering():
    code, out, _ = run_cli(["verify", "thm2", "--table"])
    assert code == 0
    assert "suite thm2: pass" in out


def test_probe_epsilon():
    code, out, _ = run_cli(
        ["probe-epsilon", '{"type":"sym","n":3}', '{"type":"sym","n":3}']
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["measured_epsilon"] == 2
    assert doc["prediction"]["lower"] == 2
    assert doc["anomalies"] == []


@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
def test_probe_epsilon_reports_an_unpredicted_spectrum_as_an_anomaly(tagged):
    # theorem2 {1,4} times a regular C3 has M = {1, 4}: none of the three
    # predicted intervals, so a detected anomaly (exit 1), not a spec error
    a = {"type": "theorem2", "X": [1, 4]}
    b = {"type": "cyclic_regular", "p": 3}
    if tagged:
        a["product_indecomposable"], b["product_indecomposable"] = True, False
    code, out, err = run_cli(["probe-epsilon", json.dumps(a), json.dumps(b)])
    assert code == 1
    assert "error" not in err and "Traceback" not in err
    doc = json.loads(out)
    assert doc["M_set"] == [1, 4] and doc["measured_epsilon"] is None
    assert doc["anomalies"] == ["spectrum SizeSet({1, 4}) is not the interval [1, 4]"]
    if tagged:
        assert doc["conjectured_epsilon"] == 1 and doc["matches_conjecture"] is False
    else:
        assert "matches_conjecture" not in doc


def test_probe_epsilon_with_conjecture_tags():
    a = '{"type":"sym","n":3,"product_indecomposable":true}'
    b = '{"type":"sym","n":3,"product_indecomposable":true}'
    code, out, _ = run_cli(["probe-epsilon", a, b])
    assert code == 0
    doc = json.loads(out)
    assert doc["conjectured_epsilon"] == 2
    assert doc["matches_conjecture"] is True


def test_probe_epsilon_rejects_non_boolean_tags():
    # the string "false" is truthy: it used to count as a true tag and report
    # conjectured_epsilon 2 and matches_conjecture true
    a = '{"type":"sym","n":3,"product_indecomposable":"false"}'
    code, out, err = run_cli(["probe-epsilon", a, a])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "product_indecomposable" in err


def test_analyze_table_renders_witnesses():
    code, out, _ = run_cli(["analyze", '{"type":"gl42_planes"}', "--table", "--witnesses"])
    assert code == 0
    _, doc, _ = run_cli(["analyze", '{"type":"gl42_planes"}', "--witnesses"])
    witnesses = json.loads(doc)["witnesses"]
    rows = [line.split(None, 3) for line in out.splitlines() if " witness " in line]
    assert [(tag, size) for tag, _, size, _ in rows] == [("M", "4"), ("I", "4"), ("I", "5")]
    assert [json.loads(w) for *_, w in rows] == [
        witnesses["minimal"]["4"], witnesses["irredundant"]["4"], witnesses["irredundant"]["5"]
    ]
    code, out, _ = run_cli(["analyze", '{"type":"gl42_planes"}', "--table"])
    assert " witness " not in out


@pytest.mark.parametrize("p", [1100, MAX_SPEC_DEGREE])
def test_probe_epsilon_refuses_an_oversized_product(p):
    # each factor is within the ceiling, their product action is not: p = 1100
    # used to search 1,210,000 points, p = 2^20 to fail allocating 4 TiB
    factor = json.dumps({"type": "cyclic_regular", "p": p})
    code, out, err = run_cli(["probe-epsilon", factor, factor])
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err, err
    assert f"more than {MAX_SPEC_DEGREE} points" in err


def test_probe_epsilon_product_factors():
    a = '{"type":"product_action","factors":[{"type":"sym","n":3},{"type":"sym","n":3}]}'
    code, out, _ = run_cli(["probe-epsilon", a, a])
    assert code == 0
    assert json.loads(out)["measured_epsilon"] == 0


def test_analyze_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"type":"sym","n":3}'))
    code, out, _ = run_cli(["analyze", "-"])
    assert code == 0
    assert json.loads(out)["order"] == 6


# -- the spec fuzzer ---------------------------------------------------------

# sizes are small or past the degree ceiling: a size in between is only a
# slow valid spec, and the fuzzer looks for undefined failures, not for cost
_SCALARS = st.one_of(
    st.integers(-2, 5),
    st.integers(MAX_SPEC_DEGREE + 1, 10**40),
    st.integers(-10**40, -10**20),
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
)
_JUNK = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                  st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2))


@st.composite
def _fuzzed_specs(draw, depth=2):
    # every known type, an unknown one or a junk value as the type; each
    # field present or missing, with a fitting or a junk value; now and
    # then a field the type does not take, or no type at all.  Each rare
    # choice is one in ``n``, so many documents still reach a search.
    def rarely(n=4):
        return draw(st.integers(1, n)) == 1

    types = sorted(_SPEC_FIELDS) + ["nonsense"]
    t = draw(_SCALARS) if rarely(8) else draw(st.sampled_from(types))
    spec = {"type": t}
    fitting = {
        "X": st.lists(st.integers(-1, 5), max_size=4),
        "generators": st.lists(st.permutations(range(draw(st.integers(1, 5)))), max_size=3),
        "factors": st.lists(_fuzzed_specs(depth - 1), max_size=3) if depth else _JUNK,
        "product_indecomposable": st.booleans(),
    }
    fields = _SPEC_FIELDS.get(t, ("n", "p")) if isinstance(t, str) else ()
    for key in fields + ("product_indecomposable",):
        if not rarely():
            spec[key] = draw(_JUNK if rarely() else fitting.get(key, st.integers(-1, 5)))
    if rarely(8):
        spec[draw(st.text(max_size=3))] = draw(_JUNK)
    if rarely(8):
        del spec["type"]
    return spec


@settings(max_examples=300)
@given(_fuzzed_specs())
def test_fuzzed_specs_end_in_a_defined_exit_code(spec):
    code, out, err = run_cli(["analyze", json.dumps(spec), "--budget", "2000"])
    assert code in (0, 1, 2, 3), (spec, err)
    assert "Traceback" not in err, err
