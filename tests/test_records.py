"""The JSON form of the six result records: key order, round trips, defaults
for optional keys, errors for missing required keys, and ``dumps`` writing
the bytes of ``json.dumps(indent=2)``."""

import datetime
import enum
import json
import math
import subprocess
import sys
import uuid
from collections import Counter, OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_lab import records
from orlicz_lab.classify import (
    EVIDENCE_LABEL,
    ConditionEvidence,
    InjectionReport,
    QuotientEstimate,
    classify_injection,
)
from orlicz_lab.domains import disk
from orlicz_lab.functions import PowerFunction, build_counterexample, parse_function_spec
from orlicz_lab.grids import GrowthSampleGrid
from orlicz_lab.norms import NormResult, bergman_norm
from orlicz_lab.records import dumps
from orlicz_lab.suites import CheckRecord, SuiteReport, suite_carleson_window
from orlicz_lab.witnesses import make_monomial

NORM_KEYS = ["value", "bracket", "modular_at_value", "bisection_iters",
             "quad_error_est", "converged", "argmax_radius", "flags"]
CHECK_KEYS = ["description", "statement", "lhs", "rhs", "relation", "margin",
              "passed", "extra"]
SUITE_KEYS = ["suite_name", "config", "checks", "overall_pass", "notes"]
CONDITION_KEYS = ["condition", "holds", "witness", "trend_slope", "detail"]
QUOTIENT_KEYS = ["a", "ratio_log", "tail_sup", "trend", "detail"]
INJECTION_KEYS = ["function_label", "function_spec", "grid_info", "q_a_table",
                  "conditions", "verdict", "consequences", "evidence_label", "notes"]

CHECK = CheckRecord("norm floor", "a statement", 0.25, 0.125, ">=", 0.125, True,
                    extra={"norm_bracket": [0.25, 0.25], "h": 0.5})
CONDITION = ConditionEvidence("delta0", "yes", ((1.5, -0.25), (2.5, 0.75)), 0.5, "beta=2")
QUOTIENT = QuotientEstimate(2.0, ((0.0, -1.0), (1.0, -2.5)), 0.5, "bounded",
                            "dropped 1 anchor(s) beyond trusted range")


@pytest.fixture(scope="module")
def injection():
    return classify_injection(build_counterexample(4))


@pytest.fixture(scope="module")
def suite():
    return suite_carleson_window(h_grid=(0.5,))


@pytest.fixture(scope="module")
def norm():
    return bergman_norm(make_monomial(3), PowerFunction(2), dom=disk(32, 32))


def test_key_order(injection, suite, norm):
    assert list(norm.to_dict()) == NORM_KEYS
    assert list(CHECK.to_dict()) == CHECK_KEYS
    assert list(suite.to_dict()) == SUITE_KEYS
    assert list(suite.to_dict()["checks"][0]) == CHECK_KEYS
    assert list(CONDITION.to_dict()) == CONDITION_KEYS
    assert list(QUOTIENT.to_dict()) == QUOTIENT_KEYS
    d = injection.to_dict()
    assert list(d) == INJECTION_KEYS
    assert [list(q) for q in d["q_a_table"]] == [QUOTIENT_KEYS] * len(injection.q_a_table)
    assert [list(c) for c in d["conditions"]] == [CONDITION_KEYS] * len(injection.conditions)


@pytest.mark.parametrize("record", [CHECK, CONDITION, QUOTIENT], ids=lambda r: type(r).__name__)
def test_round_trip(record):
    again = type(record).from_json(record.to_json())
    assert again == record
    assert again.to_json() == record.to_json()


def _without(record, key):
    d = record.to_dict()
    del d[key]
    return d


@pytest.mark.parametrize("cls, key, default", [
    (NormResult, "argmax_radius", None),
    (NormResult, "flags", ()),
    (CheckRecord, "extra", {}),
    (SuiteReport, "notes", ()),
    (ConditionEvidence, "witness", ()),
    (ConditionEvidence, "trend_slope", 0.0),
    (ConditionEvidence, "detail", ""),
    (QuotientEstimate, "detail", ""),
    (InjectionReport, "evidence_label", EVIDENCE_LABEL),
    (InjectionReport, "notes", ()),
])
def test_omitted_optional_key_takes_default(cls, key, default, injection, suite, norm):
    record = {NormResult: norm, CheckRecord: CHECK, SuiteReport: suite,
              ConditionEvidence: CONDITION, QuotientEstimate: QUOTIENT,
              InjectionReport: injection}[cls]
    assert getattr(cls.from_dict(_without(record, key)), key) == default


def test_missing_required_key_raises(injection, suite, norm):
    for record, key in ((norm, "value"), (CHECK, "passed"), (suite, "checks"),
                        (CONDITION, "holds"), (QUOTIENT, "ratio_log"),
                        (injection, "verdict")):
        with pytest.raises(KeyError, match=key):
            type(record).from_dict(_without(record, key))
    d = injection.to_dict()
    del d["q_a_table"][0]["tail_sup"]
    with pytest.raises(KeyError, match="tail_sup"):
        InjectionReport.from_dict(d)


EDGE_CASES = [
    math.nan, math.inf, -math.inf, -0.0, 0, 7, 1e300, 5e-324, True, False, None, "",
    [], {}, (), [[]], [[], []], [[1.0], []], [[1.0, 2.0], [3.0]], [[1.0, [2.0]]],
    [[1.0, [2.0]], 3.0], [[[1.0]]], [[{}]], [[{}, 1.0], [2.0]], [[{"a": 1}]], [[math.nan, -math.inf], [-0.0, math.inf]],
    [[True, None], [False, 1]], ["], [", "[1, 2]"], [["], [", 1.0]], [["a, b", 1.0]], [[1.0], [2.0], [3.0]],
    ((1.5, -0.25), (2.5, 0.75)), [[1, 2], (3, 4)], "\u00e9\u2203 \U0001d4d7", "a\nb\t\"c\"\\",
    {"\u00e9\n": {"x": [], "y": {}}}, {"rows": [[1.0, 2.0]], "nested": {"rows": [[3.0]]}},
    {1: "int", 2.5: "float", True: "bool", None: "none"}, {"s": 1, 3: [{0.5: [[1.0]]}]},
    [{-0.0: 1, math.inf: 2, math.nan: 3}],
]
Pair = namedtuple("Pair", "x y")
# the orjson path for arrays of numbers, and the arrays that must leave it
EDGE_CASES += [
    [Pair(1.0, 2.0), Pair(3.0, 4.0)], (Pair(1.0, 2.0), [3.0, 4.0]), [Pair(1, 2.0)],
    {"p": Pair(0.5, math.nan)},
    OrderedDict([("rows", [[1.0, 2.0], [3.0, 4.0]]), ("a", 1.0)]), OrderedDict(),
    [[np.float64(1.5), np.float64(-0.0)], [np.float64(1e16), np.float64(math.inf)]],
    {"t": [(np.float64(2.5), np.float64(1e-05))]},
    [[1.0, 2.0], (3.0, 4.0), [5.0, 6.0]], ([1.0], (2.0,)),
    [[1e16, 1e-05], [5e-324, -0.0]], [[-1e16, 1e-300, 2.5e-08, 1.7976931348623157e308]],
] + [[[a, 1.0], [2.0, b]] for a, b in ((math.nan, 3.0), (3.0, math.nan), (math.inf, 3.0),
                                     (3.0, math.inf), (-math.inf, 3.0), (3.0, -math.inf))]
# columns repeated across tables and within one, signed zeros, and int or
# bool columns equal to a float column
EDGE_CASES += [
    {"a": [[1.5, 2.0], [2.5, 3.0]], "b": [[1.5, 7.0], [2.5, 8.0]], "c": [[9.0, 1.5], [9.5, 2.5]]},
    {"a": [[0.0, 1.0], [1.0, 2.0]], "b": [[-0.0, 1.0], [1.0, 2.0]]},
    {"a": [[-0.0, 0.0], [0.0, -0.0]], "b": [[0.0, -0.0], [-0.0, 0.0]], "c": [[-0.0, 0.0]]},
    {"a": [[1.0, 2.0]], "b": [[1, 2]]}, {"a": [[1.0], [0.0]], "b": [[True], [False]]},
    {"a": [[1.0], [2.0]], "b": [[1], [2.0]], "c": [[1.0], [2]]},
    {"a": [[math.nan, 1.0]], "b": [[math.nan, 1.0]]},
    {"a": [[float("nan"), 1.0]], "b": [[float("nan"), 1.0]], "c": [[2.0, 1.0]]},
    {"a": [[1.0], [2.0], [3.0]], "b": [[1.0], [2.0]], "c": [[1.0], [2.0], [3.0]]},
    {"a": [[1.0, 5.0], [2.0, 6.0]], "b": [[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]]},
]


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 40


class Scale(float, enum.Enum):
    HALF = 0.5
    BAND = 2.5e-05
    HUGE = 1e16


def _nested(depth, leaf):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


# orjson spells these unlike float.__repr__: the 1e-5 <= |x| < 1e-4 band (on
# both sides of each end), the scientific threshold, one-digit exponents and
# the extremes; ints at orjson's 64-bit limits (2**64 is refused and walked),
# enum cells, and a nesting past orjson's 255 levels
EDGE_CASES += [
    [1e-05, -1e-05], [9.999999999999999e-05, -9.999999999999999e-05], [0.0001, -0.0001],
    [2.5e-05, -2.5e-05], [[9.99999e-06, 1e-05], [1.00001e-05, 10.00001]],
    [0.00010000000000000002, 1.0000000000000001e-05, 0.000123, 100.00001, -10.000025],
    [9999999999999998.0, -9999999999999998.0], [1e16, -1e16], [1e22, -1e22], [1.5e16, 1.5e-16],
    [1e-07, -1e-07], [5e-324, -5e-324], [1.7976931348623157e308, -1.7976931348623157e308],
    [1e-06, 9e-09, 1.5e-10, 2.2250738585072014e-308, 1e100, 1e-100],
    [2 ** 63, 2 ** 64 - 1, -2 ** 63], [2 ** 64, 2.5e-05], [[1.0], [-2 ** 63 - 1]],
    [Level.LOW, Level.HIGH, 3], [[Scale.HALF, Scale.BAND], [Scale.HUGE, 1.0]], (Level.LOW, Scale.BAND),
    pytest.param(_nested(299, [1.5, 2.5e-05, 1e16, -1e-07]), id="floats-nested-300-deep"),
    pytest.param(_nested(299, [1.0, math.nan]), id="nan-nested-300-deep"),
]
_bits = np.random.default_rng(2025).integers(0, 2 ** 64, size=120_000, dtype=np.uint64).view(np.float64)
EDGE_CASES += [pytest.param(_bits[np.isfinite(_bits)][:100_000].reshape(-1, 2).tolist(),
                            id="rows50000x2-random-bit-patterns")]
EDGE_CASES += [pytest.param([[i / 7.0, -i * 1e-3] for i in range(1000)], id="rows1000x2"),
               pytest.param({"a": [(i * 0.5, math.inf if i == 999 else 1.0) for i in range(1000)]},
                            id="rows1000x2-last-inf"),
               # no table anywhere: a long walk of small pieces
               pytest.param({f"k{i}": {"v": i / 3.0, "s": "x" * 30} for i in range(300)},
                            id="dict300-no-tables")]


@pytest.mark.parametrize("value", EDGE_CASES, ids=repr)
def test_dumps_matches_indented_json(value):
    assert dumps(value) == json.dumps(value, indent=2)


@dataclass
class Empty:
    pass


def test_dumps_rejects_what_json_rejects():
    # orjson writes a dataclass (an empty one as {}), a date and a UUID itself
    for bad in ({(1, 2): 3}, [[1.0, object()]], {"a": [{"b": {1.0, 2.0}}]},
                [np.array([1.0, 2.0])], [[1.0, np.array([2.0])]], [Empty()], [1.0, [Empty()]],
                [datetime.date(2020, 1, 1)], [uuid.UUID(int=1)]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            dumps(bad)


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_rows = st.one_of(
    st.lists(st.lists(st.one_of(st.floats(), st.integers()), min_size=1, max_size=4),
             min_size=1, max_size=4),
    # float-only tables of one width, the repr path (nan and inf included)
    st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(st.floats(), min_size=width, max_size=width).map(tuple) |
        st.lists(st.floats(), min_size=width, max_size=width), min_size=1, max_size=6)),
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    st.one_of(_scalars, _rows),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=25,
))
def test_dumps_matches_indented_json_property(value):
    assert dumps(value) == json.dumps(value, indent=2)


# weighted toward the values orjson spells unlike repr: the positional band
# 1e-5 <= |x| < 1e-4, the 1e16 threshold and one-digit negative exponents
_respelled = st.one_of(st.floats(1e-5, 1e-4), st.floats(-1e-4, -1e-5), st.floats(1e15, 1e17),
                       st.floats(1e-10, 1e-6), st.floats(allow_nan=False), st.floats())


@settings(max_examples=300, deadline=None)
@given(st.recursive(st.lists(_respelled, min_size=1, max_size=8),
                    lambda inner: st.lists(inner, min_size=1, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=8))
def test_dumps_matches_indented_json_in_orjsons_other_spellings(value):
    assert dumps(value) == json.dumps(value, indent=2)


@st.composite
def _tables_sharing_a_column(draw):
    """A document of tables that reuse one drawn float column: whole, as a
    prefix, with the signs of its zeros flipped, or with ints or bools for
    its integral cells, as either column of a two-column table."""
    col = draw(st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1.0]), min_size=1, max_size=5))
    variants = [col, col[:-1] or col, [-x if x == 0 else x for x in col],
                [int(x) if math.isfinite(x) and x.is_integer() else x for x in col],
                [bool(x) if x in (0.0, 1.0) else x for x in col]]
    doc = {}
    for i in range(draw(st.integers(2, 5))):
        shared = draw(st.sampled_from(variants))
        other = draw(st.lists(st.floats(), min_size=len(shared), max_size=len(shared)))
        pair = (shared, other) if draw(st.booleans()) else (other, shared)
        doc[f"t{i}"] = [list(row) for row in zip(*pair)]
    return doc


@settings(max_examples=300, deadline=None)
@given(_tables_sharing_a_column())
def test_dumps_matches_indented_json_with_shared_columns(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_a_classification_table_costs_no_repr_call(monkeypatch):
    # every table of a dense classification goes through orjson: float.__repr__
    # writes only the floats that are dict values
    psi = parse_function_spec({"family": "power", "p": 2.5})
    report = classify_injection(psi, GrowthSampleGrid.default_for(psi))

    def floats(v, in_table=False):
        """The floats in a table and the floats that are dict values."""
        if isinstance(v, dict):
            return sum((floats(x) for x in v.values()), start=Counter())
        if isinstance(v, (list, tuple)):
            return sum((floats(x, True) for x in v), start=Counter())
        return Counter({"table" if in_table else "scalar": isinstance(v, float)})

    calls, real_repr = [0], records._repr

    def counting(x):
        calls[0] += 1
        return real_repr(x)

    d = report.to_dict()
    monkeypatch.setattr(records, "_repr", counting)
    text = report.to_json()
    monkeypatch.undo()
    assert text == json.dumps(d, indent=2)
    counts = floats(d)
    assert counts["table"] > 4 * 200  # the four ratio_log tables at least
    assert calls[0] == counts["scalar"]


def test_a_plain_enum_in_an_array_is_written_by_its_value():
    # the one place dumps parts from json.dumps, which refuses a plain Enum
    class Colour(enum.Enum):
        RED = 1

    assert dumps({"c": [Colour.RED, 2.5]}) == '{\n  "c": [\n    1,\n    2.5\n  ]\n}'
    with pytest.raises(TypeError):
        json.dumps([Colour.RED], indent=2)


def test_importing_the_package_leaves_orjson_unloaded():
    # orjson is loaded by the first array dumps writes, not by the import
    code = "import sys, orlicz_lab, orlicz_lab.cli; print('orjson' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": records.__file__.rsplit("/orlicz_lab/", 1)[0]})
    assert out.stdout.strip() == "False"
    assert dumps([1.0]) and "orjson" in sys.modules


def test_record_json_is_indented_json(injection, suite, norm):
    for record in (injection, suite, norm, CHECK, CONDITION, QUOTIENT):
        assert record.to_json() == json.dumps(record.to_dict(), indent=2)


@pytest.mark.parametrize("spec", [{"family": "power", "p": 2.5},
                                  {"family": "paper_counterexample", "n_max": 4}],
                         ids=["power:2.5", "paper_counterexample:4"])
def test_classification_tables_take_the_repr_path(spec, monkeypatch):
    # every table of a classification is float-only; a list or tuple handed
    # to json.dumps would mean it was walked, not written by orjson
    psi = parse_function_spec(spec)
    report = classify_injection(psi, GrowthSampleGrid.default_for(psi))
    seen, real_dumps = [], json.dumps

    def spy(value, **kwargs):
        seen.append(value)
        return real_dumps(value, **kwargs)

    monkeypatch.setattr(records.json, "dumps", spy)
    text = report.to_json()
    monkeypatch.undo()
    assert [v for v in seen if isinstance(v, (list, tuple))] == []
    assert text == json.dumps(report.to_dict(), indent=2)
    assert report.q_a_table and all(q.ratio_log for q in report.q_a_table)
