"""The JSON form of the six result records: key order, round trips, defaults
for optional keys, and errors for missing required keys."""

import pytest

from orlicz_lab.classify import (
    EVIDENCE_LABEL,
    ConditionEvidence,
    InjectionReport,
    QuotientEstimate,
    classify_injection,
)
from orlicz_lab.domains import disk
from orlicz_lab.functions import PowerFunction, build_counterexample
from orlicz_lab.norms import NormResult, bergman_norm
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
