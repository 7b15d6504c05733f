import math

import numpy as np
import pytest

from orlicz_lab.classify import (
    InjectionReport,
    QuotientEstimate,
    _verdict_from_trends,
    check_condition,
    check_conjugate_delta2,
    classify_injection,
    estimate_quotient,
)
from orlicz_lab.functions import (
    ExpLogSquared,
    ExpMinusOne,
    ExtrapolationError,
    PowerFunction,
    arg_square,
    build_counterexample,
    counterexample_knot_points,
    scale_argument,
)
from orlicz_lab.grids import GrowthSampleGrid


def anchored_grid(psi, a_points=(1.5, 2.0, 4.0, 8.0)):
    return GrowthSampleGrid.default_for(psi, a_points=a_points)


def test_quotient_power_two():
    psi = PowerFunction(2)
    grid = anchored_grid(psi)
    est = estimate_quotient(psi, 2.0, grid)
    # Psi(2x)/Psi(x)^2 = 4/x^2: collapses like x^-2
    assert est.trend == "to_minus_infinity"
    assert est.tail_sup < 1e-6


def test_quotient_counterexample_knots():
    psi = build_counterexample(4)
    grid = anchored_grid(psi)
    assert grid.anchored
    est = estimate_quotient(psi, 2.0, grid)
    # the quotient equals 1 exactly at every knot
    assert all(abs(v) == 0.0 for _, v in est.ratio_log)
    assert est.trend == "bounded"
    assert est.tail_sup == 1.0


def test_quotient_exp_divergence():
    psi = ExpMinusOne()
    grid = anchored_grid(psi)
    est = estimate_quotient(psi, 3.0, grid)
    assert est.trend == "to_plus_infinity"


def test_quotient_extrapolation_error_on_dense_grid():
    psi = build_counterexample(3)
    x_hi = float(counterexample_knot_points(3)[-1])
    bad = GrowthSampleGrid(x_points=tuple(np.geomspace(4.0, x_hi, 50)))
    with pytest.raises(ExtrapolationError):
        estimate_quotient(psi, 8.0, bad)


def test_condition_table_power():
    psi = PowerFunction(2)
    grid = anchored_grid(psi)
    assert check_condition(psi, "delta2", grid).holds == "yes"
    assert check_condition(psi, "delta0", grid).holds == "no"
    assert check_condition(psi, "delta1", grid).holds == "no"
    assert check_condition(psi, "nabla01", grid).holds == "yes"


def test_condition_table_exp_log_squared():
    psi = ExpLogSquared()
    grid = anchored_grid(psi)
    assert check_condition(psi, "delta2", grid).holds == "no"
    assert check_condition(psi, "delta0", grid).holds == "yes"


def test_condition_table_counterexample():
    psi = build_counterexample(4)
    grid = anchored_grid(psi)
    assert check_condition(psi, "delta2", grid).holds == "no"
    assert check_condition(psi, "delta0", grid).holds == "no"
    assert check_condition(psi, "nabla01", grid).holds == "no"
    assert check_condition(psi, "delta1", grid).holds == "no"


def test_condition_table_exp_minus_one():
    psi = ExpMinusOne()
    grid = anchored_grid(psi)
    assert check_condition(psi, "delta1", grid).holds == "yes"
    assert check_condition(psi, "nabla01", grid).holds == "yes"


def test_condition_short_dense_grid_is_inconclusive():
    psi = PowerFunction(2)
    grid = GrowthSampleGrid(x_points=tuple(np.geomspace(1.0, 100.0, 8)))
    ev = check_condition(psi, "delta2", grid)
    assert ev.holds == "inconclusive"


def test_conjugate_delta2():
    grid2 = anchored_grid(PowerFunction(2))
    assert check_conjugate_delta2(PowerFunction(2), grid2).holds == "yes"
    grid1 = anchored_grid(PowerFunction(1))
    assert check_conjugate_delta2(PowerFunction(1), grid1).holds == "no"
    aq = arg_square(build_counterexample(4))
    ev = check_conjugate_delta2(aq, anchored_grid(aq))
    assert ev.holds == "yes"
    assert "beta=2" in ev.detail
    ce = build_counterexample(4)
    assert check_conjugate_delta2(ce, anchored_grid(ce)).holds == "no"


def _witness_score(condition, witness):
    # the number each condition reports as trend_slope, recomputed from the
    # witness series alone
    u = np.array([p[0] for p in witness])
    v = np.array([p[1] for p in witness])
    if condition in ("delta2", "delta0"):
        du = u - u.mean()
        return float(np.dot(du, v - v.mean()) / np.dot(du, du))
    return float(np.min(v))


@pytest.mark.parametrize("psi", [
    PowerFunction(2), ExpLogSquared(), ExpMinusOne(), build_counterexample(4),
    build_counterexample(5, 4.5), arg_square(build_counterexample(4)),
], ids=lambda psi: psi.label)
@pytest.mark.parametrize("include_knots", [True, False], ids=["default", "dense"])
def test_witness_produces_trend_slope(psi, include_knots):
    grid = GrowthSampleGrid.default_for(psi, include_knots=include_knots)
    assert grid.anchored == (include_knots and len(psi.growth_anchor_logs()) >= 2)
    evidence = [check_condition(psi, c, grid) for c in ("delta2", "delta0", "delta1")]
    evidence.append(check_conjugate_delta2(psi, grid))
    for ev in evidence:
        assert ev.holds in ("yes", "no"), ev.condition
        got = _witness_score(ev.condition, ev.witness)
        assert got == pytest.approx(ev.trend_slope, rel=1e-12, abs=1e-12), ev.condition


VERDICTS = {
    "power(p=1)": "compact",
    "power(p=2)": "compact",
    "power(p=4)": "compact",
    "exp_log_squared": "compact",
    "exp_minus_one": "not_weakly_compact",
    "paper_counterexample(n_max=4, r=4)": "weakly_compact_not_compact",
}


def test_classifier_verdicts():
    for psi in [PowerFunction(1), PowerFunction(2), PowerFunction(4),
                ExpLogSquared(), ExpMinusOne(), build_counterexample(4)]:
        rep = classify_injection(psi)
        assert rep.verdict == VERDICTS[psi.label], psi.label


def test_classifier_arg_square_counterexample():
    rep = classify_injection(arg_square(build_counterexample(4)))
    assert rep.verdict == "weakly_compact_not_compact"
    assert rep.consequences["conjugate_delta2"]["holds"] == "yes"
    assert "not Dunford-Pettis" in rep.consequences["dunford_pettis_note"]


def test_counterexample_quotient_ceiling():
    psi = build_counterexample(4)
    rep = classify_injection(psi)
    for q in rep.q_a_table:
        assert q.tail_sup <= q.a**4 + 1e-9


def test_verdict_logic_unit():
    def q(a, trend):
        return QuotientEstimate(a=a, ratio_log=(), tail_sup=1.0, trend=trend)

    v, _ = _verdict_from_trends([q(1.5, "to_minus_infinity"), q(2, "bounded"),
                                 q(4, "to_plus_infinity"), q(8, "to_plus_infinity")])
    assert v == "not_weakly_compact"
    v, _ = _verdict_from_trends([q(1.5, "to_plus_infinity"), q(8, "to_minus_infinity")])
    assert v == "inconclusive"
    v, _ = _verdict_from_trends([q(2, "to_minus_infinity"), q(4, "to_minus_infinity")])
    assert v == "compact"
    v, _ = _verdict_from_trends([q(2, "bounded"), q(4, "to_minus_infinity")])
    assert v == "weakly_compact_not_compact"


def test_scaling_invariance():
    for c in (0.2, 3.0, 25.0):
        for base in (PowerFunction(2), ExpMinusOne(), build_counterexample(4)):
            r1 = classify_injection(base)
            r2 = classify_injection(scale_argument(base, c))
            assert r1.verdict == r2.verdict


def test_sup_consistency_recorded():
    rep = classify_injection(build_counterexample(4))
    assert rep.consequences["sup_consistency"] is True


def test_morse_transue_inclusion_flag():
    assert classify_injection(PowerFunction(2)).consequences["morse_transue_inclusion"]
    assert classify_injection(build_counterexample(4)).consequences["morse_transue_inclusion"]
    assert not classify_injection(ExpMinusOne()).consequences["morse_transue_inclusion"]


def test_summing_bound():
    assert classify_injection(PowerFunction(2)).consequences["summing_bound_q"] == 2
    assert classify_injection(build_counterexample(4)).consequences["summing_bound_q"] == 4
    assert classify_injection(ExpMinusOne()).consequences["summing_bound_q"] is None


def test_report_json_round_trip():
    rep = classify_injection(build_counterexample(4))
    again = InjectionReport.from_json(rep.to_json())
    assert again == rep


def test_report_csv_rows():
    rep = classify_injection(PowerFunction(2))
    rows = rep.csv_rows()
    assert rows[0] == ("a", "log_x", "ratio_log")
    assert len(rows) > 4
    a, lx, rl = rows[1]
    float(a), float(lx), float(rl)


def test_grid_requires_standard_a_points():
    psi = PowerFunction(2)
    grid = GrowthSampleGrid.default_for(psi, a_points=(2.0, 4.0))
    with pytest.raises(ValueError):
        classify_injection(psi, grid)


def test_grid_without_knots_is_dense():
    psi = build_counterexample(4)
    grid = GrowthSampleGrid.default_for(psi, include_knots=False)
    assert not grid.anchored
    assert len(grid.x_points) == 200


def test_small_build_inconclusive_with_note():
    # n_max=2 leaves a single usable anchor for A=8; the classifier says so
    rep = classify_injection(build_counterexample(2))
    assert rep.verdict == "inconclusive"
    assert any("A=8" in n for n in rep.notes)


def test_grid_validation():
    with pytest.raises(ValueError):
        GrowthSampleGrid(x_points=(2.0, 1.0))
    with pytest.raises(ValueError):
        GrowthSampleGrid(x_points=(1.0, 2.0), a_points=(0.5,))
    with pytest.raises(ValueError):
        GrowthSampleGrid(x_points=())


def test_quotient_rejects_small_a():
    psi = PowerFunction(2)
    grid = GrowthSampleGrid.default_for(psi)
    with pytest.raises(ValueError):
        estimate_quotient(psi, 1.0, grid)
