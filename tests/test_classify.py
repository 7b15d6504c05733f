import math

import numpy as np
import pytest

from orlicz_lab.classify import (
    CONDITIONS,
    SLOPE_TOL,
    InjectionReport,
    QuotientEstimate,
    _lsq_slope,
    _PsiTable,
    _smallest_power_bound,
    _tail_index,
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
    square_compose,
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


@pytest.mark.parametrize("psi", [
    PowerFunction(1), PowerFunction(1.04), PowerFunction(2.97), PowerFunction(3.06),
    PowerFunction(11.96), PowerFunction(12.04), PowerFunction(12.2), ExpLogSquared(),
    ExpMinusOne(), build_counterexample(3), build_counterexample(5, 5.5),
    square_compose(PowerFunction(2.5)), arg_square(PowerFunction(6.03)),
], ids=lambda psi: psi.label)
def test_smallest_power_bound_matches_one_fit_per_q(psi):
    # the reference: for each q, a fit of log Psi - q log x on every tail
    table = _PsiTable(psi, GrowthSampleGrid.default_for(psi))
    tails = []
    for i, s in enumerate(table.series[1:], 1):
        t0 = _tail_index(len(s))
        if len(s) >= 2:
            tails.append((s[t0:], table.log_psi[i, 1.0][t0:]))
    want = next((q for q in range(1, 13) if not any(
        _lsq_slope(t, v - q * t) > SLOPE_TOL for t, v in tails)), None)
    assert _smallest_power_bound(table) == want


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


@pytest.mark.parametrize("grid", [
    GrowthSampleGrid.default_for(build_counterexample(4)),
    GrowthSampleGrid.default_for(PowerFunction(3.3)),
    GrowthSampleGrid.default_for(ExpLogSquared()),
    GrowthSampleGrid(x_points=(0.5, 1.0, 2.0, 1e300)),
], ids=["anchored", "power", "exp_log_squared", "explicit"])
def test_grid_log_x_is_the_log_of_its_points(grid):
    want = np.log(np.asarray(grid.x_points))
    assert all(type(x) is float for x in grid.x_points)
    assert grid.log_x.tobytes() == want.tobytes()
    assert grid.log_x is grid.log_x and not grid.log_x.flags.writeable


def test_quotient_rejects_small_a():
    psi = PowerFunction(2)
    grid = GrowthSampleGrid.default_for(psi)
    with pytest.raises(ValueError):
        estimate_quotient(psi, 1.0, grid)


def test_default_for_refuses_an_inverted_window():
    psi = PowerFunction(2)
    with pytest.raises(ValueError, match=r"x_lo=100 must be below x_hi=10"):
        GrowthSampleGrid.default_for(psi, x_lo=100.0, x_hi=10.0, n_points=5)
    with pytest.raises(ValueError, match=r"x_lo=1e\+09 must be below x_hi=1e\+06"):
        GrowthSampleGrid.default_for(psi, x_lo=1e9)
    grid = GrowthSampleGrid.default_for(psi, x_lo=10.0, x_hi=100.0, n_points=5)
    assert (grid.x_points[0], grid.x_points[-1], len(grid.x_points)) == (10.0, 100.0, 5)


def test_default_for_falls_back_only_for_a_default_window():
    # a default window that closes up still gets the automatic hi/1e3 floor
    psi = scale_argument(PowerFunction(2), 1e13)  # domain hint ends at x = 0.1
    grid = GrowthSampleGrid.default_for(psi)
    assert grid.x_points[-1] == pytest.approx(0.1)
    assert grid.x_points[0] == pytest.approx(grid.x_points[-1] / 1e3)


@pytest.mark.parametrize("kwargs", [{"x_lo": 100.0}, {"x_hi": 1000.0}, {"n_points": 5},
                                    {"x_lo": 100.0, "x_hi": 1000.0}])
def test_default_for_refuses_a_window_on_knot_anchors(kwargs):
    psi = build_counterexample(4)
    with pytest.raises(ValueError, match="classified on its knot anchors"):
        GrowthSampleGrid.default_for(psi, **kwargs)
    dense = GrowthSampleGrid.default_for(psi, include_knots=False, **kwargs)
    assert not dense.anchored


def _counted_eval_log(monkeypatch, psi):
    calls = []
    inner = psi.eval_log

    def counted(log_x):
        calls.append(np.size(log_x))
        return inner(log_x)

    monkeypatch.setattr(psi, "eval_log", counted, raising=False)
    return calls


@pytest.mark.parametrize("psi", [PowerFunction(3.3), build_counterexample(4, 5.5),
                                 arg_square(build_counterexample(4))],
                         ids=lambda psi: psi.label)
def test_classification_evaluates_psi_once(monkeypatch, psi):
    grid = GrowthSampleGrid.default_for(psi)
    calls = _counted_eval_log(monkeypatch, psi)
    rep = classify_injection(psi, grid)
    assert 1 <= len(calls) <= 2
    # each check called on its own builds its own table and agrees
    by_a = {q.a: q for q in rep.q_a_table}
    for a in grid.a_points:
        assert estimate_quotient(psi, a, grid).to_dict() == by_a[a].to_dict()
    for c, ev in zip(CONDITIONS, rep.conditions):
        assert check_condition(psi, c, grid).to_dict() == ev.to_dict()
    assert check_conjugate_delta2(psi, grid).to_dict() == rep.conditions[-1].to_dict()


def test_dense_table_evaluates_each_point_set_once(monkeypatch):
    # a dense grid's "grid" subgrid is series 0 itself: its shifts by 1, 2, 4
    # and 8 are evaluated once and shared, leaving the 257 nabla points, six
    # shifts of the 200 grid points and five of the 199 midpoints
    psi = PowerFunction(3.3)
    grid = GrowthSampleGrid.default_for(psi)
    calls = _counted_eval_log(monkeypatch, psi)
    table = _PsiTable(psi, grid, grid.a_points)
    assert calls == [257 + 6 * 200 + 5 * 199]
    assert table.series[1] is table.series[0]
    for f in (1.0, 2.0, 4.0, 8.0):
        assert table.log_psi[1, f] is table.log_psi[0, f]
    for (i, f), values in table.log_psi.items():
        t = table.series[i] + math.log(f)
        assert np.array_equal(values, psi.eval_log(t[:len(values)]))


@pytest.mark.parametrize("psi, other", [
    (PowerFunction(3.3), ExpLogSquared()),
    (build_counterexample(4), build_counterexample(4, 5.5)),
], ids=["dense", "anchored"])
def test_a_passed_table_changes_no_result(psi, other):
    # a table built for another Psi, or without the A asked for, is not read:
    # each check builds the table it needs and answers as on its own
    grid = GrowthSampleGrid.default_for(psi)
    rep = classify_injection(psi, grid)
    for table in (_PsiTable(other, grid, grid.a_points), _PsiTable(psi, grid)):
        for q in rep.q_a_table:
            assert estimate_quotient(psi, q.a, grid, table=table).to_dict() == q.to_dict()
        for c, ev in zip(CONDITIONS, rep.conditions):
            assert check_condition(psi, c, grid, table=table).to_dict() == ev.to_dict()
        conj = check_conjugate_delta2(psi, grid, table=table)
        assert conj.to_dict() == rep.conditions[-1].to_dict()


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _direct_witness_values(psi, ev):
    # the values a swept condition reports, from eval_log at its abscissas
    t = np.array([p[0] for p in ev.witness])
    factor = float(ev.detail.split("=")[1]) if ev.detail else 2.0
    up = np.asarray(psi.eval_log(t + math.log(factor)))
    base = np.asarray(psi.eval_log(t))
    assert np.all(t + math.log(factor) <= psi.trusted_log_hi + 1e-12)
    if ev.condition == "delta1":
        return up - (t + base)
    if ev.condition == "conjugate_delta2":
        return (up - base) - math.log(2.0 * factor)
    return up - base


def _oracle_case(name, psi, **grid_kwargs):
    return pytest.param(name, psi, GrowthSampleGrid.default_for(psi, **grid_kwargs), id=name)


ORACLE_CASES = [
    # r_max for n_max = 5 is about 6.51
    _oracle_case("top_anchors_dropped", build_counterexample(5, 6.5)),
    _oracle_case("delta1_alpha16", square_compose(PowerFunction(2.5))),
    _oracle_case("dense_exp_log_squared", ExpLogSquared()),
    _oracle_case("dense_counterexample", build_counterexample(4), include_knots=False),
]


@pytest.mark.parametrize("name,psi,grid", ORACLE_CASES)
def test_report_values_match_direct_evaluation(name, psi, grid):
    rep = classify_injection(psi, grid)
    lx = grid.log_x
    for q in rep.q_a_table:
        trusted = lx[lx + math.log(q.a) <= psi.trusted_log_hi + 1e-12]
        got = np.array(q.ratio_log)
        want = (np.asarray(psi.eval_log(trusted + math.log(q.a)))
                - 2.0 * np.asarray(psi.eval_log(trusted)))
        assert _same_bits(got[:, 0], trusted)
        assert _same_bits(got[:, 1], want), q.a
        assert ("dropped" in q.detail) == (len(trusted) < len(lx))
    for ev in rep.conditions:
        assert ev.witness, ev.condition
        got = np.array([p[1] for p in ev.witness])
        if ev.condition == "nabla01":
            tail = lx[len(lx) - max(2, math.ceil(0.3 * len(lx))):]
            u = np.linspace(tail[0], tail[-1], 257)
            v = np.asarray(psi.eval_log(u))
            d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
            assert float(np.min(d2)) == ev.trend_slope
            i = int(np.argmin(d2))
            assert _same_bits(got, d2[max(0, i - 2): i + 3])
            continue
        assert _same_bits(got, _direct_witness_values(psi, ev)), ev.condition
    if name == "top_anchors_dropped":
        assert [len(q.ratio_log) for q in rep.q_a_table] == [5, 5, 4, 4]
    if name == "delta1_alpha16":
        assert rep.conditions[2].detail == "alpha=16"


def test_dense_extrapolation_message_is_unchanged():
    psi = build_counterexample(3)
    x_hi = float(counterexample_knot_points(3)[-1])
    bad = GrowthSampleGrid(x_points=tuple(np.geomspace(4.0, x_hi, 50)))
    lx = bad.log_x

    def message(a):
        first = lx[lx + math.log(a) > psi.trusted_log_hi + 1e-12][0]
        return (f"grid point x={float(np.exp(first)):g} needs {psi.label} at {a:g}*x,"
                " beyond the trusted range")

    with pytest.raises(ExtrapolationError) as info:
        estimate_quotient(psi, 8.0, bad)
    assert str(info.value) == message(8.0)
    # the classifier stops at the first A that leaves the trusted range
    first_a = next(a for a in bad.a_points
                   if np.any(lx + math.log(a) > psi.trusted_log_hi + 1e-12))
    with pytest.raises(ExtrapolationError) as info:
        classify_injection(psi, bad)
    assert str(info.value) == message(first_a)
