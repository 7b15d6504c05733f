import math

import numpy as np
import pytest

from orlicz_lab.domains import DiskDomain
from orlicz_lab.functions import ExpLogSquared, PowerFunction, build_counterexample
from orlicz_lab.suites import (
    SEEDED_SUITES,
    SUITE_NAMES,
    SUITES,
    SuiteReport,
    _check,
    carleson_window_area,
    carleson_window_area_quadrature,
    run_suite,
    suite_carleson_window,
    suite_contraction,
    suite_counterexample,
    suite_evaluation_bounds,
    suite_kernel_bounds,
    suite_monomial_decay,
    suite_order_boundedness,
)
from orlicz_lab.witnesses import ParameterRangeError


def test_carleson_closed_form_frozen_value():
    # lens area at h = 1/2, from the two-circle intersection formula
    expect = (
        0.25 * math.acos(0.25) + math.acos(0.875) - 0.25 * math.sqrt(3.75)
    ) / math.pi
    assert carleson_window_area(0.5) == pytest.approx(expect, rel=1e-15)
    assert 0.0625 <= carleson_window_area(0.5) <= 0.25


def test_carleson_quadrature_matches_formula():
    for k in range(1, 11):
        h = 2.0**-k
        assert abs(carleson_window_area_quadrature(h) - carleson_window_area(h)) <= 1e-9


def test_carleson_small_h_ratio():
    h = 2.0**-10
    assert carleson_window_area(h) / h**2 == pytest.approx(0.5, abs=0.01)


def test_suite_carleson_passes():
    rep = suite_carleson_window()
    assert rep.overall_pass


def test_suite_monomial_passes():
    rep = suite_monomial_decay()
    assert rep.overall_pass
    (last,) = [c for c in rep.checks if c.description == "disk norm value of z^256"]
    assert last.passed
    assert last.lhs == pytest.approx(1.0 / math.sqrt(257), abs=1e-8)


def test_suite_kernel_passes():
    rep = suite_kernel_bounds()
    assert rep.overall_pass
    sums = [c for c in rep.checks if c.description.startswith("boundary sum")]
    assert all(c.lhs <= 2.50332 for c in sums)


def test_kernel_suite_rejects_unresolved_norm():
    # the counterexample's Bergman norm of u_0 at h = 1/128 converges but
    # carries quadrature_unresolved; the floor check must not pass on it
    rep = suite_kernel_bounds(h_grid=(0.0078125,), psis=(build_counterexample(4),))
    floor = [c for c in rep.checks if c.description.startswith("disk norm floor")]
    assert len(floor) == 1
    assert not floor[0].passed
    assert "under-resolved" in floor[0].extra["failure"]
    assert not rep.overall_pass


def test_kernel_suite_builds_the_kernel_rule_once_per_h(monkeypatch):
    # several Psi share one kernel rule (and its half-resolution companion)
    # per h, and each gets the floor check it would get alone
    psis = (PowerFunction(2), ExpLogSquared(), build_counterexample(4))

    def floors(rep):
        return [c.to_json() for c in rep.checks
                if c.description.startswith("disk norm floor, h=0.125,")]

    alone = [j for psi in psis for j in floors(suite_kernel_bounds(h_grid=(0.125,), psis=(psi,)))]
    builds = []
    raw = DiskDomain.kernel_refined.__func__
    monkeypatch.setattr(DiskDomain, "kernel_refined",
                        classmethod(lambda cls, *a, **k: builds.append(a) or raw(cls, *a, **k)))
    rep = suite_kernel_bounds(h_grid=(0.125, 0.03125), psis=psis)
    assert len(builds) == 4
    assert floors(rep) == alone


def test_suite_counterexample_passes():
    rep = suite_counterexample()
    assert rep.overall_pass


def test_suite_counterexample_n5():
    rep = suite_counterexample(build_counterexample(5))
    assert rep.overall_pass


def test_suite_counterexample_rejects_wrong_function():
    with pytest.raises(ValueError):
        suite_counterexample.__wrapped__(PowerFunction(2)) if hasattr(
            suite_counterexample, "__wrapped__"
        ) else suite_counterexample(PowerFunction(2))


def test_suite_evaluation_passes():
    for psi in (PowerFunction(2), build_counterexample(4)):
        rep = suite_evaluation_bounds(psi)
        assert rep.overall_pass, [c for c in rep.checks if not c.passed]


def test_suite_order_passes():
    rep = suite_order_boundedness()
    assert rep.overall_pass
    # the fast-growth family flips the corollary flag
    assert any("exp_minus_one" in n for n in rep.notes)


def test_suite_contraction_small_corpus():
    rep = suite_contraction(n_random=6)
    assert rep.overall_pass


def test_suite_reports_deterministic():
    a = suite_kernel_bounds().to_json()
    b = suite_kernel_bounds().to_json()
    assert a == b
    c = suite_contraction(n_random=4, seed=5).to_json()
    d = suite_contraction(n_random=4, seed=5).to_json()
    assert c == d


def test_suite_report_json_round_trip():
    rep = suite_carleson_window(h_grid=(0.5, 0.25))
    again = SuiteReport.from_json(rep.to_json())
    assert again == rep


def test_suite_report_text_render():
    rep = suite_carleson_window(h_grid=(0.5,))
    text = rep.to_text()
    assert "carleson" in text and "PASS" in text


def test_run_suite_names():
    with pytest.raises(ValueError):
        run_suite("nonexistent")
    # the table's keys, in battery order
    assert SUITE_NAMES == tuple(SUITES) == (
        "contraction", "carleson", "monomial", "kernel",
        "evaluation", "counterexample", "order",
    )


def test_run_suite_passes_options_to_the_suite():
    psis = (build_counterexample(4),)
    assert (run_suite("kernel", h_grid=(1 / 128,), psis=psis).to_json()
            == suite_kernel_bounds(h_grid=(1 / 128,), psis=psis).to_json())
    assert (run_suite("carleson", h_grid=(0.25,)).to_json()
            == suite_carleson_window(h_grid=(0.25,)).to_json())
    # an option the suite does not take is refused, not dropped
    with pytest.raises(TypeError):
        run_suite("carleson", psis=(PowerFunction(2),))
    with pytest.raises(TypeError):
        run_suite("monomial", h_grid=(0.25,))


# small configurations of the slow suites; the seed is what is looked at
CHEAP = {"contraction": {"n_random": 1}, "carleson": {"h_grid": (0.5,)},
         "kernel": {"h_grid": (0.125,)}}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_only_the_seeded_suites_take_the_seed(name):
    config = run_suite(name, seed=5, **CHEAP.get(name, {})).config
    assert SEEDED_SUITES == ("contraction", "evaluation")
    assert config.get("seed") == (5 if name in SEEDED_SUITES else None)


def test_check_with_a_named_failure_fails():
    c = _check("d", "s", 1.0, 2.0, "<=", tol=0.5, extra={"a": 1, "b": 2}, failure="x")
    assert c.margin == -math.inf
    assert c.passed is False
    assert list(c.extra) == ["a", "b", "failure"] and c.extra["failure"] == "x"
    assert (c.lhs, c.rhs, c.relation) == (1.0, 2.0, "<=")
    assert _check("d", "s", 1.0, 2.0, "<=", failure="x").extra == {"failure": "x"}


def test_the_window_area_formulas_hold_down_to_the_carleson_floor():
    # at h = 2**-20 both formulas still read the half-lens limit 1/2 of
    # A/h^2 to 1e-5; below the floor they drift apart (see ROADMAP)
    h = 2.0**-20
    for area in (carleson_window_area(h), carleson_window_area_quadrature(h)):
        assert area / (h * h) == pytest.approx(0.5, abs=1e-5)


def test_the_carleson_suite_passes_at_its_floor_and_refuses_below_it():
    assert suite_carleson_window(h_grid=(2.0**-20,)).overall_pass
    with pytest.raises(ParameterRangeError, match=r"needs h >= 2\*\*-20, got 4.76837158203125e-07"):
        suite_carleson_window(h_grid=(0.5, 2.0**-21))


def test_the_kernel_suite_passes_at_its_floor_and_refuses_below_it():
    assert suite_kernel_bounds(h_grid=(2.0**-11,)).overall_pass
    with pytest.raises(ParameterRangeError, match=r"needs h >= 2\*\*-11, got 0.000244140625"):
        suite_kernel_bounds(h_grid=(0.125, 2.0**-12))
