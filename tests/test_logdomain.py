import math
import warnings

import numpy as np
import pytest

from orlicz_lab.functions import ExpMinusOne
from orlicz_lab.logdomain import _log_sum_inplace, log1p_exp, log_add, log_diff, log_expm1, log_sum


def test_log_add_matches_linear():
    a, b = math.log(3.0), math.log(5.0)
    assert math.isclose(log_add(a, b), math.log(8.0), rel_tol=1e-15)


def test_log_diff_matches_linear():
    a, b = math.log(5.0), math.log(3.0)
    assert math.isclose(log_diff(a, b), math.log(2.0), rel_tol=1e-14)


def test_log_diff_equal_gives_neg_inf():
    assert log_diff(2.5, 2.5) == -math.inf
    assert log_diff(-math.inf, -math.inf) == -math.inf


def test_log_diff_huge_magnitudes():
    # 1e200 - 1e180, far beyond what could be subtracted after exponentiation
    a, b = 200 * math.log(10.0), 180 * math.log(10.0)
    expect = math.log(1e200 - 1e180) if False else a + math.log1p(-1e-20)
    assert math.isclose(log_diff(a, b), expect, rel_tol=1e-15)


def test_log_sum_tolerates_neg_inf():
    assert log_sum([-math.inf, -math.inf]) == -math.inf
    assert math.isclose(log_sum([-math.inf, 0.0]), 0.0, abs_tol=1e-15)


def test_log_sum_matches_naive():
    vals = np.log([1.0, 2.0, 3.5, 0.5])
    assert math.isclose(log_sum(vals), math.log(7.0), rel_tol=1e-14)


def test_log_expm1_both_tails():
    assert math.isclose(log_expm1(1e-8), math.log(math.expm1(1e-8)), rel_tol=1e-12)
    assert math.isclose(log_expm1(500.0), 500.0, rel_tol=1e-15)
    out = log_expm1(np.array([0.5, 40.0, 800.0]))
    assert math.isclose(out[0], math.log(math.expm1(0.5)), rel_tol=1e-14)
    assert math.isclose(out[2], 800.0, rel_tol=1e-15)


def _log_expm1_two_branch(s):
    """Both branches over the whole input, then a pick per element."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.where(s > 33.0, s + np.log1p(-np.exp(-np.minimum(s, 709.0))),
                       np.log(np.expm1(np.minimum(s, 33.0))))
    return float(out) if out.ndim == 0 else out


_BELOW_33 = np.nextafter(33.0, 0.0)
_ABOVE_33 = np.nextafter(33.0, np.inf)


@pytest.mark.parametrize("s", [
    np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-8, 0.5, 1.0, 20.0,
              _BELOW_33, 33.0]),
    np.random.default_rng(7).uniform(0.0, 33.0, 4096),
    np.array([0.0, 1.0, 33.0, _ABOVE_33, 40.0, 709.0, 710.0, 800.0]),
    np.array([1.0, _ABOVE_33, 33.5]),
    # past 33 the two branches round differently on a few inputs
    np.linspace(0.0, 40.0, 40001),
    np.array([_ABOVE_33, 34.0, 100.0, 709.0, 710.0, 1e4]),
    np.array([[0.25, 33.0], [2.0, 3.0]]),
    np.array([]),
    np.array([np.nan]),
    np.array([np.nan, 1.0, 40.0]),
    # log_expm1 clamps at 40, the oracle at 709: the same bits on either side of 40
    np.linspace(33.0, 48.0, 15001),
    np.array([np.nextafter(40.0, 0.0), 40.0, np.nextafter(40.0, np.inf)]),
    np.linspace(700.0, 750.0, 501),
    np.array([0.5]),
    np.array([800.0]),
    0.5,
    40.0,
    np.float64(33.0),
    np.array(0.5),
    np.array(800.0),
], ids=["small", "small_random", "mixed", "just_above_33", "mixed_dense", "large", "small_2d", "empty", "nan", "nan_mixed",
        "dense_33_48", "around_40", "dense_700_750",
        "one_small", "one_large", "scalar_small", "scalar_large", "numpy_scalar", "zero_d_small",
        "zero_d_large"])
def test_log_expm1_matches_two_branch_formula_bitwise(s):
    before = np.array(s, copy=True)
    got, want = log_expm1(s), _log_expm1_two_branch(s)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.shape(got) == np.shape(want)
    assert np.asarray(s).tobytes() == before.tobytes()


def test_log_expm1_small_array_with_zero_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_expm1(np.array([0.0, 1e-300, 1.0, 33.0]))
    assert out[0] == -math.inf


def test_large_s_forms_no_subnormal():
    # exp(-709) is subnormal: the large-s branch clamps at 40 instead
    with np.errstate(under="raise"):
        out = log_expm1(np.array([34.0, 720.0, 1e4, np.inf]))
        ExpMinusOne().eval_log(np.array([0.0, 7.0, 9.0]))
    assert out[1:].tolist() == [720.0, 1e4, np.inf]


@pytest.mark.parametrize("terms", [
    np.log(np.arange(1.0, 9.0)),
    np.array([-np.inf, 0.0, -np.inf, -3.5, 2.0]),
    np.array([-np.inf, -np.inf]),
    np.array([np.inf, 1.0]),
    np.array([]),
    np.random.default_rng(11).normal(0.0, 30.0, 5000),
], ids=["logs", "some_neg_inf", "all_neg_inf", "pos_inf", "empty", "random"])
def test_log_sum_inplace_gives_the_bits_of_log_sum(terms):
    want = log_sum(terms)
    got = _log_sum_inplace(terms.copy())
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_log1p_exp_leaves_its_input_unwritten():
    s = np.linspace(-40.0, 40.0, 81)
    before = s.copy()
    want = np.log1p(np.exp(-np.abs(before))) + np.maximum(before, 0.0)
    assert log1p_exp(s).tobytes() == want.tobytes()
    assert np.array_equal(s, before)


def test_log_sum_leaves_its_terms_unwritten():
    terms = np.log(np.arange(1.0, 9.0))
    before = terms.copy()
    assert math.isclose(log_sum(terms), math.log(36.0), rel_tol=1e-15)
    assert np.array_equal(terms, before)


def test_log1p_exp_is_logaddexp_within_two_ulps():
    s = np.linspace(-800.0, 800.0, 20001)
    got, want = log1p_exp(s), np.logaddexp(0.0, s)
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
    assert float(log1p_exp(0.0)) == math.log(2.0)


def test_log1p_exp_edges_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log1p_exp(np.array([-np.inf, -745.0, 745.0, np.inf, np.nan]))
    assert out[0] == 0.0 and out[1] == 5e-324 and out[2] == 745.0
    assert out[3] == np.inf and np.isnan(out[4])
