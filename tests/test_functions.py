import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_lab.functions import (
    EvaluationOverflow,
    ExpLogSquared,
    ExpMinusOne,
    FAMILIES,
    PiecewiseAffine,
    PowerFunction,
    arg_square,
    build_counterexample,
    counterexample_delta,
    counterexample_knot_points,
    parse_function_spec,
    scale_argument,
    square_compose,
)

ALL_FAMILIES = [
    PowerFunction(1),
    PowerFunction(2),
    PowerFunction(4),
    ExpLogSquared(),
    ExpMinusOne(),
    build_counterexample(4),
    square_compose(PowerFunction(2)),
    arg_square(build_counterexample(4)),
]


def test_power_eval_and_inverse():
    p2 = PowerFunction(2)
    assert p2.eval(3.0) == 9.0
    assert p2.inverse(9.0) == 3.0
    assert p2.eval_log(10.0) == 20.0
    assert PowerFunction(3).eval_log(10.0) == 30.0


def test_counterexample_recurrence():
    xs = counterexample_knot_points(4)
    assert xs[0] == 4
    assert xs[1] == 56
    assert xs[2] == 175504
    assert xs[3] == 175504**3 - 2 * 175504


def test_counterexample_knot_values_exact():
    psi = build_counterexample(4)
    assert psi.eval(4.0) == 16.0
    assert psi.eval(8.0) == 256.0
    assert psi.eval(56.0) == 3136.0
    assert psi.eval(112.0) == 9834496.0
    # affine interpolation between (4, 16) and (8, 256): 16 + 60*(6-4)
    assert psi.eval(6.0) == 136.0


def test_counterexample_two_knot_build():
    psi = build_counterexample(2)
    assert list(psi.xs) == [4.0, 8.0, 56.0, 112.0]
    assert list(psi.ys) == [16.0, 256.0, 3136.0, 9834496.0]


def test_counterexample_general_exponent():
    psi = build_counterexample(2, 8.0)
    assert psi.eval(56.0) == float(56**4)
    assert psi.eval(112.0) == float(56**8)


def test_counterexample_inverse_exact():
    psi = build_counterexample(4)
    assert psi.inverse(256.0) == 8.0
    assert psi.inverse(136.0) == 6.0
    assert psi.inverse(1.0) == 0.25  # initial segment 4x


def test_counterexample_eval_log_knot_identity():
    psi = build_counterexample(4)
    assert psi.eval_log(math.log(56.0)) == 2.0 * math.log(56.0)
    x4 = counterexample_knot_points(4)[-1]
    assert psi.eval_log(math.log(float(2 * x4))) == 4.0 * math.log(float(x4))


def test_counterexample_initial_segment():
    psi = build_counterexample(4)
    for x in (0.5, 1.0, 2.0, 4.0):
        assert psi.eval(x) == 4.0 * x


def test_counterexample_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_counterexample(6)
    with pytest.raises(ValueError):
        build_counterexample(1)
    with pytest.raises(ValueError):
        build_counterexample(5, 8.0)  # x_5**8 leaves double range
    with pytest.raises(ValueError):
        build_counterexample(4, 3.0)


def test_counterexample_n5_extreme_values():
    psi = build_counterexample(5)
    x5 = counterexample_knot_points(5)[-1]
    assert psi.eval_log(math.log(float(2 * x5))) == 4.0 * math.log(float(x5))
    # the largest knot value is ~1e189 and still evaluates in linear domain
    assert math.isfinite(psi.eval(float(2 * x5)))


def test_delta_values():
    assert counterexample_delta(2) == Fraction_1_7()
    xs = counterexample_knot_points(4)
    for n in range(2, 5):
        assert counterexample_delta(n) == 2 * Frac(xs[n - 2], 1) / xs[n - 1]


def Fraction_1_7():
    from fractions import Fraction

    return Fraction(1, 7)


def Frac(a, b):
    from fractions import Fraction

    return Fraction(a, b)


def test_eval_log_matches_log_eval():
    for psi in ALL_FAMILIES:
        lo, hi = psi.domain_hint
        for x in np.geomspace(max(lo, 0.5), min(hi, 1e4), 40):
            try:
                v = psi.eval(float(x))
            except EvaluationOverflow:
                continue
            if v > 0:
                assert abs(float(psi.eval_log(math.log(x))) - math.log(v)) <= 1e-10


def test_inverse_round_trip():
    rng = np.random.default_rng(42)
    for psi in ALL_FAMILIES:
        lo, hi = psi.domain_hint
        hi = min(hi, 1e6)
        xs = np.exp(rng.uniform(math.log(max(lo, 0.1)), math.log(hi), 100))
        for x in xs:
            try:
                y = psi.eval(float(x))
            except EvaluationOverflow:
                continue
            back = psi.inverse(y)
            assert abs(back - x) <= 1e-8 * x


def test_convexity_second_differences():
    for psi in ALL_FAMILIES:
        lo, hi = psi.domain_hint
        xs = np.geomspace(max(lo, 0.5), min(hi, 1e5), 200)
        ys = []
        for x in xs:
            try:
                ys.append(psi.eval(float(x)))
            except EvaluationOverflow:
                ys.append(None)
        pts = [(x, y) for x, y in zip(xs, ys) if y is not None]
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(pts[:-1], pts[1:])
        ]
        for s1, s2 in zip(slopes[:-1], slopes[1:]):
            assert s2 >= s1 - 1e-9 * max(abs(s1), abs(s2), 1.0)


def test_counterexample_sandwich_log_domain():
    psi = build_counterexample(4)
    x_hi = counterexample_knot_points(4)[-1]
    grid = np.linspace(math.log(4.0), math.log(float(x_hi)), 500)
    v = np.asarray(psi.eval_log(grid))
    assert np.all(v >= 2.0 * grid - 1e-12)
    assert np.all(v <= 4.0 * grid + 1e-12)


def test_overflow_signals():
    with pytest.raises(EvaluationOverflow):
        PowerFunction(30).eval(1e300)
    with pytest.raises(EvaluationOverflow):
        ExpMinusOne().eval(1000.0)
    # the same points evaluate fine in the log domain
    assert PowerFunction(30).eval_log(math.log(1e300)) == pytest.approx(30 * math.log(1e300))
    assert float(ExpMinusOne().eval_log(math.log(1000.0))) == pytest.approx(1000.0)


def test_extrapolation_flag():
    psi = build_counterexample(4)
    last = psi.trusted_log_hi
    assert not psi.is_extrapolated_log(last)
    assert psi.is_extrapolated_log(last + 0.1)
    # the tail continues affinely with the last slope
    x_last, y_last = psi.xs[-1], psi.ys[-1]
    s = psi.tail_slope
    assert psi.eval(x_last * 1.5) == pytest.approx(y_last + s * 0.5 * x_last, rel=1e-12)


def test_conjugate_power():
    p2 = PowerFunction(2)
    assert p2.conjugate(2.0) == pytest.approx(1.0, abs=1e-10)  # y^2/4
    assert p2.conjugate(0.0) == 0.0
    assert p2.conjugate(6.0) == pytest.approx(9.0, abs=1e-8)


def test_conjugate_power_one():
    p1 = PowerFunction(1)
    assert p1.conjugate(0.5) == pytest.approx(0.0, abs=1e-9)
    assert p1.conjugate(2.0) == math.inf


def test_conjugate_piecewise_tail_slope():
    # linear 4x up to the knot region, tail slope 4: above the limiting
    # slope the supremum is infinite
    psi = PiecewiseAffine([(4.0, 16.0), (8.0, 32.0)], tail_slope=4.0)
    assert psi.conjugate(5.0) == math.inf
    assert math.isfinite(psi.conjugate(3.9))


def test_conjugate_piecewise_matches_bruteforce():
    psi = build_counterexample(3)
    for y in (1.0, 10.0, 500.0, 4000.0):
        xs = np.geomspace(1e-3, float(psi.xs[-1]), 20000)
        brute = max(0.0, float(np.max(xs * y - np.array([psi.eval(float(x)) for x in xs]))))
        exact = psi.conjugate(y)
        assert exact >= brute - 1e-9 * max(1.0, brute)
        assert exact <= brute * (1.0 + 1e-3) + 1e-6


def test_young_inequality():
    rng = np.random.default_rng(7)
    for psi in [PowerFunction(2), PowerFunction(4), ExpMinusOne(), build_counterexample(3)]:
        for _ in range(50):
            x = float(rng.uniform(0.01, 50.0))
            y = float(rng.uniform(0.01, 50.0))
            phi = psi.conjugate(y)
            if math.isinf(phi):
                continue
            assert x * y <= psi.eval(x) + phi + 1e-8 * max(1.0, x * y)


def test_compositions():
    p2 = PowerFunction(2)
    assert square_compose(p2).eval(3.0) == 81.0
    assert arg_square(p2).eval(3.0) == 81.0
    psi = build_counterexample(4)
    assert square_compose(psi).eval(56.0) == 3136.0**2
    aq = arg_square(psi)
    assert aq.eval(math.sqrt(56.0)) == pytest.approx(3136.0, rel=1e-12)
    assert aq.inverse(1.0) == pytest.approx(0.5, rel=1e-12)


def test_composition_inverse_log_delegation():
    psi = build_counterexample(4)
    sq = square_compose(psi)
    y = 3136.0**2
    assert sq.inverse(y) == pytest.approx(56.0, rel=1e-10)
    assert float(sq.inverse_log(math.log(y))) == pytest.approx(math.log(56.0), abs=1e-10)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseAffine([(4.0, 16.0), (8.0, 12.0)])  # decreasing y
    with pytest.raises(ValueError):
        PiecewiseAffine([(4.0, 16.0), (4.0, 20.0)])  # repeated x
    with pytest.raises(ValueError):
        # concave: chord slopes drop from 4 to 1
        PiecewiseAffine([(1.0, 4.0), (2.0, 5.0)], tail_slope=0.5)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            PiecewiseAffine([(4.0, 16.0), (8.0, 48.0)], tail_slope=bad)
    # a chord slope past double range is refused by name, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"chord slope between \(1\.0, 1\.0\) and "
                                             r"\(1\.0000000000000002, 1e\+300\) is inf"):
            PiecewiseAffine([(1.0, 1.0), (1.0 + 2.3e-16, 1e300)])
        with pytest.raises(ValueError, match=r"between \(0\.0, 0\.0\) and \(1e-300, 1e\+300\)"):
            PiecewiseAffine([(1e-300, 1e300)])


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -2.0])
def test_scale_argument_needs_a_finite_positive_factor(c):
    with pytest.raises(ValueError, match=f"got {c!r}"):
        scale_argument(PowerFunction(2), c)


ROUND_TRIP_SPECS = {
    "power": {"family": "power", "p": 2},
    "exp_log_squared": {"family": "exp_log_squared"},
    "exp_minus_one": {"family": "exp_minus_one"},
    "paper_counterexample": {"family": "paper_counterexample", "n_max": 3, "r": 4},
    "piecewise": {"family": "piecewise", "knots": [[1.0, 2.0], [2.0, 5.0]], "tail_slope": 4.0},
    "square_compose": {"family": "square_compose", "inner": {"family": "power", "p": 2}},
    "arg_square": {"family": "arg_square",
                   "inner": {"family": "paper_counterexample", "n_max": 3, "r": 4}},
}


def test_spec_round_trip():
    # every family of the table, so that a new family needs a case here
    for family in FAMILIES:
        psi = parse_function_spec(ROUND_TRIP_SPECS[family])
        assert psi.family == family
        again = parse_function_spec(psi.to_spec())
        assert again.to_spec() == psi.to_spec()
        for x in (0.5, 1.0, 3.0):
            assert psi.eval(x) == pytest.approx(again.eval(x), rel=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_to_spec_writes_the_family_then_its_fields_in_order(family):
    spec = parse_function_spec(ROUND_TRIP_SPECS[family]).to_spec()
    assert list(spec) == ["family", *FAMILIES[family][1]]


def test_a_returned_piecewise_spec_is_a_copy():
    psi = parse_function_spec(ROUND_TRIP_SPECS["piecewise"])
    spec = psi.to_spec()
    spec["knots"][0][1] = 99.0
    spec["knots"].append([3.0, 9.0])
    assert psi.to_spec() == ROUND_TRIP_SPECS["piecewise"]
    assert type(psi.knots[0][0]) is float


def test_a_scaled_argument_view_has_no_spec():
    psi = arg_square(scale_argument(PowerFunction(2), 3.0))
    with pytest.raises(NotImplementedError, match="no family '_scaled_argument'"):
        psi.to_spec()


def test_spec_errors():
    with pytest.raises(ValueError):
        parse_function_spec("{not json")
    with pytest.raises(ValueError):
        parse_function_spec({"family": "no_such_family"})
    with pytest.raises(ValueError):
        parse_function_spec({"family": "power"})
    # json.loads reads NaN, and a NaN tail slope would make Psi NaN past the knots
    with pytest.raises(ValueError, match="got nan"):
        parse_function_spec('{"family": "piecewise", "knots": [[4, 16], [8, 48]], "tail_slope": NaN}')


@pytest.mark.parametrize("spec, message", [
    ({"family": "power", "p": 2, "q": 3}, "power family has no field 'q'"),
    ({"family": "power"}, "power family needs a 'p' field"),
    ({"family": "power", "p": [2]}, "power family field 'p': expected a number, got [2]"),
    ({"family": "power", "p": "2"}, "power family field 'p': expected a number, got '2'"),
    ({"family": "power", "p": True}, "power family field 'p': expected a number, got True"),
    ({"family": "paper_counterexample", "n_max": 4.7},
     "paper_counterexample family field 'n_max': expected an integer, got 4.7"),
    ('{"family": "paper_counterexample", "n_max": Infinity}',
     "paper_counterexample family field 'n_max': expected an integer, got inf"),
    ({"family": "piecewise", "knots": 5}, "piecewise family field 'knots'"),
    ({"family": "piecewise", "knots": [[4, 16], [8]]}, "piecewise family field 'knots'"),
    ({"family": "piecewise", "knots": [[4, 16]], "tail_slope": None},
     "piecewise family field 'tail_slope': expected a number, got None"),
    ({"family": "square_compose"}, "square_compose family needs a 'inner' field"),
    ({"family": "arg_square", "inner": {"family": "power"}},
     "arg_square family field 'inner': power family needs a 'p' field"),
    ({"family": ["power"]}, "unknown function family ['power']"),
    ([{"family": "power", "p": 2}], "spec must be a JSON object, got list"),
])
def test_spec_refuses_a_malformed_field_by_name(spec, message):
    with pytest.raises(ValueError) as info:
        parse_function_spec(spec)
    assert str(info.value).startswith(message)


def test_spec_fields_convert_as_before():
    # an integral float is an integer field, and every number becomes a float
    psi = parse_function_spec({"family": "paper_counterexample", "n_max": 4.0, "r": 5})
    assert psi.to_spec() == {"family": "paper_counterexample", "n_max": 4, "r": 5.0}
    assert type(psi.n_max) is int and type(psi.r) is float
    assert parse_function_spec({"family": "power", "p": 3}).to_spec() == {"family": "power",
                                                                          "p": 3.0}


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=1e5))
def test_counterexample_monotone_property(x):
    psi = build_counterexample(3)
    y1 = psi.eval(x)
    y2 = psi.eval(x * 1.125)
    assert y2 >= y1


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e8))
def test_inverse_is_right_inverse_property(y):
    psi = build_counterexample(4)
    x = psi.inverse(y)
    assert psi.eval(x) == pytest.approx(y, rel=1e-10)


def test_conjugate_exp_minus_one_closed_form():
    # maximizer x* = log y gives Phi(y) = y log y - y + 1 for y >= 1
    em = ExpMinusOne()
    for y in (2.0, 10.0, 100.0):
        expect = y * math.log(y) - y + 1.0
        assert em.conjugate(y) == pytest.approx(expect, rel=1e-7)
    assert em.conjugate(0.5) == pytest.approx(0.0, abs=1e-9)


def test_conjugate_power_four_closed_form():
    p4 = PowerFunction(4)
    for y in (1.0, 5.0, 32.0):
        assert p4.conjugate(y) == pytest.approx(3.0 * (y / 4.0) ** (4.0 / 3.0), rel=1e-8)


PIECEWISE_ORACLE_CASES = [
    PiecewiseAffine([(4.0, 16.0)]),
    PiecewiseAffine([(4.0, 16.0), (8.0, 48.0)], tail_slope=20.0),
] + [build_counterexample(n_max, r) for n_max in (2, 3, 4, 5) for r in (4.0, 4.1, 5.0)]
# the evaluators round a handful of times on values of size max(|log x|,
# |log y|); a few ulps of that scale bound the error
PIECEWISE_ORACLE_ULPS = 8


def _mp_piecewise(mpmath, psi):
    """Psi and its inverse, written directly in mpmath as the affine
    interpolant through the stored knot doubles."""
    xs = [mpmath.mpf(float(v)) for v in psi.xs]
    ys = [mpmath.mpf(float(v)) for v in psi.ys]
    slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    slopes.append(mpmath.mpf(psi.tail_slope))

    def fwd(x):
        if x < xs[0]:
            return x * ys[0] / xs[0]
        i = max(k for k, v in enumerate(xs) if v <= x)
        return ys[i] + slopes[i] * (x - xs[i])

    def inv(y):
        if y < ys[0]:
            return y * xs[0] / ys[0]
        i = max(k for k, v in enumerate(ys) if v <= y)
        return xs[i] + (y - ys[i]) / slopes[i]

    return fwd, inv


def _oracle_points(logs):
    """Below the first knot, a quarter, half and three quarters into every
    piece, and on the tail."""
    pts = [logs[0] - 5.0, logs[0] - 1.0, logs[-1] + 1.0, logs[-1] + 5.0]
    for a, b in zip(logs[:-1], logs[1:]):
        pts += [a + t * (b - a) for t in (0.25, 0.5, 0.75)]
    return np.array(pts)


@pytest.mark.parametrize("psi", PIECEWISE_ORACLE_CASES, ids=lambda psi: psi.label)
def test_piecewise_log_evaluators_match_mpmath(psi):
    mpmath = pytest.importorskip("mpmath")
    fwd, inv = _mp_piecewise(mpmath, psi)
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for logs, method, exact in ((psi.log_xs, psi.eval_log, fwd),
                                    (psi.log_ys, psi.inverse_log, inv)):
            pts = _oracle_points(logs)
            got = method(pts)
            for p, g in zip(pts, got):
                want = float(mpmath.log(exact(mpmath.exp(mpmath.mpf(float(p))))))
                scale = max(1.0, abs(float(p)), abs(want))
                assert abs(g - want) <= PIECEWISE_ORACLE_ULPS * eps * scale, (p, g, want)
                assert method(float(p)) == g


@pytest.mark.parametrize("psi", PIECEWISE_ORACLE_CASES, ids=lambda psi: psi.label)
def test_piecewise_knots_exact_and_shapes(psi):
    # at a knot the log evaluators return the stored log value bitwise and
    # the linear ones the stored knot double
    assert np.array_equal(psi.eval_log(psi.log_xs), psi.log_ys)
    assert np.array_equal(psi.inverse_log(psi.log_ys), psi.log_xs)
    for lx, ly, x, y in zip(psi.log_xs, psi.log_ys, psi.xs, psi.ys):
        assert psi.eval_log(float(lx)) == ly
        assert psi.inverse_log(float(ly)) == lx
        assert psi.eval(float(x)) == y
        assert psi.inverse(float(y)) == x
    for method in (psi.eval_log, psi.inverse_log):
        out = method(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        assert isinstance(method(1.0), float)


def _bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_PER_ELEMENT_BASES = [
    PowerFunction(3.3),
    ExpLogSquared(),
    ExpMinusOne(),
    build_counterexample(3),
    build_counterexample(4),
    build_counterexample(5),
    build_counterexample(4, 5.5),
    build_counterexample(5, 4.5),
]
PER_ELEMENT_CASES = (_PER_ELEMENT_BASES + [square_compose(p) for p in _PER_ELEMENT_BASES]
                     + [arg_square(p) for p in _PER_ELEMENT_BASES])


@pytest.mark.parametrize("psi", PER_ELEMENT_CASES, ids=lambda psi: psi.label)
def test_eval_log_is_per_element(psi):
    # one eval_log call over many series must give what separate calls give,
    # bit for bit: the same element at any array length, at any offset into
    # the input buffer, and as a scalar
    rng = np.random.default_rng(11)
    hi = psi.trusted_log_hi if math.isfinite(psi.trusted_log_hi) else 20.0
    anchors = np.concatenate([psi.growth_anchor_logs(), psi.secondary_anchor_logs()])
    pool = np.concatenate([
        rng.uniform(-3.0, hi + 3.0, 300 - 2 * len(anchors)),
        anchors,
        anchors + math.log(2.0),
    ])
    rng.shuffle(pool)
    scalar = np.array([psi.eval_log(float(v)) for v in pool])
    assert all(type(psi.eval_log(float(v))) is float for v in pool[:3])
    assert _bitwise(psi.eval_log(pool), scalar)
    for n in range(1, 258):
        for start in (0, 1, 3, 300 - n):
            assert _bitwise(psi.eval_log(pool[start:start + n]), scalar[start:start + n]), (n, start)


def _mp_log_psi(mpmath, psi, log_x, inverse):
    """log Psi(e^log_x), or log Psi^-1(e^log_x), written directly in mpmath
    for ExpLogSquared and ExpMinusOne."""
    t = mpmath.exp(mpmath.mpf(float(log_x)))
    if isinstance(psi, ExpMinusOne):
        return float(mpmath.log(mpmath.log1p(t) if inverse else mpmath.expm1(t)))
    if inverse:
        return float(mpmath.log(mpmath.expm1(mpmath.sqrt(mpmath.log1p(t)))))
    return float(mpmath.log(mpmath.expm1(mpmath.log1p(t) ** 2)))


# a few roundings on values of size max(1, |log Psi|) bound the error: ulps
# of log Psi where |log Psi| >= 1, eps below, where log Psi crosses 0 with a
# slope of about 2 in s = log(1 + x)^2 and its own ulps shrink to nothing
EXP_LOG_SQUARED_ULPS = 4


# the ExpLogSquared cases keep their plain ids
@pytest.mark.parametrize("psi, inverse", [
    (ExpLogSquared(), False), (ExpLogSquared(), True),
    (ExpMinusOne(), False), (ExpMinusOne(), True),
], ids=["eval_log", "inverse_log", "exp_minus_one-eval_log", "exp_minus_one-inverse_log"])
def test_exp_log_squared_matches_mpmath(psi, inverse):
    mpmath = pytest.importorskip("mpmath")
    method = psi.inverse_log if inverse else psi.eval_log
    pts = np.concatenate([np.linspace(-745.0, 700.0, 1446), np.linspace(-2.0, 2.0, 401)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = method(pts)
        scalars = [method(float(p)) for p in pts[::7]]
        assert method(np.array([])).shape == (0,)
    assert np.all(np.isfinite(got))
    with mpmath.workdps(60):
        want = np.array([_mp_log_psi(mpmath, psi, p, inverse) for p in pts])
    eps = np.finfo(float).eps
    bound = EXP_LOG_SQUARED_ULPS * np.where(np.abs(want) >= 1.0, np.spacing(np.abs(want)), eps)
    bad = np.abs(got - want) > bound
    assert not np.any(bad), list(zip(pts[bad], got[bad], want[bad]))[:5]
    for g, w, b, s in zip(got[::7], want[::7], bound[::7], scalars):
        assert type(s) is float and abs(s - w) <= b, (g, s, w)


# one of each family and composition; the contract below holds for all of them
CONTRACT_CASES = {
    "power": PowerFunction(2),
    "exp_log_squared": ExpLogSquared(),
    "exp_minus_one": ExpMinusOne(),
    "piecewise": PiecewiseAffine([(4.0, 16.0), (8.0, 48.0)], tail_slope=20.0),
    "paper_counterexample": build_counterexample(4),
    "square_compose": square_compose(PowerFunction(2)),
    "arg_square": arg_square(PowerFunction(2)),
    "scale_argument": scale_argument(ExpLogSquared(), 3.0),
}


@pytest.mark.parametrize("psi", CONTRACT_CASES.values(), ids=CONTRACT_CASES.keys())
def test_argument_contract(psi):
    for bad in (math.nan, -1.0, math.inf):
        for method in (psi.eval, psi.inverse):
            with pytest.raises(ValueError, match="expects a finite argument >= 0"):
                method(bad)
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="expects a finite argument >= 0"):
            psi.conjugate(bad)
    assert psi.conjugate(math.inf) == math.inf
    assert psi.eval(0.0) == psi.inverse(0.0) == psi.conjugate(0.0) == 0.0


def test_arg_square_overflow_is_signalled():
    with pytest.raises(EvaluationOverflow, match=r"arg_square\(power\(p=2\)\): eval\(1e\+200\)"):
        arg_square(PowerFunction(2)).eval(1e200)
    with pytest.raises(EvaluationOverflow, match=r"square_compose\(power\(p=2\)\)"):
        square_compose(PowerFunction(2)).eval(1e160)


def test_arg_square_is_finite_until_the_square_overflows():
    # x * x stays finite up to about 1.34e154, and so does Psi0(x * x) for p = 1
    psi = arg_square(PowerFunction(1))
    assert psi.eval(1e151).hex() == (1e302).hex()
    assert psi.eval_log(math.log(1e151)) == pytest.approx(math.log(1e302), rel=1e-15)
    with pytest.raises(EvaluationOverflow, match=r"arg_square\(power\(p=1\)\): eval\(1e\+155\)"):
        psi.eval(1e155)
    # the square is finite, the inner value is not
    with pytest.raises(EvaluationOverflow, match=r"arg_square\(power\(p=2\)\): eval\(1e\+100\)"):
        arg_square(PowerFunction(2)).eval(1e100)


# every one of these builds stays in double range (x_5**6 is about 1e283)
@pytest.mark.parametrize("n_max", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [4.0, 4.5, 6.0])
def test_counterexample_metadata(n_max, r):
    psi = build_counterexample(n_max, r)
    xs = counterexample_knot_points(n_max)
    primary = np.array([math.log(float(x)) for x in xs])
    secondary = np.array([math.log(float(2 * x)) for x in xs])
    assert _bitwise(psi.growth_anchor_logs(), primary)
    assert _bitwise(psi.secondary_anchor_logs(), secondary)
    assert _bitwise(psi.log_ys[0::2], 0.5 * r * primary) and _bitwise(psi.log_ys[1::2], r * primary)
    assert psi.domain_hint == (4.0, float(xs[-1]))
    # the trusted range ends at the last knot, as numpy's log reads it
    assert psi.trusted_log_hi == float(np.log(float(2 * xs[-1])))
    assert psi.family == "paper_counterexample"
    assert psi.label == f"paper_counterexample(n_max={n_max}, r={r:g})"
    assert psi.to_spec() == {"family": "paper_counterexample", "n_max": n_max, "r": r}
    again = parse_function_spec(psi.to_spec())
    assert _bitwise(again.log_xs, psi.log_xs) and _bitwise(again.log_ys, psi.log_ys)


def test_piecewise_metadata():
    psi = PiecewiseAffine([(4.0, 16.0), (8.0, 48.0), (16.0, 160.0)])
    assert _bitwise(psi.growth_anchor_logs(), np.log([4.0, 8.0, 16.0]))
    assert psi.secondary_anchor_logs().shape == (0,)
    assert psi.domain_hint == (4.0, 16.0)
    assert psi.family == "piecewise" and psi.label == "piecewise(3 knots)"
