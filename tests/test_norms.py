import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from orlicz_lab.domains import BLOCK, CircleDomain, DiskDomain, circle, disk
from orlicz_lab.functions import (
    ExpLogSquared,
    ExpMinusOne,
    OrliczFunction,
    PiecewiseAffine,
    PowerFunction,
    arg_square,
    build_counterexample,
    square_compose,
)
from orlicz_lab.logdomain import log1p_exp, log_expm1, log_sum
from orlicz_lab.suites import suite_contraction
from orlicz_lab import norms
from orlicz_lab.norms import (
    DEFAULT_RADII,
    NormResult,
    _log_samples,
    _samples,
    _solve_logs,
    bergman_norm,
    bergman_norms,
    circle_norm,
    hardy_norm,
    hardy_norms,
    luxemburg_norm,
    luxemburg_norms,
    modular,
    modular_from_values,
    morse_transue_evidence,
    weak_tail_check,
)
from orlicz_lab.witnesses import (
    ParameterRangeError,
    make_evaluation_envelope,
    make_kernel_squared,
    make_monomial,
    make_polynomial,
    make_scaled_kernel,
)

P2 = PowerFunction(2)
ALL_PSIS = (P2, ExpLogSquared(), build_counterexample(4))


def test_modular_constant():
    const3 = make_polynomial([3.0])
    for dom in (circle(128), disk(64, 48)):
        assert modular(const3, P2, dom, 3.0) == pytest.approx(1.0, abs=1e-13)


def test_modular_monomial_closed_forms():
    dom = disk(32, 64)
    for n, p in [(1, 2.0), (3, 2.0), (2, 4.0)]:
        got = modular(make_monomial(n), PowerFunction(p), dom, 1.0)
        assert got == pytest.approx(2.0 / (n * p + 2.0), rel=1e-12)
    assert modular(make_monomial(5), P2, circle(64), 1.0) == pytest.approx(1.0)


def test_modular_monotone_in_c():
    f = make_polynomial([1.0, 0.5, 0.25j])
    dom = disk(64, 48)
    cs = np.geomspace(0.1, 10.0, 25)
    vals = [modular(f, psi, dom, c) for psi in ALL_PSIS for c in cs]
    for psi in ALL_PSIS:
        series = [modular(f, psi, dom, c) for c in cs]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(series[:-1], series[1:]))


def test_modular_inf_marker():
    # scale the counterexample modular far past double range
    psi = build_counterexample(5)
    vals = np.array([1e80])
    w = np.array([1.0])
    assert modular_from_values(psi, vals, w, 1e-120) == math.inf


def test_luxemburg_constants_all_families():
    const = make_polynomial([2.5])
    dom = disk(64, 48)
    for psi in ALL_PSIS + (ExpMinusOne(), PowerFunction(1)):
        r = luxemburg_norm(const, psi, dom)
        assert r.converged
        assert r.value == pytest.approx(2.5 / psi.inverse(1.0), rel=1e-8)
        assert r.bracket[0] <= r.value <= r.bracket[1]
        if r.value > 0:
            assert abs(r.modular_at_value - 1.0) <= 1e-6


def test_luxemburg_zero_function():
    r = luxemburg_norm(make_polynomial([0.0]), P2, circle(64))
    assert r.value == 0.0 and r.converged


def test_luxemburg_monomials_disk():
    dom = DiskDomain.polar(8, 320)
    for n, p in [(1, 2.0), (5, 2.0), (255, 2.0), (8, 4.0)]:
        r = luxemburg_norm(make_monomial(n), PowerFunction(p), dom)
        assert r.value == pytest.approx((2.0 / (n * p + 2.0)) ** (1.0 / p), abs=1e-9)


def test_a_rule_at_the_floors_of_its_recipe_has_no_error_estimate():
    # the half-resolution recipes of disk(16, 8) and circle(16) give back the
    # rules themselves, whose modulars would read as a zero error
    f = make_kernel_squared(1.0 / 64.0)
    for r in (bergman_norm(f, build_counterexample(4), disk(16, 8)),
              hardy_norm(f, PowerFunction(2), dom=circle(16)),
              luxemburg_norm(make_monomial(3), PowerFunction(2), circle(16))):
        assert r.converged and r.value > 0.0
        assert r.quad_error_est == math.inf and "quadrature_unresolved" in r.flags
    # polar(8, 320) halves to polar(16, 160): as many nodes, but another rule
    r = luxemburg_norm(make_monomial(3), PowerFunction(2), DiskDomain.polar(8, 320))
    assert r.quad_error_est < 1e-12 and r.flags == ()


def test_power_oracle_agreement():
    rng = np.random.default_rng(100)
    circ = circle(256)
    dk = disk(128, 64)
    for _ in range(10):
        deg = int(rng.integers(1, 21))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        f = make_polynomial(coeffs)
        for p in (1.0, 2.0, 4.0):
            psi = PowerFunction(p)
            for dom in (circ, dk):
                w = dom.weights() if isinstance(dom, DiskDomain) else dom.weights
                av = np.abs(f.values(dom.nodes()))
                oracle = float(np.sum(w * av**p)) ** (1.0 / p)
                got = luxemburg_norm(f, psi, dom).value
                assert got == pytest.approx(oracle, rel=1e-8)


def test_homogeneity():
    rng = np.random.default_rng(200)
    dom = circle(256)
    f = make_polynomial(rng.normal(size=9) + 1j * rng.normal(size=9))
    base = luxemburg_norm(f, P2, dom).value
    for lam in (0.1, 3.7, 120.0):
        scaled = make_polynomial([lam * c for c in f.coeffs])
        got = luxemburg_norm(scaled, P2, dom).value
        assert abs(got - lam * base) <= 1e-8 * max(1.0, lam * base)


def test_triangle_inequality():
    rng = np.random.default_rng(300)
    dom = disk(64, 48)
    for psi in ALL_PSIS:
        for _ in range(5):
            a = rng.normal(size=6) + 1j * rng.normal(size=6)
            b = rng.normal(size=6) + 1j * rng.normal(size=6)
            na = luxemburg_norm(make_polynomial(a), psi, dom).value
            nb = luxemburg_norm(make_polynomial(b), psi, dom).value
            nab = luxemburg_norm(make_polynomial(a + b), psi, dom).value
            assert nab <= na + nb + 1e-7


def test_solidity():
    rng = np.random.default_rng(400)
    dom = circle(128)
    w = dom.weights
    f_vals = np.abs(rng.normal(size=dom.size)) + 0.1
    g_vals = f_vals * (1.0 + np.abs(rng.normal(size=dom.size)))

    for psi in ALL_PSIS:
        nf = _solve_logs(psi, *_log_samples(f_vals, w))[0]
        ng = _solve_logs(psi, *_log_samples(g_vals, w))[0]
        assert nf <= ng + 1e-8


def test_hardy_monomial_constant():
    for psi in ALL_PSIS:
        inv1 = psi.inverse(1.0)
        for n in (1, 17, 256):
            r = hardy_norm(make_monomial(n), psi, dom=circle(64))
            assert r.value == pytest.approx(1.0 / inv1, abs=1e-8)
            assert r.argmax_radius == 1.0


def test_hardy_rejects_non_analytic():
    env = make_evaluation_envelope(P2)
    with pytest.raises(ParameterRangeError, match="is not analytic"):
        hardy_norm(env, P2)


@pytest.mark.parametrize("h", (0.3, 0.45))
def test_bergman_norm_of_a_kernel_wider_than_a_quarter(h):
    # the radial panels below 1 - 4h are cut at 0, not dropped into r < 0
    assert bergman_norm(make_kernel_squared(h), P2).value == pytest.approx(h / (2.0 - h), rel=1e-9)
    f = make_scaled_kernel(P2, 1.6)  # r_j = 1 - 1/2.56, so its scale 1 - r_j exceeds 1/4
    exact = f.x_j * (1.0 - f.r_j) / (1.0 + f.r_j)
    assert bergman_norm(f, P2).value == pytest.approx(exact, rel=1e-9)


def test_hardy_scaled_kernel_unit_ball():
    for psi, x_j in [(P2, 10.0), (build_counterexample(4), 56.0), (ExpLogSquared(), 10.0)]:
        f = make_scaled_kernel(psi, x_j)
        r = hardy_norm(f, psi)
        assert r.converged
        assert r.value <= 1.0 + 2e-2


def test_bergman_kernel_closed_form():
    h = 1.0 / 32.0
    u = make_kernel_squared(h)
    r = bergman_norm(u, P2)
    rho = 1.0 - h
    exact = h * h / (1.0 - rho * rho)
    assert r.value == pytest.approx(exact, rel=1e-8)
    assert r.value >= 1.0 / (9.0 * P2.inverse(1.0 / (h * h))) - 1e-6


def test_bergman_kernel_lower_bound_other_psis():
    h = 1.0 / 32.0
    u = make_kernel_squared(h)
    for psi in (ExpLogSquared(), build_counterexample(4)):
        r = bergman_norm(u, psi)
        assert r.value >= 1.0 / (9.0 * psi.inverse(1.0 / (h * h))) - 1e-6


def test_contraction_inequality_spot():
    f = make_monomial(5)
    b = bergman_norm(f, P2, dom=disk(64, 256))
    h = hardy_norm(f, P2, dom=circle(64))
    assert b.value == pytest.approx(math.sqrt(2.0 / 12.0), abs=1e-9)
    assert b.value <= h.value + 1e-7


def test_weak_tail_power():
    env = make_evaluation_envelope(P2)
    res = weak_tail_check(env, P2, c=0.125, t_grid=(32, 64, 128, 256, 512, 1024))
    assert res["large_t_pass"]
    # exact radial set measure at t=100: 2/Psi(25) - 1/Psi(25)^2
    res100 = weak_tail_check(env, P2, c=0.125, t_grid=(100.0,))
    row = res100["rows"][0]
    exact = 2.0 / 625.0 - 1.0 / 625.0**2
    # indicator counting on the panel rule resolves the set to a few percent
    assert row["measure"] == pytest.approx(exact, rel=5e-2)
    assert row["bound"] == pytest.approx(1.0 / 156.25)
    bad = weak_tail_check(env, P2, c=4.0, t_grid=(32, 64, 128, 256, 512, 1024))
    assert not any(r["passes"] for r in bad["rows"])


def test_weak_tail_counterexample():
    psi = build_counterexample(4)
    env = make_evaluation_envelope(psi)
    good = weak_tail_check(env, psi, c=0.125, t_grid=(32, 64, 128, 256, 448, 896))
    assert good["large_t_pass"]
    bad = weak_tail_check(env, psi, c=4.0, t_grid=(32, 64, 128, 256, 448, 896))
    assert not any(r["passes"] for r in bad["rows"])


def test_weak_tail_trivial_flags():
    one = make_polynomial([1.0])
    res = weak_tail_check(one, P2, t_grid=(2.0,))
    row = res["rows"][0]
    assert row["measure"] == 0.0
    assert row["passes"]
    assert "beyond_node_max" in row["flags"]


def test_morse_transue_divergence():
    for psi in (P2, build_counterexample(4)):
        env = make_evaluation_envelope(psi)
        res = morse_transue_evidence(env, psi)
        assert res["verdict"] == "divergence evidence"
        c4 = res["modulars"]["4"]
        assert all(b > a for a, b in zip(c4[:-1], c4[1:]))


def test_morse_transue_membership():
    for f in (make_monomial(3), make_polynomial([1.0, 2.0])):
        res = morse_transue_evidence(f, P2)
        assert res["verdict"] == "membership evidence"


def test_morse_transue_refusing_saturated_refinement():
    # refining from k_max = 32 would pass k_max = 40, where the rules stop
    # getting finer and a divergent envelope would look stable
    env = make_evaluation_envelope(P2)
    with pytest.raises(ValueError, match="k_max"):
        morse_transue_evidence(env, P2, dom=DiskDomain.boundary_refined(k_max=32))
    res = morse_transue_evidence(env, P2, dom=DiskDomain.boundary_refined(k_max=16))
    assert res["verdict"] == "divergence evidence"


def test_envelope_luxemburg_flags_unresolved():
    env = make_evaluation_envelope(P2)
    r = luxemburg_norm(env, P2, DiskDomain.boundary_refined())
    assert "quadrature_unresolved" in r.flags


def test_norm_result_json_round_trip():
    r = bergman_norm(make_monomial(3), P2, dom=disk(32, 32))
    again = NormResult.from_json(r.to_json())
    assert again == r


def test_modular_rejects_bad_scale():
    with pytest.raises(ValueError):
        modular(make_monomial(1), P2, circle(32), 0.0)
    with pytest.raises(ValueError):
        modular(make_monomial(1), P2, circle(32), -1.0)
    with pytest.raises(ValueError, match="nan"):
        modular(make_monomial(1), P2, circle(32), math.nan)


def test_norms_refuse_the_other_kind_of_rule():
    # on disk(16, 8) z^3 has the Bergman norm 1/2 under x^2, on the circle
    # the Hardy and circle norm 1: the wrong rule would give the other norm
    f, on_disk, on_circle = make_monomial(3), disk(16, 8), circle(64)
    for norm in (lambda: hardy_norm(f, P2, dom=on_disk),
                 lambda: hardy_norms(f, ALL_PSIS, dom=on_disk),
                 lambda: circle_norm(f, P2, dom=on_disk)):
        with pytest.raises(ValueError, match="needs a circle rule") as err:
            norm()
        assert str(on_disk.describe()) in str(err.value)
    for norm in (lambda: bergman_norm(f, P2, dom=on_circle),
                 lambda: bergman_norms(f, ALL_PSIS, dom=on_circle)):
        with pytest.raises(ValueError, match="needs a disk rule") as err:
            norm()
        assert str(on_circle.describe()) in str(err.value)
    # the right kinds, and luxemburg_norm on either
    assert hardy_norm(f, P2, dom=on_circle).value == pytest.approx(1.0, rel=1e-8)
    assert circle_norm(f, P2, dom=on_circle).value == pytest.approx(1.0, rel=1e-8)
    assert bergman_norm(f, P2, dom=on_disk).value == pytest.approx(0.5, rel=1e-8)
    assert luxemburg_norm(f, P2, on_disk).value == pytest.approx(0.5, rel=1e-8)
    assert luxemburg_norm(f, P2, on_circle).value == pytest.approx(1.0, rel=1e-8)


def test_luxemburg_huge_constant_counterexample():
    # the modular runs through knot values ~1e31 in the log domain
    psi = build_counterexample(4)
    big = make_polynomial([1e12])
    r = luxemburg_norm(big, psi, disk(32, 32))
    assert r.converged
    assert r.value == pytest.approx(1e12 / psi.inverse(1.0), rel=1e-8)


def test_morse_transue_requires_four_decades():
    with pytest.raises(ValueError):
        morse_transue_evidence(make_monomial(1), P2, c_grid=(1.0, 0.5))


@pytest.mark.parametrize("c_grid", [(100.0, 0.0), (100.0, 0.01, -1.0),
                                    (100.0, math.nan, 0.001)])
def test_morse_transue_rejects_non_positive_scales(c_grid):
    with pytest.raises(ValueError, match="positive"):
        morse_transue_evidence(make_monomial(1), P2, c_grid=c_grid)


@pytest.mark.parametrize("c, t_grid, named", [
    (math.nan, (32.0, 64.0), "nan"),
    (-1.0, (32.0, 64.0), "-1.0"),
    (0.125, (32.0, math.nan), "nan"),
    (0.125, (0.0, 64.0), "0.0"),
])
def test_weak_tail_check_rejects_non_positive_scales(c, t_grid, named):
    # unchecked, a NaN c passes every row and c = -1 reaches math.log
    with pytest.raises(ValueError, match=f"positive, got {named}"):
        weak_tail_check(make_monomial(1), P2, dom=circle(32), c=c, t_grid=t_grid)


@pytest.mark.parametrize("levels", [1, 0, -1])
def test_morse_transue_refuses_fewer_than_two_levels(levels, monkeypatch):
    # the verdict compares the last two refinement levels; refused before
    # any rule is sampled, not as an IndexError after
    def sampled(*args):
        raise AssertionError("a rule was sampled")

    monkeypatch.setattr(norms, "_samples", sampled)
    with pytest.raises(ValueError, match=f"levels must be at least 2.*got {levels}"):
        morse_transue_evidence(make_monomial(3), P2, levels=levels)


def test_weak_tail_check_refuses_an_empty_t_grid():
    # zero rows would report all_pass and large_t_pass
    for t_grid in ((), []):
        with pytest.raises(ValueError, match="t_grid is empty"):
            weak_tail_check(make_monomial(1), P2, dom=circle(32), t_grid=t_grid)


def test_morse_transue_modulars_are_the_per_scale_modulars():
    # the logs are taken once per rule; every c's modular is still the one
    # modular_from_values gives on that rule, bit for bit
    env = make_evaluation_envelope(P2)
    dom = DiskDomain.boundary_refined(k_max=16)
    res = morse_transue_evidence(env, P2, dom=dom)
    rules = [dom.refine(k) for k in range(res["levels"])]
    for c, vals in res["modulars"].items():
        assert vals == [modular(env, P2, d, float(c)) for d in rules]


# -- root-finder contract ------------------------------------------------------


class _SampledFunction:
    """A stand-in witness with fixed values at every node."""

    analytic = True
    label = "sampled"

    def __init__(self, fill):
        self.fill = fill

    def values(self, z):
        return np.full(np.shape(z), self.fill, dtype=complex)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_samples_raise(bad):
    dom = circle(32)
    av = np.ones(dom.size)
    av[[3, 7]] = bad
    with pytest.raises(ValueError, match="2 of 32 sample values are not finite"):
        _solve_logs(P2, *_log_samples(av, dom.weights))
    f = _SampledFunction(complex(bad, 0.0))
    with pytest.raises(ValueError, match="32 of 32"):
        luxemburg_norm(f, P2, dom)
    with pytest.raises(ValueError, match="not finite"):
        circle_norm(f, P2, dom=dom)
    with pytest.raises(ValueError, match="not finite"):
        bergman_norm(f, P2, dom=disk(16, 8))
    with pytest.raises(ValueError, match="not finite"):
        hardy_norm(f, P2, dom=dom)


class _FlooredPower(PowerFunction):
    """x^2 with log Psi capped at -50: no scale C brings the modular to 1."""

    def eval_log(self, log_x):
        return np.minimum(super().eval_log(log_x), -50.0)


def test_unclosed_lower_bracket_raises():
    dom = circle(32)
    with pytest.raises(ValueError, match="lower bracket"):
        _solve_logs(_FlooredPower(2), *_log_samples(np.ones(dom.size), dom.weights))
    with pytest.raises(ValueError, match="lower bracket"):
        luxemburg_norm(make_monomial(3), _FlooredPower(2), dom)


def test_hardy_flags_unresolved_quadrature():
    # the same rule as luxemburg_norm: a modular moved by more than 1e-3
    # on the half-resolution rule flags the norm
    psi = build_counterexample(4)
    r = hardy_norm(make_scaled_kernel(psi, 56.0), psi)
    assert r.quad_error_est == pytest.approx(0.019, rel=0.05)
    assert "quadrature_unresolved" in r.flags
    assert r.converged


def test_extrapolated_flag():
    # value 0.00766 puts Psi's argument near 130.5, past the last knot 112
    psi = build_counterexample(2)
    r = bergman_norm(make_kernel_squared(0.001), psi)
    assert r.value == pytest.approx(0.00766, rel=1e-3)
    assert "extrapolated" in r.flags
    assert "extrapolated" not in bergman_norm(make_kernel_squared(1.0 / 32.0), psi).flags
    # power functions are trusted everywhere
    for p in (1.0, 2.0, 4.0):
        for f in (make_kernel_squared(0.001), make_scaled_kernel(P2, 1e6), make_monomial(7)):
            assert "extrapolated" not in bergman_norm(f, PowerFunction(p)).flags
            if f.analytic:
                assert "extrapolated" not in hardy_norm(f, PowerFunction(p)).flags


def _mp_psi(mpmath, family, x):
    if family == "power":
        return x ** mpmath.mpf("1.5")
    if family == "exp_minus_one":
        return mpmath.expm1(x)
    return mpmath.expm1(mpmath.log1p(x) ** 2)


def _mp_luxemburg(family, av, w):
    """Bisection at 50 digits on the modular written directly in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        av = [mpmath.mpf(float(a)) for a in av]
        w = [mpmath.mpf(float(x)) for x in w]

        def mod(c):
            return mpmath.fsum(wi * _mp_psi(mpmath, family, a / c) for a, wi in zip(av, w))

        lo, hi = mpmath.mpf("1e-3"), mpmath.mpf(1e3)
        assert mod(lo) > 1 > mod(hi)
        for _ in range(120):
            mid = (lo + hi) / 2
            if mod(mid) > 1:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


@pytest.mark.parametrize("psi", [PowerFunction(1.5), ExpMinusOne(), ExpLogSquared()],
                         ids=lambda psi: psi.family)
def test_core_matches_mpmath_oracle(psi):
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(500)
    f = make_polynomial(rng.normal(size=5) + 1j * rng.normal(size=5))
    for dom in (circle(16), disk(8, 4), circle(64)):
        av, w = _samples(f, dom)
        got = _solve_logs(psi, *_log_samples(av, w))
        assert got.converged
        assert got.value == pytest.approx(_mp_luxemburg(psi.family, av, w), rel=1e-8)


def test_power_family_converges_in_two_steps():
    # log M is affine in log C, so the first secant lands on the root
    rng = np.random.default_rng(600)
    for dom in (circle(64), disk(64, 48), DiskDomain.polar(8, 320)):
        for _ in range(4):
            f = make_polynomial(rng.normal(size=8) + 1j * rng.normal(size=8))
            av, w = _samples(f, dom)
            for p in (1.0, 1.5, 2.0, 4.0):
                root = _solve_logs(PowerFunction(p), *_log_samples(av, w))
                assert root.converged and root.iters <= 2
                assert abs(root.modular - 1.0) <= 1e-9


_CONVEX_BASES = (PowerFunction(1.0), PowerFunction(1.5), P2, PowerFunction(4.0), ExpLogSquared(),
                 ExpMinusOne(), build_counterexample(4), build_counterexample(4, 5.0))
CONVEX_PSIS = (_CONVEX_BASES + tuple(square_compose(p) for p in _CONVEX_BASES)
               + tuple(arg_square(p) for p in _CONVEX_BASES))


def _recorded_log_modulars(monkeypatch):
    """The log modulars a solve evaluates, in order."""
    logs = []
    inner = norms._log_modular

    def recorded(*args):
        logs.append(inner(*args))
        return logs[-1]

    monkeypatch.setattr(norms, "_log_modular", recorded)
    return logs


@pytest.mark.parametrize("psi", CONVEX_PSIS, ids=lambda psi: psi.label)
def test_jensen_bracket_needs_no_safeguard_step(monkeypatch, psi):
    # on a probability rule Psi(mean|f|/C) <= M(C) <= Psi(max|f|/C), so the
    # first two modulars of a solve, at C = mean|f| / Psi^-1(1) and
    # C = max|f| / Psi^-1(1), are >= 1 and <= 1
    rng = np.random.default_rng(900)
    constant = make_polynomial([2.5])
    witnesses = [make_monomial(5), make_kernel_squared(1.0 / 8.0, 0.3), constant]
    witnesses += [make_polynomial(scale * (rng.normal(size=8) + 1j * rng.normal(size=8)))
                  for scale in (0.01, 1.0, 30.0)]
    logs = _recorded_log_modulars(monkeypatch)
    for dom in (circle(64), disk(64, 48)):
        for f in witnesses:
            av, w = _samples(f, dom)
            del logs[:]
            root = _solve_logs(psi, *_log_samples(av, w))
            assert logs[0] >= 0.0 >= logs[1], (f.label, dom.describe())
            assert root.converged
            if f is constant:
                # the bracket is [C - 1e-9 C, C + 1e-9 C] about the root C
                assert root.value == pytest.approx(2.5 / psi.inverse(1.0), rel=1e-8)


def test_non_probability_weights_close_through_the_safeguards(monkeypatch):
    # total mass 3 breaks Jensen's bracket: at p = 1 the modular at the upper
    # end is about 3 mean|f| / max|f| > 1, at p > 1 the one at the lower end
    # about 3^(1-p) < 1; the safeguard loops widen that end
    dom = circle(64)
    av, w = np.abs(make_polynomial([2.0, 0.3]).values(dom.nodes())), 3.0 * dom.weights
    logs = _recorded_log_modulars(monkeypatch)
    for p in (1.0, 1.5, 2.0, 4.0):
        del logs[:]
        root = _solve_logs(PowerFunction(p), *_log_samples(av, w))
        assert not logs[0] >= 0.0 >= logs[1]
        assert root.converged
        assert root.value == pytest.approx(float(np.sum(w * av**p)) ** (1.0 / p), rel=1e-8)


def _counting_solves(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _solve_logs(*args)

    monkeypatch.setattr(norms, "_solve_logs", counted)
    return calls


def test_modular_budget_per_bergman_solve(monkeypatch):
    # modular evaluations per solve on the disk(256, 96) rule of the
    # contraction suite: a count, so the bracket and step rule are guarded
    # without timing anything (a peak-node bracket with Illinois steps took
    # 8.98 for exp_log_squared and 6.0 for the counterexample)
    rule = disk(256, 96).describe()
    state, counts = {"n": 0, "on_rule": False}, {}
    inner_norms, inner_solve, inner_modular = (norms.luxemburg_norms, norms._solve_logs,
                                               norms._log_modular)

    def luxemburg_norms(f, psis, dom):
        state["on_rule"] = dom.describe() == rule
        return inner_norms(f, psis, dom)

    def solve(psi, log_av, log_w):
        state["n"] = 0
        root = inner_solve(psi, log_av, log_w)
        if state["on_rule"]:
            counts.setdefault(psi.family, []).append(state["n"])
        return root

    def log_modular(*args):
        state["n"] += 1
        return inner_modular(*args)

    monkeypatch.setattr(norms, "luxemburg_norms", luxemburg_norms)
    monkeypatch.setattr(norms, "_solve_logs", solve)
    monkeypatch.setattr(norms, "_log_modular", log_modular)
    suite_contraction()
    mean = {family: sum(n) / len(n) for family, n in counts.items()}
    # the monomial, the constant and 50 random polynomials, under each Psi
    assert sorted(map(len, counts.values())) == [52, 52, 52]
    assert mean["power"] == 3.0
    assert mean["exp_log_squared"] <= 7.0
    assert mean["paper_counterexample"] <= 4.0


def test_hardy_solves_once_for_monomials(monkeypatch):
    assert DEFAULT_RADII == (1.0,)
    calls = _counting_solves(monkeypatch)
    for psi in ALL_PSIS:
        for n in (1, 5, 64):
            calls.clear()
            r = hardy_norm(make_monomial(n), psi, dom=circle(64))
            assert len(calls) == 1
            assert r.argmax_radius == 1.0
            assert r.value == pytest.approx(1.0 / psi.inverse(1.0), rel=1e-8)


class _ShrinkingDilates:
    """|f_r| = (3 - 2r)|1 + z/2| on |z| = 1: the dilates shrink toward r = 1,
    which no analytic function does."""

    analytic = True
    label = "shrinking_dilates"

    def values(self, z):
        z = np.asarray(z)
        return (3.0 - 2.0 * np.abs(z)) * (1.0 + 0.5 * z / np.maximum(np.abs(z), 1e-300))


class _CountedValues:
    """f with a count of the points it is sampled at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __getattr__(self, name):
        return getattr(self.f, name)

    def values(self, z):
        self.points += np.size(z)
        return self.f.values(z)


@pytest.mark.parametrize("make_f, nonzero", [
    (lambda: make_polynomial(np.random.default_rng(900).normal(size=9)
                             + 1j * np.random.default_rng(901).normal(size=9)), True),
    (lambda: make_kernel_squared(1.0 / 32.0), True),
    (lambda: make_polynomial([0.0]), False),
    (_ShrinkingDilates, True),
], ids=["polynomial", "kernel_squared", "zero", "shrinking_dilates"])
def test_plural_norms_equal_the_singular_ones(make_f, nonzero):
    # a zero f has no value to check on the half-resolution rule
    f = make_f()
    circ, disk_dom = norms._circle_for(f), norms._disk_for(f)
    for plural, singular, samples in (
        (hardy_norms, hardy_norm, circ.size + nonzero * circ.half_resolution().size),
        (bergman_norms, bergman_norm, disk_dom.size + nonzero * disk_dom.half_resolution().size),
        (lambda f, psis: luxemburg_norms(f, psis, circle(64)),
         lambda f, psi: circle_norm(f, psi, circle(64)), 64 + nonzero * 32),
    ):
        # one sampling pass per rule, whatever the number of Psi
        counted = _CountedValues(f)
        results = plural(counted, ALL_PSIS)
        assert counted.points == samples
        assert len(results) == len(ALL_PSIS)
        for psi, result in zip(ALL_PSIS, results):
            counted = _CountedValues(f)
            assert result.to_json() == singular(counted, psi).to_json()
            assert counted.points == samples


# -- blocked evaluation ----------------------------------------------------------


_BLOCK_BASES = (P2, PowerFunction(3.3), ExpLogSquared(), ExpMinusOne(), build_counterexample(4))
BLOCK_PSIS = (_BLOCK_BASES + tuple(square_compose(p) for p in _BLOCK_BASES)
              + tuple(arg_square(p) for p in _BLOCK_BASES))


@pytest.mark.parametrize("psi", BLOCK_PSIS, ids=lambda psi: psi.label)
def test_blocked_log_modular_is_the_whole_array_formula(psi):
    # eval_log on blocks into one buffer, then one log-sum-exp over it, gives
    # the bits of the whole-array formula at every length
    b = BLOCK
    rng = np.random.default_rng(17)
    n_max = 3 * b + 5
    log_av = rng.uniform(-3.0, 5.0, n_max)
    log_av[b:2 * b] *= 1.6
    log_w = rng.uniform(-16.0, -4.0, n_max)
    # ExpLogSquared's blocks take both log_expm1 branches: s = log(1+x)^2
    # stays <= 33 on the first block only
    s = np.logaddexp(0.0, log_av - 0.3) ** 2
    assert s[:b].max() <= 33.0 < s[b:2 * b].max()
    for n in (1, b - 1, b, b + 1, n_max):
        for log_c in (-1.0, 0.3, 2.0):
            lx, lw = log_av[:n], log_w[:n]
            want = log_sum(lw + psi.eval_log(lx - log_c))
            got = norms._log_modular(psi, lx, lw, log_c)
            assert float(got).hex() == float(want).hex(), (n, log_c)


_WITNESSES = (
    make_monomial(7),
    make_polynomial(np.random.default_rng(5).normal(size=6) + 0.5j),
    make_kernel_squared(1.0 / 32.0, 0.4),
    make_scaled_kernel(P2, 10.0),
    make_evaluation_envelope(build_counterexample(4)),
)


@pytest.mark.parametrize("f", _WITNESSES, ids=lambda f: f.label)
def test_blocked_disk_sampling_is_the_whole_rule_sampling(f):
    # 2 blocks of 64 rows, and 6 blocks with a short last one
    for dom in (disk(512, 128), DiskDomain.kernel_refined(1.0 / 32.0, 0.4)):
        assert dom.size >= 2 * BLOCK
        got, want = _samples(f, dom)[0], np.abs(f.values(dom.nodes()))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_blocked_envelope_sampling_still_refuses_the_boundary():
    # the radius-1 row sits in the last of several blocks
    r = np.linspace(0.05, 1.0, 20)
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    dom = DiskDomain(r, np.full(20, 0.05), theta, np.full(4096, 1.0 / 4096))
    assert dom.size > 2 * BLOCK
    with pytest.raises(ValueError, match="open disk"):
        _samples(make_evaluation_envelope(P2), dom)


def test_kernel_norm_memory_stays_bounded():
    # the 193,024-node kernel rule is solved in blocks: its traced peak was
    # 18.7 MB when eval_log ran on the whole rule at once
    f = make_kernel_squared(1.0 / 32.0)
    psis = (P2, ExpLogSquared(), build_counterexample(4))
    tracemalloc.start()
    try:
        bergman_norms(f, psis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# -- the Hardy norm at the largest radius ----------------------------------------


# the radii of the Hardy radius sweep that the one solve at radius 1 replaced
_RADII = tuple(1.0 - 2.0**-k for k in range(1, 21)) + (1.0,)


class _Dilate:
    """f_r(z) = f(r z)."""

    analytic = True

    def __init__(self, f, r):
        self.f, self.r, self.label = f, r, f"{f.label} at r={r:g}"

    def values(self, z):
        return self.f.values(self.r * np.asarray(z))


def _row_by_row_sups(f, dom, psis, radii=_RADII):
    """The Hardy radius sweep from before hardy_norms solved only the largest
    radius, kept as the brute force: every radius, largest first, sampled
    alone, checked at each Psi's current sup and solved when that check
    exceeds 0.  Returns each Psi's [root, radius] of the sup."""
    radii = sorted(radii, reverse=True)
    logs = _log_samples(*_samples(_Dilate(f, radii[0]), dom))
    sups = [[_solve_logs(psi, *logs), radii[0]] for psi in psis]
    for r in radii[1:]:
        logs = _log_samples(*_samples(_Dilate(f, r), dom))
        for psi, sup in zip(psis, sups):
            v = sup[0].value
            if not (v > 0.0 and norms._log_modular(psi, *logs, math.log(v)) <= 0.0):
                root = _solve_logs(psi, *logs)
                if root.value > v:
                    sup[:] = root, r
    return sups


def _polynomial(seed, degree=8):
    rng = np.random.default_rng(seed)
    return make_polynomial(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))


_SWEEP_CASES = (
    [(f"polynomial_{seed}", lambda seed=seed: _polynomial(seed), None) for seed in (1, 2, 3)]
    + [(f"monomial_{n}", lambda n=n: make_monomial(n), None) for n in (1, 12)]
    + [("constant", lambda: make_polynomial([2.5]), None),
       ("zero", lambda: make_polynomial([0.0]), None)]
    + [(f"kernel_squared_{h}", lambda h=h: make_kernel_squared(1.0 / h, 0.7), None)
       for h in (8, 32, 128)]
    + [("zero_at_half", lambda: make_polynomial([-0.5, 1.0]), None),
       ("polynomial_circle_4096", lambda: _polynomial(4), lambda: circle(4096))]
)


@pytest.mark.parametrize("make_f, make_dom", [c[1:] for c in _SWEEP_CASES],
                         ids=[c[0] for c in _SWEEP_CASES])
def test_blocked_sweep_is_the_row_by_row_sweep(make_f, make_dom):
    # the one solve at the largest radius is, bit for bit, the sup that the
    # row-by-row sweep over every radius finds under each of 15 Psi (the name
    # is from the blocked radius sweep that the one solve replaced)
    f = make_f()
    dom = make_dom() if make_dom else norms._circle_for(f)
    got = hardy_norms(f, BLOCK_PSIS, dom=dom)
    for g, (root, r) in zip(got, _row_by_row_sups(f, dom, BLOCK_PSIS)):
        assert r == g.argmax_radius == 1.0
        assert (g.value, g.bracket, g.bisection_iters, g.modular_at_value) == root[:4]


def test_the_sweep_cases_cover_zeros_and_several_blocks():
    # make_polynomial([-0.5, 1]) vanishes at the node 0.5 of the r = 0.5 row,
    # which the row-by-row sweep samples
    assert make_polynomial([-0.5, 1.0]).values(np.array([0.5 * circle().nodes()[0]]))[0] == 0


@pytest.mark.parametrize("psi", BLOCK_PSIS, ids=lambda psi: psi.label)
def test_batched_check_is_the_row_by_row_check(psi):
    # eval_log on one flat slice of 12 circles' samples gives each circle's
    # row and each point the bits of its own call, whatever the slice, the row
    # or the point holds (points on both sides of the first knot or on one,
    # one log_expm1 branch or both, an array or a scalar); at log_c = -2.62 and
    # -1.93 the first knot of the counterexample and of its arg_square falls
    # between the rows' smallest values.  (The name is from the blocked
    # radius check this test once covered.)
    dom = circle(512)
    rows = np.array(_RADII[::-1][:12])
    av = np.abs(_polynomial(7).values(np.outer(rows, dom.nodes()).ravel())).reshape(12, -1)
    for log_c in (-2.62, -2.0, -1.93, 0.4, 1.5, 4.0):
        lx = np.log(av) - log_c
        got = psi.eval_log(lx.ravel())
        for j in range(len(rows)):
            assert psi.eval_log(lx[j]).tobytes() == got.reshape(lx.shape)[j].tobytes(), (j, log_c)
        for x, y in zip(lx.ravel()[::61], got[::61]):
            assert float(psi.eval_log(float(x))).hex() == float(y).hex(), (x, log_c)


class _CountedPsi:
    """psi with a count of the points its eval_log is called on."""

    def __init__(self, psi):
        self.psi, self.points = psi, 0

    def __getattr__(self, name):
        return getattr(self.psi, name)

    def eval_log(self, log_x):
        self.points += np.size(log_x)
        return self.psi.eval_log(log_x)


@pytest.mark.parametrize("make_f", [_ShrinkingDilates, lambda: _polynomial(8)],
                         ids=["shrinking_dilates", "polynomial"])
def test_blocked_sweep_evaluates_psi_no_more_than_row_by_row(make_f):
    f, dom = make_f(), circle()
    counted = [_CountedPsi(psi) for psi in ALL_PSIS]
    _row_by_row_sups(f, dom, counted)
    want = [c.points for c in counted]
    counted = [_CountedPsi(psi) for psi in ALL_PSIS]
    hardy_norms(f, counted, dom=dom)
    assert all(c.points <= w for c, w in zip(counted, want))


_THEOREM_PSIS = ALL_PSIS + (arg_square(build_counterexample(4)),)


@pytest.mark.parametrize("f", [_polynomial(seed) for seed in (1, 2, 3)]
                         + [make_monomial(n) for n in (1, 12)]
                         + [make_kernel_squared(1.0 / h, 0.7) for h in (8, 32, 128)]
                         + [make_scaled_kernel(P2, 10.0),
                            make_scaled_kernel(build_counterexample(4), 56.0)],
                         ids=lambda f: f.label)
def test_no_dilate_beats_the_largest_radius(f):
    # Hardy's convexity theorem: for analytic f and convex increasing Psi the
    # circle norm of f_r does not decrease in r, which is why hardy_norms
    # solves only the largest radius; 1e-4 is quadrature noise
    dom, inner = norms._circle_for(f), _RADII[:-1]
    assert len(inner) == 20 and max(inner) < 1.0
    for psi, top in zip(_THEOREM_PSIS, hardy_norms(f, _THEOREM_PSIS, dom=dom)):
        assert top.argmax_radius == 1.0
        assert replace(top, argmax_radius=None).to_json() == circle_norm(f, psi, dom).to_json()
        for r in inner:
            assert circle_norm(_Dilate(f, r), psi, dom).value <= top.value * (1.0 + 1e-4), r


class _LargestCall(_CountedValues):
    """f with the size of its largest values call."""

    def values(self, z):
        self.points = max(self.points, np.size(z))
        return self.f.values(z)


@pytest.mark.parametrize("dom", [circle(), CircleDomain.refined(0.3, 1.0 / 64.0), circle(4096),
                                 circle(BLOCK + 1000)],
                         ids=lambda dom: str(dom.size))
def test_hardy_samples_one_block_at_a_time(dom):
    f = _LargestCall(_polynomial(9, degree=3))
    hardy_norms(f, (P2,), dom=dom)
    assert 0 < f.points <= max(BLOCK, dom.size)


class _OnePlusX(OrliczFunction):
    """Psi(x) = 1 + x: Psi(0+) = 1, so Psi^-1(1) = 0 and its log is -inf."""

    family = "one_plus_x"

    def eval_log(self, log_x):
        return log1p_exp(log_x)

    def inverse_log(self, log_y):
        return log_expm1(log_y)


def test_a_psi_without_a_finite_inverse_at_one_is_refused():
    # Jensen's bracket would start both ends at +inf and report inf as converged
    with pytest.raises(ValueError, match=r"one_plus_x: log Psi\^-1\(1\) is -inf, not finite"):
        luxemburg_norm(make_monomial(1), _OnePlusX(), circle(64))


def test_the_solver_stops_on_a_closed_bracket_whose_modular_is_far_from_one():
    # Psi jumps from 1/2 to 2 across [1, 1 + 2**-46]: the modular of the
    # constant 1 crosses 1 inside a bracket far narrower than its tolerance,
    # so the solve ends on the bracket width, not on |M - 1| <= TOL_MODULAR
    psi = PiecewiseAffine([(1.0, 0.5), (1.0 + 2**-46, 2.0)])
    res = luxemburg_norm(make_polynomial([1.0]), psi, circle(64))
    lo, hi = res.bracket
    assert res.converged and res.bisection_iters == 1
    assert lo < res.value < hi and hi - lo <= norms.BRACKET_REL_TOL * hi
    assert res.value == pytest.approx(0.99999999994, abs=1e-11)
    assert res.modular_at_value == pytest.approx(5968.625, rel=1e-6)


class _FiniteOnTheFirstRuleOnly:
    """Finite samples on the first rule sampled, infinite ones on any later rule."""

    analytic = False
    label = "finite on the first rule only"

    def __init__(self):
        self.rules = 0

    def values(self, z):
        self.rules += 1
        return np.full(np.shape(z), 1.0 if self.rules == 1 else np.inf)


def test_a_non_finite_sample_on_the_companion_rule_still_raises():
    # circle(64) is sampled in one block, its companion circle(32) in another
    with pytest.raises(ValueError, match="32 of 32 sample values are not finite"):
        luxemburg_norm(_FiniteOnTheFirstRuleOnly(), PowerFunction(2), circle(64))


def test_weak_tail_bound_is_finite_up_to_the_double_range():
    # log Psi(c t) = log(1e-307 * 32) ~ -703.4: the bound 1/Psi(c t) ~ 3.1e305
    # is a double, and only a bound past the double range reads inf
    out = weak_tail_check(make_monomial(1), PowerFunction(1), c=1e-307, t_grid=(32.0,))
    assert out["rows"][0]["bound"] == pytest.approx(1.0 / (1e-307 * 32.0), rel=1e-12)
