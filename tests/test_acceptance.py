"""Acceptance battery.

One test per acceptance criterion, each printing a pass line with its
measured margins.  Tolerances are pinned here and nowhere else; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from orlicz_lab.classify import classify_injection, estimate_quotient
from orlicz_lab.domains import CircleDomain, DiskDomain, circle, disk
from orlicz_lab.functions import (
    ExpLogSquared,
    ExpMinusOne,
    PowerFunction,
    arg_square,
    build_counterexample,
    counterexample_knot_points,
)
from orlicz_lab.grids import GrowthSampleGrid
from orlicz_lab.norms import (
    _log_samples,
    _solve_logs,
    hardy_norm,
    luxemburg_norm,
    modular,
    morse_transue_evidence,
    weak_tail_check,
)
from orlicz_lab.suites import (
    suite_contraction,
    suite_counterexample,
    suite_kernel_bounds,
)
from orlicz_lab.witnesses import (
    make_evaluation_envelope,
    make_kernel_family,
    make_monomial,
    make_polynomial,
)

SEED = 20260810


def _poly_corpus(rng, count, max_degree=20):
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        out.append(make_polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)))
    return out


def test_criterion_1_power_family_oracle():
    """Luxemburg root-finder agrees with direct (integral |f|^p)^(1/p) to 1e-8
    for 50 seeded polynomials, p in {1, 2, 4}, circle and disk."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    polys = _poly_corpus(rng, 50)
    circ = circle(256)
    dk = disk(128, 64)
    worst = 0.0
    for f in polys:
        for dom in (circ, dk):
            w = dom.weights() if isinstance(dom, DiskDomain) else dom.weights
            av = np.abs(f.values(dom.nodes()))
            for p in (1.0, 2.0, 4.0):
                oracle = float(np.sum(w * av**p)) ** (1.0 / p)
                got = _solve_logs(PowerFunction(p), *_log_samples(av, w))[0]
                worst = max(worst, abs(got - oracle) / oracle)
    elapsed = time.time() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS power-family oracle: worst rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_contraction():
    """Disk norm <= circle-sup norm + 1e-7 across the three test functions
    and the seeded polynomial corpus."""
    t0 = time.time()
    rep = suite_contraction(seed=SEED)
    elapsed = time.time() - t0
    failing = [c for c in rep.checks if not c.passed]
    assert rep.overall_pass, failing
    assert elapsed < 30.0
    worst = min(c.margin for c in rep.checks)
    print(f"\nACCEPTANCE 2 PASS contraction: {len(rep.checks)} checks, "
          f"smallest margin {worst:.3g}, {elapsed:.1f}s")


def test_criterion_3_counterexample_suite():
    """Recurrence values, exact knot identities, the squared sandwich with
    zero violations, the unit doubling quotient at knots, and the scaling
    lower bound at 1/(16M) - 1e-9."""
    t0 = time.time()
    xs = counterexample_knot_points(4)
    assert xs[1] == 56
    assert xs[2] == 175504
    psi = build_counterexample(4)
    for x in xs:
        assert psi.eval(float(x)) == float(x * x)
        assert psi.eval(float(2 * x)) == float(x**4)
    grid = np.linspace(math.log(4.0), math.log(float(xs[-1])), 500)
    v = np.asarray(psi.eval_log(grid))
    assert int(np.sum(v < 2.0 * grid - 1e-12)) == 0
    assert int(np.sum(v > 4.0 * grid + 1e-12)) == 0
    for x in xs:
        ratio = math.exp(
            float(psi.eval_log(math.log(float(2 * x)))) - 2.0 * float(psi.eval_log(math.log(float(x))))
        )
        assert abs(ratio - 1.0) <= 1e-12
    rep = suite_counterexample(psi)
    assert rep.overall_pass, [c for c in rep.checks if not c.passed]
    scaling = {c.description: c for c in rep.checks if c.description.startswith("scaling")}
    for m in (4.0, 16.0, 64.0):
        c = scaling[f"scaling lower bound, M={m:g}"]
        assert c.lhs >= 1.0 / (16.0 * m) - 1e-9
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS counterexample suite: {len(rep.checks)} checks, {elapsed:.2f}s")


def test_criterion_4_classifier_verdicts():
    """Five verdicts match theory at default grids, none inconclusive, and
    the squared-argument variant carries doubling-conjugate evidence."""
    t0 = time.time()
    cases = [
        (PowerFunction(2), "compact"),
        (ExpLogSquared(), "compact"),
        (ExpMinusOne(), "not_weakly_compact"),
        (build_counterexample(4), "weakly_compact_not_compact"),
        (arg_square(build_counterexample(4)), "weakly_compact_not_compact"),
    ]
    got = []
    for psi, expected in cases:
        rep = classify_injection(psi)
        assert rep.verdict != "inconclusive", psi.label
        assert rep.verdict == expected, (psi.label, rep.verdict)
        got.append(rep)
    assert got[-1].consequences["conjugate_delta2"]["holds"] == "yes"
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 4 PASS classifier verdicts: 5/5 correct, {elapsed:.2f}s")


def test_criterion_5_kernel_suite():
    """Boundary sums below 2.50332, disk-norm floors 1/(9/h) - 1e-6 under
    the square function, and the 1/9 window floor at 64 points per member."""
    t0 = time.time()
    h_grid = (1.0 / 8.0, 1.0 / 32.0, 1.0 / 128.0)
    rep = suite_kernel_bounds(h_grid=h_grid, psis=(PowerFunction(2),))
    assert rep.overall_pass, [c for c in rep.checks if not c.passed]
    for c in rep.checks:
        if c.description.startswith("boundary sum"):
            assert c.lhs <= 2.50332
        if c.description.startswith("disk norm floor"):
            h = float(c.description.split("h=")[1].split(",")[0])
            assert c.lhs >= 1.0 / (9.0 / h) - 1e-6
        if c.description.startswith("window floor"):
            assert c.lhs >= 1.0 / 9.0
    elapsed = time.time() - t0
    assert elapsed < 20.0
    print(f"\nACCEPTANCE 5 PASS kernel suite: h in {{1/8, 1/32, 1/128}}, {elapsed:.2f}s")


def test_criterion_6_carleson_windows():
    """h^2/4 <= A[S(xi, h)] <= h^2 for h = 2^-k, k = 1..10, quadrature error
    below 1e-6, rotation invariance below 1e-10."""
    from orlicz_lab.suites import (
        _window_measure_on_grid,
        carleson_window_area,
        carleson_window_area_quadrature,
    )

    t0 = time.time()
    for k in range(1, 11):
        h = 2.0**-k
        a_quad = carleson_window_area_quadrature(h)
        assert h * h / 4.0 <= a_quad <= h * h
        assert abs(a_quad - carleson_window_area(h)) <= 1e-6
    dom = disk(1024, 256)
    base = _window_measure_on_grid(dom, 0.0, 0.25)
    for m in (37, 211, 512):
        other = _window_measure_on_grid(dom, 2.0 * math.pi * m / 1024, 0.25)
        assert abs(other - base) <= 1e-10
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 6 PASS Carleson windows: k = 1..10, {elapsed:.2f}s")


def test_criterion_7_monomial_dichotomy():
    """Circle-sup norms of monomials are constant 1/Psi^{-1}(1) while the
    x^2 disk norms decay like 1/sqrt(n+1), through n = 256."""
    t0 = time.time()
    p2 = PowerFunction(2)
    dom = DiskDomain.polar(8, 320)
    worst_b = 0.0
    for n in range(1, 257):
        got = luxemburg_norm(make_monomial(n), p2, dom).value
        worst_b = max(worst_b, abs(got - 1.0 / math.sqrt(n + 1.0)))
    assert worst_b <= 1e-8
    circ = circle(64)
    worst_h = 0.0
    for psi in (p2, ExpLogSquared(), build_counterexample(4)):
        inv1 = psi.inverse(1.0)
        for n in (1, 2, 5, 17, 64, 199, 256):
            got = hardy_norm(make_monomial(n), psi, dom=circ).value
            worst_h = max(worst_h, abs(got - 1.0 / inv1))
    assert worst_h <= 1e-8
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 7 PASS monomial dichotomy: disk dev {worst_b:.2e}, "
          f"circle dev {worst_h:.2e}, {elapsed:.1f}s")


def test_criterion_8_order_boundedness():
    """Weak-tail bound passes at c = 1/8 and fails at c = 4 on the large-t
    window for both test functions; the envelope modular grows monotonically
    under three refinement levels."""
    t0 = time.time()
    cases = [
        (PowerFunction(2), (32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)),
        (build_counterexample(4), (32.0, 64.0, 128.0, 256.0, 448.0, 896.0)),
    ]
    for psi, t_grid in cases:
        env = make_evaluation_envelope(psi)
        good = weak_tail_check(env, psi, c=0.125, t_grid=t_grid)
        assert good["large_t_pass"], psi.label
        bad = weak_tail_check(env, psi, c=4.0, t_grid=t_grid)
        big_rows = [r for r in bad["rows"] if "small_t_exemption" not in r["flags"]]
        assert big_rows and all(not r["passes"] for r in big_rows), psi.label
        mt = morse_transue_evidence(env, psi, levels=3)
        assert mt["verdict"] == "divergence evidence"
        c4 = mt["modulars"]["4"]
        assert len(c4) == 3
        assert c4[0] < c4[1] < c4[2]
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 8 PASS order boundedness: both functions, {elapsed:.2f}s")


def test_criterion_9_engine_properties():
    """Homogeneity, triangle inequality, solidity, and modular monotonicity:
    200 seeded instances each, zero violations."""
    t0 = time.time()
    rng = np.random.default_rng(SEED + 1)
    psis = (PowerFunction(2), ExpLogSquared(), build_counterexample(4))
    circ = circle(256)
    w = circ.weights
    nodes = circ.nodes()

    homogeneity_viol = 0
    for i in range(200):
        psi = psis[i % 3]
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        lam = float(rng.uniform(0.05, 50.0))
        av = np.abs(np.polynomial.polynomial.polyval(nodes, coeffs))
        base = _solve_logs(psi, *_log_samples(av, w))[0]
        scaled = _solve_logs(psi, *_log_samples(lam * av, w))[0]
        if abs(scaled - lam * base) > 1e-8 * max(1.0, lam * base):
            homogeneity_viol += 1
    assert homogeneity_viol == 0

    triangle_viol = 0
    for i in range(200):
        psi = psis[i % 3]
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        fa = np.polynomial.polynomial.polyval(nodes, a)
        fb = np.polynomial.polynomial.polyval(nodes, b)
        na = _solve_logs(psi, *_log_samples(np.abs(fa), w))[0]
        nb = _solve_logs(psi, *_log_samples(np.abs(fb), w))[0]
        nab = _solve_logs(psi, *_log_samples(np.abs(fa + fb), w))[0]
        if nab > na + nb + 1e-7:
            triangle_viol += 1
    assert triangle_viol == 0

    solidity_viol = 0
    for i in range(200):
        psi = psis[i % 3]
        f_vals = np.abs(rng.normal(size=circ.size)) + 0.05
        g_vals = f_vals * (1.0 + np.abs(rng.normal(size=circ.size)))
        nf = _solve_logs(psi, *_log_samples(f_vals, w))[0]
        if nf > _solve_logs(psi, *_log_samples(g_vals, w))[0] + 1e-8:
            solidity_viol += 1
    assert solidity_viol == 0

    monotone_viol = 0
    cs = np.geomspace(0.05, 20.0, 12)
    for i in range(200):
        psi = psis[i % 3]
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        f = make_polynomial(coeffs)
        series = [modular(f, psi, circ, float(c)) for c in cs]
        for a, b in zip(series[:-1], series[1:]):
            if b > a * (1.0 + 1e-12) + 1e-300:
                monotone_viol += 1
    assert monotone_viol == 0

    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 9 PASS engine properties: 4 x 200 instances, "
          f"0 violations, {elapsed:.1f}s")
