import math

import numpy as np
import pytest

from orlicz_lab.domains import CircleDomain, DiskDomain, circle, disk
from orlicz_lab.functions import (
    ExpLogSquared,
    ExpMinusOne,
    PowerFunction,
    build_counterexample,
)
from orlicz_lab.norms import (
    NormResult,
    bergman_norm,
    circle_norm,
    hardy_norm,
    luxemburg_norm,
    modular,
    modular_from_values,
    morse_transue_evidence,
    weak_tail_check,
)
from orlicz_lab.witnesses import (
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
                w = dom.weights() if hasattr(dom, "r") else dom.weights
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
    from orlicz_lab.norms import _luxemburg_core

    for psi in ALL_PSIS:
        nf = _luxemburg_core(psi, f_vals, w)[0]
        ng = _luxemburg_core(psi, g_vals, w)[0]
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
    with pytest.raises(ValueError):
        hardy_norm(env, P2)


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


def test_hardy_rejects_bad_radii():
    with pytest.raises(ValueError):
        hardy_norm(make_monomial(1), P2, radii=(0.5, 1.5))
    with pytest.raises(ValueError):
        hardy_norm(make_monomial(1), P2, radii=(0.0,))


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
