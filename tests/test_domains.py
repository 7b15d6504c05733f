import math

import numpy as np
import pytest

from orlicz_lab.domains import CircleDomain, DiskDomain, circle, disk


def test_weights_normalized():
    assert abs(np.sum(circle(512).weights) - 1.0) <= 1e-12
    d = disk(128, 64)
    assert abs(np.sum(d.weights()) - 1.0) <= 1e-12
    assert abs(np.sum(DiskDomain.boundary_refined().weights()) - 1.0) <= 1e-12
    assert abs(np.sum(DiskDomain.kernel_refined(1.0 / 32.0).weights()) - 1.0) <= 1e-12
    assert abs(np.sum(CircleDomain.refined(0.0, 0.01).weights) - 1.0) <= 1e-12


def test_disk_radial_moments_exact():
    # integral of |z|^k dA/pi = 2/(k+2); Gauss-Legendre is exact here
    d = disk(16, 64)
    z = d.nodes()
    w = d.weights()
    for k in (0, 1, 2, 7, 20):
        got = float(np.sum(w * np.abs(z) ** k))
        assert got == pytest.approx(2.0 / (k + 2), rel=1e-13)


def test_uniform_radial_rule_normalized():
    d = disk(16, 50, radial_rule="uniform")
    assert abs(np.sum(d.weights()) - 1.0) <= 1e-12


def test_circle_trig_exactness():
    # the uniform rule integrates e^{ijt} exactly for 0 < |j| < n
    dom = circle(64)
    z = dom.nodes()
    for j in (1, 5, 31):
        val = np.sum(dom.weights * z**j)
        assert abs(val) <= 1e-14
    assert np.sum(dom.weights * z**0).real == pytest.approx(1.0)


def test_circle_parseval():
    # modular of |f|^2 under Psi = x at c=1 equals the coefficient sum
    dom = circle(256)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=21) + 1j * rng.normal(size=21)
    z = dom.nodes()
    f = np.polynomial.polynomial.polyval(z, coeffs)
    got = float(np.sum(dom.weights * np.abs(f) ** 2))
    assert got == pytest.approx(float(np.sum(np.abs(coeffs) ** 2)), rel=1e-12)


def test_kernel_refined_resolves_peak():
    # coefficient series of u = h^2/(1-rho z)^2 gives
    # integral of |u|^2 dA/pi = h^4 sum (n+1) rho^(2n) = h^4/(1-rho^2)^2
    h = 1.0 / 32.0
    u = lambda z: (h / (1.0 - (1.0 - h) * z)) ** 2
    dom = DiskDomain.kernel_refined(h)
    z = dom.nodes()
    got = float(np.sum(dom.weights() * np.abs(u(z)) ** 2))
    rho = 1.0 - h
    exact = h**4 / (1.0 - rho * rho) ** 2
    assert got == pytest.approx(exact, rel=1e-9)


def test_boundary_refined_reaches_deep():
    d = DiskDomain.boundary_refined(k_max=40)
    assert np.max(d.r) > 1.0 - 1e-11
    assert np.all(d.r < 1.0)
    with pytest.raises(ValueError, match="k_max=41"):
        DiskDomain.boundary_refined(k_max=41)


def test_half_resolution_and_refine():
    d = disk(64, 32)
    assert d.half_resolution().size < d.size
    assert d.refine(1).size > d.size
    c = circle(64)
    assert c.half_resolution().size == 32
    assert c.refine(2).size == 256
