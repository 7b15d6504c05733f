import math

import numpy as np
import pytest

from orlicz_lab.domains import BLOCK, CircleDomain, DiskDomain, circle, disk


def test_weights_normalized():
    assert abs(np.sum(circle(512).weights) - 1.0) <= 1e-12
    d = disk(128, 64)
    assert abs(np.sum(d.weights()) - 1.0) <= 1e-12
    assert abs(np.sum(DiskDomain.boundary_refined().weights()) - 1.0) <= 1e-12
    for h in (1.0 / 32.0, 0.3, 0.45):
        assert abs(np.sum(DiskDomain.kernel_refined(h).weights()) - 1.0) <= 1e-12
    assert abs(np.sum(CircleDomain.refined(0.0, 0.01).weights) - 1.0) <= 1e-12


def test_disk_radial_moments_exact():
    # integral of |z|^k dA/pi = 2/(k+2); Gauss-Legendre is exact here
    d = disk(16, 64)
    z = d.nodes()
    w = d.weights()
    for k in (0, 1, 2, 7, 20):
        got = float(np.sum(w * np.abs(z) ** k))
        assert got == pytest.approx(2.0 / (k + 2), rel=1e-13)


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


def _params(dom):
    return {k: v for k, v in dom.describe().items() if k != "size"}


# per rule kind: a rule, then the parameters of its half-resolution companion
# and of its refinements by 1 and 2 levels
DERIVED = [
    (circle(64), [{"n_theta": 32}, {"n_theta": 128}, {"n_theta": 256}]),
    (CircleDomain.refined(0.3, 0.01),
     [dict(focus_angle=0.3, scale=0.01, n_coarse=n, levels=lv, nodes_per_panel=npp)
      for n, lv, npp in ((128, 8, 8), (512, 12, 16), (1024, 14, 16))]),
    (disk(64, 32), [dict(n_theta=nt, n_radial=nr) for nt, nr in ((32, 16), (128, 64), (256, 128))]),
    (DiskDomain.kernel_refined(1.0 / 32.0, 0.7),
     [dict(scale=1.0 / 32.0, focus_angle=0.7, n_radial_base=n, nodes_per_panel=npp)
      for n, npp in ((32, 12), (128, 32), (256, 40))]),
    (DiskDomain.boundary_refined(16, 12, 32),
     [dict(k_max=k, nodes_per_panel=npp, n_theta=nt)
      for k, npp, nt in ((8, 6, 16), (26, 12, 32), (36, 12, 32))]),
]


def test_half_resolution_and_refine():
    d = disk(64, 32)
    assert d.half_resolution().size < d.size
    assert d.refine(1).size > d.size
    c = circle(64)
    assert c.half_resolution().size == 32
    assert c.refine(2).size == 256
    for dom, params in DERIVED:
        derived = [dom.half_resolution(), dom.refine(1), dom.refine(2)]
        fixed = {"rule": dom.describe()["rule"], "kind": dom.kind}
        assert [_params(d) for d in derived] == [dict(p, **fixed) for p in params]
        assert _params(dom.refine(0)) == _params(dom)
        sizes = [derived[0].size, dom.size, derived[1].size, derived[2].size]
        assert sizes == sorted(set(sizes)), (fixed, sizes)


# per constructor: the arguments of a rule it builds
CONSTRUCTORS = [
    (CircleDomain.uniform, dict(n_theta=64)),
    (CircleDomain.refined, dict(focus_angle=0.3, scale=0.01, n_coarse=256, levels=10,
                                nodes_per_panel=16)),
    (DiskDomain.polar, dict(n_theta=64, n_radial=32)),
    (DiskDomain.kernel_refined, dict(scale=1.0 / 32.0, focus_angle=0.7, n_radial_base=64,
                                     nodes_per_panel=24)),
    (DiskDomain.boundary_refined, dict(k_max=16, nodes_per_panel=12, n_theta=32)),
]


@pytest.mark.parametrize("build, args", CONSTRUCTORS, ids=[b.__name__ for b, _ in CONSTRUCTORS])
def test_a_rule_describes_the_call_that_built_it(build, args):
    dom = build(**args)
    described = dom.describe()
    assert described == {"rule": build.__name__, **args, "kind": dom.kind, "size": dom.size}
    assert list(described) == ["rule", *args, "kind", "size"]
    for derived in (dom.half_resolution(), dom.refine(1), dom.refine(2)):
        assert list(derived.describe()) == list(described)
        assert derived.describe()["rule"] == build.__name__


@pytest.mark.parametrize("dom", [
    circle(16), disk(16, 8), DiskDomain.boundary_refined(8, 6, 16),
    CircleDomain.refined(0.0, 0.01, 64, 4, 6), DiskDomain.kernel_refined(0.01, 0.0, 16, 8),
], ids=lambda dom: dom.describe()["rule"])
def test_half_resolution_refuses_the_floors_of_the_recipe(dom):
    with pytest.raises(ValueError, match="has no coarser companion"):
        dom.half_resolution()


def test_a_rule_built_directly_has_no_derived_rules():
    dom = DiskDomain(np.array([0.5]), np.array([1.0]), np.zeros(1), np.ones(1))
    assert dom.describe() == {"kind": "disk", "size": 1}
    with pytest.raises(ValueError, match="has no coarser companion"):
        dom.half_resolution()
    with pytest.raises(ValueError, match="has no refinement recipe"):
        dom.refine(1)


@pytest.mark.parametrize("dom", [circle(64), CircleDomain.refined(0.3, 0.01),
                                 CircleDomain.uniform(BLOCK + 1)],
                         ids=["uniform", "refined", "wider_than_a_block"])
def test_circle_is_the_one_radius_polar_rule(dom):
    assert _same_bits(dom.r, np.ones(1)) and _same_bits(dom.r_weights, np.ones(1))
    assert _same_bits(dom.nodes(), np.exp(1j * dom.theta))
    assert _same_bits(dom.weights, dom.theta_weights)
    assert _same_bits(dom._weights(), dom.theta_weights)
    blocks = []
    got = dom.map_nodes(lambda z: blocks.append(z.size) or np.abs(z - 0.5))
    assert blocks == [dom.size]
    assert _same_bits(got, np.abs(np.exp(1j * dom.theta) - 0.5))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dom", [
    disk(64, 32),                                # one block
    DiskDomain.kernel_refined(1.0 / 32.0, 1.0),  # 39-row blocks, a short last one
    DiskDomain.polar(40000, 3),                  # rows wider than a block: one row each
], ids=["one_block", "short_last_block", "wide_rows"])
def test_map_nodes_is_the_whole_rule_map(dom):
    z = dom.nodes()
    assert _same_bits(dom.nodes(rows=slice(2, 5)), z[2 * len(dom.theta):5 * len(dom.theta)])
    for fn, dtype in ((lambda z: np.abs(z - 0.3j), float),
                      (lambda z: np.abs(z - 1.0) < 0.25, bool),
                      (lambda z: z * z, complex)):
        assert _same_bits(dom.map_nodes(fn, dtype=dtype), fn(z))


def test_map_nodes_blocks_hold_whole_rows_of_at_most_block_points():
    sizes = []
    dom = DiskDomain.kernel_refined(1.0 / 32.0)
    dom.map_nodes(lambda z: sizes.append(z.size) or np.zeros(z.size))
    assert sum(sizes) == dom.size
    assert all(s % len(dom.theta) == 0 and s <= BLOCK for s in sizes)
    # every block but the last is as large as whole rows allow
    assert len(sizes) > 1
    assert set(sizes[:-1]) == {BLOCK // len(dom.theta) * len(dom.theta)}
