import cmath
import math
import re

import numpy as np
import pytest

from orlicz_lab.domains import BLOCK, DiskDomain, disk
from orlicz_lab.functions import ExpMinusOne, PowerFunction, build_counterexample
from orlicz_lab.norms import _samples
from orlicz_lab.witnesses import (
    KernelSquared,
    Monomial,
    Polynomial,
    make_evaluation_envelope,
    make_kernel_family,
    make_kernel_squared,
    make_monomial,
    make_polynomial,
    make_scaled_kernel,
    parse_sampled_spec,
)

KERNEL_SUM_BOUND = math.e**2 / (math.e - 1.0) ** 2


def test_monomial_values():
    assert complex(make_monomial(0).values(np.array([0.3 + 0.1j]))[0]) == 1.0 + 0.0j
    assert complex(make_monomial(1).values(np.array([1j]))[0]) == 1j
    assert complex(make_monomial(3).values(np.array([0.5]))[0]) == 0.125


def test_kernel_values():
    u = make_kernel_squared(0.25)
    # at z = 1-h the denominator is 1-(1-h)^2 = h(2-h)
    v = abs(complex(u.values(np.array([0.75]))[0]))
    assert v == pytest.approx(0.0625 / 0.19140625, rel=1e-12)
    assert v >= 1.0 / 9.0
    assert abs(complex(u.values(np.array([0.0]))[0])) == pytest.approx(0.0625)
    assert abs(complex(u.values(np.array([1.0]))[0])) == pytest.approx(1.0)


def test_kernel_bounded_by_one_on_disk():
    rng = np.random.default_rng(11)
    z = rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000)
    z = z[np.abs(z) <= 1.0]
    for h in (0.25, 1.0 / 32.0):
        u = make_kernel_squared(h, 0.7)
        assert np.max(np.abs(u.values(z))) <= 1.0 + 1e-12


def test_kernel_range_check():
    with pytest.raises(ValueError):
        make_kernel_squared(0.6)
    with pytest.raises(ValueError):
        make_kernel_squared(0.0)


@pytest.mark.parametrize("u", [make_kernel_squared(1.0 / 32.0, 0.4),
                               make_scaled_kernel(PowerFunction(2), 10.0, 2.5),
                               make_scaled_kernel(build_counterexample(4), 56.0)],
                         ids=lambda u: u.label)
def test_kernel_moduli_are_those_of_the_broadcast_product(u):
    # the kernels once multiplied their values by np.ones_like(denom); |values|
    # keeps its bits on rules of several blocks, sampled as the norms sample
    for dom in (disk(512, 128), DiskDomain.kernel_refined(u.scale_hint, u.xi_angle)):
        assert dom.size >= 2 * BLOCK
        z = dom.nodes()
        xi_bar = cmath.exp(-1j * u.xi_angle)
        if hasattr(u, "h"):
            denom = 1.0 - (1.0 - u.h) * xi_bar * z
            old = (u.h / denom) ** 2 * np.ones_like(denom)
        else:
            denom = 1.0 - u.r_j * xi_bar * z
            old = u.x_j * ((1.0 - u.r_j) / denom) ** 2 * np.ones_like(denom)
        want = np.abs(old)
        for got in (np.abs(u.values(z)), _samples(u, dom)[0]):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_scaled_kernel_parameters():
    f = make_scaled_kernel(PowerFunction(2), 10.0)
    assert f.r_j == pytest.approx(0.99)
    assert abs(complex(f.values(np.array([0.0]))[0])) == pytest.approx(10.0 / 100.0**2)
    psi = build_counterexample(4)
    f56 = make_scaled_kernel(psi, 56.0)
    assert f56.r_j == pytest.approx(1.0 - 1.0 / 3136.0, rel=1e-15)


def test_scaled_kernel_rejects_small_psi():
    with pytest.raises(ValueError):
        make_scaled_kernel(PowerFunction(2), 1.0)  # Psi(1) = 1 <= 2


@pytest.mark.parametrize("x_j", [40.0, 56.0])
def test_scaled_kernel_names_a_radius_that_rounds_to_one(x_j):
    # 1/Psi(x_j) is below half an ulp of 1, so r_j = 1 - 1/Psi(x_j) is 1.0
    cause = f"r_j = 1 - 1/Psi(x_j) rounds to 1 at x_j = {x_j:g}, Psi(x_j) = {math.expm1(x_j):g}"
    with pytest.raises(ValueError, match=re.escape(cause)):
        make_scaled_kernel(ExpMinusOne(), x_j)


def test_scaled_kernel_evaluation_floor():
    for psi, x_j in [(PowerFunction(2), 10.0), (build_counterexample(4), 56.0)]:
        f = make_scaled_kernel(psi, x_j)
        h = 1.0 - f.r_j
        val = abs(complex(f.values(np.array([1.0 - h]))[0]))
        assert val >= 0.25 * psi.inverse(1.0 / h)
        assert val == pytest.approx(x_j / (2.0 - h) ** 2, rel=1e-12)


def test_family_sizes():
    assert make_kernel_family(1.0 / 8.0).n_funcs == 9
    assert make_kernel_family(1.0 / 32.0).n_funcs == 33
    assert make_kernel_family(1.0 / 128.0).n_funcs == 129
    with pytest.raises(ValueError):
        make_kernel_family(0.2)


def test_family_member_peaks():
    fam = make_kernel_family(1.0 / 8.0)
    for u in fam.members:
        xi = complex(math.cos(u.xi_angle), math.sin(u.xi_angle))
        assert abs(complex(u.values(np.array([xi]))[0])) == pytest.approx(1.0, abs=1e-10)
    j0 = fam.members[0]
    direct = make_kernel_squared(1.0 / 8.0, 0.0)
    z = np.array([0.3 + 0.2j])
    assert complex(j0.values(z)[0]) == complex(direct.values(z)[0])


def test_family_boundary_sum_bound():
    for h in (1.0 / 8.0, 1.0 / 32.0, 1.0 / 128.0):
        fam = make_kernel_family(h)
        angles = fam.boundary_sample_angles(512)
        sums = fam.boundary_sum(angles)
        assert float(np.max(sums)) <= KERNEL_SUM_BOUND + 1e-6
        assert fam.n_funcs * h >= 1.0


def test_family_window_floor():
    fam = make_kernel_family(1.0 / 32.0)
    h = fam.h
    rng = np.random.default_rng(5)
    w = h * 0.99 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * math.pi * rng.uniform(0, 1, 64))
    for u in fam.members[:5]:
        center = (1.0 - h) * complex(math.cos(u.xi_angle), math.sin(u.xi_angle))
        assert np.min(np.abs(u.values(center + w))) >= 1.0 / 9.0


def test_envelope_radial_and_monotone():
    psi = PowerFunction(2)
    env = make_evaluation_envelope(psi)
    r = np.array([0.0, 0.5, 0.9, 0.99])
    v = env.values(r)
    # S(z) = 4 sqrt(1/(1-|z|)) for the square function
    assert v[1] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
    assert np.all(np.diff(v) > 0)
    rotated = env.values(r * np.exp(0.7j))
    assert np.allclose(np.abs(v), np.abs(rotated))
    with pytest.raises(ValueError):
        env.values(np.array([1.0]))


def test_sampled_spec_parsing():
    psi = PowerFunction(2)
    m = parse_sampled_spec({"form": "monomial", "n": 3})
    assert m.label == "monomial(n=3)"
    p = parse_sampled_spec({"form": "polynomial", "coeffs": [[1, 0], [0, 1]]})
    assert complex(p.values(np.array([1.0]))[0]) == 1 + 1j
    c = parse_sampled_spec({"form": "constant", "value": 3})
    assert complex(c.values(np.array([0.5j]))[0]) == 3 + 0j
    k = parse_sampled_spec({"form": "kernel_squared", "h": 0.01, "xi_angle": 0.0})
    assert k.h == 0.01
    s = parse_sampled_spec({"form": "scaled_kernel", "x_j": 56.0}, psi=build_counterexample(4))
    assert s.x_j == 56.0
    e = parse_sampled_spec({"form": "evaluation_envelope"}, psi=psi)
    assert "evaluation_envelope" in e.label
    with pytest.raises(ValueError):
        parse_sampled_spec({"form": "scaled_kernel", "x_j": 56.0})
    with pytest.raises(ValueError):
        parse_sampled_spec({"form": "nope"})


@pytest.mark.parametrize("spec, message", [
    ({"form": "monomial"}, "monomial form needs a 'n' field"),
    ({"form": "monomial", "n": 2.5}, "monomial form field 'n': expected an integer, got 2.5"),
    ({"form": "monomial", "n": True}, "monomial form field 'n': expected an integer, got True"),
    ({"form": "monomial", "n": "3"}, "monomial form field 'n': expected a number, got '3'"),
    ({"form": "monomial", "n": 3, "m": 1}, "monomial form has no field 'm'"),
    ({"form": "polynomial", "coeffs": [1]}, "polynomial form field 'coeffs'"),
    ({"form": "constant", "value": "1+2j"}, "constant form field 'value': expected a number"),
    ({"form": "kernel_squared", "xi_angle": 0.0}, "kernel_squared form needs a 'h' field"),
    ({"form": "scaled_kernel"}, "scaled_kernel form needs a 'x_j' field"),
    ({"form": "evaluation_envelope", "psi": 2}, "evaluation_envelope form has no field 'psi'"),
])
def test_sampled_spec_refuses_a_malformed_field_by_name(spec, message):
    with pytest.raises(ValueError) as info:
        parse_sampled_spec(spec, psi=PowerFunction(2))
    assert str(info.value).startswith(message)


def test_sampled_spec_fields_convert_as_before():
    # integral floats are integers, and every number is a float or a complex
    assert parse_sampled_spec({"form": "monomial", "n": 3.0}) == Monomial(3)
    p = parse_sampled_spec('{"form": "polynomial", "coeffs": [[1, 2], [0.5, 0]]}')
    assert p == Polynomial((1 + 2j, 0.5 + 0j))
    assert parse_sampled_spec({"form": "kernel_squared", "h": 0.25}) == KernelSquared(0.25, 0.0)
    assert parse_sampled_spec({"form": "constant", "value": 3}) == Polynomial((3 + 0j,))
