"""Analytic witness families.

These are the concrete functions the norm inequalities are exercised on:
monomials, polynomials, squared reproducing-type kernels pinned to a boundary
point, their scaled variants normalized to the unit ball of the circle space,
and the radial point-evaluation envelope 4 * Psi^{-1}(1/(1-|z|)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .functions import REQUIRED, OrliczFunction, _integer, _number, _pairs, read_spec


class ParameterRangeError(ValueError):
    """An input outside the range a computation is defined on."""


@dataclass(frozen=True)
class Monomial:
    n: int
    analytic = True
    scale_hint = None
    focus_angle = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("monomial degree must be >= 0")

    def values(self, z):
        return np.asarray(z) ** self.n

    @property
    def label(self):
        return f"monomial(n={self.n})"


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple  # complex, ascending degree
    analytic = True
    scale_hint = None
    focus_angle = None

    def values(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z), np.asarray(self.coeffs))

    @property
    def label(self):
        return f"polynomial(degree={len(self.coeffs) - 1})"


@dataclass(frozen=True)
class KernelSquared:
    """u(z) = h^2 / (1 - (1-h) conj(xi) z)^2 with |xi| = 1.

    Peaks with value 1 at z = xi (and at (1-h) xi inside the disk the value is
    still above 1/9 on the whole window |z - (1-h) xi| < h); |u| <= 1 on the
    closed disk.
    """

    h: float
    xi_angle: float = 0.0
    analytic = True

    def __post_init__(self):
        if not (0.0 < self.h < 0.5):
            raise ValueError(f"kernel parameter h must lie in (0, 1/2), got {self.h}")

    def values(self, z):
        xi_bar = cmath.exp(-1j * self.xi_angle)
        denom = 1.0 - (1.0 - self.h) * xi_bar * np.asarray(z)
        return (self.h / denom) ** 2

    @property
    def scale_hint(self):
        return self.h

    @property
    def focus_angle(self):
        return self.xi_angle

    @property
    def label(self):
        return f"kernel_squared(h={self.h:g}, xi_angle={self.xi_angle:g})"


@dataclass(frozen=True)
class ScaledKernel:
    """f(z) = x_j ((1 - r_j) / (1 - r_j conj(xi) z))^2 with r_j = 1 - 1/Psi(x_j).

    Sits inside the unit ball of the circle space and witnesses the lower half
    of the point-evaluation bound: |f(1 - h)| >= Psi^{-1}(1/h) / 4 for
    h = 1 - r_j.
    """

    x_j: float
    r_j: float
    xi_angle: float = 0.0
    analytic = True

    def __post_init__(self):
        if not (0.0 < self.r_j < 1.0):
            raise ValueError(f"r_j must lie in (0, 1), got {self.r_j}")
        if self.x_j <= 0:
            raise ValueError("x_j must be positive")

    def values(self, z):
        xi_bar = cmath.exp(-1j * self.xi_angle)
        denom = 1.0 - self.r_j * xi_bar * np.asarray(z)
        return self.x_j * ((1.0 - self.r_j) / denom) ** 2

    @property
    def scale_hint(self):
        return 1.0 - self.r_j

    @property
    def focus_angle(self):
        return self.xi_angle

    @property
    def label(self):
        return f"scaled_kernel(x_j={self.x_j:g}, r_j={self.r_j:.12g})"


class EvaluationEnvelope:
    """S(z) = 4 Psi^{-1}(1/(1-|z|)), the radial envelope of point evaluations
    over the unit ball of the circle space.  Not analytic; disk-only."""

    analytic = False
    scale_hint = None
    focus_angle = None

    def __init__(self, psi: OrliczFunction):
        self.psi = psi

    def values(self, z):
        z = np.asarray(z)
        absz = np.abs(z)
        if np.any(absz >= 1.0):
            raise ParameterRangeError("the evaluation envelope is defined on the open disk only")
        log_u = -np.log1p(-absz)
        out = 4.0 * np.exp(np.asarray(self.psi.inverse_log(log_u)))
        # Psi^{-1}(y) -> 0 as y -> 0 but inverse_log(-inf) would be nan
        out = np.where(absz == 0.0, 4.0 * self.psi.inverse(1.0), out)
        return out

    @property
    def label(self):
        return f"evaluation_envelope({self.psi.label})"


def make_monomial(n: int) -> Monomial:
    return Monomial(n)


def make_polynomial(coeffs) -> Polynomial:
    coeffs = tuple(complex(c) for c in coeffs)
    if not coeffs:
        raise ValueError("a polynomial needs at least one coefficient")
    return Polynomial(coeffs)


def make_kernel_squared(h: float, xi_angle: float = 0.0) -> KernelSquared:
    return KernelSquared(h, xi_angle)


def make_scaled_kernel(psi: OrliczFunction, x_j: float, xi_angle: float = 0.0) -> ScaledKernel:
    """Kernel witness normalized through r_j = 1 - 1/Psi(x_j); requires
    Psi(x_j) > 2 so that r_j lands in (1/2, 1), and 1/Psi(x_j) large enough
    that r_j stays below 1 in double precision."""
    v = psi.eval(x_j)
    if v <= 2.0:
        raise ValueError(
            f"need Psi(x_j) > 2 for the scaled kernel, got Psi({x_j:g}) = {v:g}"
        )
    r_j = 1.0 - 1.0 / v
    if r_j == 1.0:
        raise ValueError(
            f"r_j = 1 - 1/Psi(x_j) rounds to 1 at x_j = {x_j:g}, Psi(x_j) = {v:g}:"
            f" the scaled kernel is not representable in double precision"
        )
    return ScaledKernel(x_j=float(x_j), r_j=r_j, xi_angle=xi_angle)


def make_evaluation_envelope(psi: OrliczFunction) -> EvaluationEnvelope:
    return EvaluationEnvelope(psi)


@dataclass(frozen=True)
class KernelFamily:
    """The rotated family u_j, j = 0..N-1, N = floor(1/h) + 1, xi_j spread
    uniformly over the circle.  Boundary sums of |u_j| stay below
    e^2/(e-1)^2 no matter how small h gets."""

    h: float
    members: tuple

    @property
    def n_funcs(self) -> int:
        return len(self.members)

    def boundary_sum(self, t):
        """sum_j |u_j(e^{it})| at angles t (vectorized)."""
        z = np.exp(1j * np.atleast_1d(np.asarray(t, dtype=float)))
        total = np.zeros(len(z))
        for u in self.members:
            total += np.abs(u.values(z))
        return total

    def boundary_sample_angles(self, n_samples: int = 512) -> np.ndarray:
        """Uniform angles plus the member peak angles (the local maxima)."""
        base = 2.0 * math.pi * np.arange(n_samples) / n_samples
        peaks = np.array([u.xi_angle for u in self.members])
        return np.sort(np.concatenate([base, peaks]))


def make_kernel_family(h: float) -> KernelFamily:
    if not (0.0 < h <= 0.125):
        raise ParameterRangeError(f"family parameter h must lie in (0, 1/8], got {h}")
    n = int(math.floor(1.0 / h)) + 1
    members = tuple(
        KernelSquared(h, 2.0 * math.pi * j / n) for j in range(n)
    )
    return KernelFamily(h=h, members=members)


def _normalizer(psi, form):
    if psi is None:
        raise ValueError(f"{form} needs an Orlicz function for normalization")
    return psi


FORMS = {
    "monomial": (lambda n, psi: make_monomial(n), {"n": (_integer, REQUIRED)}),
    "polynomial": (lambda coeffs, psi: make_polynomial(complex(*c) for c in coeffs),
                   {"coeffs": (_pairs, REQUIRED)}),
    "constant": (lambda value, psi: make_polynomial([value]), {"value": (_number, REQUIRED)}),
    "kernel_squared": (lambda h, xi_angle, psi: make_kernel_squared(h, xi_angle),
                       {"h": (_number, REQUIRED), "xi_angle": (_number, 0.0)}),
    "scaled_kernel": (
        lambda x_j, xi_angle, psi: make_scaled_kernel(_normalizer(psi, "scaled_kernel"), x_j,
                                                      xi_angle),
        {"x_j": (_number, REQUIRED), "xi_angle": (_number, 0.0)}),
    "evaluation_envelope": (
        lambda psi: make_evaluation_envelope(_normalizer(psi, "evaluation_envelope")), {}),
}


def parse_sampled_spec(spec, psi: OrliczFunction | None = None):
    """Build a sampled function from its JSON document, a dict or its JSON
    text such as {"form": "monomial", "n": 3}, by its FORMS entry.

    scaled_kernel and evaluation_envelope need the Orlicz function used to
    normalize them, passed as ``psi``.
    """
    return read_spec(spec, "form", FORMS, psi=psi)
