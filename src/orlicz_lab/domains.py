"""Quadrature on the unit circle and unit disk.

Both measures are normalized to be probability measures: arc length dt/2pi on
the circle and area dA/pi on the disk.  Disk rules are polar tensor products
with the 2r radial factor folded into the radial weights.  Kernel-shaped
integrands concentrate on an h-window near the boundary, so dedicated
constructors refine both the radial rule near r = 1 and the angular rule near
the peak angle; without that refinement a fixed global rule underestimates
their norms.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=256)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _panel_chain(edges, nodes_per_panel):
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        x, w = gauss_legendre(nodes_per_panel, a, b)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


class CircleDomain:
    """Nodes on the unit circle carrying normalized arc-length weights."""

    kind = "circle"

    def __init__(self, theta: np.ndarray, weights: np.ndarray, params: dict):
        self.theta = np.asarray(theta, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self._params = params
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"circle weights sum to {total!r}, expected 1")

    @classmethod
    def uniform(cls, n_theta: int = 512) -> "CircleDomain":
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        w = np.full(n_theta, 1.0 / n_theta)
        return cls(theta, w, {"rule": "uniform", "n_theta": n_theta})

    @classmethod
    def refined(cls, focus_angle: float, scale: float, n_coarse: int = 256,
                levels: int = 10, nodes_per_panel: int = 16) -> "CircleDomain":
        """Composite rule resolving a peak of angular width ~scale at
        focus_angle; the rest of the circle is covered by coarse panels."""
        w_half = min(32.0 * scale, 1.0)
        inner = [w_half / 2.0**k for k in range(levels)]
        edges = sorted({-w_half, w_half, 0.0} | {e for v in inner for e in (-v, v)})
        theta_f, w_f = _panel_chain(edges, nodes_per_panel)
        coarse_edges = np.linspace(w_half, 2.0 * math.pi - w_half, max(n_coarse // 32, 8) + 1)
        theta_c, w_c = _panel_chain(coarse_edges, 32)
        theta = np.concatenate([theta_f, theta_c]) + focus_angle
        w = np.concatenate([w_f, w_c]) / (2.0 * math.pi)
        order = np.argsort(theta)
        return cls(
            theta[order],
            w[order],
            {
                "rule": "refined",
                "focus_angle": focus_angle,
                "scale": scale,
                "n_coarse": n_coarse,
                "levels": levels,
                "nodes_per_panel": nodes_per_panel,
            },
        )

    def nodes(self) -> np.ndarray:
        return np.exp(1j * self.theta)

    def half_resolution(self) -> "CircleDomain":
        p = self._params
        if p["rule"] == "uniform":
            return CircleDomain.uniform(max(p["n_theta"] // 2, 16))
        return CircleDomain.refined(
            p["focus_angle"], p["scale"], max(p["n_coarse"] // 2, 64),
            max(p["levels"] - 2, 4), max(p["nodes_per_panel"] // 2, 6),
        )

    def refine(self, level: int) -> "CircleDomain":
        p = self._params
        if p["rule"] == "uniform":
            return CircleDomain.uniform(p["n_theta"] * 2**level)
        return CircleDomain.refined(
            p["focus_angle"], p["scale"], p["n_coarse"] * 2**level,
            p["levels"] + 2 * level, p["nodes_per_panel"],
        )

    @property
    def size(self) -> int:
        return len(self.theta)

    def describe(self) -> dict:
        return dict(self._params, kind=self.kind, size=self.size)


class DiskDomain:
    """Polar tensor rule on the unit disk under normalized area measure."""

    kind = "disk"

    def __init__(self, r, r_weights, theta, theta_weights, params: dict):
        self.r = np.asarray(r, dtype=float)
        self.r_weights = np.asarray(r_weights, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        self.theta_weights = np.asarray(theta_weights, dtype=float)
        self._params = params
        total = float(np.sum(self.r_weights) * np.sum(self.theta_weights))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"disk weights sum to {total!r}, expected 1")

    # -- constructors --------------------------------------------------------

    @classmethod
    def polar(cls, n_theta: int = 512, n_radial: int = 128,
              radial_rule: str = "gauss_legendre") -> "DiskDomain":
        if radial_rule == "gauss_legendre":
            r, wr = gauss_legendre(n_radial, 0.0, 1.0)
        elif radial_rule == "uniform":
            r = (np.arange(n_radial) + 0.5) / n_radial
            wr = np.full(n_radial, 1.0 / n_radial)
        else:
            raise ValueError(f"unknown radial rule {radial_rule!r}")
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        wt = np.full(n_theta, 1.0 / n_theta)
        return cls(r, 2.0 * r * wr, theta, wt, {
            "rule": "polar", "n_theta": n_theta, "n_radial": n_radial,
            "radial_rule": radial_rule,
        })

    @classmethod
    def kernel_refined(cls, scale: float, focus_angle: float = 0.0,
                       n_radial_base: int = 64, nodes_per_panel: int = 24) -> "DiskDomain":
        """Rule adapted to a kernel peaking at radius 1-scale, angle
        focus_angle: geometric radial panels over [1-8*scale, 1] and angular
        refinement around the peak."""
        h = float(scale)
        if not (0.0 < h < 0.5):
            raise ValueError(f"kernel scale must lie in (0, 1/2), got {h}")
        split = 1.0 - 8.0 * h
        r_parts, w_parts = [], []
        if split > 0.0:
            r0, w0 = gauss_legendre(n_radial_base, 0.0, split)
            r_parts.append(r0)
            w_parts.append(w0)
        edges = [max(split, 0.0), 1.0 - 4.0 * h, 1.0 - 2.0 * h, 1.0 - 1.5 * h,
                 1.0 - h, 1.0 - 0.5 * h, 1.0 - 0.25 * h, 1.0]
        rp, wp = _panel_chain(edges, nodes_per_panel)
        r_parts.append(rp)
        w_parts.append(wp)
        r = np.concatenate(r_parts)
        wr = np.concatenate(w_parts)
        ang = CircleDomain.refined(focus_angle, h, n_coarse=256,
                                   levels=12, nodes_per_panel=nodes_per_panel)
        return cls(r, 2.0 * r * wr, ang.theta, ang.weights, {
            "rule": "kernel_refined", "scale": h, "focus_angle": focus_angle,
            "n_radial_base": n_radial_base, "nodes_per_panel": nodes_per_panel,
        })

    @classmethod
    def boundary_refined(cls, k_max: int = 40, nodes_per_panel: int = 24,
                         n_theta: int = 64) -> "DiskDomain":
        """Geometric radial panels [1 - 2^-k, 1 - 2^-(k+1)] accumulating at the
        boundary; suited to radial integrands with mass near r = 1.

        k_max above 40 raises: the innermost panel would no longer resolve in
        double precision (nodes must stay strictly below 1)."""
        if k_max > 40:
            raise ValueError(f"k_max={k_max} saturates the boundary refinement (at most 40)")
        r0, w0 = gauss_legendre(32, 0.0, 0.5)
        edges = [1.0 - 2.0**-k for k in range(1, k_max + 1)] + [1.0]
        rp, wp = _panel_chain(edges, nodes_per_panel)
        r = np.concatenate([r0, rp])
        wr = np.concatenate([w0, wp])
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        wt = np.full(n_theta, 1.0 / n_theta)
        return cls(r, 2.0 * r * wr, theta, wt, {
            "rule": "boundary_refined", "k_max": k_max,
            "nodes_per_panel": nodes_per_panel, "n_theta": n_theta,
        })

    # -- node access ---------------------------------------------------------

    def nodes(self) -> np.ndarray:
        return np.outer(self.r, np.exp(1j * self.theta)).ravel()

    def weights(self) -> np.ndarray:
        return np.outer(self.r_weights, self.theta_weights).ravel()

    @property
    def size(self) -> int:
        return len(self.r) * len(self.theta)

    # -- derived rules --------------------------------------------------------

    def half_resolution(self) -> "DiskDomain":
        p = self._params
        if p["rule"] == "polar":
            return DiskDomain.polar(max(p["n_theta"] // 2, 16),
                                    max(p["n_radial"] // 2, 8), p["radial_rule"])
        if p["rule"] == "kernel_refined":
            return DiskDomain.kernel_refined(p["scale"], p["focus_angle"],
                                             max(p["n_radial_base"] // 2, 16),
                                             max(p["nodes_per_panel"] // 2, 8))
        return DiskDomain.boundary_refined(max(p["k_max"] - 8, 8),
                                           max(p["nodes_per_panel"] // 2, 6),
                                           max(p["n_theta"] // 2, 16))

    def refine(self, level: int) -> "DiskDomain":
        p = self._params
        if p["rule"] == "polar":
            return DiskDomain.polar(p["n_theta"] * 2**level,
                                    p["n_radial"] * 2**level, p["radial_rule"])
        if p["rule"] == "kernel_refined":
            return DiskDomain.kernel_refined(p["scale"], p["focus_angle"],
                                             p["n_radial_base"] * 2**level,
                                             p["nodes_per_panel"] + 8 * level)
        return DiskDomain.boundary_refined(p["k_max"] + 10 * level,
                                           p["nodes_per_panel"], p["n_theta"])

    def describe(self) -> dict:
        return dict(self._params, kind=self.kind, size=self.size)


def circle(n_theta: int = 512) -> CircleDomain:
    return CircleDomain.uniform(n_theta)


def disk(n_theta: int = 512, n_radial: int = 128,
         radial_rule: str = "gauss_legendre") -> DiskDomain:
    return DiskDomain.polar(n_theta, n_radial, radial_rule)
