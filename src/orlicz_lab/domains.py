"""Quadrature on the unit circle and unit disk.

Both measures are normalized to be probability measures: arc length dt/2pi on
the circle and area dA/pi on the disk.  Every rule is a polar tensor product
of radial and angular nodes: a disk rule folds the 2r radial factor into its
radial weights, and a circle rule is the product with the one radius 1 of
weight 1.  Kernel-shaped integrands concentrate on an h-window near the
boundary, so dedicated constructors refine both the radial rule near r = 1
and the angular rule near the peak angle; without that refinement a fixed
global rule underestimates their norms.  Each constructor records its own
arguments, which describe() reports, and how its coarser and finer rules are
built, so half_resolution and refine need no dispatch on the rule's kind.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# most points sampled or evaluated in one numpy pass over a large rule: the
# temporaries of a pass scale with the block, not with the rule
BLOCK = 2**15


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


def _uniform_angles(n_theta):
    return 2.0 * math.pi * np.arange(n_theta) / n_theta, np.full(n_theta, 1.0 / n_theta)


def _refined_angles(focus_angle, scale, n_coarse, levels, nodes_per_panel):
    """Angles and normalized weights of a composite rule resolving a peak of
    angular width ~scale at focus_angle; coarse panels cover the rest of the
    circle."""
    w_half = min(32.0 * scale, 1.0)
    inner = [w_half / 2.0**k for k in range(levels)]
    edges = sorted({-w_half, w_half, 0.0} | {e for v in inner for e in (-v, v)})
    theta_f, w_f = _panel_chain(edges, nodes_per_panel)
    coarse_edges = np.linspace(w_half, 2.0 * math.pi - w_half, max(n_coarse // 32, 8) + 1)
    theta_c, w_c = _panel_chain(coarse_edges, 32)
    theta = np.concatenate([theta_f, theta_c]) + focus_angle
    w = np.concatenate([w_f, w_c]) / (2.0 * math.pi)
    order = np.argsort(theta)
    return theta[order], w[order]


class _PolarRule:
    """Polar tensor rule: the nodes r_i e^{i theta_j}, row-major in i, with
    the weights r_weights_i * theta_weights_j, which sum to 1."""

    # the recipe of the derived rules (see _derive); a rule built directly
    # has none
    _build = _finer = None
    _params, _coarser = {}, ()

    def __init__(self, r, r_weights, theta, theta_weights):
        self.r = np.asarray(r, dtype=float)
        self.r_weights = np.asarray(r_weights, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        self.theta_weights = np.asarray(theta_weights, dtype=float)
        total = float(np.sum(self.r_weights) * np.sum(self.theta_weights))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"{self.kind} weights sum to {total!r}, expected 1")

    def _derive(self, build, params, coarser, finer):
        """Records that build(**params) made this rule, build(*coarser) makes
        its half-resolution companion and build(*finer(level)) its refinement
        by level; returns the rule."""
        self._build, self._params, self._coarser, self._finer = build, params, coarser, finer
        return self

    def nodes(self, rows=slice(None)) -> np.ndarray:
        """The nodes of the radial rows selected by ``rows``, row-major."""
        return np.outer(self.r[rows], np.exp(1j * self.theta)).ravel()

    def map_nodes(self, fn, dtype=float) -> np.ndarray:
        """An elementwise fn of the nodes as one full-length array, evaluated
        on blocks of whole radial rows of at most BLOCK nodes (at least one
        row)."""
        n_theta = len(self.theta)
        step = max(BLOCK // n_theta, 1)
        out = np.empty(self.size, dtype=dtype)
        for i in range(0, len(self.r), step):
            z = self.nodes(rows=slice(i, i + step))
            out[i * n_theta:i * n_theta + z.size] = fn(z)
        return out

    def _weights(self) -> np.ndarray:
        return np.outer(self.r_weights, self.theta_weights).ravel()

    @property
    def size(self) -> int:
        return len(self.r) * len(self.theta)

    def half_resolution(self):
        """The coarser companion rule; ValueError when the recipe gives back
        this rule's own parameters (at its floors)."""
        if self._coarser == tuple(self._params.values()):
            raise ValueError(f"the rule {self.describe()} has no coarser companion")
        return self._build(*self._coarser)

    def refine(self, level: int):
        """The rule refined by level (level 0 rebuilds it)."""
        if self._build is None:
            raise ValueError(f"the rule {self.describe()} has no refinement recipe")
        return self._build(*self._finer(level))

    def describe(self) -> dict:
        rule = {"rule": self._build.__name__} if self._build else {}
        return {**rule, **self._params, "kind": self.kind, "size": self.size}


class CircleDomain(_PolarRule):
    """Nodes on the unit circle carrying normalized arc-length weights: the
    polar rule of the one radius 1, of weight 1."""

    kind = "circle"

    def __init__(self, theta: np.ndarray, weights: np.ndarray):
        super().__init__([1.0], [1.0], theta, weights)
        self.weights = self.theta_weights

    @classmethod
    def uniform(cls, n_theta: int = 512) -> "CircleDomain":
        return cls(*_uniform_angles(n_theta))._derive(
            cls.uniform, dict(n_theta=n_theta), (max(n_theta // 2, 16),),
            lambda k: (n_theta * 2**k,))

    @classmethod
    def refined(cls, focus_angle: float, scale: float, n_coarse: int = 256,
                levels: int = 10, nodes_per_panel: int = 16) -> "CircleDomain":
        """Composite rule resolving a peak of angular width ~scale at
        focus_angle; the rest of the circle is covered by coarse panels."""
        params = dict(focus_angle=focus_angle, scale=scale, n_coarse=n_coarse, levels=levels,
                      nodes_per_panel=nodes_per_panel)
        return cls(*_refined_angles(**params))._derive(
            cls.refined, params,
            (focus_angle, scale, max(n_coarse // 2, 64), max(levels - 2, 4),
             max(nodes_per_panel // 2, 6)),
            lambda k: (focus_angle, scale, n_coarse * 2**k, levels + 2 * k, nodes_per_panel))


class DiskDomain(_PolarRule):
    """Polar tensor rule on the unit disk under normalized area measure."""

    kind = "disk"

    @classmethod
    def polar(cls, n_theta: int = 512, n_radial: int = 128) -> "DiskDomain":
        r, wr = gauss_legendre(n_radial, 0.0, 1.0)
        return cls(r, 2.0 * r * wr, *_uniform_angles(n_theta))._derive(
            cls.polar, dict(n_theta=n_theta, n_radial=n_radial),
            (max(n_theta // 2, 16), max(n_radial // 2, 8)),
            lambda k: (n_theta * 2**k, n_radial * 2**k))

    @classmethod
    def kernel_refined(cls, scale: float, focus_angle: float = 0.0,
                       n_radial_base: int = 64, nodes_per_panel: int = 24) -> "DiskDomain":
        """Rule adapted to a kernel peaking at radius 1-scale, angle
        focus_angle: geometric radial panels over [1-8*scale, 1], cut at 0, and
        angular refinement around the peak."""
        h = float(scale)
        if not (0.0 < h < 0.5):
            raise ValueError(f"kernel scale must lie in (0, 1/2), got {h}")
        split = 1.0 - 8.0 * h
        edges = [max(e, 0.0) for e in (split, 1.0 - 4.0 * h, 1.0 - 2.0 * h, 1.0 - 1.5 * h,
                                       1.0 - h, 1.0 - 0.5 * h, 1.0 - 0.25 * h, 1.0)]
        r, wr = _panel_chain(edges, nodes_per_panel)
        if split > 0.0:
            r0, w0 = gauss_legendre(n_radial_base, 0.0, split)
            r, wr = np.concatenate([r0, r]), np.concatenate([w0, wr])
        theta, wt = _refined_angles(focus_angle, h, 256, 12, nodes_per_panel)
        return cls(r, 2.0 * r * wr, theta, wt)._derive(
            cls.kernel_refined, dict(scale=h, focus_angle=focus_angle,
                                     n_radial_base=n_radial_base, nodes_per_panel=nodes_per_panel),
            (h, focus_angle, max(n_radial_base // 2, 16), max(nodes_per_panel // 2, 8)),
            lambda k: (h, focus_angle, n_radial_base * 2**k, nodes_per_panel + 8 * k))

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
        r, wr = np.concatenate([r0, rp]), np.concatenate([w0, wp])
        return cls(r, 2.0 * r * wr, *_uniform_angles(n_theta))._derive(
            cls.boundary_refined, dict(k_max=k_max, nodes_per_panel=nodes_per_panel,
                                       n_theta=n_theta),
            (max(k_max - 8, 8), max(nodes_per_panel // 2, 6), max(n_theta // 2, 16)),
            lambda k: (k_max + 10 * k, nodes_per_panel, n_theta))

    def weights(self) -> np.ndarray:
        return self._weights()


def circle(n_theta: int = 512) -> CircleDomain:
    return CircleDomain.uniform(n_theta)


def disk(n_theta: int = 512, n_radial: int = 128) -> DiskDomain:
    return DiskDomain.polar(n_theta, n_radial)
