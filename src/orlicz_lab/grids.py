"""Finite sample grids standing in for the "x large enough" quantifiers.

Limits in the growth conditions are probed on deterministic grids.  Smooth
families get a geometric grid; knotted functions get their structural anchors
(the knot abscissas), because the interesting suprema of their growth ratios
are attained exactly there and dense sampling between knots only aliases the
sawtooth the ratios trace out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import OrliczFunction

DEFAULT_A_POINTS = (1.5, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class GrowthSampleGrid:
    """Positive abscissas plus amplification factors A > 1.

    ``anchored`` marks grids whose x_points are structural anchors of the
    function under test rather than generic samples.
    """

    x_points: tuple = ()
    a_points: tuple = DEFAULT_A_POINTS
    anchored: bool = False

    def __post_init__(self):
        xs = np.asarray(self.x_points, dtype=float)
        if len(xs) == 0:
            raise ValueError("grid needs at least one x point")
        if np.any(xs <= 0) or np.any(np.diff(xs) <= 0):
            raise ValueError("x_points must be positive and strictly increasing")
        if any(a <= 1.0 for a in self.a_points):
            raise ValueError("all amplification factors must exceed 1")
        object.__setattr__(self, "x_points", tuple(float(x) for x in xs))
        object.__setattr__(self, "a_points", tuple(float(a) for a in self.a_points))

    @property
    def log_x(self) -> np.ndarray:
        return np.log(np.asarray(self.x_points))

    @classmethod
    def default_for(
        cls,
        psi: OrliczFunction,
        n_points: int = 200,
        a_points: tuple = DEFAULT_A_POINTS,
        include_knots: bool = True,
        x_lo: float | None = None,
        x_hi: float | None = None,
    ) -> "GrowthSampleGrid":
        """Grid adapted to the function: knot anchors when it has them, a
        geometric grid capped so that max(A) * x stays inside the trusted
        range otherwise."""
        anchors = psi.growth_anchor_logs()
        hint_lo, hint_hi = psi.domain_hint
        if include_knots and len(anchors) >= 2:
            lx = np.sort(anchors)
            keep = lx <= math.log(hint_hi) + 1e-12
            lx = lx[keep]
            if len(lx) >= 2:
                return cls(
                    x_points=tuple(np.exp(lx)),
                    a_points=tuple(a_points),
                    anchored=True,
                )
        a_max = max(a_points)
        cap_log = psi.trusted_log_hi - math.log(a_max)
        hi = x_hi if x_hi is not None else min(hint_hi, 1e6, math.exp(min(cap_log, 700.0)))
        lo = x_lo if x_lo is not None else max(hint_lo, 1.0)
        if lo >= hi:
            lo = hi / 1e3
        return cls(
            x_points=tuple(np.geomspace(lo, hi, n_points)),
            a_points=tuple(a_points),
            anchored=False,
        )
