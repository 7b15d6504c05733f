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


def anchor_window(psi: OrliczFunction, anchor_logs) -> np.ndarray:
    """The anchor logs of psi, sorted, up to log of its domain_hint[1]."""
    lx = np.sort(anchor_logs)
    return lx[lx <= math.log(psi.domain_hint[1]) + 1e-12]


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
        if not np.all((xs > 0.0) & (xs < math.inf)) or np.any(np.diff(xs) <= 0):  # NaN fails
            raise ValueError("x_points must be positive, finite and strictly increasing")
        if not all(1.0 < a < math.inf for a in self.a_points):  # NaN fails too
            raise ValueError(f"amplification factors must lie in (1, inf), got {self.a_points}")
        object.__setattr__(self, "x_points", tuple(xs.tolist()))
        object.__setattr__(self, "a_points", tuple(float(a) for a in self.a_points))
        log_x = np.log(xs)
        log_x.flags.writeable = False  # shared by every reader
        object.__setattr__(self, "_log_x", log_x)

    @property
    def log_x(self) -> np.ndarray:
        """log of x_points, taken once at construction (read-only)."""
        return self._log_x

    @classmethod
    def default_for(
        cls,
        psi: OrliczFunction,
        n_points: int | None = None,
        a_points: tuple = DEFAULT_A_POINTS,
        include_knots: bool = True,
        x_lo: float | None = None,
        x_hi: float | None = None,
    ) -> "GrowthSampleGrid":
        """Grid adapted to the function: knot anchors when it has them, a
        geometric grid of ``n_points`` (default 200) capped so that max(A) * x
        stays inside the trusted range otherwise.

        A window or point count asked for explicitly is used as given or
        refused: an anchored grid has no window, and x_lo must lie below x_hi.
        """
        lx = anchor_window(psi, psi.growth_anchor_logs())
        if include_knots and len(lx) >= 2:
            if (x_lo, x_hi, n_points) != (None, None, None):
                raise ValueError(
                    f"{psi.label} is classified on its knot anchors; x_lo, x_hi"
                    " and n_points apply only to a grid without knots"
                )
            return cls(
                x_points=np.exp(lx),
                a_points=tuple(a_points),
                anchored=True,
            )
        hint_lo, hint_hi = psi.domain_hint
        a_max = max(a_points)
        cap_log = psi.trusted_log_hi - math.log(a_max)
        hi = x_hi if x_hi is not None else min(hint_hi, 1e6, math.exp(min(cap_log, 700.0)))
        lo = x_lo if x_lo is not None else max(hint_lo, 1.0)
        if not 0.0 < lo < hi < math.inf:  # NaN fails too
            if x_lo is not None or x_hi is not None:
                raise ValueError(f"x_lo={lo:g} must be below x_hi={hi:g}, both positive and finite")
            lo = hi / 1e3
        return cls(
            x_points=np.geomspace(lo, hi, 200 if n_points is None else n_points),
            a_points=tuple(a_points),
            anchored=False,
        )
