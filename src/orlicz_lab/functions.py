"""Orlicz functions and the calculus on them.

An Orlicz function is a non-decreasing convex map of [0, inf) to itself with
value 0 at 0.  This module provides the closed-form families used by the
laboratory, piecewise-affine constructions (including the knotted
counterexample family from :func:`build_counterexample`), and the operations
everything else is built on: evaluation in linear and log domain, inversion,
Legendre-type conjugation, and the two convexity-preserving compositions.

Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

import numpy as np

from .logdomain import LOG_DBL_MAX, log_add, log_diff, log_expm1

CONVEXITY_TOL = 1e-9
MAX_BISECT_STEPS = 200

# largest first-knot index sequence allowed before the quartic knot values
# leave the exponent range of a double
_MAX_KNOT_LOG = 708.0


class EvaluationOverflow(OverflowError):
    """The linear-domain value exceeds double range; use eval_log instead."""


class ExtrapolationError(ValueError):
    """An evaluation point lies beyond the knot-covered (trusted) range."""


def _as_float_array(x):
    return np.asarray(x, dtype=float)


class OrliczFunction:
    """Base class; concrete families implement eval_log and inverse_log."""

    family = "abstract"

    def __init__(self):
        self.domain_hint = (1e-3, 1e12)
        self.trusted_log_hi = math.inf

    # -- evaluation ---------------------------------------------------------

    def eval_log(self, log_x):
        """log Psi(exp(log_x)); accepts scalars or arrays."""
        raise NotImplementedError

    def eval(self, x: float) -> float:
        """Psi(x) in the linear domain; raises EvaluationOverflow if the
        value cannot be represented as a double."""
        if x < 0 or not math.isfinite(x):
            raise ValueError(f"eval expects a finite x >= 0, got {x!r}")
        if x == 0.0:
            return 0.0
        ly = float(self.eval_log(math.log(x)))
        if ly > LOG_DBL_MAX:
            raise EvaluationOverflow(
                f"{self.label} at x={x:g} has log-value {ly:.3g}; "
                "evaluate with eval_log"
            )
        return math.exp(ly)

    # -- inversion ----------------------------------------------------------

    def inverse_log(self, log_y):
        """log of the preimage of exp(log_y); scalar or array."""
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        if y < 0 or not math.isfinite(y):
            raise ValueError(f"inverse expects a finite y >= 0, got {y!r}")
        if y == 0.0:
            return 0.0
        return math.exp(float(self.inverse_log(math.log(y))))

    # -- conjugation --------------------------------------------------------

    def conjugate(self, y: float) -> float:
        """Legendre-type conjugate sup_{x>0} (x*y - Psi(x)).

        Returns math.inf when the supremum is infinite (y above the limiting
        slope of Psi).
        """
        if y < 0:
            raise ValueError("conjugate expects y >= 0")
        if y == 0.0:
            return 0.0
        return self._conjugate_search(y)

    def _eval_or_inf(self, x: float) -> float:
        try:
            return self.eval(x)
        except EvaluationOverflow:
            return math.inf

    def _conjugate_search(self, y: float) -> float:
        # grow the bracket until the secant slope of Psi passes y
        hi = 1.0
        for _ in range(600):
            slope = (self._eval_or_inf(2.0 * hi) - self._eval_or_inf(hi)) / hi
            if slope >= y or math.isinf(slope):
                break
            hi *= 2.0
        else:
            return math.inf
        if math.isinf(hi):
            return math.inf
        lo = 0.0
        hi = 2.0 * hi

        def objective(x):
            v = self._eval_or_inf(x)
            return -math.inf if math.isinf(v) else x * y - v

        for _ in range(MAX_BISECT_STEPS):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if objective(m1) < objective(m2):
                lo = m1
            else:
                hi = m2
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        x_star = 0.5 * (lo + hi)
        return max(0.0, objective(x_star))

    # -- structure metadata -------------------------------------------------

    def growth_anchor_logs(self) -> np.ndarray:
        """log-x positions where growth structure concentrates (empty for
        smooth families)."""
        return np.array([])

    def secondary_anchor_logs(self) -> np.ndarray:
        return np.array([])

    def is_extrapolated_log(self, log_x) -> bool:
        return bool(np.any(_as_float_array(log_x) > self.trusted_log_hi + 1e-12))

    @property
    def label(self) -> str:
        return self.family

    # -- serialization ------------------------------------------------------

    def to_spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class PowerFunction(OrliczFunction):
    """Psi(x) = x**p for p >= 1."""

    family = "power"

    def __init__(self, p: float):
        super().__init__()
        if not (p >= 1.0 and math.isfinite(p)):
            raise ValueError(f"power family needs p >= 1, got {p!r}")
        self.p = float(p)

    def eval(self, x):
        if x < 0 or not math.isfinite(x):
            raise ValueError(f"eval expects a finite x >= 0, got {x!r}")
        try:
            v = x**self.p
        except OverflowError:
            raise EvaluationOverflow(f"x**{self.p} overflows at x={x:g}") from None
        if math.isinf(v):
            raise EvaluationOverflow(f"x**{self.p} overflows at x={x:g}")
        return v

    def eval_log(self, log_x):
        out = self.p * _as_float_array(log_x)
        return float(out) if out.ndim == 0 else out

    def inverse(self, y):
        if y < 0:
            raise ValueError("inverse expects y >= 0")
        return y ** (1.0 / self.p)

    def inverse_log(self, log_y):
        out = _as_float_array(log_y) / self.p
        return float(out) if out.ndim == 0 else out

    @property
    def label(self):
        return f"power(p={self.p:g})"

    def to_spec(self):
        return {"family": "power", "p": self.p}


class ExpLogSquared(OrliczFunction):
    """Psi(x) = exp([log(x + 1)]**2) - 1.

    Doubling fails for this function even though the compactness quotient
    still collapses, which is why it earns a place in the test battery.
    """

    family = "exp_log_squared"

    def __init__(self):
        super().__init__()

    def eval(self, x):
        if x < 0 or not math.isfinite(x):
            raise ValueError(f"eval expects a finite x >= 0, got {x!r}")
        s = math.log1p(x) ** 2
        if s > LOG_DBL_MAX:
            raise EvaluationOverflow(f"exp(log(x+1)^2) overflows at x={x:g}")
        return math.expm1(s)

    def eval_log(self, log_x):
        lx = _as_float_array(log_x)
        # log(1 + x) computed from log x without forming x
        l1p = np.logaddexp(0.0, lx)
        out = log_expm1(l1p * l1p)
        return float(out) if np.ndim(out) == 0 else out

    def inverse(self, y):
        if y < 0:
            raise ValueError("inverse expects y >= 0")
        return math.expm1(math.sqrt(math.log1p(y)))

    def inverse_log(self, log_y):
        ly = _as_float_array(log_y)
        root = np.sqrt(np.logaddexp(0.0, ly))
        out = log_expm1(root)
        return float(out) if np.ndim(out) == 0 else out

    def to_spec(self):
        return {"family": "exp_log_squared"}


class ExpMinusOne(OrliczFunction):
    """Psi(x) = exp(x) - 1, a specimen that grows too fast for the embedding
    to stay weakly compact."""

    family = "exp_minus_one"

    def __init__(self):
        super().__init__()

    def eval(self, x):
        if x < 0 or not math.isfinite(x):
            raise ValueError(f"eval expects a finite x >= 0, got {x!r}")
        if x > LOG_DBL_MAX:
            raise EvaluationOverflow(f"exp(x) overflows at x={x:g}")
        return math.expm1(x)

    def eval_log(self, log_x):
        x = np.exp(_as_float_array(log_x))
        out = log_expm1(x)
        return float(out) if np.ndim(out) == 0 else out

    def inverse(self, y):
        if y < 0:
            raise ValueError("inverse expects y >= 0")
        return math.log1p(y)

    def inverse_log(self, log_y):
        ly = _as_float_array(log_y)
        with np.errstate(divide="ignore"):
            out = np.log(np.logaddexp(0.0, ly))
        return float(out) if np.ndim(out) == 0 else out

    def to_spec(self):
        return {"family": "exp_minus_one"}


class PiecewiseAffine(OrliczFunction):
    """Convex piecewise-affine Orlicz function.

    Knots are kept in the log domain; each segment carries its left value and
    slope both as linear doubles (exact for moderate builds) and as
    log-magnitudes (for values far outside double range).  Below the first
    knot the function is linear through the origin; beyond the last knot it
    continues with ``tail_slope`` and is flagged as extrapolated.
    """

    family = "piecewise"

    def __init__(
        self,
        knots_linear,
        tail_slope: float | None = None,
        *,
        family: str | None = None,
        params: dict | None = None,
        primary_anchor_logs=None,
        secondary_anchor_logs=None,
        exact_knots=None,
        domain_hint=None,
    ):
        super().__init__()
        knots = [(float(x), float(y)) for x, y in knots_linear]
        if not knots:
            raise ValueError("piecewise function needs at least one knot")
        xs = np.array([k[0] for k in knots])
        ys = np.array([k[1] for k in knots])
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise ValueError("knots must have positive coordinates")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("knots must be strictly increasing in x and y")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("knot coordinates must be finite doubles")

        self.xs = xs
        self.ys = ys
        self.log_xs = np.log(xs)
        self.log_ys = np.log(ys)

        self.init_slope = ys[0] / xs[0]
        if len(xs) > 1:
            self.seg_slopes = np.diff(ys) / np.diff(xs)
            self.seg_slope_logs = log_diff(self.log_ys[1:], self.log_ys[:-1]) - log_diff(
                self.log_xs[1:], self.log_xs[:-1]
            )
            self.seg_slopes = np.atleast_1d(self.seg_slopes)
            self.seg_slope_logs = np.atleast_1d(self.seg_slope_logs)
        else:
            self.seg_slopes = np.array([])
            self.seg_slope_logs = np.array([])

        last_slope = self.seg_slopes[-1] if len(self.seg_slopes) else self.init_slope
        self.tail_slope = float(tail_slope) if tail_slope is not None else float(last_slope)
        if self.tail_slope <= 0:
            raise ValueError("tail slope must be positive")
        self.tail_slope_log = math.log(self.tail_slope)

        slopes = np.concatenate([[self.init_slope], self.seg_slopes, [self.tail_slope]])
        rel_drop = np.diff(slopes) / np.maximum.reduce(
            [np.abs(slopes[:-1]), np.abs(slopes[1:]), np.full(len(slopes) - 1, 1e-300)]
        )
        if np.any(rel_drop < -CONVEXITY_TOL):
            raise ValueError("knots do not describe a convex function")

        self.trusted_log_hi = float(self.log_xs[-1])
        self.domain_hint = tuple(domain_hint) if domain_hint else (float(xs[0]), float(xs[-1]))
        if family:
            self.family = family
        self.params = dict(params or {})
        self._primary_anchor_logs = (
            np.asarray(primary_anchor_logs, dtype=float)
            if primary_anchor_logs is not None
            else self.log_xs.copy()
        )
        self._secondary_anchor_logs = (
            np.asarray(secondary_anchor_logs, dtype=float)
            if secondary_anchor_logs is not None
            else np.array([])
        )
        # exact integer (x, y) pairs, populated by builders with integral data
        self.exact_knots = tuple(exact_knots) if exact_knots else ()

    # -- evaluation ---------------------------------------------------------

    def eval(self, x):
        if x < 0 or not math.isfinite(x):
            raise ValueError(f"eval expects a finite x >= 0, got {x!r}")
        if x == 0.0:
            return 0.0
        if x < self.xs[0]:
            return self.init_slope * x
        if x >= self.xs[-1]:
            y = self.ys[-1] + self.tail_slope * (x - self.xs[-1])
        else:
            i = bisect.bisect_right(self.xs, x) - 1
            y = self.ys[i] + self.seg_slopes[i] * (x - self.xs[i])
        if math.isinf(y):
            raise EvaluationOverflow(f"{self.label} overflows at x={x:g}; use eval_log")
        return float(y)

    def eval_log(self, log_x):
        scalar = np.ndim(log_x) == 0
        lx = np.atleast_1d(_as_float_array(log_x))
        out = np.empty_like(lx)

        below = lx < self.log_xs[0]
        out[below] = math.log(self.init_slope) + lx[below]

        inside = ~below
        if np.any(inside):
            li = lx[inside]
            idx = np.searchsorted(self.log_xs, li, side="right") - 1
            idx = np.clip(idx, 0, max(len(self.xs) - 1, 0))
            base_lx = self.log_xs[idx]
            base_ly = self.log_ys[idx]
            n_seg = len(self.seg_slope_logs)
            slope_log = np.where(
                idx < n_seg,
                self.seg_slope_logs[np.minimum(idx, max(n_seg - 1, 0))] if n_seg else self.tail_slope_log,
                self.tail_slope_log,
            )
            # log(x - x_i) assembled without leaving the log domain
            with np.errstate(divide="ignore", invalid="ignore"):
                gap = np.log(np.expm1(np.maximum(li - base_lx, 0.0)))
            run = base_lx + gap
            val = log_add(base_ly, slope_log + run)
            # exact knot hits return the stored knot value bitwise
            val = np.where(li == base_lx, base_ly, val)
            out[inside] = val
        return float(out[0]) if scalar else out

    # -- inversion ----------------------------------------------------------

    def inverse(self, y):
        if y < 0 or not math.isfinite(y):
            raise ValueError(f"inverse expects a finite y >= 0, got {y!r}")
        if y == 0.0:
            return 0.0
        if y < self.ys[0]:
            return y / self.init_slope
        if y >= self.ys[-1]:
            return float(self.xs[-1] + (y - self.ys[-1]) / self.tail_slope)
        i = bisect.bisect_right(self.ys, y) - 1
        if y == self.ys[i]:
            return float(self.xs[i])
        return float(self.xs[i] + (y - self.ys[i]) / self.seg_slopes[i])

    def inverse_log(self, log_y):
        scalar = np.ndim(log_y) == 0
        ly = np.atleast_1d(_as_float_array(log_y))
        out = np.empty_like(ly)

        below = ly < self.log_ys[0]
        out[below] = ly[below] - math.log(self.init_slope)

        inside = ~below
        if np.any(inside):
            li = ly[inside]
            idx = np.searchsorted(self.log_ys, li, side="right") - 1
            idx = np.clip(idx, 0, max(len(self.ys) - 1, 0))
            base_ly = self.log_ys[idx]
            base_lx = self.log_xs[idx]
            n_seg = len(self.seg_slope_logs)
            slope_log = np.where(
                idx < n_seg,
                self.seg_slope_logs[np.minimum(idx, max(n_seg - 1, 0))] if n_seg else self.tail_slope_log,
                self.tail_slope_log,
            )
            rise = log_diff(li, base_ly)
            val = log_add(base_lx, np.asarray(rise, dtype=float) - slope_log)
            val = np.where(li == base_ly, base_lx, val)
            out[inside] = val
        return float(out[0]) if scalar else out

    # -- conjugation: exact knot scan --------------------------------------

    def conjugate(self, y):
        if y < 0:
            raise ValueError("conjugate expects y >= 0")
        if y == 0.0:
            return 0.0
        if y > self.tail_slope * (1.0 + 1e-15):
            return math.inf
        candidates = self.xs * y - self.ys
        return float(max(0.0, np.max(candidates)))

    # -- metadata -----------------------------------------------------------

    def growth_anchor_logs(self):
        return self._primary_anchor_logs.copy()

    def secondary_anchor_logs(self):
        return self._secondary_anchor_logs.copy()

    @property
    def label(self):
        if self.family == "paper_counterexample":
            return (
                f"paper_counterexample(n_max={self.params.get('n_max')}, "
                f"r={self.params.get('r'):g})"
            )
        return f"piecewise({len(self.xs)} knots)"

    def to_spec(self):
        if self.family == "paper_counterexample":
            return {
                "family": "paper_counterexample",
                "n_max": self.params["n_max"],
                "r": self.params["r"],
            }
        return {
            "family": "piecewise",
            "knots": [[float(x), float(y)] for x, y in zip(self.xs, self.ys)],
            "tail_slope": self.tail_slope,
        }


def _sample_convexity_check(fn: OrliczFunction, lo: float, hi: float, n: int = 200):
    """Reject a construction whose chord slopes decrease anywhere on a
    geometric sample of [lo, hi] (restricted to linearly representable
    values)."""
    xs = np.geomspace(lo, hi, n)
    ly = np.atleast_1d(fn.eval_log(np.log(xs)))
    keep = ly < 700.0
    xs, ly = xs[keep], ly[keep]
    if len(xs) < 3:
        return
    y = np.exp(ly)
    slopes = np.diff(y) / np.diff(xs)
    scale = np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:]))
    if np.any(np.diff(slopes) < -CONVEXITY_TOL * np.maximum(scale, 1e-300)):
        raise ValueError(f"construction rejected: {fn.label} fails the convexity sample check")


class SquareComposed(OrliczFunction):
    """Psi1(t) = [Psi(t)]**2; convex non-decreasing again, so still Orlicz."""

    family = "square_compose"

    def __init__(self, inner: OrliczFunction):
        super().__init__()
        self.inner = inner
        self.domain_hint = inner.domain_hint
        self.trusted_log_hi = inner.trusted_log_hi
        _sample_convexity_check(self, *self.domain_hint)

    def eval(self, x):
        v = self.inner.eval(x)
        out = v * v
        if math.isinf(out):
            raise EvaluationOverflow(f"square of {self.inner.label} overflows at x={x:g}")
        return out

    def eval_log(self, log_x):
        return 2.0 * self.inner.eval_log(log_x)

    def inverse(self, y):
        if y < 0:
            raise ValueError("inverse expects y >= 0")
        return self.inner.inverse(math.sqrt(y))

    def inverse_log(self, log_y):
        return self.inner.inverse_log(_as_float_array(log_y) / 2.0)

    def growth_anchor_logs(self):
        return self.inner.growth_anchor_logs()

    def secondary_anchor_logs(self):
        return self.inner.secondary_anchor_logs()

    @property
    def label(self):
        return f"square_compose({self.inner.label})"

    def to_spec(self):
        return {"family": "square_compose", "inner": self.inner.to_spec()}


class ArgSquared(OrliczFunction):
    """Psi(x) = Psi0(x**2), the other convexity-preserving composition."""

    family = "arg_square"

    def __init__(self, inner: OrliczFunction):
        super().__init__()
        self.inner = inner
        lo, hi = inner.domain_hint
        self.domain_hint = (math.sqrt(lo), math.sqrt(hi))
        self.trusted_log_hi = inner.trusted_log_hi / 2.0
        _sample_convexity_check(self, *self.domain_hint)

    def eval(self, x):
        if x > 1e150:
            raise EvaluationOverflow(f"x**2 overflows at x={x:g}")
        return self.inner.eval(x * x)

    def eval_log(self, log_x):
        return self.inner.eval_log(2.0 * _as_float_array(log_x))

    def inverse(self, y):
        if y < 0:
            raise ValueError("inverse expects y >= 0")
        return math.sqrt(self.inner.inverse(y))

    def inverse_log(self, log_y):
        return _as_float_array(self.inner.inverse_log(log_y)) / 2.0

    def growth_anchor_logs(self):
        return self.inner.growth_anchor_logs() / 2.0

    def secondary_anchor_logs(self):
        return self.inner.secondary_anchor_logs() / 2.0

    @property
    def label(self):
        return f"arg_square({self.inner.label})"

    def to_spec(self):
        return {"family": "arg_square", "inner": self.inner.to_spec()}


class ScaledArgument(OrliczFunction):
    """Psi_c(x) = Psi(c*x); internal helper for scale-invariance checks."""

    family = "_scaled_argument"

    def __init__(self, inner: OrliczFunction, c: float):
        super().__init__()
        if c <= 0:
            raise ValueError("scale factor must be positive")
        self.inner = inner
        self.c = float(c)
        self._log_c = math.log(c)
        lo, hi = inner.domain_hint
        self.domain_hint = (lo / c, hi / c)
        self.trusted_log_hi = inner.trusted_log_hi - self._log_c

    def eval(self, x):
        return self.inner.eval(self.c * x)

    def eval_log(self, log_x):
        return self.inner.eval_log(_as_float_array(log_x) + self._log_c)

    def inverse_log(self, log_y):
        return _as_float_array(self.inner.inverse_log(log_y)) - self._log_c

    def inverse(self, y):
        return self.inner.inverse(y) / self.c

    def growth_anchor_logs(self):
        return self.inner.growth_anchor_logs() - self._log_c

    def secondary_anchor_logs(self):
        return self.inner.secondary_anchor_logs() - self._log_c

    @property
    def label(self):
        return f"{self.inner.label} scaled by {self.c:g}"

    def to_spec(self):
        raise NotImplementedError("scaled-argument views are not serializable")


def square_compose(psi: OrliczFunction) -> SquareComposed:
    return SquareComposed(psi)


def arg_square(psi: OrliczFunction) -> ArgSquared:
    return ArgSquared(psi)


def scale_argument(psi: OrliczFunction, c: float) -> ScaledArgument:
    return ScaledArgument(psi, c)


def counterexample_knot_points(n_max: int) -> list[int]:
    """The integer knot abscissas x_1=4, x_{n+1} = x_n**3 - 2*x_n."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    xs = [4]
    for _ in range(n_max - 1):
        xs.append(xs[-1] ** 3 - 2 * xs[-1])
    return xs


def counterexample_delta(n: int) -> Fraction:
    """delta_n = 2*x_{n-1}/x_n, exactly, for n >= 2."""
    if n < 2:
        raise ValueError("delta_n is defined for n >= 2")
    xs = counterexample_knot_points(n)
    return Fraction(2 * xs[n - 2], xs[n - 1])


def build_counterexample(n_max: int = 4, r: float = 4.0) -> PiecewiseAffine:
    """Piecewise-affine function whose doubling quotient refuses to settle.

    Knots sit at x_n and 2*x_n with values x_n**(r/2) and x_n**r, the initial
    segment is 4*x on [0, 4], and consecutive knots are joined affinely.  With
    the default r = 4 the three points (x_n, x_n^2), (2 x_n, x_n^4) and
    (x_{n+1}, x_{n+1}^2) are collinear, so each [x_n, x_{n+1}] is a single
    affine piece.  The growth quotient Psi(2x)/Psi(x)^2 equals 1 exactly at
    every knot yet the squared sandwich x^2 <= Psi(x) <= x^4 holds throughout.
    """
    if not (2 <= n_max <= 5):
        raise ValueError(f"n_max must be between 2 and 5, got {n_max}")
    if r < 4.0:
        raise ValueError(f"r must be at least 4, got {r}")
    xs_int = counterexample_knot_points(n_max)
    if r * math.log(float(xs_int[-1])) > _MAX_KNOT_LOG:
        raise ValueError(
            f"knot value x_{n_max}**{r:g} exceeds double range; "
            "reduce n_max or r"
        )

    r_half_int = None
    if float(r).is_integer() and int(r) % 2 == 0:
        r_half_int = int(r) // 2

    knots = []
    exact = []
    primary_logs = []
    secondary_logs = []
    for x in xs_int:
        if r_half_int is not None:
            y_lo = x**r_half_int
            y_hi = x ** (2 * r_half_int)
            exact.append((x, y_lo))
            exact.append((2 * x, y_hi))
            knots.append((float(x), float(y_lo)))
            knots.append((float(2 * x), float(y_hi)))
        else:
            lx = math.log(float(x))
            knots.append((float(x), math.exp(0.5 * r * lx)))
            knots.append((float(2 * x), math.exp(r * lx)))
        primary_logs.append(math.log(float(x)))
        secondary_logs.append(math.log(float(2 * x)))

    psi = PiecewiseAffine(
        knots,
        family="paper_counterexample",
        params={"n_max": n_max, "r": float(r)},
        primary_anchor_logs=primary_logs,
        secondary_anchor_logs=secondary_logs,
        exact_knots=exact,
        domain_hint=(4.0, float(xs_int[-1])),
    )
    # pin the knot log-values to exact multiples of log x_n so that the
    # quotient at a knot is zero in the log domain, not merely 1e-16 close
    for i, x in enumerate(xs_int):
        lx = math.log(float(x))
        psi.log_ys[2 * i] = 0.5 * r * lx
        psi.log_ys[2 * i + 1] = r * lx
        psi.log_xs[2 * i] = lx
        psi.log_xs[2 * i + 1] = math.log(float(2 * x))
    return psi


# -- JSON function-spec documents -------------------------------------------

_SPEC_FAMILIES = (
    "power",
    "exp_log_squared",
    "exp_minus_one",
    "paper_counterexample",
    "piecewise",
    "square_compose",
    "arg_square",
)


def parse_function_spec(spec) -> OrliczFunction:
    """Build an OrliczFunction from a function-spec document.

    Accepts a dict or a JSON string such as {"family": "power", "p": 2}.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ValueError(f"function spec is not valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"function spec must be a JSON object, got {type(spec).__name__}")
    family = spec.get("family")
    if family == "power":
        if "p" not in spec:
            raise ValueError("power family needs a 'p' field")
        return PowerFunction(float(spec["p"]))
    if family == "exp_log_squared":
        return ExpLogSquared()
    if family == "exp_minus_one":
        return ExpMinusOne()
    if family == "paper_counterexample":
        return build_counterexample(
            int(spec.get("n_max", 4)), float(spec.get("r", 4.0))
        )
    if family == "piecewise":
        if "knots" not in spec:
            raise ValueError("piecewise family needs a 'knots' field")
        return PiecewiseAffine(
            [(float(x), float(y)) for x, y in spec["knots"]],
            tail_slope=float(spec["tail_slope"]) if "tail_slope" in spec else None,
        )
    if family == "square_compose":
        return SquareComposed(parse_function_spec(spec.get("inner")))
    if family == "arg_square":
        return ArgSquared(parse_function_spec(spec.get("inner")))
    raise ValueError(
        f"unknown function family {family!r}; expected one of {_SPEC_FAMILIES}"
    )
