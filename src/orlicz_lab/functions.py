"""Orlicz functions and the calculus on them.

An Orlicz function is a non-decreasing convex map of [0, inf) to itself with
value 0 at 0.  This module provides the closed-form families, piecewise-affine
functions (with the knotted counterexample of :func:`build_counterexample`),
the two convexity-preserving compositions, and their JSON spec documents.

One contract, kept in :class:`OrliczFunction`, holds for every family:
``eval``, ``inverse`` and ``conjugate`` refuse a NaN or negative argument
(``eval`` and ``inverse`` an infinite one too), answer 0 at 0, and ``eval``
and ``inverse`` raise :class:`EvaluationOverflow` past double range.  A family
gives only its formulas: ``eval_log`` and ``inverse_log``, and, where it has
an exact linear-domain form, the private hooks ``_eval``, ``_inverse`` and
``_conjugate``.  Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
from fractions import Fraction

import numpy as np

from .logdomain import (LOG_DBL_MAX, _log1p_exp_inplace, _log_expm1_inplace, log1p_exp, log_add,
                        log_diff, log_expm1)

CONVEXITY_TOL = 1e-9
MAX_BISECT_STEPS = 200

# largest first-knot index sequence allowed before the quartic knot values
# leave the exponent range of a double
_MAX_KNOT_LOG = 708.0
# the direct formulas of ExpLogSquared and ExpMinusOne underflow from log x
# = -354 and -708; below this log-argument the leading term of their tiny-x
# expansions is exact to the bit
_LOG_X_TINY = -300.0


class EvaluationOverflow(OverflowError):
    """The linear-domain value exceeds double range; use eval_log instead."""


class ExtrapolationError(ValueError):
    """An evaluation point lies beyond the knot-covered (trusted) range."""


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _check_argument(t, name):
    if not 0.0 <= t < math.inf:
        raise ValueError(f"{name} expects a finite argument >= 0, got {t!r}")


class OrliczFunction:
    """Base class of every family, and the one argument contract.

    A family implements ``eval_log`` and ``inverse_log``, the one extension
    point.  The public ``eval``, ``inverse`` and ``conjugate`` check their
    argument and answer 0 at 0, then call ``_eval``, ``_inverse`` or
    ``_conjugate``.  By default those go through the log-domain evaluators,
    and ``_conjugate`` through a ternary search; a family with an exact
    linear-domain formula overrides them.  An infinite value or an
    OverflowError from ``_eval`` or ``_inverse`` becomes EvaluationOverflow.
    """

    family = "abstract"
    # the x-range a default grid samples, and the largest log x the
    # construction covers; beyond it values are extrapolated
    domain_hint = (1e-3, 1e12)
    trusted_log_hi = math.inf

    def eval_log(self, log_x):
        """log Psi(exp(log_x)); accepts scalars or arrays."""
        raise NotImplementedError

    def inverse_log(self, log_y):
        """log of the preimage of exp(log_y); scalar or array."""
        raise NotImplementedError

    # -- the contract -------------------------------------------------------

    def eval(self, x: float) -> float:
        """Psi(x) in the linear domain."""
        return self._finite(self._eval, x, "eval")

    def inverse(self, y: float) -> float:
        """The preimage of y in the linear domain."""
        return self._finite(self._inverse, y, "inverse")

    def conjugate(self, y: float) -> float:
        """Legendre-type conjugate sup_{x>0} (x*y - Psi(x)).

        Returns math.inf when the supremum is infinite (y above the limiting
        slope of Psi).
        """
        if y == math.inf:
            return math.inf
        _check_argument(y, "conjugate")
        return self._conjugate(y) if y else 0.0

    def _finite(self, hook, t, name):
        _check_argument(t, name)
        if t == 0.0:
            return 0.0
        try:
            v = hook(t)
        except OverflowError:
            v = math.inf
        if math.isinf(v):
            raise EvaluationOverflow(f"{self.label}: {name}({t:g}) exceeds double range; "
                                     f"use {name}_log")
        return v

    # -- default hooks ------------------------------------------------------

    def _eval(self, x):
        ly = float(self.eval_log(math.log(x)))
        return math.inf if ly > LOG_DBL_MAX else math.exp(ly)

    def _inverse(self, y):
        return math.exp(float(self.inverse_log(math.log(y))))

    def _eval_or_inf(self, x: float) -> float:
        try:
            return self.eval(x)
        except EvaluationOverflow:
            return math.inf

    def _conjugate(self, y: float) -> float:
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
        """The spec document of this function: its family, then each field of
        its FAMILIES entry in order, read from the attribute of that name."""
        if self.family not in FAMILIES:
            raise NotImplementedError(f"{self.label} has no spec: no family {self.family!r}")
        spec = {"family": self.family}
        for field in FAMILIES[self.family][1]:
            value = getattr(self, field)
            spec[field] = value.to_spec() if isinstance(value, OrliczFunction) else value
        return spec

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class PowerFunction(OrliczFunction):
    """Psi(x) = x**p for p >= 1."""

    family = "power"

    def __init__(self, p: float):
        if not (p >= 1.0 and math.isfinite(p)):
            raise ValueError(f"power family needs p >= 1, got {p!r}")
        self.p = float(p)

    def _eval(self, x):
        return x**self.p

    def eval_log(self, log_x):
        out = self.p * _as_float_array(log_x)
        return float(out) if out.ndim == 0 else out

    def _inverse(self, y):
        return y ** (1.0 / self.p)

    def inverse_log(self, log_y):
        out = _as_float_array(log_y) / self.p
        return float(out) if out.ndim == 0 else out

    @property
    def label(self):
        return f"power(p={self.p:g})"


class ExpLogSquared(OrliczFunction):
    """Psi(x) = exp([log(x + 1)]**2) - 1.

    Doubling fails for this function even though the compactness quotient
    still collapses, which is why it earns a place in the test battery.
    """

    family = "exp_log_squared"

    def eval_log(self, log_x):
        lx = _as_float_array(log_x)
        # log(1 + x) from log x without forming x, squared, then log_expm1 in place
        out = _log1p_exp_inplace(np.array(lx))
        np.multiply(out, out, out=out)
        _log_expm1_inplace(out)
        if lx.size and lx.min() < _LOG_X_TINY:  # log Psi(x) = 2 log x + O(x)
            np.multiply(lx, 2.0, out=out, where=lx < _LOG_X_TINY)
        return float(out) if out.ndim == 0 else out

    def inverse_log(self, log_y):
        ly = _as_float_array(log_y)
        out = log_expm1(np.sqrt(log1p_exp(ly)))
        if ly.size and ly.min() < _LOG_X_TINY:  # log Psi^-1(y) = (log y) / 2 + O(sqrt y)
            out = np.where(ly < _LOG_X_TINY, 0.5 * ly, out)
        return float(out) if np.ndim(out) == 0 else out


class ExpMinusOne(OrliczFunction):
    """Psi(x) = exp(x) - 1, a specimen that grows too fast for the embedding
    to stay weakly compact."""

    family = "exp_minus_one"

    def eval_log(self, log_x):
        lx = _as_float_array(log_x)
        out = _log_expm1_inplace(np.exp(lx, out=np.empty_like(lx)))
        if lx.size and lx.min() < _LOG_X_TINY:  # log Psi(x) = log x + O(x)
            np.copyto(out, lx, where=lx < _LOG_X_TINY)
        return float(out) if out.ndim == 0 else out

    def inverse_log(self, log_y):
        ly = _as_float_array(log_y)
        with np.errstate(divide="ignore"):
            out = np.log(log1p_exp(ly))
        if ly.size and ly.min() < _LOG_X_TINY:  # log Psi^-1(y) = log y + O(y)
            out = np.where(ly < _LOG_X_TINY, ly, out)
        return float(out) if np.ndim(out) == 0 else out


class PiecewiseAffine(OrliczFunction):
    """Convex piecewise-affine Orlicz function.

    Knots are kept both as linear doubles (exact for moderate builds) and as
    log-magnitudes (for values far outside double range).  Two per-knot
    tables, ``slopes`` and ``slope_logs``, hold the slope of the piece that
    starts at knot i and its log; their last entry is the tail slope.  Every
    evaluator finds the knot interval once (``bisect_right`` or
    ``searchsorted``) and reads these tables.  Below the first knot the
    function is linear through the origin with ``init_slope``; beyond the
    last knot it continues with ``tail_slope`` and is flagged as
    extrapolated.  The knots are the growth anchors.
    """

    family = "piecewise"

    def __init__(self, knots_linear, tail_slope: float | None = None):
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

        # chord slopes from the origin to the first knot and between knots
        with np.errstate(over="ignore"):
            chords = np.diff(ys, prepend=0.0) / np.diff(xs, prepend=0.0)
        bad = np.flatnonzero(~((chords > 0.0) & (chords < math.inf)))
        if bad.size:
            a, b = ([(0.0, 0.0)] + knots)[bad[0]:bad[0] + 2]
            raise ValueError(f"the chord slope between {a} and {b} is "
                             f"{float(chords[bad[0]])!r}, not a finite positive double")
        self.init_slope = chords[0]
        self.init_slope_log = math.log(self.init_slope)
        self.tail_slope = float(tail_slope) if tail_slope is not None else float(chords[-1])
        if not 0.0 < self.tail_slope < math.inf:
            raise ValueError(f"tail slope must be finite and positive, got {self.tail_slope!r}")
        # entry i is the slope of the piece that starts at knot i; the last
        # entry is the tail slope
        self.slopes = np.append(chords[1:], self.tail_slope)
        self.slope_logs = np.append(
            log_diff(self.log_ys[1:], self.log_ys[:-1]) - log_diff(self.log_xs[1:], self.log_xs[:-1]),
            math.log(self.tail_slope),
        )

        chain = np.append(chords, self.tail_slope)
        rel_drop = np.diff(chain) / np.maximum.reduce(
            [np.abs(chain[:-1]), np.abs(chain[1:]), np.full(len(chain) - 1, 1e-300)]
        )
        if np.any(rel_drop < -CONVEXITY_TOL):
            raise ValueError("knots do not describe a convex function")

        self.trusted_log_hi = float(self.log_xs[-1])
        self.domain_hint = (float(xs[0]), float(xs[-1]))

    # -- evaluation ---------------------------------------------------------

    def _eval(self, x):
        if x < self.xs[0]:
            return self.init_slope * x
        i = bisect.bisect_right(self.xs, x) - 1
        return float(self.ys[i] + self.slopes[i] * (x - self.xs[i]))

    def eval_log(self, log_x):
        lx = _as_float_array(log_x)
        # the line through the origin below the first knot; the transcendental
        # work runs only on the points at or past it, often a small share
        out = np.array(self.init_slope_log + lx)
        on = lx >= self.log_xs[0]
        li = lx[on]
        idx = np.searchsorted(self.log_xs, li, side="right") - 1
        base_lx = self.log_xs[idx]
        base_ly = self.log_ys[idx]
        # log(x - x_i) assembled without leaving the log domain
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.log(np.expm1(np.maximum(li - base_lx, 0.0)))
        run = base_lx + gap
        val = log_add(base_ly, self.slope_logs[idx] + run)
        # exact knot hits return the stored knot value bitwise
        out[on] = np.where(li == base_lx, base_ly, val)
        return float(out) if out.ndim == 0 else out

    # -- inversion ----------------------------------------------------------

    def _inverse(self, y):
        if y < self.ys[0]:
            return y / self.init_slope
        i = bisect.bisect_right(self.ys, y) - 1
        return float(self.xs[i] + (y - self.ys[i]) / self.slopes[i])

    def inverse_log(self, log_y):
        ly = _as_float_array(log_y)
        out = np.array(ly - self.init_slope_log)
        on = ly >= self.log_ys[0]
        li = ly[on]
        idx = np.searchsorted(self.log_ys, li, side="right") - 1
        base_ly = self.log_ys[idx]
        base_lx = self.log_xs[idx]
        rise = log_diff(li, base_ly)
        val = log_add(base_lx, rise - self.slope_logs[idx])
        out[on] = np.where(li == base_ly, base_lx, val)
        return float(out) if out.ndim == 0 else out

    # -- conjugation: exact knot scan --------------------------------------

    def _conjugate(self, y):
        if y > self.tail_slope * (1.0 + 1e-15):
            return math.inf
        return float(max(0.0, np.max(self.xs * y - self.ys)))

    # -- metadata -----------------------------------------------------------

    def growth_anchor_logs(self):
        return self.log_xs.copy()

    @property
    def label(self):
        return f"piecewise({len(self.xs)} knots)"

    @property
    def knots(self) -> list:
        """The knots as fresh [[x, y], ...] lists of floats."""
        return np.column_stack((self.xs, self.ys)).tolist()


class _Counterexample(PiecewiseAffine):
    """The knotted counterexample that :func:`build_counterexample` returns.

    Its knots sit at x_n and 2 x_n; those are its primary and secondary
    growth anchors.  The knot log-values are pinned to exact multiples of
    log x_n, so that the growth quotient at a knot is zero in the log
    domain, not merely 1e-16 close.  The slope tables are built from the
    unpinned np.log values and must stay so: rebuilding them from the pinned
    logs moves their last bits, and with them every value between the knots.
    """

    family = "paper_counterexample"

    def __init__(self, n_max: int, r: float):
        xs_int = counterexample_knot_points(n_max)
        r_half = int(r) // 2 if r.is_integer() and int(r) % 2 == 0 else None
        knots = []
        for x in xs_int:
            if r_half is not None:
                knots += [(float(x), float(x**r_half)), (float(2 * x), float(x ** (2 * r_half)))]
            else:
                lx = math.log(float(x))
                knots += [(float(x), math.exp(0.5 * r * lx)), (float(2 * x), math.exp(r * lx))]
        super().__init__(knots)
        self.n_max, self.r = n_max, r
        self.domain_hint = (4.0, float(xs_int[-1]))
        lx = np.array([math.log(float(x)) for x in xs_int])
        self.log_xs[0::2], self.log_xs[1::2] = lx, [math.log(float(2 * x)) for x in xs_int]
        self.log_ys[0::2], self.log_ys[1::2] = 0.5 * r * lx, r * lx

    def growth_anchor_logs(self):
        return self.log_xs[0::2].copy()

    def secondary_anchor_logs(self):
        return self.log_xs[1::2].copy()

    @property
    def label(self):
        return f"paper_counterexample(n_max={self.n_max}, r={self.r:g})"


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


class _Composed(OrliczFunction):
    """Psi built on an inner Orlicz function.  Each subclass maps the inner
    function's log-x positions to its own with ``_x_of``; the anchors and the
    trusted range follow that map."""

    def __init__(self, inner: OrliczFunction, domain_hint):
        self.inner = inner
        self.domain_hint = domain_hint
        self.trusted_log_hi = self._x_of(inner.trusted_log_hi)

    def growth_anchor_logs(self):
        return self._x_of(self.inner.growth_anchor_logs())

    def secondary_anchor_logs(self):
        return self._x_of(self.inner.secondary_anchor_logs())

    @property
    def label(self):
        return f"{self.family}({self.inner.label})"


class SquareComposed(_Composed):
    """Psi1(t) = [Psi(t)]**2; convex non-decreasing again, so still Orlicz."""

    family = "square_compose"

    def __init__(self, inner: OrliczFunction):
        super().__init__(inner, inner.domain_hint)
        _sample_convexity_check(self, *self.domain_hint)

    def _x_of(self, log_x):
        return log_x

    def _eval(self, x):
        v = self.inner.eval(x)
        return v * v

    def eval_log(self, log_x):
        return 2.0 * self.inner.eval_log(log_x)

    def inverse_log(self, log_y):
        return self.inner.inverse_log(_as_float_array(log_y) / 2.0)


class ArgSquared(_Composed):
    """Psi(x) = Psi0(x**2), the other convexity-preserving composition."""

    family = "arg_square"

    def __init__(self, inner: OrliczFunction):
        lo, hi = inner.domain_hint
        super().__init__(inner, (math.sqrt(lo), math.sqrt(hi)))
        _sample_convexity_check(self, *self.domain_hint)

    def _x_of(self, log_x):
        return log_x / 2.0

    def _eval(self, x):
        # x * x leaves double range past about 1.34e154
        y = x * x
        return math.inf if y == math.inf else self.inner.eval(y)

    def eval_log(self, log_x):
        return self.inner.eval_log(2.0 * _as_float_array(log_x))

    def inverse_log(self, log_y):
        return _as_float_array(self.inner.inverse_log(log_y)) / 2.0


class ScaledArgument(_Composed):
    """Psi_c(x) = Psi(c*x); internal helper for scale-invariance checks."""

    family = "_scaled_argument"

    def __init__(self, inner: OrliczFunction, c: float):
        if not 0.0 < c < math.inf:
            raise ValueError(f"scale factor must be finite and positive, got {c!r}")
        self.c = float(c)
        self._log_c = math.log(c)
        lo, hi = inner.domain_hint
        super().__init__(inner, (lo / c, hi / c))

    def _x_of(self, log_x):
        return log_x - self._log_c

    def eval_log(self, log_x):
        return self.inner.eval_log(_as_float_array(log_x) + self._log_c)

    def inverse_log(self, log_y):
        return _as_float_array(self.inner.inverse_log(log_y)) - self._log_c

    @property
    def label(self):
        return f"{self.inner.label} scaled by {self.c:g}"


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
    if r * math.log(float(counterexample_knot_points(n_max)[-1])) > _MAX_KNOT_LOG:
        raise ValueError(
            f"knot value x_{n_max}**{r:g} exceeds double range; "
            "reduce n_max or r"
        )
    return _Counterexample(n_max, float(r))


# -- JSON spec documents ------------------------------------------------------

# the default of a field that every spec of its entry must give
REQUIRED = object()


def _number(v) -> float:
    """A JSON number: a bool or a numeric string is refused."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _integer(v) -> int:
    """A JSON number with a finite, integral value."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral) or _number(v).is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _pairs(v) -> list:
    """A JSON list of [number, number] pairs."""
    return [(_number(x), _number(y)) for x, y in v]


def read_spec(spec, key, table, **extra):
    """Build what a spec document, a dict or its JSON text, describes.

    ``spec[key]`` names an entry ``(builder, fields)`` of ``table``, and
    ``fields`` maps each field in order to ``(converter, default)``, where a
    REQUIRED default must be given.  A missing, unknown or unconvertible field
    is a ValueError that names it.  The builder takes the converted fields in
    order and ``extra``, and keeps its own range checks.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ValueError(f"spec is not valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"spec must be a JSON object, got {type(spec).__name__}")
    name = spec.get(key)
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"unknown function {key} {name!r}; expected one of {tuple(table)}")
    builder, fields = table[name]
    for field in spec:
        if field != key and field not in fields:
            raise ValueError(f"{name} {key} has no field {field!r}; it takes {tuple(fields)}")
    values = []
    for field, (convert, default) in fields.items():
        if field not in spec and default is REQUIRED:
            raise ValueError(f"{name} {key} needs a {field!r} field")
        try:
            values.append(convert(spec[field]) if field in spec else default)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name} {key} field {field!r}: {exc}") from None
    return builder(*values, **extra)


def parse_function_spec(spec) -> OrliczFunction:
    """Build an OrliczFunction from a function-spec document, a dict or its
    JSON text such as {"family": "power", "p": 2}, by its FAMILIES entry."""
    return read_spec(spec, "family", FAMILIES)


FAMILIES = {
    "power": (PowerFunction, {"p": (_number, REQUIRED)}),
    "exp_log_squared": (ExpLogSquared, {}),
    "exp_minus_one": (ExpMinusOne, {}),
    "paper_counterexample": (build_counterexample, {"n_max": (_integer, 4), "r": (_number, 4.0)}),
    "piecewise": (PiecewiseAffine, {"knots": (_pairs, REQUIRED), "tail_slope": (_number, None)}),
    "square_compose": (SquareComposed, {"inner": (parse_function_spec, REQUIRED)}),
    "arg_square": (ArgSquared, {"inner": (parse_function_spec, REQUIRED)}),
}
