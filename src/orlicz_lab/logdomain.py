"""Arithmetic on log-magnitudes.

Knot values of the piecewise constructions reach ~1e188, far beyond what can
be combined safely in linear double arithmetic, so sums and differences of
positive quantities are carried out on their logarithms.  A log-magnitude
returns to the linear domain through ``exp_or_inf``, the one cut to
infinity past ``LOG_DBL_MAX``.
"""

import math

import numpy as np

# log of the largest finite double, rounded down slightly
LOG_DBL_MAX = 709.0


def exp_or_inf(log_v: float) -> float:
    """exp(log_v), or inf when log_v exceeds LOG_DBL_MAX or is NaN."""
    return math.exp(log_v) if log_v <= LOG_DBL_MAX else math.inf


def log_add(a, b):
    """log(exp(a) + exp(b)), elementwise; -inf acts as zero."""
    return np.logaddexp(a, b)


def log1p_exp(s):
    """log(1 + exp(s)), np.logaddexp(0, s) as a vectorized formula; s is not written."""
    out = _log1p_exp_inplace(np.array(s, dtype=float))
    return out[()] if out.ndim == 0 else out


def _log1p_exp_inplace(s):
    """log1p_exp of the float array s, which it overwrites; returns s."""
    pos = np.maximum(s, 0.0)
    np.exp(np.negative(np.abs(s, out=s), out=s), out=s)
    np.log1p(s, out=s)
    s += pos
    return s


def log_diff(a, b):
    """log(exp(a) - exp(b)) for a >= b, elementwise; -inf when equal."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.minimum(b - a, 0.0)
        out = np.where(a == b, -np.inf, a + np.log(-np.expm1(d)))
    if out.ndim == 0:
        return float(out)
    return out


def log_sum(terms):
    """logsumexp over a 1-d array, tolerating -inf entries; the terms are not written."""
    return _log_sum_inplace(np.array(terms, dtype=float))


def _log_sum_inplace(t):
    """log_sum of the 1-d float array t, which it overwrites."""
    if t.size == 0:
        return -np.inf
    m = np.max(t)
    if not np.isfinite(m):
        return float(m)
    t -= m
    np.exp(t, out=t)
    return float(m + np.log(np.sum(t)))


def log_expm1(s):
    """log(exp(s) - 1) for s > 0, elementwise, stable for both tails; s is not written."""
    out = _log_expm1_inplace(np.array(s, dtype=float))
    return float(out) if out.ndim == 0 else out


def _log_expm1_inplace(s):
    """log_expm1 of the float array s, which it overwrites; returns s."""
    with np.errstate(divide="ignore"):
        # only the small-s branch is in use (a NaN max takes the general path)
        if s.size and s.max() <= 33.0:
            np.expm1(s, out=s)
            return np.log(s, out=s)
        # past 33 the result is s + log1p(-exp(-s)); for s >= 40, exp(-s) <=
        # 4.3e-18 is below half an ulp of s (>= 3.5e-15), so the sum rounds to
        # s and clamping at 40 changes no bit, while exp(-s) stays normal
        tail = np.minimum(s, 40.0, out=np.empty_like(s))
        np.exp(np.negative(tail, out=tail), out=tail)
        np.log1p(np.negative(tail, out=tail), out=tail)
        tail += s
        big = s > 33.0
        np.minimum(s, 33.0, out=s)
        np.expm1(s, out=s)
        np.log(s, out=s)
        np.copyto(s, tail, where=big)
    return s
