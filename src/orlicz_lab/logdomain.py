"""Arithmetic on log-magnitudes.

Knot values of the piecewise constructions reach ~1e188, far beyond what can
be combined safely in linear double arithmetic, so sums and differences of
positive quantities are carried out on their logarithms.
"""

import numpy as np

# log of the largest finite double, rounded down slightly
LOG_DBL_MAX = 709.0


def log_add(a, b):
    """log(exp(a) + exp(b)), elementwise; -inf acts as zero."""
    return np.logaddexp(a, b)


def log1p_exp(s):
    """log(1 + exp(s)) elementwise: np.logaddexp(0, s) as a vectorized formula."""
    return np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)


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
    """logsumexp over a 1-d array, tolerating -inf entries; the terms are
    not written."""
    t = np.asarray(terms, dtype=float)
    if t.size == 0:
        return -np.inf
    m = np.max(t)
    if not np.isfinite(m):
        return float(m)
    d = t - m
    np.exp(d, out=d)
    return float(m + np.log(np.sum(d)))


def log_expm1(s):
    """log(exp(s) - 1) for s > 0, elementwise, stable for both tails."""
    s = np.asarray(s, dtype=float)
    # only the small-s branch is in use (a NaN max takes the general path)
    if s.size and s.ndim and s.max() <= 33.0:
        with np.errstate(divide="ignore"):
            return np.log(np.expm1(s))
    small = np.minimum(s, 33.0)
    with np.errstate(divide="ignore"):
        out = np.where(
            s > 33.0,
            s + np.log1p(-np.exp(-np.minimum(s, LOG_DBL_MAX))),
            np.log(np.expm1(small)),
        )
    if out.ndim == 0:
        return float(out)
    return out
