"""Modulars and Luxemburg norms.

The Luxemburg norm of f is the smallest C > 0 whose modular, the integral of
Psi(|f|/C), does not exceed 1.  The modular is monotone non-increasing in C,
and log M is a monotone function of log C (affine for power functions), so
the norm is the root of log M(log C) = 0.  Every rule is a probability
measure, so for convex Psi Jensen's inequality puts the root between
mean|f| / Psi^-1(1) and max|f| / Psi^-1(1) (loops that halve or double C
widen an end that does not bracket); Anderson-Bjorck regula falsi on log C,
with a bisection step whenever the secant leaves the bracket, closes it.  All
modular accumulation happens in the log domain via logsumexp, which keeps
piecewise functions with 1e188-sized knot values honest.

luxemburg_norms, bergman_norms and hardy_norms (luxemburg_norm, bergman_norm,
hardy_norm and circle_norm for one Psi) sample f once on the rule and solve
each Psi against the shared logs of |f|.  The Hardy norm is the sup over
r < 1 of the circle norm of the dilate f_r(z) = f(r z); for analytic f and
convex increasing Psi that norm does not decrease in r (Hardy's convexity
theorem), so the sup is the circle norm of f itself, solved once.

Memory: rules are sampled, and modulars evaluated, in blocks of at most
domains.BLOCK = 2**15 points (at least one row), so a solve holds at full
length only the logs of |f| and of the weights and one buffer: log|f| - log C,
overwritten block by block with the log-terms, then by the log-sum-exp, which
runs in place.  Its max, exp and pairwise sum run on the whole buffer, so
values are bitwise those of whole-rule evaluation.

A function outside the space never produces a silent wrong value: the search
reports converged=False with an unbounded upper bracket instead.  Non-finite
samples and a lower bracket that never closes raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .domains import BLOCK, CircleDomain, DiskDomain, circle, disk
from .functions import OrliczFunction
from .logdomain import LOG_DBL_MAX, _log_sum_inplace
from .records import Record

TOL_MODULAR = 1e-9
BRACKET_REL_TOL = 1e-8
MAX_ITERS = 200
# relative quadrature error of the modular past which the rule is flagged
QUAD_REL_TOL = 1e-3
# steps that grow either end of the initial bracket by a factor of 2
_BRACKET_STEPS = 80
_LOG2 = math.log(2.0)

# the one radius a Hardy norm is solved at, reported as its argmax_radius
DEFAULT_RADII = (1.0,)


@dataclass(frozen=True)
class NormResult(Record):
    value: float
    bracket: tuple
    modular_at_value: float
    bisection_iters: int  # root-finder steps (regula falsi or bisection)
    quad_error_est: float
    converged: bool
    argmax_radius: float | None = None
    flags: tuple = ()


def _samples(f, dom):
    """(|f|, weights) on the rule's nodes, sampled in blocks of radial rows.
    The weights are built after the sampling pass, so they are not held
    through it."""
    return dom.map_nodes(lambda z: np.abs(f.values(z))), dom._weights()


def _log_samples(abs_values, weights):
    """log|f| and log w on the nodes where |f| > 0; raises ValueError when a
    sample is not finite."""
    av = np.asarray(abs_values, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(av)))
    if bad:
        raise ValueError(f"{bad} of {av.size} sample values are not finite (NaN or inf)")
    mask = av > 0.0
    # boolean indexing copies, so the logs are taken in place
    log_av, log_w = av[mask], np.asarray(weights, dtype=float)[mask]
    np.log(log_av, out=log_av)
    np.log(log_w, out=log_w)
    return log_av, log_w


def _log_modular(psi, log_av, log_w, log_c):
    """log of the modular at scale exp(log_c): log|f| - log_c in one buffer,
    each block of at most BLOCK points replaced by log w + eval_log of it,
    then a log-sum-exp over the buffer in place; -inf for the zero function."""
    t = np.subtract(log_av, log_c)
    for i in range(0, t.size, BLOCK):
        block = t[i:i + BLOCK]
        np.add(log_w[i:i + BLOCK], psi.eval_log(block), out=block)
    return _log_sum_inplace(t)


def _exp_modular(log_m):
    return math.exp(log_m) if log_m <= LOG_DBL_MAX else math.inf


def modular_from_values(psi: OrliczFunction, abs_values, weights, c: float) -> float:
    """Integral of Psi(|f|/c) against the weights; +inf when it leaves double
    range even in the log domain.  Non-finite samples raise ValueError."""
    if not c > 0:  # a NaN scale fails this test too
        raise ValueError(f"the modular scale c must be positive, got {c!r}")
    return _exp_modular(_log_modular(psi, *_log_samples(abs_values, weights), math.log(c)))


def modular(f, psi: OrliczFunction, dom, c: float) -> float:
    """Quadrature value of the modular of f at scale c on the domain."""
    return modular_from_values(psi, *_samples(f, dom), c)


class _Root(NamedTuple):
    value: float
    bracket: tuple
    iters: int
    modular: float
    converged: bool
    log_peak: float  # log of the largest |f| sample; -inf for f = 0


def _solve_logs(psi, log_av, log_w) -> _Root:
    """Root of log M(log C) = 0 by Anderson-Bjorck regula falsi on log C from
    Jensen's bracket (see the module docstring), with a bisection step
    whenever the secant leaves the bracket or an end value is not finite.
    Returns the value, its bracket, the root-finder step count, the modular
    at the value, a convergence flag and log max |f|."""
    if log_av.size == 0:
        return _Root(0.0, (0.0, 0.0), 0, 0.0, True, -math.inf)

    def g(s):
        return _log_modular(psi, log_av, log_w, s)

    log_peak = float(np.max(log_av))
    # Psi(mean|f|/C) <= M(C) <= Psi(max|f|/C) for convex Psi and total mass 1
    log_inv1 = float(psi.inverse_log(0.0))
    s_lo = _log_sum_inplace(log_av + log_w) - log_inv1 - 1e-9
    s_hi = log_peak - log_inv1 + 1e-9
    for _ in range(_BRACKET_STEPS):
        g_lo = g(s_lo)
        if g_lo >= 0.0:
            break
        s_lo -= _LOG2
    else:
        raise ValueError(
            f"lower bracket did not close: the modular stays below 1 after "
            f"{_BRACKET_STEPS} halvings of C (C = {math.exp(s_lo + _LOG2):.3g})"
        )
    for _ in range(_BRACKET_STEPS):
        g_hi = g(s_hi)
        if g_hi <= 0.0:
            break
        s_hi += _LOG2
    else:
        c_hi = math.exp(s_hi)
        return _Root(c_hi, (math.exp(s_lo), math.inf), _BRACKET_STEPS,
                     _exp_modular(g(s_hi)), False, log_peak)

    iters = 0
    converged = False
    kept = 0  # +1 / -1 when the last step replaced the lower / upper end
    for _ in range(MAX_ITERS):
        iters += 1
        s = 0.5 * (s_lo + s_hi)
        if math.isfinite(g_lo) and math.isfinite(g_hi) and g_lo != g_hi:
            secant = s_hi - g_hi * (s_hi - s_lo) / (g_hi - g_lo)
            if s_lo < secant < s_hi:
                s = secant
        g_s = g(s)
        m = _exp_modular(g_s)
        if abs(m - 1.0) <= TOL_MODULAR:
            value = math.exp(s)
            return _Root(value, (value, value), iters, m, True, log_peak)
        # an end replaced twice in a row scales the other end's value by
        # 1 - g_new / g_replaced, or by 1/2 when that is not positive
        if g_s > 0.0:
            if kept == 1:
                scale = 1.0 - g_s / g_lo
                g_hi *= scale if scale > 0.0 else 0.5
            s_lo, g_lo = s, g_s
            kept = 1
        else:
            if kept == -1:
                scale = 1.0 - g_s / g_hi
                g_lo *= scale if scale > 0.0 else 0.5
            s_hi, g_hi = s, g_s
            kept = -1
        if -math.expm1(s_lo - s_hi) <= BRACKET_REL_TOL:  # c_hi - c_lo <= tol * c_hi
            converged = True
            break
    c_lo, c_hi = math.exp(s_lo), math.exp(s_hi)
    value = 0.5 * (c_lo + c_hi)
    return _Root(value, (c_lo, c_hi), iters, _exp_modular(g(math.log(value))), converged,
                 log_peak)


def luxemburg_norms(f, psis, dom) -> tuple:
    """Luxemburg norm of f over the given domain under each Psi, one
    NormResult per Psi.  The modular at the value on the half-resolution
    companion of dom, built and sampled once only when a value needs it,
    gives the quadrature error; a rule with no coarser companion gets an
    infinite estimate."""
    psis = tuple(psis)
    logs = _log_samples(*_samples(f, dom))
    roots = [_solve_logs(psi, *logs) for psi in psis]
    del logs  # the companion rule is sampled without the logs of this one

    half, half_logs, out = None, None, []
    for psi, root in zip(psis, roots):
        value, m_at = root.value, root.modular
        flags = []
        if not root.converged:
            flags.append("not_converged")
        quad_err = 0.0
        if value > 0.0 and math.isfinite(value):
            if half is None:
                try:
                    half = dom.half_resolution()
                except ValueError:  # dom sits at the floors of its recipe
                    half = False
            m_half = math.inf  # without a companion the estimate is infinite
            if half:
                if half_logs is None:
                    half_logs = _log_samples(*_samples(f, half))
                m_half = _exp_modular(_log_modular(psi, *half_logs, math.log(value)))
            if math.isfinite(m_half) and math.isfinite(m_at):
                quad_err = abs(m_half - m_at)
            else:
                quad_err = math.inf
            if quad_err > QUAD_REL_TOL * max(1.0, abs(m_at)):
                # refinement moves the modular: the rule is not resolving the
                # integrand (typical of functions outside the space, whose true
                # modular diverges near the boundary)
                flags.append("quadrature_unresolved")
            if psi.is_extrapolated_log(root.log_peak - math.log(value)):
                # Psi was evaluated past its trusted (knot-covered) range
                flags.append("extrapolated")
        out.append(NormResult(value=value, bracket=root.bracket, modular_at_value=m_at,
                              bisection_iters=root.iters, quad_error_est=quad_err,
                              converged=root.converged, flags=tuple(flags)))
    return tuple(out)


def luxemburg_norm(f, psi: OrliczFunction, dom) -> NormResult:
    """Luxemburg norm of f over the given domain (see luxemburg_norms)."""
    return luxemburg_norms(f, (psi,), dom)[0]


def _rule_of(dom, kind):
    if not isinstance(dom, kind):  # the other kind of rule gives another norm
        raise ValueError(f"this norm needs a {kind.kind} rule, not {dom.describe()}")
    return dom


def _circle_for(f):
    if getattr(f, "scale_hint", None):
        return CircleDomain.refined(f.focus_angle or 0.0, f.scale_hint)
    return circle()


def _disk_for(f):
    if getattr(f, "scale_hint", None):
        return DiskDomain.kernel_refined(f.scale_hint, f.focus_angle or 0.0)
    return disk()


def bergman_norms(f, psis, dom: DiskDomain | None = None) -> tuple:
    """Luxemburg norms under normalized area measure on a DiskDomain, one per
    Psi; kernels get a rule refined around their peak."""
    return luxemburg_norms(f, psis, _rule_of(dom or _disk_for(f), DiskDomain))


def bergman_norm(f, psi: OrliczFunction, dom: DiskDomain | None = None) -> NormResult:
    """Luxemburg norm under normalized area measure (see bergman_norms)."""
    return bergman_norms(f, (psi,), dom)[0]


def hardy_norms(f, psis, *, dom: CircleDomain | None = None) -> tuple:
    """Hardy norm of an analytic f, the sup over r < 1 of the circle norm of
    the dilate f_r(z) = f(r z), one NormResult per Psi; a dom that is not a
    CircleDomain raises ValueError.

    The supported analytic forms extend continuously to the closed disk, and
    for analytic f and convex increasing Psi the circle norm of f_r does not
    decrease in r (Hardy's convexity theorem), so the sup is the circle norm
    of f itself, reported with argmax_radius 1.
    """
    if not getattr(f, "analytic", False):
        raise ValueError(f"{f.label} is not analytic; the circle-sup norm does not apply")
    results = luxemburg_norms(f, psis, _rule_of(dom or _circle_for(f), CircleDomain))
    return tuple(replace(res, argmax_radius=DEFAULT_RADII[0]) for res in results)


def hardy_norm(f, psi: OrliczFunction, *, dom: CircleDomain | None = None) -> NormResult:
    """Hardy norm of an analytic f under one Psi (see hardy_norms)."""
    return hardy_norms(f, (psi,), dom=dom)[0]


def circle_norm(f, psi: OrliczFunction, dom: CircleDomain | None = None) -> NormResult:
    """Luxemburg norm of the boundary restriction on a CircleDomain."""
    return luxemburg_norms(f, (psi,), _rule_of(dom or _circle_for(f), CircleDomain))[0]


# -- order-boundedness evidence ----------------------------------------------


def weak_tail_check(f, psi: OrliczFunction, dom=None, c: float = 0.125,
                    t_grid=(32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)) -> dict:
    """Distribution-tail test mu(|f| > t) <= 1/Psi(c t) by quadrature-weight
    counting, plus a scan for the largest passing c."""
    t_grid = tuple(sorted(float(t) for t in t_grid))
    bad = [v for v in (c, *t_grid) if not v > 0]  # NaN included
    if bad or not t_grid:  # zero rows would pass every check
        raise ValueError(f"c and t_grid must be positive, got {bad[0]!r}" if bad else "t_grid is empty")
    dom = dom or DiskDomain.boundary_refined()
    av, w = _samples(f, dom)
    peak = float(np.max(av))
    measures = [float(np.sum(w[av > t])) for t in t_grid]

    def tail_record(cv):
        rows = []
        for t, mu in zip(t_grid, measures):
            log_psi = float(psi.eval_log(math.log(cv * t)))
            bound = math.exp(-log_psi) if -log_psi < 700 else math.inf
            flags = []
            if t > peak:
                flags.append("beyond_node_max")
            if log_psi <= 0.0:
                flags.append("small_t_exemption")
            rows.append({
                "t": t,
                "measure": mu,
                "bound": bound,
                "passes": bool(mu <= bound),
                "flags": flags,
            })
        return rows

    rows = tail_record(c)
    scan = {}
    largest = None
    for cv in (1.0, 0.5, 0.25, 0.125, 0.0625):
        ok = all(
            r["passes"]
            for r in tail_record(cv)
            if "small_t_exemption" not in r["flags"]
        )
        scan[f"{cv:g}"] = ok
        if ok and largest is None:
            largest = cv
    return {
        "function": f.label,
        "psi": psi.label,
        "c": c,
        "rows": rows,
        "all_pass": all(r["passes"] for r in rows),
        "large_t_pass": all(
            r["passes"] for r in rows if "small_t_exemption" not in r["flags"]
        ),
        "largest_passing_c": largest,
        "c_scan": scan,
        "domain": dom.describe(),
    }


def morse_transue_evidence(f, psi: OrliczFunction, dom=None,
                           c_grid=(100.0, 10.0, 4.0, 1.0, 0.1, 0.01),
                           levels: int = 3) -> dict:
    """Modular versus quadrature refinement for every scale c.

    Membership in the closure of the bounded functions requires a finite
    modular at every c; the evidence is 'membership' when the modulars
    stabilize under refinement at every c, 'divergence' when some c shows
    monotone unbounded growth.
    """
    c_grid = tuple(float(c) for c in c_grid)
    bad = [c for c in c_grid if not c > 0]  # NaN included
    if bad:
        raise ValueError(f"the modular scale c must be positive, got {bad[0]!r}")
    if max(c_grid) / min(c_grid) < 1e4:
        raise ValueError("c_grid should span at least four decades")
    if levels < 2:
        raise ValueError(f"levels must be at least 2 (the verdict compares two refinements), got {levels!r}")
    dom = dom or DiskDomain.boundary_refined(k_max=16)
    # the logs of |f| and of the weights are taken once per rule and shared
    # by every c
    logs = [_log_samples(*_samples(f, d)) for d in map(dom.refine, range(levels))]
    table = {}
    diverging = []
    stabilizing = []
    for c in c_grid:
        vals = [_exp_modular(_log_modular(psi, *lg, math.log(c))) for lg in logs]
        table[f"{c:g}"] = vals
        grows = all(
            (math.isinf(b) and not math.isinf(a)) or (math.isfinite(a) and b > a * 1.05)
            for a, b in zip(vals[:-1], vals[1:])
        ) or math.isinf(vals[0])
        stable = all(math.isfinite(v) for v in vals) and abs(vals[-1] - vals[-2]) <= 1e-6 * (
            1.0 + abs(vals[-1])
        )
        if grows:
            diverging.append(c)
        if stable:
            stabilizing.append(c)
    if diverging:
        verdict = "divergence evidence"
    elif len(stabilizing) == len(c_grid):
        verdict = "membership evidence"
    else:
        verdict = "indeterminate"
    return {
        "function": f.label,
        "psi": psi.label,
        "verdict": verdict,
        "modulars": table,
        "diverging_c": diverging,
        "levels": levels,
        "domain": dom.describe(),
    }
