"""Modulars and Luxemburg norms.

The Luxemburg norm of f is the smallest C > 0 whose modular, the integral of
Psi(|f|/C), does not exceed 1.  The modular is monotone non-increasing in C,
so the norm is found by bisection.  All modular accumulation happens in the
log domain via logsumexp, which keeps piecewise functions with 1e188-sized
knot values honest.

A function outside the space never produces a silent wrong value: the search
reports converged=False with an unbounded upper bracket instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .domains import CircleDomain, DiskDomain, circle, disk
from .functions import OrliczFunction
from .logdomain import LOG_DBL_MAX

TOL_MODULAR = 1e-9
BRACKET_REL_TOL = 1e-8
MAX_ITERS = 200

DEFAULT_RADII = tuple(1.0 - 2.0**-k for k in range(1, 21)) + (1.0,)


@dataclass(frozen=True)
class NormResult:
    value: float
    bracket: tuple
    modular_at_value: float
    bisection_iters: int
    quad_error_est: float
    converged: bool
    argmax_radius: float | None = None
    flags: tuple = ()

    def to_dict(self):
        return {
            "value": self.value,
            "bracket": [self.bracket[0], self.bracket[1]],
            "modular_at_value": self.modular_at_value,
            "bisection_iters": self.bisection_iters,
            "quad_error_est": self.quad_error_est,
            "converged": self.converged,
            "argmax_radius": self.argmax_radius,
            "flags": list(self.flags),
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d):
        return cls(
            value=d["value"],
            bracket=(d["bracket"][0], d["bracket"][1]),
            modular_at_value=d["modular_at_value"],
            bisection_iters=d["bisection_iters"],
            quad_error_est=d["quad_error_est"],
            converged=d["converged"],
            argmax_radius=d.get("argmax_radius"),
            flags=tuple(d.get("flags", ())),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _weights_of(dom):
    return dom.weights() if isinstance(dom, DiskDomain) else dom.weights


def _abs_values(f, dom):
    return np.abs(f.values(dom.nodes()))


def modular_from_values(psi: OrliczFunction, abs_values, weights, c: float) -> float:
    """Integral of Psi(|f|/c) against the weights; +inf when it leaves double
    range even in the log domain."""
    if c <= 0:
        raise ValueError("the modular scale c must be positive")
    av = np.asarray(abs_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    mask = av > 0.0
    if not np.any(mask):
        return 0.0
    log_t = np.log(av[mask]) - math.log(c)
    terms = np.log(w[mask]) + np.asarray(psi.eval_log(log_t))
    m = float(np.max(terms))
    if not np.isfinite(m):
        return 0.0 if m == -math.inf else math.inf
    total = m + math.log(float(np.sum(np.exp(terms - m))))
    if total > LOG_DBL_MAX:
        return math.inf
    return math.exp(total)


def modular(f, psi: OrliczFunction, dom, c: float) -> float:
    """Quadrature value of the modular of f at scale c on the domain."""
    return modular_from_values(psi, _abs_values(f, dom), _weights_of(dom), c)


def _luxemburg_core(psi, abs_values, weights):
    """Bisection on the monotone modular; returns value, bracket, iteration
    count, the modular at the returned value, and a convergence flag."""
    av = np.asarray(abs_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    peak = float(np.max(av)) if av.size else 0.0
    if peak == 0.0:
        return 0.0, (0.0, 0.0), 0, 0.0, True

    def mod(c):
        return modular_from_values(psi, av, w, c)

    w_peak = float(w[int(np.argmax(av))])
    # C_lo: the peak node alone already pushes the modular to >= 1
    c_lo = peak / psi.inverse(min(1.0 / max(w_peak, 1e-300), 1e300))
    # C_hi: Psi(peak/C) <= eps bounds the whole modular by eps
    c_hi = peak / max(psi.inverse(1e-12), 1e-300)
    for _ in range(80):
        if mod(c_lo) >= 1.0:
            break
        c_lo /= 2.0
    for _ in range(80):
        if mod(c_hi) <= 1.0:
            break
        c_hi *= 2.0
    else:
        return c_hi, (c_lo, math.inf), 80, mod(c_hi), False

    iters = 0
    converged = False
    for _ in range(MAX_ITERS):
        iters += 1
        mid = 0.5 * (c_lo + c_hi)
        m = mod(mid)
        if abs(m - 1.0) <= TOL_MODULAR:
            converged = True
            c_lo = c_hi = mid
            break
        if m > 1.0:
            c_lo = mid
        else:
            c_hi = mid
        if (c_hi - c_lo) <= BRACKET_REL_TOL * c_hi:
            converged = True
            break
    value = 0.5 * (c_lo + c_hi)
    return value, (c_lo, c_hi), iters, mod(value), converged


def luxemburg_norm(f, psi: OrliczFunction, dom) -> NormResult:
    """Luxemburg norm of f over the given domain, with a quadrature error
    estimate from a half-resolution companion rule."""
    av = _abs_values(f, dom)
    w = _weights_of(dom)
    value, bracket, iters, m_at, converged = _luxemburg_core(psi, av, w)
    quad_err = 0.0
    if value > 0.0 and math.isfinite(value):
        half = dom.half_resolution()
        av_h = _abs_values(f, half)
        w_h = _weights_of(half)
        m_half = modular_from_values(psi, av_h, w_h, value)
        if math.isfinite(m_half) and math.isfinite(m_at):
            quad_err = abs(m_half - m_at)
        else:
            quad_err = math.inf
    flags = () if converged else ("not_converged",)
    if quad_err > 1e-3 * max(1.0, abs(m_at)):
        # refinement moves the modular: the rule is not resolving the
        # integrand (typical of functions outside the space, whose true
        # modular diverges near the boundary)
        flags = flags + ("quadrature_unresolved",)
    return NormResult(
        value=value,
        bracket=bracket,
        modular_at_value=m_at,
        bisection_iters=iters,
        quad_error_est=quad_err,
        converged=converged,
        flags=flags,
    )


def _circle_for(f, n_theta=None):
    if getattr(f, "scale_hint", None):
        return CircleDomain.refined(f.focus_angle or 0.0, f.scale_hint)
    return circle(n_theta or 512)


def _disk_for(f, n_theta=None, n_radial=None):
    if getattr(f, "scale_hint", None):
        return DiskDomain.kernel_refined(f.scale_hint, f.focus_angle or 0.0)
    return disk(n_theta or 512, n_radial or 128)


def bergman_norm(f, psi: OrliczFunction, dom: DiskDomain | None = None) -> NormResult:
    """Luxemburg norm under normalized area measure on the disk; kernels get
    a rule refined around their peak."""
    return luxemburg_norm(f, psi, dom or _disk_for(f))


def hardy_norm(f, psi: OrliczFunction, radii=None, dom: CircleDomain | None = None) -> NormResult:
    """sup over r of the circle norm of the dilate f_r(z) = f(r z).

    The supported analytic forms extend continuously to the closed disk, so
    the default radii include r = 1, where the sup is attained.  The norm is
    non-decreasing in r for analytic f; violations beyond quadrature noise
    are flagged, not hidden.
    """
    if not getattr(f, "analytic", False):
        raise ValueError(f"{f.label} is not analytic; the circle-sup norm does not apply")
    radii = tuple(radii) if radii is not None else DEFAULT_RADII
    if any(not (0.0 < r <= 1.0) for r in radii):
        raise ValueError("radii must lie in (0, 1]")
    dom = dom or _circle_for(f)
    base_nodes = dom.nodes()
    w = dom.weights

    best = None
    best_r = None
    values = []
    for r in radii:
        av = np.abs(f.values(r * base_nodes))
        value, bracket, iters, m_at, converged = _luxemburg_core(psi, av, w)
        values.append(value)
        if best is None or value > best[0]:
            best = (value, bracket, iters, m_at, converged)
            best_r = r

    flags = []
    v = np.asarray(values)[np.argsort(radii)]
    if np.any(np.diff(v) < -1e-4 * np.maximum(v[:-1], 1e-300)):
        flags.append("radius_monotonicity_violated")
    if not best[4]:
        flags.append("not_converged")

    value, bracket, iters, m_at, converged = best
    quad_err = 0.0
    if value > 0.0 and math.isfinite(value):
        half = dom.half_resolution()
        av_h = np.abs(f.values(best_r * half.nodes()))
        m_half = modular_from_values(psi, av_h, half.weights, value)
        quad_err = abs(m_half - m_at) if math.isfinite(m_half) else math.inf
    return NormResult(
        value=value,
        bracket=bracket,
        modular_at_value=m_at,
        bisection_iters=iters,
        quad_error_est=quad_err,
        converged=converged,
        argmax_radius=best_r,
        flags=tuple(flags),
    )


def circle_norm(f, psi: OrliczFunction, dom: CircleDomain | None = None) -> NormResult:
    """Luxemburg norm of the boundary restriction on the circle."""
    return luxemburg_norm(f, psi, dom or _circle_for(f))


# -- order-boundedness evidence ----------------------------------------------


def weak_tail_check(f, psi: OrliczFunction, dom=None, c: float = 0.125,
                    t_grid=(32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)) -> dict:
    """Distribution-tail test mu(|f| > t) <= 1/Psi(c t) by quadrature-weight
    counting, plus a scan for the largest passing c."""
    t_grid = tuple(sorted(float(t) for t in t_grid))
    if any(t <= 0 for t in t_grid):
        raise ValueError("t_grid must be positive")
    dom = dom or DiskDomain.boundary_refined()
    av = _abs_values(f, dom)
    w = _weights_of(dom)
    peak = float(np.max(av))

    def tail_record(cv):
        rows = []
        for t in t_grid:
            mu = float(np.sum(w[av > t]))
            log_bound = -float(psi.eval_log(math.log(cv * t)))
            bound = math.exp(log_bound) if log_bound < 700 else math.inf
            flags = []
            if t > peak:
                flags.append("beyond_node_max")
            if psi.eval_log(math.log(cv * t)) <= 0.0:
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
    if max(c_grid) / min(c_grid) < 1e4:
        raise ValueError("c_grid should span at least four decades")
    dom = dom or DiskDomain.boundary_refined(k_max=16)
    doms = [dom.refine(level) for level in range(levels)]
    table = {}
    diverging = []
    stabilizing = []
    for c in c_grid:
        vals = [modular(f, psi, d, c) for d in doms]
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
