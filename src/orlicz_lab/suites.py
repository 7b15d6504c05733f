"""Executable desk-scale verification suites.

Each suite runs a battery of numerically checkable inequalities and
constructions and emits a structured report: one record per check carrying
the computed sides, the relation tested, the margin, and a statement of the
mathematical fact being verified.  Reports are deterministic for a fixed
configuration; randomized corpora are seeded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .classify import check_condition, estimate_quotient
from .domains import DiskDomain, circle, disk, gauss_legendre
from .functions import (
    ExpLogSquared,
    ExpMinusOne,
    OrliczFunction,
    PowerFunction,
    build_counterexample,
    counterexample_delta,
    counterexample_knot_points,
)
from .grids import GrowthSampleGrid
from .norms import (
    bergman_norm,
    hardy_norm,
    luxemburg_norm,
    morse_transue_evidence,
    weak_tail_check,
)
from .witnesses import (
    make_evaluation_envelope,
    make_kernel_family,
    make_kernel_squared,
    make_monomial,
    make_polynomial,
    make_scaled_kernel,
)

DEFAULT_SEED = 987134
KERNEL_SUM_BOUND = math.e**2 / (math.e - 1.0) ** 2  # 2.502650301077119

SUITE_NAMES = (
    "contraction",
    "carleson",
    "monomial",
    "kernel",
    "evaluation",
    "counterexample",
    "order",
)


@dataclass(frozen=True)
class CheckRecord:
    description: str
    statement: str
    lhs: float
    rhs: float
    relation: str
    margin: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "description": self.description,
            "statement": self.statement,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "margin": self.margin,
            "passed": self.passed,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            description=d["description"],
            statement=d["statement"],
            lhs=d["lhs"],
            rhs=d["rhs"],
            relation=d["relation"],
            margin=d["margin"],
            passed=d["passed"],
            extra=d.get("extra", {}),
        )


@dataclass(frozen=True)
class SuiteReport:
    suite_name: str
    config: dict
    checks: tuple
    overall_pass: bool
    notes: tuple = ()

    def to_dict(self):
        return {
            "suite_name": self.suite_name,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
            "notes": list(self.notes),
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d):
        return cls(
            suite_name=d["suite_name"],
            config=d["config"],
            checks=tuple(CheckRecord.from_dict(c) for c in d["checks"]),
            overall_pass=d["overall_pass"],
            notes=tuple(d.get("notes", ())),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_text(self) -> str:
        lines = [f"suite: {self.suite_name}  ({'PASS' if self.overall_pass else 'FAIL'})"]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(
                f"  [{mark}] {c.description}: {c.lhs:.6g} {c.relation} {c.rhs:.6g}"
                f"  (margin {c.margin:.3g})"
            )
            lines.append(f"         {c.statement}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def _report(name, config, checks, notes=()):
    return SuiteReport(
        suite_name=name,
        config=config,
        checks=tuple(checks),
        overall_pass=all(c.passed for c in checks),
        notes=tuple(notes),
    )


def _check(description, statement, lhs, rhs, relation, tol=0.0, extra=None):
    lhs = float(lhs)
    rhs = float(rhs)
    if relation == "<=":
        margin = rhs + tol - lhs
    elif relation == ">=":
        margin = lhs - (rhs - tol)
    elif relation == "==":
        margin = tol - abs(lhs - rhs)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return CheckRecord(
        description=description,
        statement=statement,
        lhs=lhs,
        rhs=rhs,
        relation=relation,
        margin=margin,
        passed=bool(margin >= 0.0),
        extra=extra or {},
    )


def _random_polynomials(rng, count, max_degree=20):
    polys = []
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        polys.append(make_polynomial(coeffs))
    return polys


def _default_psis():
    return (PowerFunction(2), ExpLogSquared(), build_counterexample(4))


# -- contraction ---------------------------------------------------------------


def suite_contraction(psis=None, n_random: int = 50, max_degree: int = 20,
                      seed: int = DEFAULT_SEED) -> SuiteReport:
    """Disk norm never beats the circle-sup norm on analytic functions."""
    psis = tuple(psis) if psis is not None else _default_psis()
    rng = np.random.default_rng(seed)
    corpus = [make_monomial(5), make_polynomial([2.5]), make_kernel_squared(1.0 / 32.0)]
    corpus += _random_polynomials(rng, n_random, max_degree)
    disk_dom = disk(256, 96)
    circ_dom = circle(512)
    checks = []
    for psi in psis:
        for f in corpus:
            if getattr(f, "scale_hint", None):
                h_val = hardy_norm(f, psi)
                b_val = bergman_norm(f, psi)
            else:
                h_val = hardy_norm(f, psi, dom=circ_dom)
                b_val = bergman_norm(f, psi, dom=disk_dom)
            extra = {"psi": psi.label, "f": f.label}
            if not (h_val.converged and b_val.converged):
                checks.append(CheckRecord(
                    description=f"{f.label} under {psi.label}",
                    statement="disk norm <= circle-sup norm",
                    lhs=b_val.value, rhs=h_val.value, relation="<=",
                    margin=-math.inf, passed=False,
                    extra=dict(extra, failure="norm did not converge"),
                ))
                continue
            checks.append(_check(
                f"{f.label} under {psi.label}",
                "the disk average of the circle modulars is again <= 1, so "
                "the area norm is dominated by the circle-sup norm",
                b_val.value, h_val.value, "<=", tol=1e-7, extra=extra,
            ))
    return _report(
        "contraction",
        {"psis": [p.label for p in psis], "n_random": n_random,
         "max_degree": max_degree, "seed": seed},
        checks,
    )


# -- Carleson windows -----------------------------------------------------------


def carleson_window_area(h: float) -> float:
    """Normalized area of {z in the disk : |z - xi| < h}, |xi| = 1, via the
    two-circle lens formula; independent of xi by rotation symmetry."""
    if not (0.0 < h <= 2.0):
        raise ValueError("window size h must lie in (0, 2]")
    lens = (
        h * h * math.acos(h / 2.0)
        + math.acos(1.0 - h * h / 2.0)
        - 0.5 * h * math.sqrt(4.0 - h * h)
    )
    return lens / math.pi


def carleson_window_area_quadrature(h: float, n: int = 96) -> float:
    """Same normalized area by integrating the angular slice width over the
    radius, with a substitution flattening the square-root edge."""
    t, wt = gauss_legendre(n, 0.0, 1.0)
    r = 1.0 - h + h * t * t
    arg = np.clip((1.0 + r * r - h * h) / (2.0 * r), -1.0, 1.0)
    alpha = np.arccos(arg)
    return float(np.sum(wt * alpha * r * 2.0 * h * t) * 2.0 / math.pi)


def _window_measure_on_grid(dom: DiskDomain, xi_angle: float, h: float) -> float:
    z = dom.nodes()
    xi = complex(math.cos(xi_angle), math.sin(xi_angle))
    inside = np.abs(z - xi) < h
    return float(np.sum(dom.weights()[inside]))


def suite_carleson_window(h_grid=None, xi_angles=(0.0,)) -> SuiteReport:
    """Window areas scale like h^2: h^2/4 <= A[S(xi, h)] <= h^2, with the
    t-sup bound sup_{t <= h} A[S(xi, t)]/t <= h."""
    h_grid = tuple(h_grid) if h_grid is not None else tuple(2.0**-k for k in range(1, 11))
    checks = []
    dom = disk(1024, 256)
    for h in h_grid:
        a_exact = carleson_window_area(h)
        a_quad = carleson_window_area_quadrature(h)
        checks.append(_check(
            f"lower area bound, h={h:g}",
            "h^2 <= 4 A[S(xi, h)]: the window area is at least a quarter of h^2",
            h * h / 4.0, a_quad, "<=",
        ))
        checks.append(_check(
            f"upper area bound, h={h:g}",
            "A[S(xi, h)] <= h^2: the window area never exceeds h^2",
            a_quad, h * h, "<=",
        ))
        checks.append(_check(
            f"quadrature agreement, h={h:g}",
            "radial-slice quadrature of the window area matches the lens formula",
            a_quad, a_exact, "==", tol=1e-6,
        ))
        t_sub = np.geomspace(h / 16.0, h, 9)
        sup_ratio = max(carleson_window_area_quadrature(t) / t for t in t_sub)
        checks.append(_check(
            f"t-sup bound, h={h:g}",
            "sup over t <= h of A[S(xi, t)]/t <= h, the little-oh driver of "
            "the compactness criterion",
            sup_ratio, h, "<=", tol=1e-12,
        ))
    # rotation invariance on the fixed polar grid: rotating xi by whole grid
    # steps permutes the node pattern, so counted measures agree exactly
    h0 = 0.25
    base = _window_measure_on_grid(dom, 0.0, h0)
    worst = 0.0
    for m in (37, 211, 512):
        ang = 2.0 * math.pi * m / 1024
        worst = max(worst, abs(_window_measure_on_grid(dom, ang, h0) - base))
    checks.append(_check(
        "rotation invariance, h=0.25",
        "the window measure does not depend on the boundary point",
        worst, 0.0, "==", tol=1e-10,
        extra={"grid": "1024 angles x 256 radii", "note": "node-counting measure"},
    ))
    h_min = min(h_grid)
    ratio = carleson_window_area(h_min) / h_min**2
    checks.append(_check(
        "area ratio window",
        "A[S(xi, h)]/h^2 stays inside [1/4, 1] on the way to its limit",
        ratio, 0.25, ">=",
    ))
    if h_min <= 2.0**-6:
        checks.append(_check(
            "small-h area ratio",
            "A[S(xi, h)]/h^2 approaches the half-lens limit 1/2",
            ratio, 0.5, "==", tol=0.05,
        ))
    return _report(
        "carleson",
        {"h_grid": list(h_grid), "xi_angles": list(xi_angles)},
        checks,
        notes=("window measures on the polar grid are node counts; the lens "
               "formula is the reference value",),
    )


# -- monomials -------------------------------------------------------------------


def suite_monomial_decay(psi: OrliczFunction | None = None) -> SuiteReport:
    """Monomials collapse in the disk norm but keep a constant circle norm,
    so no inverse bound can hold between the two spaces."""
    psi = psi or PowerFunction(2)
    n_values = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    # |z^n| is radial, so a handful of angles suffices; the radial rule needs
    # to integrate r^(2n+1) exactly for n up to 256
    dom = DiskDomain.polar(8, 320)
    circ = circle(64)
    inv1 = psi.inverse(1.0)
    checks = []
    prev = math.inf
    for n in n_values:
        b = luxemburg_norm(make_monomial(n), psi, dom)
        h = hardy_norm(make_monomial(n), psi, dom=circ)
        checks.append(_check(
            f"circle norm of z^{n}",
            "the circle norm of a monomial is 1/Psi^{-1}(1): unimodular "
            "boundary values see only the normalization",
            h.value, 1.0 / inv1, "==", tol=1e-8,
        ))
        checks.append(_check(
            f"disk norm of z^{n} decreases",
            "the disk norm of z^n is strictly decreasing in n",
            b.value, prev, "<=", tol=-1e-12,
        ))
        if isinstance(psi, PowerFunction) and psi.p == 2.0:
            checks.append(_check(
                f"disk norm value of z^{n}",
                "under Psi = x^2 the disk norm of z^n is 1/sqrt(n+1)",
                b.value, 1.0 / math.sqrt(n + 1), "==", tol=1e-8,
            ))
        prev = b.value
    if isinstance(psi, PowerFunction) and psi.p == 2.0:
        checks.append(_check(
            "disk norm small by n=256",
            "the disk norm has dropped below 0.1 by n = 256",
            prev, 0.1, "<=",
        ))
    p4 = PowerFunction(4)
    for n in (1, 8, 64):
        b = luxemburg_norm(make_monomial(n), p4, dom)
        checks.append(_check(
            f"disk norm of z^{n} under x^4",
            "under Psi = x^4 the disk norm of z^n is (2/(4n+2))^{1/4}",
            b.value, (2.0 / (4.0 * n + 2.0)) ** 0.25, "==", tol=1e-8,
        ))
    return _report("monomial", {"psi": psi.label, "n_values": list(n_values)}, checks)


# -- kernel families --------------------------------------------------------------


def suite_kernel_bounds(h_grid=(0.125, 0.03125, 0.0078125), psis=None,
                        n_boundary_samples: int = 512) -> SuiteReport:
    """Rotated kernel families: bounded boundary sums against concentrated
    disk mass, the mechanism behind the summing-norm obstructions."""
    psis = tuple(psis) if psis is not None else (PowerFunction(2),)
    checks = []
    for h in h_grid:
        family = make_kernel_family(h)
        n = family.n_funcs
        checks.append(_check(
            f"family size, h={h:g}",
            "the family has floor(1/h) + 1 members",
            n, math.floor(1.0 / h) + 1, "==",
        ))
        angles = family.boundary_sample_angles(n_boundary_samples)
        sums = family.boundary_sum(angles)
        chain = (
            n * h * h * (1.0 - (1.0 - h) ** (2 * n))
            / ((1.0 - (1.0 - h) ** 2) * (1.0 - (1.0 - h) ** n) ** 2)
        )
        checks.append(_check(
            f"boundary sum bound, h={h:g}",
            "sampled max of sum_j |u_j| on the circle stays below "
            "N h^2 (1-(1-h)^{2N}) / ([1-(1-h)^2][1-(1-h)^N]^2)",
            float(np.max(sums)), chain, "<=", tol=1e-12,
            extra={"samples": len(angles)},
        ))
        checks.append(_check(
            f"closed-form chain bound, h={h:g}",
            "that chain bound is itself below e^2/(e-1)^2",
            chain, KERNEL_SUM_BOUND, "<=", tol=1e-6,
        ))
        # window lower bound |u_j| >= 1/9 on |z - (1-h) xi_j| < h
        radii = h * (np.arange(8) + 0.5) / 8.0 * 0.99
        angs = 2.0 * math.pi * np.arange(8) / 8.0
        w = np.outer(radii, np.exp(1j * angs)).ravel()
        worst = math.inf
        for u in family.members:
            center = (1.0 - h) * complex(math.cos(u.xi_angle), math.sin(u.xi_angle))
            vals = np.abs(u.values(center + w))
            worst = min(worst, float(np.min(vals)))
        checks.append(_check(
            f"window floor, h={h:g}",
            "|u_j| >= 1/9 on the window of radius h around (1-h) xi_j, "
            "all members, 64 sample points each",
            worst, 1.0 / 9.0, ">=",
        ))
        for psi in psis:
            u0 = family.members[0]
            b = bergman_norm(u0, psi)
            bound = 1.0 / (9.0 * psi.inverse(1.0 / (h * h)))
            if b.bracket[1] - b.bracket[0] > 1e-3 * max(b.value, 1e-300):
                checks.append(CheckRecord(
                    description=f"disk norm floor, h={h:g}, {psi.label}",
                    statement="disk norm of u_j is at least 1/(9 Psi^{-1}(1/h^2))",
                    lhs=b.value, rhs=bound, relation=">=",
                    margin=-math.inf, passed=False,
                    extra={"failure": "norm bracket too wide; under-resolved quadrature"},
                ))
                continue
            checks.append(_check(
                f"disk norm floor, h={h:g}, {psi.label}",
                "the window carries area h^2 where |u_j| >= 1/9, forcing "
                "the disk norm above 1/(9 Psi^{-1}(1/h^2))",
                b.value, bound, ">=", tol=1e-6,
                extra={"norm_bracket": [b.bracket[0], b.bracket[1]]},
            ))
    return _report(
        "kernel",
        {"h_grid": list(h_grid), "psis": [p.label for p in psis],
         "n_boundary_samples": n_boundary_samples},
        checks,
        notes=("the sampled boundary max is a lower estimate of the sup, "
               "which is the conservative direction for a <= check",),
    )


# -- evaluation bounds ------------------------------------------------------------


def suite_evaluation_bounds(psi: OrliczFunction, x_values=(10.0, 56.0),
                            seed: int = DEFAULT_SEED) -> SuiteReport:
    """Point evaluations on the unit ball of the circle space are pinched
    between Psi^{-1}(1/(1-|z|))/4 and 4 Psi^{-1}(1/(1-|z|))."""
    rng = np.random.default_rng(seed)
    checks = []
    for x_j in x_values:
        f = make_scaled_kernel(psi, x_j)
        h = 1.0 - f.r_j
        hn = hardy_norm(f, psi)
        checks.append(_check(
            f"unit-ball membership, x_j={x_j:g}",
            "the normalized kernel witness sits in the unit ball of the "
            "circle space (desk tolerance)",
            hn.value, 1.0, "<=", tol=2e-2,
            extra={"h": h, "argmax_radius": hn.argmax_radius},
        ))
        val = abs(complex(f.values(np.array([1.0 - h]))[0]))
        lower = 0.25 * psi.inverse(1.0 / h)
        checks.append(_check(
            f"evaluation floor at 1-h, x_j={x_j:g}",
            "|f_j(1-h)| >= Psi^{-1}(1/h)/4: the witness meets the lower "
            "evaluation bound at its own radius",
            val, lower, ">=",
            extra={"h": h},
        ))
        # the upper bound for the witness itself, normalized by its computed norm
        for rad in (0.0, 0.5, 0.9, 1.0 - h):
            bound = 4.0 * psi.inverse(1.0 / (1.0 - rad)) if rad > 0 else 4.0 * psi.inverse(1.0)
            got = abs(complex(f.values(np.array([rad]))[0])) / hn.value
            checks.append(_check(
                f"evaluation ceiling at |z|={rad:g}, x_j={x_j:g}",
                "normalized point values stay below 4 Psi^{-1}(1/(1-|z|))",
                got, bound, "<=", tol=1e-9,
            ))
    circ = circle(512)
    for i, f in enumerate(_random_polynomials(rng, 10, 12)):
        hn = hardy_norm(f, psi, dom=circ)
        for rad in (0.0, 0.5, 0.9):
            got = abs(complex(f.values(np.array([rad]))[0])) / hn.value
            bound = 4.0 * psi.inverse(1.0 / (1.0 - rad))
            checks.append(_check(
                f"evaluation ceiling, random polynomial {i}, |z|={rad:g}",
                "normalized point values of random unit-ball polynomials "
                "stay below 4 Psi^{-1}(1/(1-|z|))",
                got, bound, "<=", tol=1e-9,
            ))
    return _report(
        "evaluation",
        {"psi": psi.label, "x_values": list(x_values), "seed": seed},
        checks,
    )


# -- the counterexample -----------------------------------------------------------


def suite_counterexample(psi_counter=None) -> SuiteReport:
    """Everything checkable about the knotted construction: the recurrence,
    the exact knot identities, the squared sandwich, the non-collapsing
    doubling quotient, and the scaling lower bound."""
    psi = psi_counter or build_counterexample(4)
    if psi.family != "paper_counterexample":
        raise ValueError("this suite needs a counterexample build")
    n_max = int(psi.params["n_max"])
    r = float(psi.params["r"])
    xs = counterexample_knot_points(n_max)
    checks = []

    checks.append(_check(
        "recurrence x_2",
        "x_2 = x_1^3 - 2 x_1 = 56 with x_1 = 4",
        xs[1], 56, "==",
    ))
    if n_max >= 3:
        checks.append(_check(
            "recurrence x_3",
            "x_3 = x_2^3 - 2 x_2 = 175504",
            xs[2], 175504, "==",
        ))

    exact_ok = True
    if r == 4.0:
        for n, x in enumerate(xs, start=1):
            if psi.eval(float(x)) != float(x * x) or psi.eval(float(2 * x)) != float(x**4):
                exact_ok = False
        checks.append(_check(
            "knot identities",
            "Psi(x_n) = x_n^2 and Psi(2 x_n) = x_n^4 exactly at every knot",
            1.0 if exact_ok else 0.0, 1.0, "==",
        ))

    lo, hi = math.log(4.0), math.log(float(xs[-1]))
    grid_l = np.linspace(lo, hi, 500)
    v = np.asarray(psi.eval_log(grid_l))
    sandwich_lo = float(np.min(v - (r / 2.0) * grid_l))
    sandwich_hi = float(np.min(r * grid_l - v))
    checks.append(_check(
        "sandwich lower",
        "x^{r/2} <= Psi(x) on [4, x_nmax], log domain, 500 points, "
        "equality exactly at the knots",
        sandwich_lo, 0.0, ">=", tol=1e-12,
    ))
    checks.append(_check(
        "sandwich upper",
        "Psi(x) <= x^r on [4, x_nmax], log domain, 500 points",
        sandwich_hi, 0.0, ">=", tol=1e-12,
    ))

    # doubling quotient exactly 1 at the knots
    worst = 0.0
    for x in xs:
        lx = math.log(float(x))
        ratio_log = float(psi.eval_log(math.log(float(2 * x)))) - 2.0 * float(psi.eval_log(lx))
        worst = max(worst, abs(math.expm1(ratio_log)))
    checks.append(_check(
        "doubling quotient at knots",
        "Psi(2 x_n)/Psi(x_n)^2 = 1 exactly at every knot: the quotient "
        "cannot tend to 0, so compactness fails",
        worst, 0.0, "==", tol=1e-12,
    ))

    grid = GrowthSampleGrid.default_for(psi)
    for a in (1.5, 2.0, 4.0, 8.0):
        est = estimate_quotient(psi, a, grid)
        checks.append(_check(
            f"quotient ceiling, A={a:g}",
            "the sandwich caps the quotient: Psi(Ax)/Psi(x)^2 <= A^r at "
            "the knots",
            est.tail_sup, a**r, "<=", tol=1e-9,
            extra={"trend": est.trend},
        ))

    # scaling lower bound Psi(eps x) >= eps Psi(x) / (16 M)
    for m_const in (4.0, 16.0, 64.0):
        n_lo = 2 if math.sqrt(m_const) <= xs[0] else 3
        overall_min = math.inf
        count = 0
        for n in range(n_lo, n_max):
            x_lo_n, x_hi_n = float(xs[n - 1]), float(xs[n])
            delta_n = float(counterexample_delta(n))
            lx = np.linspace(math.log(x_lo_n), math.log(x_hi_n), 60)
            lpsi = np.asarray(psi.eval_log(lx))
            keep = lpsi <= math.log(m_const) + 2.0 * lx + 1e-12
            lx = lx[keep]
            if len(lx) == 0:
                continue
            leps = np.linspace(math.log(delta_n), 0.0, 40)
            ratio = (
                np.asarray(psi.eval_log(lx[None, :] + leps[:, None]))
                - leps[:, None]
                - np.asarray(psi.eval_log(lx))[None, :]
            )
            overall_min = min(overall_min, float(np.exp(np.min(ratio))))
            count += len(lx) * len(leps)
        checks.append(_check(
            f"scaling lower bound, M={m_const:g}",
            "on the grid of (x, eps) with Psi(x) <= M x^2 and "
            "delta_n <= eps <= 1, Psi(eps x) >= eps Psi(x)/(16 M)",
            overall_min, 1.0 / (16.0 * m_const), ">=", tol=1e-9,
            extra={"grid_points": count, "n_range": [n_lo, n_max - 1]},
        ))

    # the two closed forms of delta_n agree
    worst_delta = 0.0
    for n in range(2, n_max + 1):
        d1 = counterexample_delta(n)
        d2 = Fraction(2, xs[n - 2] ** 2 - 2)
        worst_delta = max(worst_delta, abs(float(d1 - d2)))
    checks.append(_check(
        "delta identity",
        "2 x_{n-1}/x_n = 2/(x_{n-1}^2 - 2), exact rational arithmetic",
        worst_delta, 0.0, "==",
    ))
    checks.append(_check(
        "delta_2 value",
        "delta_2 = 2*4/56 = 1/7",
        float(counterexample_delta(2)), 1.0 / 7.0, "==", tol=1e-15,
    ))
    return _report(
        "counterexample",
        {"n_max": n_max, "r": r},
        checks,
    )


# -- order boundedness --------------------------------------------------------------


def _tail_grid_for(psi: OrliczFunction):
    if psi.family == "paper_counterexample":
        return (32.0, 64.0, 128.0, 256.0, 448.0, 896.0)
    if psi.family == "exp_minus_one":
        return (16.0, 32.0, 64.0)
    return (32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


def suite_order_boundedness(psis=None) -> SuiteReport:
    """The evaluation envelope lands in weak-L^Psi (constant 1/8) but never in
    the closure of the bounded functions; the constant 4 defeats the tail
    bound from below."""
    psis = tuple(psis) if psis is not None else (
        PowerFunction(2), build_counterexample(4), ExpMinusOne(),
    )
    checks = []
    notes = []
    for psi in psis:
        env = make_evaluation_envelope(psi)
        t_grid = _tail_grid_for(psi)
        ok = weak_tail_check(env, psi, c=0.125, t_grid=t_grid)
        checks.append(_check(
            f"weak tail holds at c=1/8, {psi.label}",
            "mu(S > t) <= 1/Psi(t/8) for t in the large-t window: the "
            "envelope lies in weak-L^Psi",
            1.0 if ok["large_t_pass"] else 0.0, 1.0, "==",
            extra={"t_grid": list(t_grid), "largest_passing_c": ok["largest_passing_c"]},
        ))
        bad = weak_tail_check(env, psi, c=4.0, t_grid=t_grid)
        fails = [r for r in bad["rows"] if "small_t_exemption" not in r["flags"]]
        all_fail = bool(fails) and all(not r["passes"] for r in fails)
        checks.append(_check(
            f"weak tail fails at c=4, {psi.label}",
            "mu(S > t) > 1/Psi(4t) for large t: the tail bound saturates, "
            "no constant above 4 can work",
            1.0 if all_fail else 0.0, 1.0, "==",
            extra={"t_grid": list(t_grid)},
        ))
        mt = morse_transue_evidence(env, psi)
        grows = mt["verdict"] == "divergence evidence"
        c4 = mt["modulars"]["4"]
        monotone = all(b > a for a, b in zip(c4[:-1], c4[1:]))
        checks.append(_check(
            f"envelope escapes the bounded-closure, {psi.label}",
            "the modular of S/4 is the integral of 1/(1-|z|), divergent: "
            "refinement makes it grow without stabilizing",
            1.0 if (grows and monotone) else 0.0, 1.0, "==",
            extra={"modulars_at_c4": c4},
        ))
        grid = GrowthSampleGrid.default_for(psi)
        d1 = check_condition(psi, "delta1", grid)
        if d1.holds == "yes":
            notes.append(
                f"{psi.label}: growth condition x Psi(x) <= Psi(alpha x) holds, "
                "so weak-L^Psi collapses onto L^Psi and the envelope is order "
                "bounded into L^Psi itself"
            )
    return _report(
        "order",
        {"psis": [p.label for p in psis]},
        checks,
        notes=tuple(notes),
    )


# -- battery --------------------------------------------------------------------


def run_suite(name: str, seed: int = DEFAULT_SEED) -> SuiteReport:
    if name == "contraction":
        return suite_contraction(seed=seed)
    if name == "carleson":
        return suite_carleson_window()
    if name == "monomial":
        return suite_monomial_decay()
    if name == "kernel":
        return suite_kernel_bounds()
    if name == "evaluation":
        return suite_evaluation_bounds(PowerFunction(2))
    if name == "counterexample":
        return suite_counterexample()
    if name == "order":
        return suite_order_boundedness()
    raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")


def run_all_suites(seed: int = DEFAULT_SEED) -> list[SuiteReport]:
    return [run_suite(name, seed=seed) for name in SUITE_NAMES]
