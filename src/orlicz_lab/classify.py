"""Growth-condition detection and the embedding verdict.

The canonical inclusion of the circle-boundary space into the disk-area space
is governed by the quotient Q_A = limsup Psi(A*x)/Psi(x)^2: it is compact
exactly when the quotient tends to 0 for every A > 1 and weakly compact
exactly when it stays finite for every A > 1.  On a finite grid those limits
become trend classifications; every verdict ships with the witness series
that produced it and is labeled numerical evidence, never proof.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .functions import ExtrapolationError, OrliczFunction
from .grids import GrowthSampleGrid

SLOPE_TOL = 0.05
TAIL_FRACTION = 0.3
MIN_TAIL_POINTS_DENSE = 16
MIN_POINTS_ANCHORED = 2
NABLA_TOL = 1e-8

TREND_DOWN = "to_minus_infinity"
TREND_BOUNDED = "bounded"
TREND_UP = "to_plus_infinity"

VERDICT_COMPACT = "compact"
VERDICT_WEAK = "weakly_compact_not_compact"
VERDICT_NOT_WEAK = "not_weakly_compact"
VERDICT_INCONCLUSIVE = "inconclusive"

CONDITIONS = ("delta2", "delta0", "delta1", "nabla01")

EVIDENCE_LABEL = "numerical evidence"


class GridTooShortError(ValueError):
    """Not enough usable grid points to call a trend."""


@dataclass(frozen=True)
class ConditionEvidence:
    condition: str
    holds: str  # "yes" | "no" | "inconclusive"
    witness: tuple = ()
    trend_slope: float = 0.0
    detail: str = ""

    def to_dict(self):
        return {
            "condition": self.condition,
            "holds": self.holds,
            "witness": [[float(u), float(v)] for u, v in self.witness],
            "trend_slope": self.trend_slope,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            condition=d["condition"],
            holds=d["holds"],
            witness=tuple((u, v) for u, v in d["witness"]),
            trend_slope=d["trend_slope"],
            detail=d.get("detail", ""),
        )


@dataclass(frozen=True)
class QuotientEstimate:
    """Finite-grid evidence about Q_A for one amplification factor."""

    a: float
    ratio_log: tuple  # ((log_x, log Psi(Ax) - 2 log Psi(x)), ...)
    tail_sup: float
    trend: str
    detail: str = ""

    def to_dict(self):
        return {
            "a": self.a,
            "ratio_log": [[float(u), float(v)] for u, v in self.ratio_log],
            "tail_sup": self.tail_sup,
            "trend": self.trend,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            a=d["a"],
            ratio_log=tuple((u, v) for u, v in d["ratio_log"]),
            tail_sup=d["tail_sup"],
            trend=d["trend"],
            detail=d.get("detail", ""),
        )


@dataclass(frozen=True)
class InjectionReport:
    function_label: str
    function_spec: dict
    grid_info: dict
    q_a_table: tuple
    conditions: tuple
    verdict: str
    consequences: dict
    evidence_label: str = EVIDENCE_LABEL
    notes: tuple = ()

    def to_dict(self):
        return {
            "function_label": self.function_label,
            "function_spec": self.function_spec,
            "grid_info": self.grid_info,
            "q_a_table": [q.to_dict() for q in self.q_a_table],
            "conditions": [c.to_dict() for c in self.conditions],
            "verdict": self.verdict,
            "consequences": self.consequences,
            "evidence_label": self.evidence_label,
            "notes": list(self.notes),
        }

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d):
        return cls(
            function_label=d["function_label"],
            function_spec=d["function_spec"],
            grid_info=d["grid_info"],
            q_a_table=tuple(QuotientEstimate.from_dict(q) for q in d["q_a_table"]),
            conditions=tuple(ConditionEvidence.from_dict(c) for c in d["conditions"]),
            verdict=d["verdict"],
            consequences=d["consequences"],
            evidence_label=d.get("evidence_label", EVIDENCE_LABEL),
            notes=tuple(d.get("notes", ())),
        )

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    def csv_rows(self):
        """Flatten the quotient table to (a, log_x, ratio_log) rows."""
        rows = [("a", "log_x", "ratio_log")]
        for q in self.q_a_table:
            for lx, rl in q.ratio_log:
                rows.append((f"{q.a:.17g}", f"{lx:.17g}", f"{rl:.17g}"))
        return rows


# -- small numerics -----------------------------------------------------------


def _lsq_slope(u: np.ndarray, y: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(u) < 2:
        return 0.0
    du = u - u.mean()
    var = float(np.dot(du, du))
    if var == 0.0:
        return 0.0
    return float(np.dot(du, y - y.mean()) / var)


def _tail_index(n: int) -> int:
    return max(0, n - max(2, math.ceil(TAIL_FRACTION * n)))


def _trend_from_slope(slope: float) -> str:
    if slope < -SLOPE_TOL:
        return TREND_DOWN
    if slope > SLOPE_TOL:
        return TREND_UP
    return TREND_BOUNDED


# -- Q_A ----------------------------------------------------------------------


def estimate_quotient(psi: OrliczFunction, a: float, grid: GrowthSampleGrid) -> QuotientEstimate:
    """Log-domain estimate of the quotient Psi(A x) / Psi(x)^2 on the grid.

    For anchored grids, points whose amplified abscissa A*x leaves the trusted
    range are dropped (a structural grid knows where it must stop); for dense
    grids the same situation is an error naming the offending point.
    """
    if a <= 1.0:
        raise ValueError(f"amplification factor must exceed 1, got {a}")
    log_a = math.log(a)
    lx = grid.log_x
    ok = lx + log_a <= psi.trusted_log_hi + 1e-12
    dropped = int(np.sum(~ok))
    if dropped and not grid.anchored:
        bad = float(np.exp(lx[~ok][0]))
        raise ExtrapolationError(
            f"grid point x={bad:g} needs {psi.label} at {a:g}*x, beyond the trusted range"
        )
    lx = lx[ok]
    if len(lx) < 2:
        raise GridTooShortError(
            f"A={a:g}: only {len(lx)} trusted grid points, need at least 2"
        )
    ratio = np.asarray(psi.eval_log(lx + log_a)) - 2.0 * np.asarray(psi.eval_log(lx))
    t0 = _tail_index(len(lx))
    slope = _lsq_slope(lx[t0:], ratio[t0:])
    tail_max = float(np.max(ratio[t0:]))
    tail_sup = math.exp(tail_max) if tail_max <= 709.0 else math.inf
    detail = f"dropped {dropped} anchor(s) beyond trusted range" if dropped else ""
    return QuotientEstimate(
        a=float(a),
        ratio_log=tuple((float(u), float(v)) for u, v in zip(lx, ratio)),
        tail_sup=tail_sup,
        trend=_trend_from_slope(slope),
        detail=detail,
    )


# -- growth conditions --------------------------------------------------------


def _subgrids(psi: OrliczFunction, grid: GrowthSampleGrid):
    """Independent log-x series the condition checks must agree on.

    Anchored functions contribute their primary knots, secondary knots and
    geometric midpoints; dense grids contribute the grid and its midpoints.
    A limsup-style bound must hold on every series, a limit-style divergence
    must show on every series too.
    """
    out = []
    if grid.anchored:
        primary = np.sort(psi.growth_anchor_logs())
        hint_hi = math.log(psi.domain_hint[1]) + 1e-12
        primary = primary[primary <= hint_hi]
        out.append(("anchors", primary))
        secondary = np.sort(psi.secondary_anchor_logs())
        secondary = secondary[secondary <= hint_hi]
        if len(secondary) >= 2:
            out.append(("secondary_knots", secondary))
        mids = 0.5 * (primary[1:] + primary[:-1])
        if len(mids) >= 2:
            out.append(("midpoints", mids))
    else:
        lx = grid.log_x
        out.append(("grid", lx))
        out.append(("midpoints", 0.5 * (lx[1:] + lx[:-1])))
    return out


def _tail_of(lx: np.ndarray) -> np.ndarray:
    return lx[_tail_index(len(lx)):]


def _ratio(psi, t, factor):
    return np.asarray(psi.eval_log(t + math.log(factor))) - np.asarray(psi.eval_log(t))


def _factor_sweep(psi, grid, factors, series, floor):
    """(held, factor, score, witness) for the first factor whose series
    scores at least ``floor`` on the trusted tail of every subgrid, else for
    the closest factor; None when no tail has enough points.  ``series(psi,
    t, factor)`` gives a tail's values and score; the lowest score is kept."""
    subgrids = _subgrids(psi, grid)
    min_pts = MIN_POINTS_ANCHORED if grid.anchored else MIN_TAIL_POINTS_DENSE
    closest = None
    for factor in factors:
        log_f = math.log(factor)
        held, usable = True, False
        worst, witness = math.inf, ()
        for _, lx in subgrids:
            t = _tail_of(lx[lx + log_f <= psi.trusted_log_hi + 1e-12])
            if len(t) < min_pts:
                continue
            usable = True
            vals, score = series(psi, t, factor)
            if score < worst:
                worst, witness = score, tuple(zip(t.tolist(), vals.tolist()))
            if score < floor:
                held = False
        if not usable:
            continue
        if held:
            return True, factor, worst, witness
        if closest is None or worst > closest[2]:
            closest = (False, factor, worst, witness)
    return closest


def _negated_ratio_slope(psi, t, factor):
    vals = _ratio(psi, t, factor)
    return vals, -_lsq_slope(t, vals)


def _ratio_slope(psi, t, factor):
    vals = _ratio(psi, t, factor)
    return vals, _lsq_slope(t, vals)


def _delta1_margin(psi, t, factor):
    # log Psi(a x) - (log x + log Psi(x)), in this order, so that the reported
    # margins keep their rounding
    vals = np.asarray(psi.eval_log(t + math.log(factor))) - (t + np.asarray(psi.eval_log(t)))
    return vals, float(np.min(vals))


def _conjugate_margin(psi, t, factor):
    vals = _ratio(psi, t, factor) - math.log(2.0 * factor)
    return vals, float(np.min(vals))


# condition -> (factors, series, floor, factor name, word for a closest factor)
_SWEEPS = {
    "delta2": ((2.0,), _negated_ratio_slope, -SLOPE_TOL, "", ""),
    "delta0": ((2.0, 4.0, 8.0), _ratio_slope, SLOPE_TOL, "beta", "best"),
    "delta1": ((2.0, 4.0, 8.0, 16.0), _delta1_margin, -1e-9, "alpha", "closest"),
    "conjugate_delta2": ((2.0, 4.0, 8.0), _conjugate_margin, -1e-12, "beta", "closest"),
}


def _swept_condition(psi, grid, condition) -> ConditionEvidence:
    factors, series, floor, name, closest_word = _SWEEPS[condition]
    sweep = _factor_sweep(psi, grid, factors, series, floor)
    if sweep is None:
        return ConditionEvidence(condition, "inconclusive", detail="grid too short")
    held, factor, score, witness = sweep
    detail = f"{name}={factor:g}" if name else ""
    if name and not held:
        detail = f"{closest_word} {detail}"
    if condition == "delta2":
        score = -score  # scored by the negated slope; report the slope
    return ConditionEvidence(condition, "yes" if held else "no", witness, score, detail)


def check_condition(psi: OrliczFunction, condition: str, grid: GrowthSampleGrid) -> ConditionEvidence:
    """Evidence for one growth condition on the grid.

    delta2   -- Psi(2x) <= C Psi(x) eventually (bounded doubling ratio)
    delta0   -- Psi(beta x)/Psi(x) -> infinity for some beta in {2, 4, 8}
    delta1   -- x Psi(x) <= Psi(alpha x) eventually, alpha in {2, 4, 8, 16}
    nabla01  -- log Psi(e^u) convex (second differences >= -1e-8)

    Grids that leave fewer than the minimum usable tail points yield the
    verdict "inconclusive" rather than a fabricated yes or no.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITIONS}")
    if condition != "nabla01":
        return _swept_condition(psi, grid, condition)

    # nabla01: convexity of u -> log Psi(e^u) over the tail log-range
    tail = _tail_of(grid.log_x)
    if len(tail) < (MIN_POINTS_ANCHORED if grid.anchored else MIN_TAIL_POINTS_DENSE):
        return ConditionEvidence("nabla01", "inconclusive", detail="grid too short")
    u = np.linspace(tail[0], tail[-1], 257)
    v = np.asarray(psi.eval_log(u))
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    min_d2 = float(np.min(d2))
    holds = "yes" if min_d2 >= -NABLA_TOL else "no"
    i = int(np.argmin(d2))
    witness = tuple(zip(u[1:-1][max(0, i - 2): i + 3].tolist(), d2[max(0, i - 2): i + 3].tolist()))
    return ConditionEvidence(
        "nabla01", holds, witness, min_d2, detail="min second difference of log Psi(e^u)"
    )


def check_conjugate_delta2(psi: OrliczFunction, grid: GrowthSampleGrid) -> ConditionEvidence:
    """The sufficient criterion for the conjugate function to be doubling:
    some beta > 1 with Psi(beta x) >= 2 beta Psi(x) on the tail window."""
    return _swept_condition(psi, grid, "conjugate_delta2")


def _smallest_power_bound(psi: OrliczFunction, grid: GrowthSampleGrid):
    """Smallest tested integer q with evidence that Psi(x) = O(x**q)."""
    subgrids = _subgrids(psi, grid)
    for q in range(1, 13):
        bounded = True
        seen = False
        for _, lx in subgrids:
            tail = _tail_of(lx)
            if len(tail) < 2:
                continue
            seen = True
            vals = np.asarray(psi.eval_log(tail)) - q * tail
            if _lsq_slope(tail, vals) > SLOPE_TOL:
                bounded = False
                break
        if seen and bounded:
            return q
    return None


# -- verdict assembly ---------------------------------------------------------


def _verdict_from_trends(estimates) -> tuple[str, list[str]]:
    notes = []
    by_a = sorted(estimates, key=lambda e: e.a)
    trends = [e.trend for e in by_a]
    # the quotient is monotone in A, so divergence at a small A combined with
    # collapse at a larger A can only be a numerical artifact
    for i, ei in enumerate(by_a):
        for ej in by_a[i + 1:]:
            if ei.trend == TREND_UP and ej.trend == TREND_DOWN:
                notes.append(
                    f"inconsistent trends: A={ei.a:g} diverges while A={ej.a:g} collapses"
                )
                return VERDICT_INCONCLUSIVE, notes
    if any(t == TREND_UP for t in trends):
        return VERDICT_NOT_WEAK, notes
    if all(t == TREND_DOWN for t in trends):
        return VERDICT_COMPACT, notes
    return VERDICT_WEAK, notes


def classify_injection(
    psi: OrliczFunction,
    grid: GrowthSampleGrid | None = None,
) -> InjectionReport:
    """Assemble quotient estimates and condition evidence into a verdict.

    The verdict is numerical evidence on a finite grid, never a proof.  The
    operator-theoretic companions of the verdict (inclusion into the closure
    of the bounded functions, the summing-exponent constraint, order
    boundedness) are filled in as consequences.
    """
    if grid is None:
        grid = GrowthSampleGrid.default_for(psi)
    required = {1.5, 2.0, 4.0, 8.0}
    have = set(grid.a_points)
    if not all(any(abs(a - b) < 1e-9 for b in have) for a in required):
        raise ValueError(f"a_points must cover {sorted(required)}, got {sorted(have)}")

    notes: list[str] = []
    estimates = []
    failures = []

    for a in grid.a_points:
        try:
            estimates.append(estimate_quotient(psi, a, grid))
        except GridTooShortError as exc:
            failures.append(f"A={a:g}: {exc}")

    if failures:
        verdict = VERDICT_INCONCLUSIVE
        notes.extend(failures)
    else:
        verdict, trend_notes = _verdict_from_trends(estimates)
        notes.extend(trend_notes)

    conditions = tuple(check_condition(psi, c, grid) for c in CONDITIONS)
    conj = check_conjugate_delta2(psi, grid)

    if verdict == VERDICT_COMPACT:
        assert all(e.trend == TREND_DOWN for e in estimates)
    if verdict == VERDICT_NOT_WEAK:
        assert any(e.trend == TREND_UP for e in estimates)
    if verdict == VERDICT_WEAK:
        assert all(e.trend in (TREND_BOUNDED, TREND_DOWN) for e in estimates)
        assert any(e.trend == TREND_BOUNDED for e in estimates)

    finite_sups = [e.tail_sup for e in estimates if math.isfinite(e.tail_sup)]
    uniformly_bounded = len(finite_sups) == len(estimates) and (
        max(finite_sups) <= 1e8 if finite_sups else False
    )
    sup_consistent = not (uniformly_bounded and any(e.trend == TREND_UP for e in estimates))
    if not sup_consistent:
        notes.append("tail suprema bounded uniformly in A yet some trend diverges")

    delta1 = next(c for c in conditions if c.condition == "delta1")
    if conj.holds == "yes" and verdict == VERDICT_COMPACT:
        dp_note = "Dunford-Pettis (equivalent to compactness under a doubling conjugate)"
    elif conj.holds == "yes" and verdict in (VERDICT_WEAK, VERDICT_NOT_WEAK):
        dp_note = "not Dunford-Pettis (doubling conjugate, injection not compact)"
    else:
        dp_note = "Dunford-Pettis status not determined by the doubling-conjugate criterion"

    consequences = {
        "morse_transue_inclusion": verdict in (VERDICT_COMPACT, VERDICT_WEAK),
        "dunford_pettis_note": dp_note,
        "summing_bound_q": _smallest_power_bound(psi, grid),
        "order_bounded_weak": True,
        "order_bounded_strong": delta1.holds == "yes",
        "conjugate_delta2": {"holds": conj.holds, "detail": conj.detail},
        "sup_consistency": sup_consistent,
        "equivalents_note": (
            "sequence-space fixing and strict singularity are reported as"
            " equivalents of the quotient verdict, not tested directly"
        ),
    }

    try:
        spec = psi.to_spec()
    except NotImplementedError:
        spec = {"family": psi.family}

    return InjectionReport(
        function_label=psi.label,
        function_spec=spec,
        grid_info={
            "n_points": len(grid.x_points),
            "x_lo": grid.x_points[0],
            "x_hi": grid.x_points[-1],
            "a_points": list(grid.a_points),
            "anchored": grid.anchored,
        },
        q_a_table=tuple(sorted(estimates, key=lambda e: e.a)),
        conditions=conditions + (conj,),
        verdict=verdict,
        consequences=consequences,
        notes=tuple(notes),
    )
