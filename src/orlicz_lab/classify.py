"""Growth-condition detection and the embedding verdict.

The canonical inclusion of the circle-boundary space into the disk-area space
is governed by the quotient Q_A = limsup Psi(A*x)/Psi(x)^2: it is compact
exactly when the quotient tends to 0 for every A > 1 and weakly compact
exactly when it stays finite for every A > 1.  On a finite grid those limits
become trend classifications; every verdict ships with the witness series
that produced it and is labeled numerical evidence, never proof.

One classification evaluates Psi once: a single ``eval_log`` call covers
every abscissa its quotients and condition checks read.  The classification
passes that table explicitly, as the keyword-only ``table`` argument of each
check, and each check reads slices of it.  A check called on its own, or
given a table built for another Psi, grid or A, builds the same table itself,
so a passed table never changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import ExtrapolationError, OrliczFunction
from .grids import DEFAULT_A_POINTS, GrowthSampleGrid
from .records import Record

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
class ConditionEvidence(Record):
    condition: str
    holds: str  # "yes" | "no" | "inconclusive"
    witness: tuple = ()
    trend_slope: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class QuotientEstimate(Record):
    """Finite-grid evidence about Q_A for one amplification factor."""

    a: float
    ratio_log: tuple  # ((log_x, log Psi(Ax) - 2 log Psi(x)), ...)
    tail_sup: float
    trend: str
    detail: str = ""


@dataclass(frozen=True)
class InjectionReport(Record):
    function_label: str
    function_spec: dict
    grid_info: dict
    q_a_table: tuple
    conditions: tuple
    verdict: str
    consequences: dict
    evidence_label: str = EVIDENCE_LABEL
    notes: tuple = ()

    _nested = {"q_a_table": QuotientEstimate, "conditions": ConditionEvidence}

    def csv_rows(self):
        """Flatten the quotient table to (a, log_x, ratio_log) rows."""
        rows = [("a", "log_x", "ratio_log")]
        for q in self.q_a_table:
            for lx, rl in q.ratio_log:
                rows.append((f"{q.a:.17g}", f"{lx:.17g}", f"{rl:.17g}"))
        return rows


# -- small numerics -----------------------------------------------------------


def _lsq_slope(u: np.ndarray, y: np.ndarray) -> float:
    n = len(u)
    if n < 2:
        return 0.0
    # the arithmetic of ndarray.mean, without its Python wrapper
    du = u - np.add.reduce(u) / n
    var = float(np.dot(du, du))
    if var == 0.0:
        return 0.0
    return float(np.dot(du, y - np.add.reduce(y) / n) / var)


def _tail_index(n: int) -> int:
    return max(0, n - max(2, math.ceil(TAIL_FRACTION * n)))


def _trend_from_slope(slope: float) -> str:
    if slope < -SLOPE_TOL:
        return TREND_DOWN
    if slope > SLOPE_TOL:
        return TREND_UP
    return TREND_BOUNDED


# -- one evaluation of Psi per classification ---------------------------------


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


SWEEP_FACTORS = (2.0, 4.0, 8.0, 16.0)


class _PsiTable:
    """log Psi at every abscissa one classification reads, from one call.

    Series 0 is ``grid.log_x``, the others are the subgrids.  ``log_psi[i, f]``
    is log Psi on series i shifted by log f, for f = 1 (the whole series), for
    each A in ``a_points`` (series 0) and each sweep factor (the subgrids).  A
    series is sorted, so the points whose shift stays in the trusted range
    form a prefix, and only that prefix is kept.  Psi is evaluated per element,
    so the values equal those of separate ``eval_log`` calls bit for bit.
    """

    def __init__(self, psi: OrliczFunction, grid: GrowthSampleGrid, a_points=()):
        self.psi, self.grid = psi, grid
        self.min_pts = MIN_POINTS_ANCHORED if grid.anchored else MIN_TAIL_POINTS_DENSE
        log_x = grid.log_x
        self.series = [log_x] + [s for _, s in _subgrids(psi, grid)]
        tail = log_x[_tail_index(len(log_x)):]
        self.nabla_u = np.linspace(tail[0], tail[-1], 257) if len(tail) >= self.min_pts else tail[:0]
        hi = psi.trusted_log_hi + 1e-12
        # a dense grid's "grid" subgrid is series 0 itself: each (series,
        # factor) point set is evaluated once, and its keys share the slice
        sets, keys = {"nabla": self.nabla_u}, {}
        for i, s in enumerate(self.series):
            for f in dict.fromkeys((1.0,) + (tuple(a_points) if i == 0 else SWEEP_FACTORS)):
                keys[i, f] = id(s), f
                if keys[i, f] not in sets:
                    t = s + math.log(f)
                    sets[keys[i, f]] = s if f == 1.0 else t[:np.count_nonzero(t <= hi)]
        values = np.asarray(psi.eval_log(np.concatenate(list(sets.values()))))
        ends = np.cumsum([len(t) for t in sets.values()]).tolist()
        parts = dict(zip(sets, (values[a:b] for a, b in zip([0] + ends, ends))))
        self.nabla_v = parts["nabla"]
        self.log_psi = {key: parts[k] for key, k in keys.items()}


def _table_for(psi: OrliczFunction, grid: GrowthSampleGrid, a_points=(),
               table: _PsiTable | None = None) -> _PsiTable:
    """The given table when it was built for this psi and grid and holds each
    A of a_points, else a new one: a table passed in never changes a result."""
    if (table is None or table.psi is not psi or table.grid is not grid
            or any((0, a) not in table.log_psi for a in a_points)):
        table = _PsiTable(psi, grid, a_points)
    return table


# -- Q_A ----------------------------------------------------------------------


def estimate_quotient(psi: OrliczFunction, a: float, grid: GrowthSampleGrid, *,
                      table: _PsiTable | None = None) -> QuotientEstimate:
    """Log-domain estimate of the quotient Psi(A x) / Psi(x)^2 on the grid.

    For anchored grids, points whose amplified abscissa A*x leaves the trusted
    range are dropped (a structural grid knows where it must stop); for dense
    grids the same situation is an error naming the offending point.  A
    classification passes its Psi table as ``table``.
    """
    if a <= 1.0:
        raise ValueError(f"amplification factor must exceed 1, got {a}")
    table = _table_for(psi, grid, (a,), table)
    up = table.log_psi[0, a]
    lx = table.series[0]
    n = len(up)
    dropped = len(lx) - n
    if dropped and not grid.anchored:
        bad = float(np.exp(lx[n]))
        raise ExtrapolationError(
            f"grid point x={bad:g} needs {psi.label} at {a:g}*x, beyond the trusted range"
        )
    lx = lx[:n]
    if n < 2:
        raise GridTooShortError(
            f"A={a:g}: only {n} trusted grid points, need at least 2"
        )
    ratio = up - 2.0 * table.log_psi[0, 1.0][:n]
    t0 = _tail_index(n)
    slope = _lsq_slope(lx[t0:], ratio[t0:])
    tail_max = float(ratio[t0:].max())
    tail_sup = math.exp(tail_max) if tail_max <= 709.0 else math.inf
    detail = f"dropped {dropped} anchor(s) beyond trusted range" if dropped else ""
    return QuotientEstimate(
        a=float(a),
        ratio_log=tuple(zip(lx.tolist(), ratio.tolist())),
        tail_sup=tail_sup,
        trend=_trend_from_slope(slope),
        detail=detail,
    )


# -- growth conditions --------------------------------------------------------


def _factor_sweep(table, factors, series, floor):
    """(held, factor, score, tail) for the first factor whose series scores
    at least ``floor`` on the trusted tail of every subgrid, else for the
    closest factor; None when no tail has enough points.  ``series(t, up,
    base, factor)`` gives a tail's values and score from log Psi at t + log
    factor (up) and at t (base); the lowest score is kept, with its tail as
    the arrays (t, values), or () when no score is below inf."""
    closest = None
    for factor in factors:
        held, usable = True, False
        worst, tail = math.inf, ()
        for i in range(1, len(table.series)):
            up = table.log_psi[i, factor]
            n = len(up)
            t0 = _tail_index(n)
            if n - t0 < table.min_pts:
                continue
            usable = True
            t = table.series[i][t0:n]
            vals, score = series(t, up[t0:], table.log_psi[i, 1.0][t0:n], factor)
            if score < worst:
                worst, tail = score, (t, vals)
            if score < floor:
                held = False
        if not usable:
            continue
        if held:
            return True, factor, worst, tail
        if closest is None or worst > closest[2]:
            closest = (False, factor, worst, tail)
    return closest


def _negated_ratio_slope(t, up, base, factor):
    vals = up - base
    return vals, -_lsq_slope(t, vals)


def _ratio_slope(t, up, base, factor):
    vals = up - base
    return vals, _lsq_slope(t, vals)


def _delta1_margin(t, up, base, factor):
    # log Psi(a x) - (log x + log Psi(x)), in this order, so that the reported
    # margins keep their rounding
    vals = up - (t + base)
    return vals, float(vals.min())


def _conjugate_margin(t, up, base, factor):
    vals = (up - base) - math.log(2.0 * factor)
    return vals, float(vals.min())


# condition -> (factors, series, floor, factor name, word for a closest factor)
_SWEEPS = {
    "delta2": ((2.0,), _negated_ratio_slope, -SLOPE_TOL, "", ""),
    "delta0": ((2.0, 4.0, 8.0), _ratio_slope, SLOPE_TOL, "beta", "best"),
    "delta1": (SWEEP_FACTORS, _delta1_margin, -1e-9, "alpha", "closest"),
    "conjugate_delta2": ((2.0, 4.0, 8.0), _conjugate_margin, -1e-12, "beta", "closest"),
}


def _swept_condition(psi, grid, condition, table) -> ConditionEvidence:
    factors, series, floor, name, closest_word = _SWEEPS[condition]
    sweep = _factor_sweep(_table_for(psi, grid, table=table), factors, series, floor)
    if sweep is None:
        return ConditionEvidence(condition, "inconclusive", detail="grid too short")
    held, factor, score, tail = sweep
    witness = tuple(zip(*(a.tolist() for a in tail)))
    detail = f"{name}={factor:g}" if name else ""
    if name and not held:
        detail = f"{closest_word} {detail}"
    if condition == "delta2":
        score = -score  # scored by the negated slope; report the slope
    return ConditionEvidence(condition, "yes" if held else "no", witness, score, detail)


def check_condition(psi: OrliczFunction, condition: str, grid: GrowthSampleGrid, *,
                    table: _PsiTable | None = None) -> ConditionEvidence:
    """Evidence for one growth condition on the grid.

    delta2   -- Psi(2x) <= C Psi(x) eventually (bounded doubling ratio)
    delta0   -- Psi(beta x)/Psi(x) -> infinity for some beta in {2, 4, 8}
    delta1   -- x Psi(x) <= Psi(alpha x) eventually, alpha in {2, 4, 8, 16}
    nabla01  -- log Psi(e^u) convex (second differences >= -1e-8)

    Grids that leave fewer than the minimum usable tail points yield the
    verdict "inconclusive" rather than a fabricated yes or no.  A
    classification passes its Psi table as ``table``.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITIONS}")
    if condition != "nabla01":
        return _swept_condition(psi, grid, condition, table)

    # nabla01: convexity of u -> log Psi(e^u) over the tail log-range
    table = _table_for(psi, grid, table=table)
    u = table.nabla_u
    if len(u) == 0:
        return ConditionEvidence("nabla01", "inconclusive", detail="grid too short")
    v = table.nabla_v
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    min_d2 = float(np.min(d2))
    holds = "yes" if min_d2 >= -NABLA_TOL else "no"
    i = int(np.argmin(d2))
    witness = tuple(zip(u[1:-1][max(0, i - 2): i + 3].tolist(), d2[max(0, i - 2): i + 3].tolist()))
    return ConditionEvidence(
        "nabla01", holds, witness, min_d2, detail="min second difference of log Psi(e^u)"
    )


def check_conjugate_delta2(psi: OrliczFunction, grid: GrowthSampleGrid, *,
                           table: _PsiTable | None = None) -> ConditionEvidence:
    """The sufficient criterion for the conjugate function to be doubling:
    some beta > 1 with Psi(beta x) >= 2 beta Psi(x) on the tail window."""
    return _swept_condition(psi, grid, "conjugate_delta2", table)


def _smallest_power_bound(table: _PsiTable):
    """Smallest integer q in 1..12 with evidence that Psi(x) = O(x**q): no
    tail slope of log Psi - q log x above SLOPE_TOL.  That slope is the tail
    slope of log Psi less q, so one fit per tail decides every q."""
    slopes = []
    for i, s in enumerate(table.series[1:], 1):
        t0 = _tail_index(len(s))
        if len(s) >= 2:
            slopes.append(_lsq_slope(s[t0:], table.log_psi[i, 1.0][t0:]))
    if not slopes or not max(slopes) - SLOPE_TOL <= 12:
        return None
    return max(1, math.ceil(max(slopes) - SLOPE_TOL))


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


def check_a_points(a_points) -> None:
    """Raise ValueError unless a_points covers the factors A = 1.5, 2, 4, 8
    that the verdict reads."""
    have = set(a_points)
    if not all(any(abs(a - b) < 1e-9 for b in have) for a in DEFAULT_A_POINTS):
        raise ValueError(f"a_points must cover {sorted(DEFAULT_A_POINTS)}, got {sorted(have)}")


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
    check_a_points(grid.a_points)

    notes: list[str] = []
    estimates = []
    failures = []

    table = _PsiTable(psi, grid, grid.a_points)
    for a in grid.a_points:
        try:
            estimates.append(estimate_quotient(psi, a, grid, table=table))
        except GridTooShortError as exc:
            failures.append(f"A={a:g}: {exc}")
    conditions = tuple(check_condition(psi, c, grid, table=table) for c in CONDITIONS)
    conj = check_conjugate_delta2(psi, grid, table=table)

    if failures:
        verdict = VERDICT_INCONCLUSIVE
        notes.extend(failures)
    else:
        verdict, trend_notes = _verdict_from_trends(estimates)
        notes.extend(trend_notes)

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
        "summing_bound_q": _smallest_power_bound(table),
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
