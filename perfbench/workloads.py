"""The four workloads: seeded inputs, one operation each, and its check.

An operation is what one CLI call would do without process start: parse the
inputs, compute, and serialize the result with ``to_dict``/``to_json``.  Its
check reads the serialized text back and compares it with a computation made
apart from the program (``oracles``) or with a property the method must have.
The program is reached through module attributes at call time, so the traced
mode's wrappers see every call.

Operations marked ``known_fault`` fail on every run because of a fault in the
program; their check passes once the fault is mended.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles

from orlicz_lab import classify, domains, functions, grids, norms, suites, witnesses

# relative error allowed against a closed-form norm: a few times the
# bisection's relative bracket width of 1e-8
NORM_REL_TOL = 3e-8
# allowed excess of the recomputed modular over 1 at a returned bracket; the
# bisection stops at |M - 1| <= 1e-9
MODULAR_TOL = 1e-8

EXPECTED_CHECKS = {
    "contraction": 159,
    "carleson": 43,
    "monomial": 31,
    "kernel": 15,
    "evaluation": 42,
    "counterexample": 15,
    "order": 9,
}

COMPACT = "compact"
WEAK = "weakly_compact_not_compact"
NOT_WEAK = "not_weakly_compact"


@dataclass(frozen=True)
class Op:
    label: str
    payload: dict = field(default_factory=dict)
    known_fault: bool = False


class Workload:
    """make_ops(seed) -> [Op]; run(op) -> serialized output; check(op, text,
    error) -> None when correct, else the reason it is not."""

    name = ""

    def make_ops(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, op: Op) -> str:
        raise NotImplementedError

    def check(self, op: Op, text: str | None, error: Exception | None) -> str | None:
        raise NotImplementedError


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# -- suite_battery ----------------------------------------------------------------


def _contraction_closed_forms():
    """(description, exact disk norm, exact Hardy norm) for the contraction
    records that have closed forms."""
    h = 1.0 / 32.0
    rho2 = (1.0 - h) ** 2
    out = [
        ("monomial(n=5) under power(p=2)", 1.0 / math.sqrt(6.0), 1.0),
        ("kernel_squared(h=0.03125, xi_angle=0) under power(p=2)",
         h * h / (1.0 - rho2), h * h * math.sqrt((1.0 + rho2) / (1.0 - rho2) ** 3)),
    ]
    for label, spec in (
        ("power(p=2)", {"family": "power", "p": 2.0}),
        ("exp_log_squared", {"family": "exp_log_squared"}),
        ("paper_counterexample(n_max=4, r=4)",
         {"family": "paper_counterexample", "n_max": 4, "r": 4.0}),
    ):
        v = 2.5 / oracles.psi_inverse_at_one(spec)
        out.append((f"polynomial(degree=0) under {label}", v, v))
    return out


CONTRACTION_CLOSED_FORMS = _contraction_closed_forms()


def check_contraction_closed_forms(report: dict) -> str | None:
    """Each contraction record has lhs = disk norm and rhs = Hardy norm."""
    by_desc = {c["description"]: c for c in report["checks"]}
    for desc, disk_exact, hardy_exact in CONTRACTION_CLOSED_FORMS:
        rec = by_desc.get(desc)
        if rec is None:
            return f"contraction record {desc!r} missing"
        for side, got, want in (("disk", rec["lhs"], disk_exact),
                                ("Hardy", rec["rhs"], hardy_exact)):
            if not _rel_err(got, want) <= NORM_REL_TOL:
                return f"{desc}: {side} norm {got!r}, closed form {want!r}"
    return None


class SuiteBattery(Workload):
    name = "suite_battery"

    def make_ops(self, seed):
        return [Op(name, {"seed": seed}) for name in suites.SUITE_NAMES]

    def run(self, op):
        report = suites.run_suite(op.label, seed=op.payload["seed"])
        return json.dumps(report.to_dict(), indent=2)

    def check(self, op, text, error):
        if error is not None:
            return f"raised {error!r}"
        d = json.loads(text)
        if d["suite_name"] != op.label:
            return f"report names suite {d['suite_name']!r}"
        if not d["overall_pass"]:
            bad = [c["description"] for c in d["checks"] if not c["passed"]]
            return f"overall_pass false: {bad[:3]}"
        if not all(c["passed"] for c in d["checks"]):
            return "overall_pass true with a failing check"
        if len(d["checks"]) != EXPECTED_CHECKS[op.label]:
            return f"{len(d['checks'])} checks, expected {EXPECTED_CHECKS[op.label]}"
        if op.label == "contraction":
            return check_contraction_closed_forms(d)
        return None


# -- norm_requests ----------------------------------------------------------------


def _power(p):
    return {"family": "power", "p": float(p)}


EXP_LOG_SQUARED = {"family": "exp_log_squared"}
EXP_MINUS_ONE = {"family": "exp_minus_one"}


def _counterexample(n_max, r=4.0):
    return {"family": "paper_counterexample", "n_max": n_max, "r": float(r)}


def _arg_square(inner):
    return {"family": "arg_square", "inner": inner}


def _square_compose(inner):
    return {"family": "square_compose", "inner": inner}


class NormRequests(Workload):
    """A fixed mix of single-norm requests whose parameters come from the seed.

    Each request is (space, function spec, input spec) as JSON text, the two
    documents ``orlicz-lab norm`` takes.  Disk-area norms dominate; kernels
    get kernel-refined rules of 139,776 or 193,024 nodes."""

    name = "norm_requests"
    N_THETA, N_RADIAL = 512, 128

    def make_ops(self, seed):
        rng = np.random.default_rng(seed)

        def p(center):
            # a narrow band per slot: the bisection's iteration count, and so
            # the cost of a request, grows as p falls
            return round(center + float(rng.uniform(-0.1, 0.1)), 6)

        def angle():
            return round(float(rng.uniform(0.0, 2.0 * math.pi)), 6)

        def monomial():
            return {"form": "monomial", "n": int(rng.integers(0, 41))}

        def polynomial(max_degree=12, scale=1.0):
            deg = int(rng.integers(1, max_degree + 1))
            c = rng.normal(size=(deg + 1, 2)) * scale
            return {"form": "polynomial", "coeffs": [[float(a), float(b)] for a, b in c]}

        def constant():
            return {"form": "constant", "value": round(float(rng.uniform(0.25, 4.0)), 6)}

        def kernel(h):
            return {"form": "kernel_squared", "h": h, "xi_angle": angle()}

        def scaled_kernel(p_val):
            # x_j = h^(-1/p) puts the window scale h = 1/Psi(x_j) in [1/128, 1/8]
            h = 2.0 ** -float(rng.uniform(3.0, 7.0))
            return {"form": "scaled_kernel", "x_j": round(h ** (-1.0 / p_val), 6),
                    "xi_angle": angle()}

        p_scaled = p(2.0)
        requests = [
            # disk-area norms on the default 512 x 128 polar rule
            ("bergman", _power(p(1.5)), monomial()),
            ("bergman", _power(p(3.0)), monomial()),
            ("disk", _power(p(2.5)), monomial()),
            ("disk", _power(2), polynomial()),
            ("disk", _power(2), polynomial()),
            ("bergman", EXP_LOG_SQUARED, constant()),
            ("bergman", EXP_MINUS_ONE, constant()),
            ("bergman", _counterexample(3), constant()),
            ("disk", _arg_square(_counterexample(4)), constant()),
            ("disk", EXP_MINUS_ONE, polynomial(6, 0.5)),
            ("bergman", _counterexample(4), monomial()),
            ("bergman", _arg_square(_counterexample(4)), polynomial(8, 0.5)),
            # disk-area norms on kernel-refined rules
            ("bergman", _power(p(1.5)), kernel(1.0 / 8.0)),
            ("bergman", _power(p(2.5)), kernel(1.0 / 32.0)),
            ("bergman", _power(p(3.5)), kernel(1.0 / 128.0)),
            ("bergman", _power(p_scaled), scaled_kernel(p_scaled)),
            ("bergman", EXP_LOG_SQUARED, kernel(1.0 / 32.0)),
            ("bergman", _counterexample(3), kernel(1.0 / 8.0)),
            # boundary norms
            ("circle", _power(2), polynomial()),
            ("circle", _power(p(3.0)), kernel(1.0 / 32.0)),
            ("circle", _counterexample(4), kernel(1.0 / 8.0)),
            ("hardy", _power(p(1.5)), {"form": "monomial", "n": int(rng.integers(1, 41))}),
            ("hardy", _power(2), polynomial()),
            ("hardy", _power(p(2.5)), kernel(1.0 / 128.0)),
            ("hardy", EXP_LOG_SQUARED, polynomial(8, 0.5)),
        ]
        ops = [
            Op(f"{space}:{fn['family']}:{inp['form']}",
               {"space": space, "function": json.dumps(fn), "input": json.dumps(inp)})
            for space, fn, inp in requests
        ]
        # sup|u| = 1 and the norm is ~1/130.5, so Psi is evaluated near 130.5,
        # past the last trusted knot 2 x_2 = 112
        fault_fn = _counterexample(2)
        fault_in = {"form": "kernel_squared", "h": 0.001, "xi_angle": 0.0}
        ops.append(Op("bergman:paper_counterexample:kernel_squared(h=0.001)",
                      {"space": "bergman", "function": json.dumps(fault_fn),
                       "input": json.dumps(fault_in)},
                      known_fault=True))
        return ops

    def run(self, op):
        q = op.payload
        psi = functions.parse_function_spec(q["function"])
        f = witnesses.parse_sampled_spec(q["input"], psi=psi)
        space = q["space"]
        if space == "bergman":
            result = norms.bergman_norm(f, psi)
        elif space == "disk":
            dom = domains.disk(self.N_THETA, self.N_RADIAL)
            result = norms.luxemburg_norm(f, psi, dom)
        elif space == "circle":
            result = norms.circle_norm(f, psi)
        else:
            result = norms.hardy_norm(f, psi)
        return result.to_json()

    def rule_for(self, space, input_spec, psi_spec):
        """The rule each space documents: kernel-refined around a kernel's
        peak, the 512 x 128 polar disk or the 512-point circle otherwise."""
        h = oracles.kernel_h(input_spec, psi_spec)
        if space in ("bergman", "disk"):
            if space == "bergman" and h is not None:
                dom = domains.DiskDomain.kernel_refined(h, input_spec["xi_angle"])
            else:
                dom = domains.DiskDomain.polar(self.N_THETA, self.N_RADIAL)
            z = np.outer(dom.r, np.exp(1j * dom.theta)).ravel()
            w = np.outer(dom.r_weights, dom.theta_weights).ravel()
            return z, w
        if h is not None:
            dom = domains.CircleDomain.refined(input_spec["xi_angle"], h)
        else:
            dom = domains.CircleDomain.uniform(512)
        return np.exp(1j * dom.theta), dom.weights

    def check(self, op, text, error):
        q = op.payload
        if op.known_fault:
            return self._check_extrapolation_reported(text, error)
        if error is not None:
            return f"raised {error!r}"
        d = json.loads(text)
        psi_spec = json.loads(q["function"])
        input_spec = json.loads(q["input"])
        space = q["space"]
        value = d["value"]
        lo, hi = d["bracket"]
        # quadrature_unresolved is the half-resolution rule disagreeing with
        # the full one (z^n under the counterexample once |z|^n/C passes the
        # kink at 4); the checks below verify the root on the full rule
        if not d["converged"] or "not_converged" in d["flags"]:
            return f"converged={d['converged']} flags={d['flags']}"
        if not (lo <= value <= hi):
            return f"value {value!r} outside its bracket [{lo!r}, {hi!r}]"
        if space == "hardy" and d["argmax_radius"] != 1.0:
            return f"Hardy sup attained at r={d['argmax_radius']!r}, expected 1"
        exact = oracles.power_closed_form(space, psi_spec, input_spec)
        if exact is None and input_spec["form"] == "constant":
            exact = abs(complex(input_spec["value"])) / oracles.psi_inverse_at_one(psi_spec)
        if exact is not None and not _rel_err(value, exact) <= NORM_REL_TOL:
            return f"norm {value!r}, closed form {exact!r}"
        if psi_spec["family"] != "power":
            z, w = self.rule_for(space, input_spec, psi_spec)
            av = oracles.sample_values(input_spec, psi_spec, z)
            psi = oracles.psi_from_spec(psi_spec)
            ok, m_lo, m_hi = oracles.bracket_holds(psi, av, w, lo, hi, MODULAR_TOL)
            if not ok:
                return f"modular {m_lo!r} at lo, {m_hi!r} at hi: not a bracket of 1"
        return None

    @staticmethod
    def _check_extrapolation_reported(text, error):
        if error is not None:
            msg = str(error).lower()
            if isinstance(error, functions.ExtrapolationError) or "trusted" in msg \
                    or "extrapolat" in msg:
                return None
            return f"raised {error!r} without naming the extrapolation"
        flags = json.loads(text)["flags"]
        if any("extrapolat" in fl for fl in flags):
            return None
        return f"Psi evaluated past its trusted knot range, flags={flags}"


# -- classify_sweep ---------------------------------------------------------------


def expected_verdict(spec: dict) -> str:
    """Verdict that theory gives from the closed-form quotient
    Q_A(x) = Psi(A x)/Psi(x)^2.

    power:            A^p x^-p -> 0 for every A               compact
    exp_log_squared:  exp(log(Ax+1)^2 - 2 log(x+1)^2) -> 0     compact
    exp_minus_one:    ~ e^((A-2) x) -> inf for A > 2           not weakly compact
    counterexample:   Q_8(x_n) ~ 6 x_n^(r/2 - 2): bounded at r = 4, where
                      Q_2(x_n) = 1 keeps it from 0; unbounded for r > 4
    Psi^2 has quotient Q_A^2 and Psi(x^2) has Q_(A^2)(x^2), so both
    compositions keep the verdict of their inner function."""
    family = spec["family"]
    if family in ("square_compose", "arg_square"):
        return expected_verdict(spec["inner"])
    if family in ("power", "exp_log_squared"):
        return COMPACT
    if family == "exp_minus_one":
        return NOT_WEAK
    if family == "paper_counterexample":
        return WEAK if float(spec["r"]) == 4.0 else NOT_WEAK
    raise ValueError(f"no theory for family {family!r}")


def counterexample_r_max(n_max: int) -> float:
    """Largest r for which the top knot value x_nmax^r stays inside the range
    build_counterexample accepts (r log x_nmax <= 708)."""
    x, _ = oracles.counterexample_knots(n_max, 4.0)
    return 708.0 / math.log(x[-2])


class ClassifySweep(Workload):
    """About a thousand function specs, each parsed, given its default grid,
    classified and serialized: ``orlicz-lab classify`` without process
    start."""

    name = "classify_sweep"
    N_POWERS = 200
    N_R_PER_NMAX = 120

    def make_ops(self, seed):
        rng = np.random.default_rng(seed)
        specs = []
        # one p in each cell of a fine grid over [1, 12], jittered by the seed
        cells = (np.arange(self.N_POWERS) + rng.uniform(size=self.N_POWERS)) / self.N_POWERS
        for p in 1.0 + 11.0 * cells:
            base = _power(round(float(p), 9))
            specs += [base, _square_compose(base), _arg_square(base)]
        for base in (EXP_LOG_SQUARED, EXP_MINUS_ONE):
            specs += [base, _square_compose(base), _arg_square(base),
                      _square_compose(_arg_square(base)), _arg_square(_square_compose(base)),
                      _square_compose(_square_compose(base)), _arg_square(_arg_square(base))]
        for n_max in (3, 4, 5):
            specs.append(_counterexample(n_max, 4.0))
            r_max = counterexample_r_max(n_max)
            for r in rng.uniform(4.25, r_max, self.N_R_PER_NMAX):
                # rounded down, so that r never passes r_max
                specs.append(_counterexample(n_max, math.floor(float(r) * 1e9) / 1e9))
        ops = [Op(json.dumps(s), {"spec": json.dumps(s)}) for s in specs]
        # Q_8(x_n) grows like x_n^0.05 at r = 4.1, yet these two report weak
        # compactness (n_max = 3 answers not_weakly_compact)
        for n_max in (4, 5):
            s = json.dumps(_counterexample(n_max, 4.1))
            ops.append(Op(s, {"spec": s}, known_fault=True))
        return ops

    def run(self, op):
        psi = functions.parse_function_spec(op.payload["spec"])
        grid = grids.GrowthSampleGrid.default_for(psi)
        return classify.classify_injection(psi, grid).to_json()

    def check(self, op, text, error):
        if error is not None:
            return f"raised {error!r}"
        got = json.loads(text)["verdict"]
        if op.known_fault:
            ok = got in (NOT_WEAK, "inconclusive")
            return None if ok else f"verdict {got!r}, expected {NOT_WEAK!r} or inconclusive"
        want = expected_verdict(json.loads(op.payload["spec"]))
        return None if got == want else f"verdict {got!r}, theory gives {want!r}"


# -- order_evidence ---------------------------------------------------------------


def tail_window(spec: dict) -> tuple:
    """Large-t window where mu(S > t) is resolved by the default rule: 1/Psi(t/4)
    must stay above the finest boundary panel's node spacing."""
    family = spec["family"]
    if family == "paper_counterexample":
        return (32.0, 64.0, 128.0, 256.0, 448.0, 896.0)
    if family == "exp_minus_one":
        return (16.0, 32.0, 64.0)
    return (32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


class OrderEvidence(Workload):
    """weak_tail_check and morse_transue_evidence on the evaluation envelope
    S = 4 Psi^{-1}(1/(1-|z|)) and on bounded analytic inputs."""

    name = "order_evidence"
    N_BOUNDED = 12

    def make_ops(self, seed):
        rng = np.random.default_rng(seed)
        # p >= 1.5 keeps the node-counted tail measure clear of the c = 1/8
        # bound, which convexity alone makes tight at p = 1
        envelope_psis = [_power(2), _power(round(float(rng.uniform(1.5, 4.0)), 6)),
                         EXP_LOG_SQUARED, EXP_MINUS_ONE, _counterexample(3), _counterexample(4)]
        ops = []
        for spec in envelope_psis:
            s = json.dumps(spec)
            ops.append(Op(f"weak_tail c=1/8 {s}", {"kind": "tail", "psi": s, "c": 0.125}))
            ops.append(Op(f"weak_tail c=4 {s}", {"kind": "tail", "psi": s, "c": 4.0}))
            ops.append(Op(f"morse_transue envelope {s}", {"kind": "envelope", "psi": s}))
        bounded_psis = envelope_psis + [_arg_square(_counterexample(4))]
        for i in range(self.N_BOUNDED):
            kind = i % 3
            if kind == 0:
                inp = {"form": "monomial", "n": int(rng.integers(1, 61))}
            elif kind == 1:
                # sum |a_k| = 1 keeps sup |f| <= 1
                deg = int(rng.integers(1, 9))
                c = rng.normal(size=(deg + 1, 2))
                c /= np.sum(np.hypot(c[:, 0], c[:, 1]))
                inp = {"form": "polynomial", "coeffs": [[float(a), float(b)] for a, b in c]}
            else:
                inp = {"form": "kernel_squared", "h": (1.0 / 8.0, 1.0 / 32.0, 1.0 / 128.0)[i % 9 // 3],
                       "xi_angle": round(float(rng.uniform(0.0, 2.0 * math.pi)), 6)}
            s = json.dumps(bounded_psis[i % len(bounded_psis)])
            ops.append(Op(f"morse_transue {inp['form']} {s}",
                          {"kind": "bounded", "psi": s, "input": json.dumps(inp)}))
        # refinement saturates at k_max = 40, so the last two ladder rules are
        # identical and the divergent envelope looks stable
        ops.append(Op("morse_transue envelope k_max=32", {
            "kind": "envelope", "psi": json.dumps(_power(2)), "k_max": 32,
        }, known_fault=True))
        return ops

    def run(self, op):
        q = op.payload
        psi = functions.parse_function_spec(q["psi"])
        if q["kind"] == "tail":
            env = witnesses.make_evaluation_envelope(psi)
            spec = json.loads(q["psi"])
            out = norms.weak_tail_check(env, psi, c=q["c"], t_grid=tail_window(spec))
        elif q["kind"] == "envelope":
            env = witnesses.make_evaluation_envelope(psi)
            if "k_max" in q:
                dom = domains.DiskDomain.boundary_refined(k_max=q["k_max"])
                out = norms.morse_transue_evidence(env, psi, dom=dom)
            else:
                out = norms.morse_transue_evidence(env, psi)
        else:
            f = witnesses.parse_sampled_spec(q["input"], psi=psi)
            out = norms.morse_transue_evidence(f, psi)
        return json.dumps(out, indent=2)

    def check(self, op, text, error):
        q = op.payload
        if op.known_fault:
            if error is not None:
                msg = str(error).lower()
                named = any(w in msg for w in ("refine", "finer", "k_max", "saturat"))
                return None if named else f"raised {error!r} without naming the refinement"
            verdict = json.loads(text)["verdict"]
            if verdict == "membership evidence":
                return "membership evidence for the divergent envelope"
            return None
        if error is not None:
            return f"raised {error!r}"
        d = json.loads(text)
        if q["kind"] == "tail":
            if q["c"] < 1.0:
                return None if d["large_t_pass"] else "weak tail fails at c = 1/8"
            large = [r for r in d["rows"] if "small_t_exemption" not in r["flags"]]
            if not large or any(r["passes"] for r in large):
                return "weak tail does not fail at c = 4 over the large-t window"
            return None
        if q["kind"] == "bounded":
            v = d["verdict"]
            return None if v == "membership evidence" else f"bounded input gave {v!r}"
        if d["verdict"] != "divergence evidence":
            return f"envelope gave {d['verdict']!r}"
        return self._check_ladder(d)

    @staticmethod
    def _check_ladder(d):
        ladder = d["modulars"]["4"]
        k0 = d["domain"]["k_max"]
        levels = d["levels"]
        if len(ladder) != levels:
            return f"{len(ladder)} ladder values for {levels} levels"
        budgets = []
        for level in range(levels):
            # the ladder rules as DiskDomain.refine builds them: ten more
            # dyadic panels per level
            dom = domains.DiskDomain.boundary_refined(
                k0 + 10 * level, d["domain"]["nodes_per_panel"], d["domain"]["n_theta"])
            budgets.append(oracles.ladder_rounding_budget(dom.r, dom.r_weights))
        for j, (a, b) in enumerate(zip(ladder[:-1], ladder[1:])):
            if not b > a:
                return f"c = 4 ladder not increasing: {ladder}"
            tol = 2.0 ** (1 - (k0 + 10 * j)) + budgets[j] + budgets[j + 1]
            if abs((b - a) - oracles.ladder_increment()) > tol:
                return (f"c = 4 ladder step {b - a!r}, expected 20 ln 2 = "
                        f"{oracles.ladder_increment()!r} within {tol:.3g}")
        return None


WORKLOADS = {w.name: w for w in (SuiteBattery(), NormRequests(), ClassifySweep(), OrderEvidence())}
