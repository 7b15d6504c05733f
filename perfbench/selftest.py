"""The benchmark's own tests: its oracles against second computations, and
its checks against tampered outputs.

    PYTHONPATH=src python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection; mpmath is
used where installed and the tests that need it are skipped otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from orlicz_lab import domains, functions, norms  # noqa: E402

try:
    import mpmath
except ImportError:  # pragma: no cover - test-only dependency
    mpmath = None

SPECS = [
    {"family": "power", "p": 2.7},
    {"family": "exp_log_squared"},
    {"family": "exp_minus_one"},
    {"family": "paper_counterexample", "n_max": 3, "r": 4.0},
    {"family": "paper_counterexample", "n_max": 4, "r": 5.5},
    {"family": "arg_square", "inner": {"family": "paper_counterexample", "n_max": 4, "r": 4.0}},
    {"family": "square_compose", "inner": {"family": "exp_log_squared"}},
]


def _scaled(text, factor):
    d = json.loads(text)
    d["value"] *= factor
    d["bracket"] = [b * factor for b in d["bracket"]]
    return json.dumps(d)


class OracleTests(unittest.TestCase):
    @unittest.skipIf(mpmath is None, "mpmath not installed")
    def test_kernel_series_matches_hypergeometric(self):
        # sum_k c_k^2 x^k = 2F1(p, p; 1; x), and the 1/(k+1) weights give 2F1(p, p; 2; x)
        mpmath.mp.dps = 30
        for h in (1 / 8, 1 / 32, 1 / 128):
            x = (1 - mpmath.mpf(h)) ** 2
            for p in (1.0, 1.5, 2.0, 3.3):
                for disk, c in ((False, 1), (True, 2)):
                    want = float(h * h * mpmath.hyp2f1(p, p, c, x) ** (1 / mpmath.mpf(p)))
                    got = oracles.kernel_power_norm(h, p, disk)
                    self.assertLess(abs(got / want - 1), 1e-12, (h, p, disk))

    def test_kernel_series_closed_form_at_p2(self):
        for h in (1 / 8, 1 / 32, 1 / 128):
            rho2 = (1 - h) ** 2
            circle = h * h * math.sqrt((1 + rho2) / (1 - rho2) ** 3)
            self.assertAlmostEqual(oracles.kernel_power_norm(h, 2.0, False) / circle, 1, delta=1e-13)
            self.assertAlmostEqual(oracles.kernel_power_norm(h, 2.0, True) / (h * h / (1 - rho2)),
                                   1, delta=1e-13)

    @unittest.skipIf(mpmath is None, "mpmath not installed")
    def test_ladder_increment_by_direct_integration(self):
        mpmath.mp.dps = 40
        for k0 in (16, 26):
            total = mpmath.mpf(0)
            for k in range(k0, k0 + 10):
                a, b = 1 - mpmath.mpf(2) ** -k, 1 - mpmath.mpf(2) ** -(k + 1)
                total += mpmath.quad(lambda r: 2 * r / (1 - r), [a, b])
            self.assertLess(abs(float(total) - oracles.ladder_increment()), 2.0 ** (1 - k0))

    def test_ladder_increment_against_gauss_legendre(self):
        # the rule's panels summed with its 24-point Gauss-Legendre nodes,
        # innermost panel included, in the distance d = 1 - r, so that no
        # rounding of r near 1 enters
        x, w = np.polynomial.legendre.leggauss(24)
        s, ws = 0.5 * (x + 1), 0.5 * w  # nodes on [0, 1], distance to r = 1 is d * s

        def panel_sum(k_max):
            total = 0.0
            for k in range(1, k_max):
                d_out, d_in = 2.0**-k, 2.0**-(k + 1)
                d = d_out - (d_out - d_in) * s
                total += math.fsum((d_out - d_in) * ws * 2 * (1 - d) / d)
            d = 2.0**-k_max * s
            return total + math.fsum(2.0**-k_max * ws * 2 * (1 - d) / d)

        for k0 in (16, 26):
            step = panel_sum(k0 + 10) - panel_sum(k0)
            self.assertLess(abs(step - oracles.ladder_increment()), 2.0 ** (1 - k0))

    def test_linear_modular_matches_program(self):
        dom = domains.disk(64, 16)
        z = dom.nodes()
        w = dom.weights()
        inp = {"form": "polynomial", "coeffs": [[0.5, 0.1], [1.2, -0.3], [0.0, 0.7]]}
        av = oracles.sample_values(inp, None, z)
        for spec in SPECS:
            psi = functions.parse_function_spec(spec)
            own = oracles.psi_from_spec(spec)
            for c in (0.3, 1.0, 4.0):
                got = oracles.linear_modular(own, av, w, c)
                want = norms.modular_from_values(psi, av, w, c)
                self.assertLess(abs(got / want - 1), 1e-12, (spec, c))
            self.assertAlmostEqual(oracles.psi_inverse_at_one(spec) / psi.inverse(1.0), 1, delta=1e-12)

    def test_sample_values_match_witnesses(self):
        from orlicz_lab import witnesses

        z = domains.disk(32, 8).nodes()
        psi_spec = {"family": "power", "p": 2.0}
        psi = functions.parse_function_spec(psi_spec)
        for inp in ({"form": "monomial", "n": 7},
                    {"form": "constant", "value": 2.5},
                    {"form": "polynomial", "coeffs": [[0.5, 0.1], [1.2, -0.3]]},
                    {"form": "kernel_squared", "h": 0.03125, "xi_angle": 1.3},
                    {"form": "scaled_kernel", "x_j": 5.0, "xi_angle": 4.0}):
            want = np.abs(witnesses.parse_sampled_spec(inp, psi=psi).values(z))
            got = oracles.sample_values(inp, psi_spec, z)
            np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=str(inp))


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS.values():
            self.assertEqual(w.make_ops(11), w.make_ops(11), w.name)
        self.assertNotEqual(workloads.WORKLOADS["norm_requests"].make_ops(11),
                            workloads.WORKLOADS["norm_requests"].make_ops(12))

    def test_counted_failures_do_not_depend_on_seed(self):
        for w in workloads.WORKLOADS.values():
            a = [op for op in w.make_ops(1) if op.known_fault]
            self.assertEqual(a, [op for op in w.make_ops(987) if op.known_fault], w.name)


class CheckTests(unittest.TestCase):
    """Every check passes the program's output and fails a tampered copy."""

    def run_op(self, w, op):
        text = w.run(op)
        self.assertIsNone(w.check(op, text, None), op.label)
        return text

    def test_norm_checks_bite_at_one_part_in_a_million(self):
        w = workloads.WORKLOADS["norm_requests"]
        for op in w.make_ops(3):
            if op.known_fault:
                continue
            text = self.run_op(w, op)
            for factor in (1 + 1e-6, 1 - 1e-6):
                self.assertIsNotNone(w.check(op, _scaled(text, factor), None), op.label)

    def test_classify_checks_reject_a_flipped_verdict(self):
        w = workloads.WORKLOADS["classify_sweep"]
        ops = w.make_ops(3)
        picked = {}
        for op in ops:
            if not op.known_fault:
                picked.setdefault(workloads.expected_verdict(json.loads(op.payload["spec"])), op)
        self.assertEqual(set(picked), {workloads.COMPACT, workloads.WEAK, workloads.NOT_WEAK})
        for op in picked.values():
            d = json.loads(self.run_op(w, op))
            for other in (workloads.COMPACT, workloads.WEAK, workloads.NOT_WEAK, "inconclusive"):
                if other != d["verdict"]:
                    flipped = json.dumps(dict(d, verdict=other))
                    self.assertIsNotNone(w.check(op, flipped, None), (op.label, other))

    def test_suite_checks(self):
        w = workloads.WORKLOADS["suite_battery"]
        for op in w.make_ops(1):
            if op.label in ("carleson", "counterexample"):
                d = json.loads(self.run_op(w, op))
                self.assertIsNotNone(w.check(op, json.dumps(dict(d, overall_pass=False)), None))
                self.assertIsNotNone(w.check(op, json.dumps(dict(d, checks=d["checks"][1:])), None))
        exact = [{"description": desc, "lhs": disk, "rhs": hardy}
                 for desc, disk, hardy in workloads.CONTRACTION_CLOSED_FORMS]
        self.assertIsNone(workloads.check_contraction_closed_forms({"checks": exact}))
        for i in range(len(exact)):
            for side in ("lhs", "rhs"):
                bent = [dict(c) for c in exact]
                bent[i][side] *= 1 + 1e-6
                self.assertIsNotNone(workloads.check_contraction_closed_forms({"checks": bent}))

    def test_order_checks(self):
        w = workloads.WORKLOADS["order_evidence"]
        ops = w.make_ops(2)
        env = next(op for op in ops if op.payload["kind"] == "envelope" and not op.known_fault)
        d = json.loads(self.run_op(w, env))
        ladder = d["modulars"]["4"]
        for bad in ([ladder[0]] * len(ladder),
                    [ladder[0] + 19 * math.log(2) * i for i in range(len(ladder))]):
            bent = dict(d, modulars=dict(d["modulars"], **{"4": bad}))
            self.assertIsNotNone(w.check(env, json.dumps(bent), None))
        self.assertIsNotNone(w.check(env, json.dumps(dict(d, verdict="indeterminate")), None))
        bounded = next(o for o in ops if o.payload["kind"] == "bounded")
        d = json.loads(self.run_op(w, bounded))
        self.assertIsNotNone(w.check(bounded, json.dumps(dict(d, verdict="indeterminate")), None))
        # the first two tail operations: c = 1/8 and c = 4 on one envelope
        for op in [o for o in ops if o.payload["kind"] == "tail"][:2]:
            d = json.loads(self.run_op(w, op))
            flipped = dict(d, large_t_pass=not d["large_t_pass"],
                           rows=[dict(r, passes=not r["passes"]) for r in d["rows"]])
            self.assertIsNotNone(w.check(op, json.dumps(flipped), None))


class CountedFailureTests(unittest.TestCase):
    """The counted failures fail today, and their checks accept a mended
    program: a flag, a refusal naming the problem, or the right verdict."""

    def test_norm_extrapolation(self):
        w = workloads.WORKLOADS["norm_requests"]
        op = next(o for o in w.make_ops(1) if o.known_fault)
        text = w.run(op)
        self.assertIsNotNone(w.check(op, text, None))
        d = json.loads(text)
        self.assertIsNone(w.check(op, json.dumps(dict(d, flags=["extrapolated"])), None))
        self.assertIsNone(w.check(op, None, functions.ExtrapolationError("beyond the trusted range")))
        self.assertIsNotNone(w.check(op, None, ValueError("something else")))

    def test_classify_r_4_1(self):
        w = workloads.WORKLOADS["classify_sweep"]
        for op in [o for o in w.make_ops(1) if o.known_fault]:
            d = json.loads(w.run(op))
            self.assertIsNotNone(w.check(op, json.dumps(d), None))
            self.assertIsNone(w.check(op, json.dumps(dict(d, verdict=workloads.NOT_WEAK)), None))

    def test_order_saturated_ladder(self):
        w = workloads.WORKLOADS["order_evidence"]
        op = next(o for o in w.make_ops(1) if o.known_fault)
        d = json.loads(w.run(op))
        self.assertIsNotNone(w.check(op, json.dumps(d), None))
        self.assertIsNone(w.check(op, json.dumps(dict(d, verdict="divergence evidence")), None))
        self.assertIsNone(w.check(op, None, ValueError("refine cannot make a finer rule")))


class TraceTests(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
        runs = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "order_evidence",
                 "--seed", "5", "--seconds", "0", "--trace", "1", "--started-at", "0"],
                env=env, capture_output=True, text=True, check=True, timeout=170)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1])["per_layer"])
        counts = {k: v for k, (v, unit) in runs[0].items() if unit == "count"}
        self.assertEqual(counts, {k: v for k, (v, unit) in runs[1].items() if unit == "count"})
        for key in ("norms.evidence_calls", "norms.modular_calls", "domains.rule_builds",
                    "witnesses.values_points", "functions.inverse_calls"):
            self.assertGreater(counts[key], 0, key)


if __name__ == "__main__":
    unittest.main()
