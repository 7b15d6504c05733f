"""The library surface that the benchmark harness in perfbench/ reads.

The harness is kept fixed between changes to the library, so a refactor that
renames or removes something it uses (``logdomain.log_add``,
``DiskDomain.r_weights``, ``CircleDomain.weights``, ``describe()["k_max"]``
and the like) breaks the benchmark, not the library's own tests.  This test
runs the harness's traced mode, its micro-timings and a few cheap operations
of every workload, in one subprocess, and writes nothing under perfbench/.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# per workload, the labels of the operations to run; None is op 0.  Beyond
# op 0, a non-power disk norm and a circle norm make the harness rebuild the
# rule from DiskDomain.r_weights and CircleDomain.weights, an envelope ladder
# makes it read describe()["k_max"], and a counterexample and a composition
# drive the traced classifier through an anchored grid that drops anchors and
# through an inner eval_log (op 0 of classify_sweep is a power function); the
# monomial suite's Hardy norms make the harness count their radii
PICKS = {
    "suite_battery": ("counterexample", "contraction", "monomial"),
    "norm_requests": (None, "bergman:paper_counterexample:constant",
                      "circle:paper_counterexample:kernel_squared"),
    "classify_sweep": (None, '{"family": "paper_counterexample", "n_max": 4, "r": 4.0}',
                       '{"family": "arg_square", "inner": {"family": "exp_log_squared"}}'),
    "order_evidence": (None, 'morse_transue envelope {"family": "power", "p": 2.0}'),
}

SCRIPT = f"""
import tracing
import workloads

tracer = tracing.install(tracing.Tracer())
tracing.micro_timings(reps=1)
for name, labels in {PICKS!r}.items():
    w = workloads.WORKLOADS[name]
    ops = w.make_ops(1)
    for label in labels:
        op = ops[0] if label is None else next(o for o in ops if o.label == label)
        reason = w.check(op, w.run(op), None)
        assert reason is None, (name, op.label, reason)
        print(name, op.label)
# the harness wraps only the methods in a class's own __dict__: the Psi layers
# must still record spans, eval_log and the linear-domain inverse included
seen = set(map(tracer.layer_of.get, tracer.names))
assert "eval_log" in seen and "inverse" in seen, sorted(map(str, seen))
assert any(name.endswith(".inverse") for name in tracer.names), sorted(set(tracer.names))
# a Hardy norm is solved at one radius, and the harness counts one
hardy = [i for i, name in enumerate(tracer.names) if name == "norms.hardy_norm"]
assert hardy and all(tracer.points[i] == 1 for i in hardy), [tracer.points[i] for i in hardy]
"""


def test_perfbench_runs_against_the_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    # importing from perfbench/ must leave no bytecode cache there
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == sum(map(len, PICKS.values())), proc.stdout
