"""Benchmark of orlicz-lab: four workloads, checked outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload norm_requests --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload classify_sweep --seed 7 --trace 1 \\
        --trace-file perfbench/out/spans.jsonl

Each workload runs in its own fresh, single-threaded Python process
(worker.py) that imports the package from ``src/``.  A run repeats whole
passes over the workload's operations, one operation at a time, until
``--seconds`` have passed and at least two passes are done.  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics are the end-to-end ones untraced (``--trace 0``)
and the per-layer ones traced (``--trace 1``).  Results are also written
under perfbench/out/.  See README.md for the workloads and their checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite_battery", "norm_requests", "classify_sweep", "order_evidence")
# set-up is measured in this many extra processes besides the measuring one
SETUP_PROBES = 6
CLI_PROBES = 3
RUN_BUDGET_S = 170.0
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "ORLICZ_LAB_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for key in SINGLE_THREAD_ENV:
        env[key] = "1"
    return env


def run_child(cmd, env, deadline):
    """Run a child to completion and return its last stdout line as JSON."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:4])} did not finish in {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def worker(env, deadline, args, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
           "--started-at", repr(time.monotonic())]
    return run_child(cmd, env, deadline)


def timed_process(cmd, env, deadline):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return time.perf_counter() - t0, proc.stdout


def cli_metrics(env, deadline):
    """cli.import_s: a fresh ``import orlicz_lab``; cli.classify_process_s: a
    whole ``orlicz-lab classify`` process.  Medians of CLI_PROBES."""
    imports, classifies = [], []
    for _ in range(CLI_PROBES):
        _, out = timed_process([sys.executable, "-c",
                                "import time; t = time.perf_counter(); import orlicz_lab; "
                                "print(time.perf_counter() - t)"], env, deadline)
        imports.append(float(out.decode().strip()))
        t, _ = timed_process([sys.executable, "-m", "orlicz_lab.cli", "classify",
                              "--function", "paper_counterexample:4", "--format", "json"],
                             env, deadline)
        classifies.append(t)
    return {"cli.import_s": (statistics.median(imports), "s"),
            "cli.classify_process_s": (statistics.median(classifies), "s")}


def run_workload(args, root):
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env(root)
    if args.trace:
        extra = ("--trace-file", args.trace_file) if args.trace_file else ()
        res = worker(env, deadline, args, *extra)
        metrics = dict(res["per_layer"])
        metrics.update(cli_metrics(env, deadline))
        info = {"traced_pass_s": res["pass_s"]}
    else:
        # probes before and after the measuring process, so that the median
        # spans the whole run
        setups = [worker(env, deadline, args, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        res = worker(env, deadline, args)
        setups.append(res["setup_s"])
        setups += [worker(env, deadline, args, "--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (res["wall_s"], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        info = {"setup_samples_s": setups, "pass_s": res["pass_s"]}
    result = {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, dict(info, unexpected=res["unexpected"])


def save(root, name, payload):
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", help="with --trace 1, write every span here as JSON lines")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "orlicz_lab", "__init__.py")):
        print("error: src/orlicz_lab not found; run from the repository root", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            result, info = run_workload(args, root)
            results[name] = result
            save(root, f"{name}-seed{args.seed}-trace{args.trace}.json", dict(result, **info))
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for key, m in result["metrics"].items():
                print(f"  {key:<44s} {m['value']:>14.6g} {m['unit']}")
            for msg in info["unexpected"]:
                print(f"  unexpected failure: {msg}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
