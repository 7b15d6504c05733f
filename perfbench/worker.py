"""One workload in one fresh process; started by run.py, not by hand.

Prints one JSON line: the set-up time, the wall time of every pass, the
operations attempted and failed, the peak resident size and, in traced mode,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

# every operation is timed at least twice, also where one pass outlasts
# --seconds (suite_battery)
MIN_PASSES = 2


def another_pass(pass_times, elapsed, seconds):
    """Whole passes only; a further pass starts while more than half of one
    is left, so that a run lasts about --seconds on average."""
    if len(pass_times) < MIN_PASSES:
        return True
    return seconds - elapsed > 0.5 * pass_times[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--started-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process was started")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401  (part of the set-up every CLI call pays)
    import orlicz_lab  # noqa: F401

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed)
    setup_s = time.monotonic() - args.started_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())

    pass_times = []
    best = [float("inf")] * len(ops)
    attempted = failed = 0
    unexpected = []
    suite_checks = 0
    t_start = time.perf_counter()
    while another_pass(pass_times, time.perf_counter() - t_start, args.seconds):
        pass_time = 0.0
        for i, op in enumerate(ops):
            span = tracer.open(f"op.{op.label}") if tracer else None
            t0 = time.perf_counter()
            text = error = None
            try:
                text = workload.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            op_time = time.perf_counter() - t0
            pass_time += op_time
            best[i] = min(best[i], op_time)
            if tracer:
                tracer.close(span)
                tracer.active = False
            try:
                reason = workload.check(op, text, error)
            except Exception as exc:  # output the check cannot read
                reason = f"check raised {exc!r}"
            if tracer:
                tracer.active = True
            attempted += 1
            if reason is not None:
                failed += 1
                if not op.known_fault:
                    unexpected.append(f"{op.label}: {reason}")
            if tracer and not pass_times and args.workload == "suite_battery" and text:
                suite_checks += len(json.loads(text)["checks"])
        pass_times.append(pass_time)

    out = {
        "setup_s": setup_s,
        "pass_s": pass_times,
        # one pass with every operation at its best time in the run
        "wall_s": sum(best),
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.active = False
        metrics = tracing.per_layer_metrics(tracer, len(pass_times), suite_checks)
        metrics.update(tracing.micro_timings())
        out["per_layer"] = metrics
        if args.trace_file:
            tracer.write(args.trace_file)
    for msg in unexpected[:5]:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
