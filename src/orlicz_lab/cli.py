"""Command-line front end.

Four subcommands: ``classify`` runs the growth classifier on a function spec,
``norm`` computes one Luxemburg-type norm, ``verify`` runs verification
suites, and ``report`` bundles a classification with the full suite battery.

Exit codes: 0 for a pass or a definite verdict, 1 for a failing check,
2 for an inconclusive verdict, 64 for usage errors.  Output format defaults
to text on a terminal and json when piped; reports for a fixed seed and
configuration are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .classify import classify_injection
from .functions import parse_function_spec
from .grids import GrowthSampleGrid
from .norms import bergman_norm, circle_norm, hardy_norm, luxemburg_norm
from .domains import disk
from .suites import DEFAULT_SEED, SUITE_NAMES, run_all_suites, run_suite
from .witnesses import parse_sampled_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class UsageError(ValueError):
    pass


def _parse_shorthand(text: str) -> dict:
    """name[:value] or name[:k=v,k=v] shorthand for spec documents."""
    name, _, rest = text.partition(":")
    spec: dict = {}
    if rest:
        parts = [p for p in rest.split(",") if p]
        for i, part in enumerate(parts):
            if "=" in part:
                k, _, v = part.partition("=")
                spec[k.strip()] = json.loads(v)
            elif i == 0:
                spec["_bare"] = json.loads(part)
            else:
                raise UsageError(f"cannot parse shorthand argument {part!r}")
    spec["_name"] = name.strip()
    return spec


_BARE_FIELD = {
    "power": "p",
    "paper_counterexample": "n_max",
    "monomial": "n",
    "constant": "value",
    "const": "value",
    "kernel_squared": "h",
    "scaled_kernel": "x_j",
}


def _load_spec(text: str) -> dict:
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON spec: {exc}") from None
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    short = _parse_shorthand(text)
    name = short.pop("_name")
    bare = short.pop("_bare", None)
    if bare is not None:
        field = _BARE_FIELD.get(name)
        if field is None:
            raise UsageError(f"{name!r} takes no bare argument")
        short[field] = bare
    key = "form" if name in (
        "monomial", "polynomial", "constant", "const", "kernel_squared",
        "scaled_kernel", "evaluation_envelope",
    ) else "family"
    if name == "const":
        name = "constant"
    short[key] = name
    return short


def _function_from_arg(text: str):
    try:
        return parse_function_spec(_load_spec(text))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(payload: str, output: str | None):
    if output:
        d = os.path.dirname(os.path.abspath(output))
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
                if not payload.endswith("\n"):
                    fh.write("\n")
            os.replace(tmp, output)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _default_format(fmt: str | None) -> str:
    if fmt:
        return fmt
    return "text" if sys.stdout.isatty() else "json"


def _csv(rows) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in rows)


# -- subcommands ---------------------------------------------------------------


def cmd_classify(args) -> int:
    psi = _function_from_arg(args.function)
    kwargs = {}
    if args.a_list:
        kwargs["a_points"] = tuple(float(a) for a in args.a_list.split(","))
    if args.x_lo is not None:
        kwargs["x_lo"] = args.x_lo
    if args.x_hi is not None:
        kwargs["x_hi"] = args.x_hi
    if args.points is not None:
        kwargs["n_points"] = args.points
    grid = GrowthSampleGrid.default_for(psi, **kwargs)
    report = classify_injection(psi, grid)
    fmt = _default_format(args.format)
    if fmt == "json":
        _emit(report.to_json(), args.output)
    elif fmt == "csv":
        _emit(_csv(report.csv_rows()), args.output)
    else:
        lines = [
            f"function: {report.function_label}",
            f"verdict:  {report.verdict}   ({report.evidence_label})",
            "quotient trends:",
        ]
        for q in report.q_a_table:
            sup = f"{q.tail_sup:.6g}" if q.tail_sup != float("inf") else "inf"
            lines.append(f"  A={q.a:<4g} trend={q.trend:<20s} tail_sup={sup}")
        lines.append("conditions:")
        for c in report.conditions:
            lines.append(f"  {c.condition:<18s} {c.holds:<13s} slope={c.trend_slope:.4g}")
        lines.append("consequences:")
        for k, v in report.consequences.items():
            lines.append(f"  {k}: {v}")
        for n in report.notes:
            lines.append(f"note: {n}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if report.verdict != "inconclusive" else EXIT_INCONCLUSIVE


def cmd_norm(args) -> int:
    psi = _function_from_arg(args.function)
    try:
        f = parse_sampled_spec(_load_spec(args.input), psi=psi)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.space == "hardy":
        result = hardy_norm(f, psi)
    elif args.space == "bergman":
        result = bergman_norm(f, psi)
    elif args.space == "circle":
        result = circle_norm(f, psi)
    elif args.space == "disk":
        dom = disk(args.n_theta or 512, args.n_radial or 128)
        result = luxemburg_norm(f, psi, dom)
    else:
        raise UsageError(f"unknown space {args.space!r}")
    fmt = _default_format(args.format)
    if fmt == "json":
        _emit(result.to_json(), args.output)
    else:
        lines = [f"{result.value:.10g}"]
        if not result.converged:
            lines.append("warning: did not converge; bracket "
                         f"[{result.bracket[0]:.6g}, {result.bracket[1]:.6g}]")
        for fl in result.flags:
            lines.append(f"flag: {fl}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if result.converged else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    if args.h is not None and args.suite not in ("kernel", "carleson"):
        raise UsageError("--h applies to the kernel and carleson suites only")
    if args.suite == "all":
        reports = run_all_suites(seed=args.seed)
    else:
        if args.suite not in SUITE_NAMES:
            raise UsageError(
                f"unknown suite {args.suite!r}; expected all or one of {', '.join(SUITE_NAMES)}"
            )
        if args.h is not None and args.suite == "kernel":
            from .suites import suite_kernel_bounds

            reports = [suite_kernel_bounds(h_grid=(args.h,))]
        elif args.h is not None and args.suite == "carleson":
            from .suites import suite_carleson_window

            reports = [suite_carleson_window(h_grid=(args.h,))]
        else:
            reports = [run_suite(args.suite, seed=args.seed)]
    fmt = _default_format(args.format)
    if fmt == "json":
        _emit(json.dumps([r.to_dict() for r in reports], indent=2), args.output)
    else:
        _emit("\n\n".join(r.to_text() for r in reports), args.output)
    return EXIT_OK if all(r.overall_pass for r in reports) else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    psi = _function_from_arg(args.function)
    grid = GrowthSampleGrid.default_for(psi)
    classification = classify_injection(psi, grid)
    suites = run_all_suites(seed=args.seed)
    payload = {
        "classification": classification.to_dict(),
        "suites": [r.to_dict() for r in suites],
        "all_suites_pass": all(r.overall_pass for r in suites),
    }
    fmt = _default_format(args.format)
    if fmt == "json":
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = [
            f"function: {classification.function_label}",
            f"verdict: {classification.verdict} ({classification.evidence_label})",
            "",
        ]
        lines += [r.to_text() for r in suites]
        _emit("\n".join(lines), args.output)
    if classification.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK if payload["all_suites_pass"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-lab",
        description="Orlicz-function calculus, Luxemburg norms on the circle "
                    "and disk, and growth-based classification of the "
                    "circle-to-disk embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report to this path (atomically)")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       help="defaults to text on a terminal, json when piped")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for randomized corpora")

    p = sub.add_parser("classify", help="growth-condition classification of a function")
    p.add_argument("--function", required=True,
                   help="function spec: JSON, a file path, or shorthand like "
                        "power:2 or paper_counterexample:4")
    p.add_argument("--a-list", help="comma-separated amplification factors")
    p.add_argument("--x-lo", type=float)
    p.add_argument("--x-hi", type=float)
    p.add_argument("--points", type=int)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("norm", help="compute one Luxemburg-type norm")
    p.add_argument("--space", required=True, choices=("hardy", "bergman", "circle", "disk"))
    p.add_argument("--function", required=True, help="Orlicz function spec")
    p.add_argument("--input", required=True,
                   help="sampled-function spec: JSON or shorthand like "
                        "monomial:1, const:3, kernel_squared:h=0.03125")
    p.add_argument("--n-theta", type=int)
    p.add_argument("--n-radial", type=int)
    common(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help=f"all or one of: {', '.join(SUITE_NAMES)}")
    p.add_argument("--h", type=float,
                   help="custom window size for the kernel or carleson suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="classification plus the full suite battery")
    p.add_argument("--function", default='{"family": "paper_counterexample", "n_max": 4}',
                   help="function spec for the classification part")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


def _run_and_exit(argv=None):
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)


def entry():  # console-script hook
    _run_and_exit()


if __name__ == "__main__":
    _run_and_exit()
