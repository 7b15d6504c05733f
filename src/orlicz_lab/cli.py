"""Command-line front end.

Four subcommands: ``classify`` runs the growth classifier on a function spec,
``norm`` computes one Luxemburg-type norm, ``verify`` runs verification
suites, and ``report`` bundles a classification with the full suite battery.

Exit codes: 0 for a pass or a definite verdict, 1 for a failing check,
2 for an inconclusive verdict, 64 for usage errors and out-of-range inputs.
Output format defaults to text on a terminal and json when piped; reports
for a fixed seed and configuration are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .classify import check_a_points, classify_injection
from .functions import FAMILIES, read_spec
from .grids import GrowthSampleGrid
from .norms import bergman_norm, circle_norm, hardy_norm, luxemburg_norm
from .records import dumps
from .domains import disk
from .suites import DEFAULT_SEED, SEEDED_SUITES, SUITE_NAMES, run_all_suites, run_suite
from .witnesses import FORMS, ParameterRangeError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

# the spec key of a --function and an --input argument: its table and entry kind
_TABLES = {"family": (FAMILIES, "function family"), "form": (FORMS, "sampled-function form")}


class UsageError(ValueError):
    pass


def _load_spec(text: str, key: str):
    """The spec document of a --function or --input argument: inline JSON, a
    JSON file's path, or the shorthand name[:value] or name[:field=value,...]
    of JSON values, split at the commas outside brackets and braces.  A bare
    value fills the entry's first field; "const" is "constant".  JSON text is
    returned as it is, for the spec reader to parse and check.
    """
    text = text.strip()
    if text.startswith("{"):
        return text
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            return fh.read()
    name, _, rest = text.partition(":")
    name = "constant" if name.strip() == "const" else name.strip()
    (table, what), spec, parts = _TABLES[key], {key: name}, []
    for entries, kind in _TABLES.values():
        if name in entries and name not in table:
            raise UsageError(f"{name!r} is a {kind}, not a {what}")
    if name not in table:
        return spec  # the spec reader names the unknown entry
    for piece in rest.split(","):  # rejoin a value split at a comma inside brackets
        if parts and sum(map(parts[-1].count, "[{")) > sum(map(parts[-1].count, "]}")):
            parts[-1] += "," + piece
        else:
            parts.append(piece)
    for part in filter(None, parts):
        field, eq, value = part.partition("=")
        if not eq:
            fields = tuple(table[name][1])
            if not fields:
                raise UsageError(f"{name!r} takes no bare argument")
            field, value = fields[0], part
        field = field.strip()
        if field in spec:
            raise UsageError(f"shorthand argument {part!r} sets {field!r} again")
        try:
            spec[field] = json.loads(value)
        except json.JSONDecodeError:
            raise UsageError(f"cannot parse shorthand argument {part!r}") from None
    return spec


def _parse_arg(text: str, key: str, **extra):
    try:
        return read_spec(_load_spec(text, key), key, _TABLES[key][0], **extra)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(payload: str, output: str | None):
    payload += "" if payload.endswith("\n") else "\n"
    if output:
        d = os.path.dirname(os.path.abspath(output))
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, output)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(payload)


def _default_format(fmt: str | None) -> str:
    if fmt:
        return fmt
    return "text" if sys.stdout.isatty() else "json"


def _csv(rows) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in rows)


# -- subcommands ---------------------------------------------------------------


def cmd_classify(args) -> int:
    psi = _parse_arg(args.function, "family")
    kwargs = {k: v for k, v in (("x_lo", args.x_lo), ("x_hi", args.x_hi),
                                ("n_points", args.points)) if v is not None}
    try:
        if args.a_list:
            kwargs["a_points"] = tuple(float(a) for a in args.a_list.split(","))
        grid = GrowthSampleGrid.default_for(psi, **kwargs)
        check_a_points(grid.a_points)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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
            lines.append(f"  A={q.a:<4g} trend={q.trend:<20s} tail_sup={q.tail_sup:.6g}")
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
    if args.space != "disk" and (args.n_theta is not None or args.n_radial is not None):
        raise UsageError("--n-theta and --n-radial apply to --space disk only")
    if min((n for n in (args.n_theta, args.n_radial) if n is not None), default=1) < 1:
        raise UsageError("--n-theta and --n-radial must be at least 1")
    psi = _parse_arg(args.function, "family")
    f = _parse_arg(args.input, "form", psi=psi)
    if args.space == "disk":
        result = luxemburg_norm(f, psi, disk(args.n_theta or 512, args.n_radial or 128))
    else:  # built per call, so a rebinding of this module's norms takes effect
        result = {"hardy": hardy_norm, "bergman": bergman_norm,
                  "circle": circle_norm}[args.space](f, psi)
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
    if args.suite != "all" and args.suite not in SUITE_NAMES:
        raise UsageError(
            f"unknown suite {args.suite!r}; expected all or one of {', '.join(SUITE_NAMES)}"
        )
    if args.h is not None and args.suite not in ("kernel", "carleson"):
        raise UsageError("--h applies to the kernel and carleson suites only")
    if args.seed is not None and args.suite not in ("all", *SEEDED_SUITES):
        raise UsageError(f"--seed applies to all or the {' and '.join(SEEDED_SUITES)} suites only")
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    options = {"h_grid": (args.h,)} if args.h is not None else {}
    reports = [run_suite(name, seed=seed, **options) for name in names]
    fmt = _default_format(args.format)
    if fmt == "json":
        _emit(dumps([r.to_dict() for r in reports]), args.output)
    else:
        _emit("\n\n".join(r.to_text() for r in reports), args.output)
    return EXIT_OK if all(r.overall_pass for r in reports) else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    psi = _parse_arg(args.function, "family")
    classification = classify_injection(psi)
    suites = run_all_suites(seed=DEFAULT_SEED if args.seed is None else args.seed)
    payload = {
        "classification": classification.to_dict(),
        "suites": [r.to_dict() for r in suites],
        "all_suites_pass": all(r.overall_pass for r in suites),
    }
    fmt = _default_format(args.format)
    if fmt == "json":
        _emit(dumps(payload), args.output)
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

    def common(p, formats=("text", "json"), seeded=False):
        p.add_argument("--output", help="write the report to this path (atomically)")
        p.add_argument("--format", choices=formats,
                       help="defaults to text on a terminal, json when piped")
        if seeded:
            p.add_argument("--seed", type=int,
                           help=f"seed for randomized corpora (default {DEFAULT_SEED})")

    p = sub.add_parser("classify", help="growth-condition classification of a function")
    p.add_argument("--function", required=True,
                   help="function spec: JSON, a file path, or shorthand like "
                        "power:2 or paper_counterexample:4")
    p.add_argument("--a-list", help="comma-separated amplification factors")
    p.add_argument("--x-lo", type=float)
    p.add_argument("--x-hi", type=float)
    p.add_argument("--points", type=int)
    common(p, formats=("text", "json", "csv"))
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
    common(p, seeded=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="classification plus the full suite battery")
    p.add_argument("--function", default='{"family": "paper_counterexample", "n_max": 4}',
                   help="function spec for the classification part")
    common(p, seeded=True)
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
    except (UsageError, ParameterRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _run_and_exit(argv=None):
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader (head, less) closed the pipe, during a write or at the
        # final flush; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)


def entry():  # console-script hook
    _run_and_exit()


if __name__ == "__main__":
    _run_and_exit()
