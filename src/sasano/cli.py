"""Command line front end: classification, construction, verification,
transformation and Laurent expansion over JSON files or stdin.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 undefined group action or failed normalization.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactmath import laurent_expand, finite_point, INFINITY, ZERO_POINT, rat, rat_str, series_to_json
from .systems import (
    Chart,
    NormalizationFailed,
    ParameterTuple,
    SolutionTuple,
    System,
    UndefinedAction,
    is_solution,
    parse_system,
    solve_last_alpha,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNDEFINED = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises argparse's complaint as a UsageError naming the (sub)parser
    that made it, so that a batch line can report it as JSON."""

    def error(self, message):
        exc = UsageError(message)
        exc.parser = self
        raise exc


def _system_arg(name: str) -> System:
    """parse_system for --system; argparse reports only an ArgumentTypeError's text."""
    try:
        return parse_system(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_alphas(system: System, text: str) -> ParameterTuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise UsageError("--alphas needs five comma-separated values (fifth may be 'auto')")
    if parts[4] == "auto":
        parts[4] = solve_last_alpha(system, parts[:4])
    return ParameterTuple(system, parts)


def _load_solution(path: str) -> SolutionTuple:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except json.JSONDecodeError as exc:
        where = "on stdin" if path == "-" else repr(path)
        raise UsageError(f"solution {where} is not JSON: {exc}") from None
    return SolutionTuple.from_json(data)


def _parse_at(text: str):
    text = text.strip().lower()
    if text in ("0", "zero"):
        return ZERO_POINT
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    if text.startswith("c="):
        return finite_point(rat(text[2:]))
    raise UsageError("--at must be one of: 0, inf, c=VALUE")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


# each subcommand imports the modules it runs (backlund, classify, verify), not the others

def _run_classify(args, params, sol) -> int:
    from .classify import classify
    _emit(classify(params).to_json())
    return EXIT_OK


def _run_construct(args, params, sol) -> int:
    from .classify import construct_rational_solution
    _emit(construct_rational_solution(params).to_json())
    return EXIT_OK


def _run_transform(args, params, sol) -> int:
    from .backlund import act_word, parse_word
    new_params, new_sol = act_word(parse_word(args.system, args.word), params, sol)
    out = new_params.to_json()
    if new_sol is not None:
        out["solution"] = new_sol.to_json()
        out["chart"] = new_sol.chart.value
    _emit(out)
    return EXIT_OK


def _run_verify(args, params, sol) -> int:
    from .verify import (IntegratorFailed, PoleOnPath, invariant_report, numeric_crosscheck,
                         pole_free_interval)
    checks: list = [("residual", is_solution(params, sol))]
    skipped: list = []  # (check, reason), reported in text mode

    report_json = None
    if params.system is System.B4 and sol.chart is Chart.AFFINE:
        report = invariant_report(params, sol)
        report_json = report.to_json()
        checks.extend(report.checks())
        if report.unchecked_irrational_poles:
            skipped.append(("finite_pole_residues at irrational poles",
                            "not decidable in rational arithmetic"))
    else:
        where = "" if sol.chart is Chart.AFFINE else f" in chart {sol.chart.value}"
        skipped.append(("invariants", f"{params.system.name}{where} has no invariant report"))

    if sol.chart is Chart.AFFINE:
        try:
            t0, t1 = pole_free_interval(sol)
            deviation = numeric_crosscheck(params, sol, t0, t1)
            checks.append(("numeric_crosscheck", deviation <= 1e-6))
        except PoleOnPath:
            skipped.append(("numeric_crosscheck", "pole on path"))
        except IntegratorFailed:
            checks.append(("numeric_crosscheck", False))
    else:
        skipped.append(("numeric_crosscheck", f"chart {sol.chart.value} is not affine"))

    all_ok = all(flag for _, flag in checks)
    if args.json:
        out = {"checks": {name: flag for name, flag in checks}, "pass": all_ok}
        if report_json is not None:
            out["invariants"] = report_json
        _emit(out)
    else:
        for name, flag in checks:
            sys.stdout.write(f"{'PASS' if flag else 'FAIL'} {name}\n")
        # on stderr, so that stdout keeps one line per check that ran
        for name, reason in skipped:
            sys.stderr.write(f"SKIP {name} ({reason})\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _run_expand(args, params, sol) -> int:
    point = _parse_at(args.at)
    order = args.order
    out = {}
    for name, comp in zip("xyzw", sol.components()):
        series = laurent_expand(comp, point, order)
        out[name] = series_to_json(series)
    _emit(out)
    return EXIT_OK


def _run_report(args, params, sol) -> int:
    from .verify import invariant_report
    _emit(invariant_report(params, sol).to_json())
    return EXIT_OK


_RUNNERS = {
    "classify": _run_classify,
    "construct": _run_construct,
    "transform": _run_transform,
    "verify": _run_verify,
    "expand": _run_expand,
    "report": _run_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sasano",
        description="Exact rational-solution tools for the B4(1)/D4(1)/D5(2) systems.",
    )
    parser.add_argument("--batch", metavar="FILE.jsonl", help="process one JSON request per line")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p):
        p.add_argument("--system", type=_system_arg, required=True, metavar="{b4,d4,d5}")
        p.add_argument("--alphas", required=True, help="a0,a1,a2,a3,a4 (fifth may be 'auto')")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("classify", help="decide existence of a rational solution")
    common(p)
    p = sub.add_parser("construct", help="decide and build the rational solution")
    common(p)
    p = sub.add_parser("transform", help="apply a transformation word")
    common(p)
    p.add_argument("--word", required=True, help="e.g. 's3 T1 inv(T2)'")
    p.add_argument("--solution", help="JSON file with a solution to transform ('-' = stdin)")
    p = sub.add_parser("verify", help="check a solution exactly and numerically")
    common(p)
    p.add_argument("--solution", required=True, help="JSON solution file ('-' = stdin)")
    p = sub.add_parser("expand", help="Laurent-expand the components of a solution")
    p.add_argument("--solution", required=True, help="JSON solution file ('-' = stdin)")
    p.add_argument("--at", required=True, help="expansion point: 0, inf, or c=VALUE")
    p.add_argument("--order", type=int, default=None, help="truncation exponent")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("report", help="Laurent/residue/Hamiltonian invariant report")
    common(p)
    p.add_argument("--solution", required=True, help="JSON solution file ('-' = stdin)")
    return parser


def _run_batch(parser: argparse.ArgumentParser, path: str) -> int:
    worst = EXIT_OK
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        _emit({"error": f"cannot read --batch file {path!r}: {getattr(exc, 'strerror', None) or exc}"})
        return EXIT_USAGE
    for line in lines:
        try:
            request = json.loads(line, parse_int=lambda text: rat(text).numerator)  # any length
            if not isinstance(request, dict) or not isinstance(request.get("subcommand"), str):
                raise UsageError('batch line is not a JSON object with a "subcommand" string')
            if request["subcommand"] not in _RUNNERS:  # "-h" would print the help
                raise UsageError(f"unknown subcommand {request['subcommand']!r}; "
                                 f"expected one of {', '.join(_RUNNERS)}")
            options = ("system", "alphas", "word", "solution", "at", "order")
            for key in request:
                if key not in ("subcommand", "json", *options):
                    raise UsageError(f"unknown request key {key!r}; expected subcommand, json, "
                                     + ", ".join(options))
            argv = [request["subcommand"]]
            for key in options:
                if key in request:
                    value = request[key]
                    if key == "alphas" and isinstance(value, list):
                        # JSON integers and strings, as solution files take them
                        for a in value:
                            if isinstance(a, bool) or not isinstance(a, (int, str)):
                                raise UsageError(f"alphas: {a!r} is neither an integer nor a string")
                        value = ",".join(a if isinstance(a, str) else rat_str(rat(a)) for a in value)
                    # one token, so that a value starting with "-" is not
                    # taken for an option
                    argv.append(f"--{key}={value}")
            if request.get("json"):
                argv += ["--json"]
            code = _dispatch(parser.parse_args(argv))
        except Exception as exc:  # keep batch lines independent
            _emit({"error": str(exc)})
            code = EXIT_USAGE
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    """One invocation: a single request, or a batch of them."""
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--alphas VALUE", or an abbreviation, as one token: a VALUE starting with "-" is no option
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 2 and "--alphas".startswith(argv[i]) and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.batch:
        return _run_batch(parser, args.batch)
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return _dispatch(args)


def _dispatch(args) -> int:
    """Read one parsed request's alphas and solution, where it has them,
    and run it; its errors are reported as JSON."""
    try:
        alphas, solution = getattr(args, "alphas", None), getattr(args, "solution", None)
        params = None if alphas is None else _parse_alphas(args.system, alphas)
        sol = None if solution is None else _load_solution(solution)
        return _RUNNERS[args.subcommand](args, params, sol)
    except (UndefinedAction, NormalizationFailed) as exc:
        _emit({"error": str(exc)})
        return EXIT_UNDEFINED
    except (ValueError, OSError) as exc:  # UsageError, ChartMismatch, PoleOnPath, JSON errors
        _emit({"error": str(exc)})
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
