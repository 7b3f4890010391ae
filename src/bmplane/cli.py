"""Command-line front end: solve bodies, run the oracle, verify reports, render SVG.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 malformed input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import jsonio
from .errors import BmplaneError, InputError
from .gauge import gauge_from_descriptor
from .report import (
    build_report,
    render_svg,
    report_from_dict,
    report_mismatches,
    report_to_dict,
)
from .solver import solve_uniform, verify_certificate

_EXIT_OK = 0
_EXIT_VERIFY_FAIL = 1
_EXIT_INPUT = 2
_EXIT_NUMERIC = 3
_RENDER_TOL = 1e-9  # a report drawn with a body must be that body's, to rounding


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting past the stack
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_gauge(path: str):
    descriptor = _read_json(path)
    try:
        return gauge_from_descriptor(descriptor)
    except InputError:
        raise
    except BmplaneError as exc:
        raise InputError(f"invalid body: {type(exc).__name__}: {exc}") from exc


def _cmd_solve(args) -> int:
    gauge = _load_gauge(args.input)
    sol = solve_uniform(gauge)
    report = build_report(gauge, sol)
    _write_text(args.out, jsonio.dumps(report_to_dict(report)))
    print(f"d2 = {report.d2:.12g}  defect = {report.defect:.12g}  -> {args.out}")
    return _EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import oracle_uniform  # only this command runs the oracle

    result = oracle_uniform(_load_gauge(args.input), n_phi=args.nphi)
    payload = {
        "std": {"a": result.std.a, "bprime": result.std.bprime, "theta": result.std.theta},
        "params": list(result.params.triple()),
        "value": result.value,
        "lower": result.lower,
        "d2": math.exp(2.0 * result.value),
        "evaluations": result.evaluations,
    }
    _write_text(args.out, jsonio.dumps(payload))
    print(f"oracle value = {result.value:.12g}  lower = {result.lower:.12g}  -> {args.out}")
    return _EXIT_OK


def _cmd_verify(args) -> int:
    tol = args.tol  # d2's relative error
    if not 0.0 < tol < math.inf:
        raise InputError(f"--tol must be positive and finite, got {tol}")
    gauge = _load_gauge(args.input)
    stored = _read_json(args.report)
    report = report_from_dict(stored)

    bracket = verify_certificate(gauge, report.params_uniform, report.certificate,
                                 0.5 * math.log1p(tol))
    # the d2 bracket, inf past exp(709.78), the end of the float range
    low, high = (math.exp(2.0 * d) if d < 354.0 else math.inf
                 for d in (bracket.lower, bracket.upper))
    mismatches = report_mismatches(gauge, report, stored, tol)
    checks = [
        ("certificate", bracket.passed and low * (1.0 - tol) <= report.d2 <= high * (1.0 + tol)),
        ("rebuilt-report", not mismatches),
    ]
    print(f"d2 bracket: [{low!r}, {high!r}]")
    for name, ok in checks:
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    if mismatches:
        print(f"fields unlike the rebuilt report: {', '.join(mismatches)}")
    if all(ok for _, ok in checks):
        print("verdict: pass")
        return _EXIT_OK
    print("verdict: FAIL")
    return _EXIT_VERIFY_FAIL


def _cmd_render(args) -> int:
    gauge = _load_gauge(args.input)
    stored = _read_json(args.report)
    report = report_from_dict(stored)
    mismatches = report_mismatches(gauge, report, stored, _RENDER_TOL)
    if mismatches:
        raise InputError(
            f"the report is not of this body: {', '.join(mismatches)} differ from the "
            "report rebuilt from the body"
        )
    _write_text(args.out, render_svg(report, gauge, view=args.view))
    print(f"{args.view} view -> {args.out}")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmplane",
        description=(
            "Banach-Mazur distance of a planar symmetric body to the Euclidean "
            "plane, with the optimal ellipse and its alternance certificate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a body and write the report JSON")
    solve.add_argument("--input", required=True, help="body descriptor JSON")
    solve.add_argument("--out", required=True, help="output report JSON")

    oracle = sub.add_parser("oracle", help="branch and bound for the defect, with a lower bound")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--out", required=True)
    oracle.add_argument("--nphi", type=int, default=1024, help="angle grid size")

    verify = sub.add_parser("verify", help="re-check a report against its body")
    verify.add_argument("--input", required=True, help="body descriptor JSON")
    verify.add_argument("--report", required=True, help="report JSON to verify")
    verify.add_argument("--tol", type=float, default=1e-6, help="d2's relative error")

    render = sub.add_parser("render", help="render a report of a body to SVG")
    render.add_argument("--input", required=True, help="body descriptor JSON")
    render.add_argument("--report", required=True, help="report JSON of that body")
    render.add_argument("--out", required=True)
    render.add_argument("--view", choices=["body", "image"], default="body")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
        "render": _cmd_render,
    }[args.command]
    try:
        return handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except BmplaneError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except Exception:  # keep exit code 1 reserved for verification failures
        import traceback

        traceback.print_exc()
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
