"""Command-line front end.

    mhv bracket <e1> <e2> [--centerless]
    mhv lsa-mul <e1> <e2> [--eps p/q]
    mhv lsa-check --window N [--eps p/q]
    mhv verify [--window N] [--eps p/q|symbolic] [--checks a,b,c]
               [--format json|text]
    mhv solve-theta --window N
    mhv bider-check --lambda <rat> --omega k=mu,... --window N [--full]
    mhv postlie-grid --window N
    mhv lsa-bider-grid --window N [--eps p/q]
    mhv star-check --window N
    mhv ast-check --window N
    mhv cross-check --window N

Exit code 0 iff every selected report passed, 1 on check failures, 2 on
usage or admissibility errors, 3 when a worker process of the run died.
All numeric output is exact; JSON is the machine contract, text is a
human summary.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import CENTERLESS, FULL, AlgebraError, bracket
from .biderivations import BiderParams, BilinearTable, check_biderivation
from .expressions import ParseError, parse_element, parse_rational, parse_scalar
from .lsa import SYMBOLIC, AdmissibilityError, EpsMode, lsa_product
from .reports import SCHEMA_VERSION, reports_to_json, reports_to_text
from .scalars import ScalarError
from .suite import CHECK_ORDER, RunConfig, WorkerDiedError, run_suite


def _window(text: str) -> int:
    """The type of every --window option: an integer of at least 1."""
    try:
        window = int(text)
    except ValueError:
        window = 0
    if window < 1:
        raise argparse.ArgumentTypeError(
            f"window must be an integer of at least 1, got {text!r}")
    return window


def _eps_mode(text: str | None) -> EpsMode:
    if text is None or text == "symbolic":
        return SYMBOLIC
    return EpsMode.numeric(parse_rational(text))


def _parse_omega(text: str) -> dict:
    omega = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"omega entry {chunk!r} is not of the form k=mu")
        key, value = chunk.split("=", 1)
        try:
            shift = int(key)
        except ValueError:
            raise ValueError(
                f"omega shift {key.strip()!r} is not an integer") from None
        if shift in omega:
            raise ValueError(f"omega shift {shift} is given more than once")
        omega[shift] = parse_scalar(value)
    return omega


def _emit_result(rendered: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, "result": rendered},
                         indent=2))
    else:
        print(rendered)


def _emit_reports(reports: list, fmt: str, config: dict | None = None) -> int:
    if fmt == "json":
        print(reports_to_json(reports, config))
    else:
        print(reports_to_text(reports))
    return 0 if all(r.passed for r in reports) else 1


# the commands that are shorthands for `verify --checks <check>`:
# command -> (check, help, default window, takes --eps)
ALIASES = {
    "lsa-check": ("lsa-identity", "left-symmetric identity sweep", 5, True),
    "solve-theta": ("solve-theta", "solve the theta linear system", 5, False),
    "postlie-grid": ("postlie-grid", "post-Lie triviality grid", 4, False),
    "lsa-bider-grid": ("lsa-bider-grid",
                       "left-symmetric biderivation triviality grid", 4, True),
    "star-check": ("star", "centerless equation system sweep", 5, False),
    "ast-check": ("ast", "central equation system sweep", 5, False),
    "cross-check": ("cross-check", "transcribed equations vs identity oracle",
                    5, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhv",
        description="Exact symbolic kernel and verifier for the mirror "
                    "Heisenberg-Virasoro algebra and its graded "
                    "left-symmetric structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, window_default=5):
        p.add_argument("--window", type=_window, default=window_default,
                       help="index window [-N, N] for quantifiers")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("bracket", help="Lie bracket of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--centerless", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("lsa-mul", help="left-symmetric product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--eps", default=None, help="rational value of e")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify", help="run verification checks")
    add_common(p)
    p.add_argument("--eps", default=None,
                   help="'symbolic' (default) or a rational like 2/5")
    p.add_argument("--checks", default=None,
                   help=f"comma list from: {', '.join(CHECK_ORDER)}")

    p = sub.add_parser("bider-check",
                       help="biderivation axioms for a family member")
    add_common(p)
    p.add_argument("--lambda", dest="lam", default="0")
    p.add_argument("--omega", default="", help="k=mu comma list, e.g. 0=1,-2=3")
    p.add_argument("--full", action="store_true",
                   help="check over the centrally extended algebra instead "
                            "of the centerless quotient")

    for command, (_, help_text, window, takes_eps) in ALIASES.items():
        p = sub.add_parser(command, help=help_text)
        add_common(p, window_default=window)
        if takes_eps:
            p.add_argument("--eps", default=None)

    return parser


def _dispatch(args) -> int:
    fmt = args.format
    if args.command == "bracket":
        mode = CENTERLESS if args.centerless else FULL
        result = bracket(parse_element(args.left), parse_element(args.right),
                         mode)
        _emit_result(result.render(), fmt)
        return 0
    if args.command == "lsa-mul":
        result = lsa_product(parse_element(args.left),
                             parse_element(args.right), _eps_mode(args.eps))
        _emit_result(result.render(), fmt)
        return 0
    if args.command == "bider-check":
        params = BiderParams(parse_scalar(args.lam), _parse_omega(args.omega))
        mode = FULL if args.full else CENTERLESS
        table = BilinearTable.from_params(params, mode)
        report = check_biderivation(table, args.window, mode)
        return _emit_reports([report], fmt)

    if args.command in ALIASES:
        checks = (ALIASES[args.command][0],)
    elif args.checks is not None:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    else:
        checks = CHECK_ORDER
    eps = _eps_mode(getattr(args, "eps", None))
    config = RunConfig(window=args.window, eps=eps, checks=checks)
    reports = run_suite(config)
    header = {"window": args.window, "eps_mode": eps.describe(),
              "checks": list(checks)}
    return _emit_reports(reports, fmt, header)


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, AdmissibilityError, AlgebraError, ScalarError,
            ValueError) as exc:
        print(f"mhv: error: {exc}", file=sys.stderr)
        return 2
    except WorkerDiedError as exc:
        print(f"mhv: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
