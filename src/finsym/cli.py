"""Command-line interface: run scenario suites, validate configs, list checks.

Exit codes: 0 when every record passes, 1 when any check fails, 2 on
configuration or expression errors (including usage problems), 3 on an
internal error, which prints one ``internal error: Type: message`` line on
stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .checks import CHECKS, run_scenario
from .errors import ConfigError, ParseError
from .report import emit_report
from .scenario import build_scenario, load_config


def _parse_tol_overrides(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError(f"expected name=value, got {item!r}", "/tolerances")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value {value!r}",
                              f"/tolerances/{name.strip()}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsym",
        description="Residual-based verification of Finsler connection data, "
                    "two-form preservation, induced symplectic connections, "
                    "and curvature identities on sampled chart points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a check suite over a scenario config")
    run.add_argument("--config", required=True, help="path to the JSON scenario")
    run.add_argument("--suite", default=None,
                     help="comma-separated check ids (default: all applicable)")
    run.add_argument("--format", default="json", choices=("json", "table"),
                     help="report format (json = json-lines)")
    run.add_argument("--out", default=None, help="write the report to a file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the sampling seed")
    run.add_argument("--tol", action="append", metavar="NAME=VALUE",
                     help="override a tolerance (repeatable)")

    val = sub.add_parser(
        "validate", help="check that a scenario config builds: schema, "
                         "expressions, boxes and sample points")
    val.add_argument("--config", required=True)

    sub.add_parser("list-checks", help="print check ids and what they verify")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-checks":
        width = max(len(check.id) for check in CHECKS)
        for check in CHECKS:
            print(f"{check.id.ljust(width)}  {check.description}")
        return 0

    try:
        config = load_config(args.config)
        if args.command == "validate":
            build_scenario(config)
            print("config OK")
            return 0

        suite = None
        if args.suite is not None:
            suite = [s.strip() for s in args.suite.split(",") if s.strip()]
            if not suite:
                print("error: --suite given but names no checks", file=sys.stderr)
                return 2
        records = run_scenario(
            config, suite=suite, seed_override=args.seed,
            tolerance_overrides=_parse_tol_overrides(args.tol))
        if not records:
            print("error: suite produced no records "
                  "(all points gated out?)", file=sys.stderr)
            return 2
        payload = emit_report(records, args.format)
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(payload)
            except OSError as exc:
                print(f"error: cannot write report: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        return 0 if records.all_passed() else 1
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - any other failure is a bug
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
