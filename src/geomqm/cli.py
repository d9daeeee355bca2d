"""Command line interface.

    geomqm run <scenario-file> --out <dir> [--seed N] [--tol-scale X]
    geomqm validate <scenario-file>
    geomqm schema

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 config or
schema error, 3 any other exception (OperatorError, TopologyError,
LinAlgError, ...), printed as "error: <ErrorClass>: <message>".
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .scenario import SCHEMA, ConfigError, load_config, run_scenario, validate_config


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="geomqm",
        description=(
            "Covariant Hamiltonians on lattices: forward builds, metric/"
            "connection/potential reconstruction, geodesics, discrete "
            "Maxwell checks, holonomy spectra and unitary evolution."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write reports")
    run_p.add_argument("scenario", help="scenario YAML file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument(
        "--tol-scale", type=float, default=1.0,
        help="multiply every embedded check tolerance by this factor",
    )

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("scenario", help="scenario YAML file")

    sub.add_parser("schema", help="print the scenario config schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print(SCHEMA, end="")
        return 0

    try:
        if args.command == "validate":
            validate_config(load_config(args.scenario))
            print(f"{args.scenario}: OK")
            return 0
        report = run_scenario(
            args.scenario, args.out, seed=args.seed, tol_scale=args.tol_scale
        )
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit status 1 is kept for a failed check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if not isinstance(exc, ValueError):  # not a domain error: a defect to locate
            traceback.print_exc()
        return 3
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.value:.3g} (tolerance {check.tolerance:.3g})")
    print(f"report written to {args.out}/report.json")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
