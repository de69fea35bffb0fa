"""Command-line entry point: select a suite, spins and mode; report results.

Exit status: 0 when every check passes, 1 when at least one identity fails,
2 for configuration errors (argparse uses 2 for usage errors as well).
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import (SUITE_NAMES, ConfigurationError, RunConfig, SuiteReport,
                     UnknownSuiteError, run_suite, validate_config)


def _spins(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"spins must be comma-separated integers, got {text!r}")
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("spins are two_j values: nonnegative integers")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaw",
        description="Exact verification suites for the Askey-Wilson algebra "
                    "inside tensor powers of U_q(sl2).")
    parser.add_argument("--suite", default="all", choices=SUITE_NAMES,
                        help="which identity suite to run (default: all)")
    parser.add_argument("--spins", type=_spins, default=(1, 1, 1),
                        help="comma-separated two_j values, e.g. 1,1,1 "
                             "(spin j enters as the integer 2j)")
    parser.add_argument("--mode", default="exact", choices=("exact", "eval"),
                        help="exact symbolic arithmetic, or evaluation at random "
                             "sample points in residues mod 2^61 - 1, with a "
                             "failing check group re-run there over Q")
    parser.add_argument("--points", type=int, default=20, metavar="N",
                        help="number of sample points in eval mode (default: 20)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="random seed for sample points and random elements")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON to PATH")
    parser.add_argument("--verbose", action="store_true",
                        help="print parameters and witnesses for every check")
    parser.add_argument("--negative-control", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def parse_args(argv=None) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.points < 1:
        parser.error("--points must be at least 1")
    config = RunConfig(
        suite=ns.suite,
        spins=ns.spins,
        mode=ns.mode,
        eval_points=ns.points,
        rng_seed=ns.seed,
        output_path=ns.json,
        verbose=ns.verbose,
        negative_control=ns.negative_control,
    )
    # Fail on suite/spins arity mismatch before any computation starts.
    try:
        validate_config(config.suite, config)
    except (ConfigurationError, UnknownSuiteError) as exc:
        parser.error(str(exc))
    return config


def _print_report(report: SuiteReport, verbose: bool):
    cfg = report.config
    print(f"suite: {report.suite}  spins: {tuple(cfg['spins'])}  "
          f"mode: {cfg['mode']}  version: {report.version}")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name} ({check.runtime_ms} ms)"
        if not check.passed:
            line += f" residual={check.residual_terms}"
        print(line)
        if verbose or not check.passed:
            if check.params:
                print(f"     params: {check.params}")
            if check.witness:
                print(f"     witness: {check.witness}")
    total_ms = sum(c.runtime_ms for c in report.checks)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"overall: {verdict} ({len(report.checks)} checks, {total_ms} ms)")
    print(f"setup: {report.setup_ms} ms  wall: {report.wall_ms} ms")


def run(config: RunConfig) -> int:
    try:
        report = run_suite(config.suite, config)
    except (ConfigurationError, UnknownSuiteError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    _print_report(report, config.verbose)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.passed else 1


def main(argv=None):
    sys.exit(run(parse_args(argv)))


if __name__ == "__main__":
    main()
