"""Command line entry point for the verification campaigns."""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .suites import SUITE_IDS, Campaign, all_passed, emit


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2calc",
        description="Numerical certification of the deformed-connection identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify",
        help="run randomised verification suites and report pass/fail counts",
    )
    verify.add_argument("--seed", type=nonnegative_int, default=0,
                        help="campaign seed (the G2CALC_SEED variable wins)")
    verify.add_argument("--samples", type=positive_int, default=1000,
                        help="random trials per suite")
    verify.add_argument("--suite", action="append", dest="suites",
                        choices=list(SUITE_IDS), metavar="NAME",
                        help="run only this suite; repeatable "
                             f"(one of: {', '.join(SUITE_IDS)})")
    verify.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format")
    verify.add_argument("--tol-rel", type=tolerance, default=1e-9,
                        help="tolerance for exact identities on random data")
    verify.add_argument("--tol-identity", type=tolerance, default=1e-8,
                        help="tolerance for identities evaluated at solutions")
    verify.add_argument("--timings", action="store_true",
                        help="write each suite's wall time to stderr; stdout is unchanged")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = args.seed
    env_seed = os.environ.get("G2CALC_SEED")
    if env_seed is not None:
        try:
            seed = nonnegative_int(env_seed)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"G2CALC_SEED must be a nonnegative integer, got {env_seed!r}",
                  file=sys.stderr)
            return 2
    campaign = Campaign(
        seed=seed,
        samples=args.samples,
        tol_rel=args.tol_rel,
        tol_identity=args.tol_identity,
        suites=tuple(args.suites) if args.suites else tuple(SUITE_IDS),
    )
    reports = []
    for name in campaign.suites:
        start = time.perf_counter()
        reports.append(campaign.run_suite(name))
        if args.timings:
            print(f"timing {name} {time.perf_counter() - start:.3f} s", file=sys.stderr)
    sys.stdout.buffer.write(emit(reports, args.format, campaign))
    sys.stdout.buffer.flush()
    return 0 if all_passed(reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
