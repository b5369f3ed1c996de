"""CLI for the differential fuzz loop.

Examples::

    python -m repro.fuzz --seed 0 --iterations 50 --jobs 0
    python -m repro.fuzz --seed 20260808 --iterations 50 --jobs 0 \\
        --bundle-dir fuzz-repros
    python -m repro.fuzz --seed 7 --iterations 1 --jobs 1 --mutators retime
    python -m repro.fuzz --list-mutators

Exit status: 0 when every seed agreed, 1 when any disagreement was found
(repro bundles are then under ``--bundle-dir``), 3 on usage errors —
mirroring ``python -m repro``'s exit-code contract.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .loop import ENGINE_ORDER, FuzzConfig, render_summary, run_fuzz
from .mutate import CONTRACT, MUTATORS

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (2 would collide with nothing here, but the
    repo-wide convention from ``python -m repro`` is kept)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the six engine front-ends "
                    f"({', '.join(ENGINE_ORDER)}) over seeded random AIGs.")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="first seed of the campaign (default: 0)")
    parser.add_argument("--iterations", type=int, default=50, metavar="K",
                        help="number of consecutive seeds to fuzz "
                             "(default: 50)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes fanning out over seeds "
                             "(0 = all cores; default 1 = serial); the "
                             "summary is byte-identical at any value")
    parser.add_argument("--mutators", default=None, metavar="NAMES",
                        help="comma-separated mutator subset (default: all; "
                             "an empty string fuzzes base models only)")
    parser.add_argument("--max-bound", type=int, default=30, metavar="K",
                        help="UMC bound ceiling (default: 30)")
    parser.add_argument("--bmc-depth", type=int, default=10, metavar="K",
                        help="BMC deepening horizon (default: 10; must "
                             "cover every planted failure depth)")
    parser.add_argument("--bundle-dir", default="fuzz-repros", metavar="DIR",
                        help="directory for repro bundles on disagreement "
                             "(default: fuzz-repros)")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        default=True,
                        help="skip shrinking disagreement witnesses")
    parser.add_argument("--preprocess-only", dest="check_no_preprocess",
                        action="store_false", default=True,
                        help="skip the preprocessing-off runs (halves the "
                             "matrix; drops the on/off identity check)")
    parser.add_argument("--share-race-every", type=int, default=0,
                        metavar="N",
                        help="every Nth seed also runs the cooperative "
                             "shared race (lemma sharing across all "
                             "six engines) on the base model and asserts "
                             "the planted verdict (default: 0 = off)")
    parser.add_argument("--list-mutators", action="store_true",
                        help="list the registered mutators and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_mutators:
        print(f"contract: {CONTRACT}")
        for name, fn in MUTATORS.items():
            doc = next(iter((fn.__doc__ or "").strip().splitlines()), "")
            print(f"{name:12s} {doc}")
        return 0
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.iterations < 1:
        parser.error("--iterations must be at least 1")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = all cores)")
    if args.share_race_every < 0:
        parser.error("--share-race-every must be >= 0 (0 = off)")
    if args.max_bound < 1:
        parser.error("--max-bound must be at least 1")
    if args.bmc_depth < 0:
        parser.error("--bmc-depth must be non-negative")

    mutators = tuple(MUTATORS)
    if args.mutators is not None:
        mutators = tuple(n for n in args.mutators.split(",") if n)
        unknown = [n for n in mutators if n not in MUTATORS]
        if unknown:
            parser.error(f"unknown mutators: {', '.join(unknown)} "
                         f"(known: {', '.join(MUTATORS)})")

    config = FuzzConfig(seed=args.seed, iterations=args.iterations,
                        jobs=args.jobs, mutators=mutators,
                        max_bound=args.max_bound, bmc_depth=args.bmc_depth,
                        shrink=args.shrink,
                        check_no_preprocess=args.check_no_preprocess,
                        bundle_dir=args.bundle_dir,
                        share_race_every=args.share_race_every)
    report = run_fuzz(config)
    sys.stdout.write(render_summary(report))
    if report.problems:
        bundles = sorted({s.bundle for s in report.seeds if s.bundle})
        for bundle in bundles:
            print(f"repro bundle: {bundle}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
