#!/usr/bin/env python3
"""Regenerate the paper's experiments (Table I, Fig. 6, Fig. 7) from the CLI.

Examples
--------
Quick subset of every experiment (a few minutes)::

    python examples/paper_experiments.py --quick

Individual experiments on the full suite::

    python examples/paper_experiments.py --table1
    python examples/paper_experiments.py --fig6
    python examples/paper_experiments.py --fig7

Results are printed and, with ``--output DIR``, also written to files.
"""

import argparse
import os
import sys

from repro.circuits import full_suite, quick_suite
from repro.core import EngineOptions
from repro.harness import (
    ExperimentRunner,
    HarnessConfig,
    render_fig6,
    render_fig7,
    render_table1,
    run_fig7,
)


def _progress(name, elapsed, _record=None):
    print(f"    {name}: {elapsed:.1f}s", file=sys.stderr)


def _save(output_dir, name, content):
    if output_dir is None:
        return
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content + "\n")
    print(f"saved {path}", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table1", action="store_true", help="run Table I")
    parser.add_argument("--fig6", action="store_true", help="run Fig. 6")
    parser.add_argument("--fig7", action="store_true", help="run Fig. 7")
    parser.add_argument("--quick", action="store_true",
                        help="use the quick suite and run all experiments")
    parser.add_argument("--time-limit", type=float, default=60.0,
                        help="per-engine per-instance time limit in seconds")
    parser.add_argument("--max-bound", type=int, default=25,
                        help="largest BMC bound attempted")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the engine x instance "
                             "cells (0 = all cores, 1 = serial)")
    parser.add_argument("--output", default=None, help="directory for result files")
    args = parser.parse_args()

    if not (args.table1 or args.fig6 or args.fig7 or args.quick):
        parser.error("select at least one of --table1/--fig6/--fig7/--quick")

    instances = quick_suite() if args.quick else full_suite()
    run_table = args.table1 or args.quick
    run_curves = args.fig6 or args.quick
    run_scatter = args.fig7 or args.quick

    jobs = args.jobs  # 0 = all cores, resolved downstream by resolve_jobs
    if run_table or run_curves:
        options = EngineOptions(time_limit=args.time_limit,
                                max_bound=args.max_bound)
        config = HarnessConfig(options=options, run_bdds=run_table)
        print(f"running {len(instances)} instances x 5 engines "
              f"(jobs={args.jobs or 'all cores'}) ...", file=sys.stderr)
        records = ExperimentRunner(config).run_suite(instances, progress=_progress,
                                                     jobs=jobs)
        if run_table:
            table = render_table1(records)
            print("\n" + table + "\n")
            _save(args.output, "table1.txt", table)
            _save(args.output, "table1.csv", render_table1(records, as_csv=True))
        if run_curves:
            fig6 = render_fig6(records, time_limit=args.time_limit)
            print("\n" + fig6 + "\n")
            _save(args.output, "fig6.txt", fig6)

    if run_scatter:
        print("running Fig. 7 (ITPSEQ exact-k vs assume-k) ...", file=sys.stderr)
        points = run_fig7(instances, time_limit=args.time_limit,
                          max_bound=args.max_bound, jobs=jobs,
                          progress=lambda name, point: _progress(
                              name, point.exact_time + point.assume_time))
        fig7 = render_fig7(points)
        print("\n" + fig7 + "\n")
        _save(args.output, "fig7.txt", fig7)
        _save(args.output, "fig7.csv", render_fig7(points, as_csv=True))


if __name__ == "__main__":
    main()
