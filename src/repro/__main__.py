"""Command-line driver: run any registered engine (or the portfolio) on an AIGER file.

Examples::

    python -m repro design.aag --engine pdr
    python -m repro design.aig --engine itpseq --max-bound 40 --time-limit 60
    python -m repro design.aag --engine portfolio --stats
    python -m repro design.aag --engine portfolio --race --jobs 4
    python -m repro design.aag --no-preprocess --stats
    python -m repro design.aag --passes coi,fraig,cnf --stats
    python -m repro design.aag --engine itpseq --events trace.jsonl -v
    python -m repro --list-engines
    python -m repro --list-instances

``--trace`` prints the counterexample *input trace* on FAIL; the
similarly named ``--events`` records the run's structured *span-event
trace* (see :mod:`repro.obs`) for ``python -m repro.obs.report``.

The file may be ASCII (``.aag``) or binary (``.aig``) AIGER — the variant
is sniffed from the magic bytes, not the extension.  Exit status: 0 when
the property holds (PASS), 1 on a counterexample (FAIL), 2 when the run
ended without an answer (UNKNOWN / budget overflow), 3 on usage or input
errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .aig import AigerError, Model, read_aiger
from .core import ENGINES, EngineOptions, Portfolio, run_engine
from .core.result import VerificationResult

__all__ = ["main"]

_EXIT_BY_VERDICT = {"pass": 0, "fail": 1, "ovf": 2, "unknown": 2}


class _Parser(argparse.ArgumentParser):
    """Argument parser honouring the module's exit-code contract.

    argparse exits with status 2 on usage errors, but 2 is reserved for
    "no answer" here — usage and input errors are documented as 3.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = _Parser(
        prog="python -m repro",
        description="Model-check one safety property of an AIGER circuit.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("file", nargs="?",
                        help="AIGER file, ASCII (.aag) or binary (.aig)")
    parser.add_argument("--engine", default="pdr",
                        choices=sorted(ENGINES) + ["portfolio"],
                        help="engine from the registry, or 'portfolio' to run "
                             "them in sequence until one answers (default: pdr)")
    parser.add_argument("--race", action="store_true",
                        help="portfolio only: race the members in worker "
                             "processes and cancel the losers at the first "
                             "definitive answer, instead of taking turns")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="max concurrent worker processes for --race "
                             "(default: one per engine; 0 = all cores)")
    parser.add_argument("--property", type=int, default=0, metavar="N",
                        help="index of the bad literal to check (default: 0)")
    parser.add_argument("--max-bound", type=int, default=30, metavar="K",
                        help="bound / frame limit before giving up (default: 30)")
    parser.add_argument("--time-limit", type=float, default=None, metavar="SEC",
                        help="wall-clock budget in seconds per engine run — "
                             "the sequential portfolio grants it to each "
                             "member in turn, --race to all concurrently "
                             "(default: none)")
    parser.add_argument("--preprocess", dest="preprocess", action="store_true",
                        default=True,
                        help="run the model-preprocessing pipeline before "
                             "the engine (COI + sweeping + rewriting + "
                             "fraiging; the default)")
    parser.add_argument("--no-preprocess", dest="preprocess",
                        action="store_false",
                        help="encode the raw circuit without preprocessing")
    parser.add_argument("--passes", default=None, metavar="NAMES",
                        help="comma-separated preprocessing pass names to run "
                             "instead of the default pipeline (e.g. "
                             "'coi,fraig'; an empty string selects no "
                             "passes); unknown names exit with status 3")
    parser.add_argument("--stats", action="store_true",
                        help="print the engine's statistics counters, "
                             "grouped by subsystem (groups that are "
                             "structurally zero for the selected engine "
                             "are suppressed)")
    parser.add_argument("--trace", action="store_true",
                        help="print the counterexample input trace on FAIL "
                             "(not to be confused with --events, which "
                             "records span-trace events)")
    parser.add_argument("--events", default=None, metavar="FILE",
                        help="write a structured span-event trace of the "
                             "run to FILE as JSON lines; inspect it with "
                             "'python -m repro.obs.report FILE'")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-v = INFO, "
                             "-vv = DEBUG)")
    parser.add_argument("--list-engines", action="store_true",
                        help="list the registered engines and exit")
    parser.add_argument("--list-instances", action="store_true",
                        help="list the registry benchmark suite (with "
                             "circuit sizes) and exit")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        metavar="N",
                        help="with --list-instances: also list the "
                             "seed-registered fuzz instance fuzz_sN with "
                             "its generator parameters (repeatable)")
    return parser


def _print_result(result: VerificationResult, args: argparse.Namespace) -> None:
    print(result)
    if result.message:
        print(f"  note: {result.message}")
    if args.stats:
        engine_cls = ENGINES.get(result.engine)
        groups = getattr(engine_cls, "stat_groups", None)
        if groups is None:  # unknown engine name: fall back to the flat dump
            for key, value in result.stats.as_dict().items():
                print(f"  {key}: {value}")
        else:
            if not args.preprocess:
                # With preprocessing off every pre_*/fraig_* counter is
                # structurally zero — drop the whole group.
                groups = tuple(g for g in groups if g != "preprocess")
            for group, counters in result.stats.grouped(groups).items():
                print(f"  [{group}]")
                for key, value in counters.items():
                    print(f"  {key}: {value}")
    if args.trace and result.trace is not None:
        trace = result.trace
        print(f"  initial state: { {v: int(b) for v, b in sorted(trace.initial_state.items())} }")
        for frame, inputs in enumerate(trace.inputs):
            print(f"  inputs@{frame}: { {v: int(b) for v, b in sorted(inputs.items())} }")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    from .obs.logcfg import configure_logging

    configure_logging(args.verbose)

    if args.list_engines:
        for name, engine_cls in ENGINES.items():
            doc = next(iter((engine_cls.__doc__ or "").strip().splitlines()), "")
            print(f"{name:12s} {doc}")
        return 0
    if args.seed is not None and not args.list_instances:
        parser.print_usage(sys.stderr)
        print("error: --seed only applies to --list-instances",
              file=sys.stderr)
        return 3
    if args.list_instances:
        # Deferred: only this mode needs the registry.
        from .circuits import full_suite, fuzz_instance

        instances = list(full_suite())
        if args.seed is not None:
            listed = {inst.name for inst in instances}
            for seed in args.seed:
                if seed < 0:
                    print(f"error: --seed must be non-negative (got {seed})",
                          file=sys.stderr)
                    return 3
                instance = fuzz_instance(seed)
                if instance.name not in listed:
                    instances.append(instance)
        for instance in instances:
            model = instance.build()
            sizes = model.stats()
            depth = (f" depth={instance.expected_depth}"
                     if instance.expected_depth is not None else "")
            print(f"{instance.name:16s} {instance.category:10s} "
                  f"{instance.expected:4s}{depth:9s} "
                  f"PI={sizes['inputs']:<3d} FF={sizes['latches']:<3d} "
                  f"AND={sizes['ands']:<4d} {instance.description}")
            if instance.generator_params is not None:
                print(f"{'':16s} params: {instance.generator_params}")
        return 0
    if args.file is None:
        parser.print_usage(sys.stderr)
        print("error: an AIGER file is required (or --list-engines)",
              file=sys.stderr)
        return 3

    try:
        aig = read_aiger(args.file)
    except (OSError, AigerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        model = Model(aig, property_index=args.property, name=args.file)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.race and args.engine != "portfolio":
        parser.print_usage(sys.stderr)
        print("error: --race requires --engine portfolio", file=sys.stderr)
        return 3
    if args.jobs is not None:
        if not args.race:
            parser.print_usage(sys.stderr)
            print("error: --jobs only applies to --race", file=sys.stderr)
            return 3
        if args.jobs < 0:
            parser.print_usage(sys.stderr)
            print("error: --jobs must be >= 0 (0 = all cores)",
                  file=sys.stderr)
            return 3

    preprocess_passes = None
    if args.passes is not None:
        if not args.preprocess:
            parser.print_usage(sys.stderr)
            print("error: --passes conflicts with --no-preprocess",
                  file=sys.stderr)
            return 3
        preprocess_passes = tuple(n for n in args.passes.split(",") if n)

    try:
        options = EngineOptions(max_bound=args.max_bound,
                                time_limit=args.time_limit,
                                preprocess=args.preprocess,
                                preprocess_passes=preprocess_passes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    tracer = None
    if args.events is not None and not args.race:
        from .obs.sinks import JsonlSink
        from .obs.tracer import Tracer

        tracer = Tracer(JsonlSink(args.events))
    try:
        if args.engine == "portfolio":
            # The race builds per-worker tracers from the base path itself
            # (tracers hold live sinks and never cross process boundaries).
            result = Portfolio(options=options).run_first_solved(
                model, parallel=args.race, jobs=args.jobs, tracer=tracer,
                events_path=args.events if args.race else None)
        else:
            result = run_engine(args.engine, model, options, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()
    _print_result(result, args)
    return _EXIT_BY_VERDICT[result.verdict.value]


if __name__ == "__main__":
    sys.exit(main())
