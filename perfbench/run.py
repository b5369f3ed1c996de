"""Run one workload of the benchmark and print every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload itp_deep --seed 1 --seconds 30 --trace 0

One process, one thread, one client: cells run back to back (a closed
loop), in passes over every cell of the workload.  ``--seconds`` sets how
much work a run measures: ``floor(seconds / NOMINAL_PASS_S[workload])``
passes, at least one.  Every cell's answer is checked against the suite's
recorded verdict and depth, or the fuzz seed's planted oracle, and every
counterexample must replay on the unreduced circuit.

``--trace 0`` reports the end-to-end metrics from untraced passes, their
times at the reference speed of :mod:`speed`.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of :mod:`layers`; the traced passes must answer exactly
as the untraced ones (same fingerprint).

The report lists one row per cell (median time and deterministic
counters), the workload's behaviour fingerprint and every metric with its
unit.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
answer was right and 1 when one was wrong.  It is 2, with no result
printed, when the checkout holds no program to measure or a layer entry
point the tracer wraps is gone.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import layers
import speed
import workloads as wl

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_PROBES = 9
#: Seconds one pass over every cell of a workload takes on the reference
#: machine (one 2-core x86-64 VM, CPython 3.11).  A run makes as many whole
#: passes as fit in ``--seconds`` at this pace, at least one: a fixed amount
#: of work, so every run pools the same number of samples and the tail
#: percentile means the same thing on every run and machine.
NOMINAL_PASS_S = {"itp_deep": 15.0, "pdr_deep": 2.5, "fuzz_small": 17.0}
#: The tail cell time is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

#: The gated end-to-end metrics and their units.
END_TO_END_UNITS = {"setup_s": "s", "suite_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str) -> float:
    """Median time, at the reference speed, from starting a fresh process
    until it has imported repro and built every model of the workload."""
    probe = Path(__file__).resolve().with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run([sys.executable, str(probe), workload],
                              check=True, capture_output=True, text=True,
                              timeout=120)
        ended, spent, factor = map(float, done.stdout.split()[-3:])
        times.append(speed.at_reference(ended - started - spent, factor))
    return statistics.median(times)


def tail(times: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond it)`` of the highest percentile
    with :data:`TAIL_BEYOND` samples beyond it; the maximum when there are
    not that many samples."""
    ordered = sorted(times)
    index = len(ordered) - 1
    if index >= TAIL_BEYOND:
        index -= TAIL_BEYOND
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - 1 - index)


def run_passes(cells, models, options, rng, rounds: int, tracer=None,
               sampler=None) -> Tuple[List[wl.PassRecord], List[wl.PassRecord],
                                      List[Dict[str, float]]]:
    """Run ``rounds`` untraced passes: ``(untraced, traced, layer metrics per
    traced pass)``.  With a tracer, each untraced pass is followed by a
    traced one; with a sampler, the untraced passes sample the host speed."""
    untraced: List[wl.PassRecord] = []
    traced: List[wl.PassRecord] = []
    layer_passes: List[Dict[str, float]] = []
    for _ in range(rounds):
        untraced.append(wl.run_pass(cells, models, options, rng,
                                    sampler=sampler))
        if tracer is None:
            continue
        with tracer:
            tracer.reset()
            record = wl.run_pass(cells, models, options, rng, tracer=tracer)
        traced.append(record)
        layer_passes.append(tracer.pass_metrics(
            [(cell.engine, st) for cell, st in record.stats.items()
             if st is not None]))
    return untraced, traced, layer_passes


def print_cells(cells, records: Sequence[wl.PassRecord]) -> None:
    """One row per cell: median time over passes and its counters."""
    print(f"{'cell':<28} {'median_s':>10}  verdict  k_fp j_fp "
          f"{'clauses':>9} {'effort':>9}  check")
    for cell in cells:
        outcome = records[0].outcomes[cell]
        median = statistics.median(r.times[cell] for r in records)
        k = "-" if outcome.k_fp is None else outcome.k_fp
        j = "-" if outcome.j_fp is None else outcome.j_fp
        print(f"{cell.label():<28} {median:>10.4f}  {outcome.verdict:<7} "
              f"{k:>4} {j:>4} {outcome.clauses_added:>9} {outcome.effort:>9}  "
              f"{outcome.problem or 'ok'}")


def check_answers(records: Sequence[wl.PassRecord]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every cell of every pass,
    including a fingerprint that differs between passes."""
    attempted = failed = 0
    problems: List[str] = []
    for record in records:
        for cell, outcome in record.outcomes.items():
            attempted += 1
            if outcome.problem is not None:
                failed += 1
                problems.append(f"{cell.label()}: {outcome.problem}")
    prints = {wl.fingerprint(r.outcomes) for r in records}
    if len(prints) > 1:
        problems.append(f"passes answered differently: fingerprints {sorted(prints)}")
    return attempted, failed, problems


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def end_to_end(setup_s: float, untraced: Sequence[wl.PassRecord]
               ) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of the untraced passes.

    ``suite_s`` is the median pass at the reference speed.  Wall clock
    alone follows the shared host's drift: over ten runs on a 2-core VM the
    fastest raw pass of ``itp_deep`` and ``pdr_deep`` spread by 22-34%
    (IQR/median).  The raw passes and the median and tail cell times are
    printed but not gated: on ``itp_deep`` the cell times fall in gaps
    between clusters, and they swung by up to 31% and 29% between runs.
    """
    pooled = [t for r in untraced for t in r.times.values()]
    tail_s, percentile, beyond = tail(pooled)
    raw = [r.seconds for r in untraced]
    print(f"raw pass = {min(raw)!r} .. {max(raw)!r} s (not gated), speed "
          f"factor median {statistics.median(r.speed for r in untraced)!r}")
    print(f"verdict_p50_s = {statistics.median(pooled)!r} s (not gated)")
    print(f"verdict_tail_s = {tail_s!r} s (not gated): p{percentile:.2f} of "
          f"{len(pooled)} cell times, {beyond} beyond it")
    values = {
        "setup_s": setup_s,
        "suite_s": statistics.median(r.reference_seconds for r in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(untraced: Sequence[wl.PassRecord], traced: Sequence[wl.PassRecord],
              layer_passes: Sequence[Dict[str, float]]
              ) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of the traced passes, with the tracing overhead."""
    print(f"fingerprint traced = {wl.fingerprint(traced[0].outcomes)} "
          f"({len(traced)} traced passes)")
    untraced_s = min(r.seconds for r in untraced)
    traced_s = min(r.seconds for r in traced)
    values = layers.median_metrics(layer_passes)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    # Self times partition the traced cells' time (fraig is part of passes).
    timed = {name: values[name] for name, unit in layers.METRICS
             if unit == "s" and name != "preprocess.fraig_s"}
    total = sum(timed.values())
    for name, value in timed.items():
        print(f"share {name} = {100.0 * value / total:.1f}% of {total:.3f} s "
              f"in traced cells")
    return {name: (values[name], unit) for name, unit in layers.METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl.prepare_imports()
        options = wl.engine_options()
    except wl.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cells = wl.workload_cells(args.workload)
    models = wl.build_models(cells)
    rng = random.Random(f"perfbench-order:{args.seed}")
    print(f"workload {args.workload} seed {args.seed}: {len(cells)} cells, "
          f"budgets max_clauses={options.max_clauses} "
          f"max_propagations={options.max_propagations}, "
          f"BMC depth {wl.BMC_DEPTH}")

    passes = max(1, math.floor(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        tracer = layers.LayerTracer()
        try:
            untraced, traced, layer_passes = run_passes(
                cells, models, options, rng, max(1, passes // 2), tracer)
        except layers.LayerError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    else:
        setup_s = measure_setup(args.workload)
        with speed.SpeedSampler() as sampler:
            untraced, traced, _ = run_passes(cells, models, options, rng,
                                             passes, sampler=sampler)

    records = untraced + traced
    print_cells(cells, records)
    print(f"fingerprint {args.workload} = {wl.fingerprint(untraced[0].outcomes)} "
          f"({len(untraced)} untraced passes)")
    attempted, failed, problems = check_answers(records)
    print(f"failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} cells)")
    if args.trace:
        metrics = per_layer(untraced, traced, layer_passes)
    else:
        metrics = end_to_end(setup_s, untraced)
    for problem in problems:
        print(f"WRONG {problem}")
    emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
