"""Paired benchmark runs: ``python -m repro.obs.bench``.

Runs the benchmark (``perfbench/run.py``) of two checkouts — a parent and
a change — alternately, one pair per seed, and writes one JSON file with
every run and a summary per workload and metric::

    python -m repro.obs.bench --parent ../parent --change . \\
        --workload itp_deep --seeds 101-110 --seconds 30 --out BENCH_26.json

Pair ``i`` runs the parent first when ``i`` is even and the change first
when it is odd, so a host that drifts over minutes favours neither side.
Each run's last JSON line gives its metrics and answer counts, its
``fingerprint <workload> = <hex>`` line its behaviour fingerprint, and its
``speed factor median`` the host-speed calibration the run applied.  Per
metric the summary holds both sides' median and quartiles and the pairs
the change won (a strictly better value, in the metric's direction from
the change checkout's ``BENCHMARK.json``; lower when it is not listed).
Several ``--workload`` options accumulate into one file; an existing
``--out`` file keeps the workloads this run does not measure.  Traced runs
(``--trace 1``, per-layer metrics) are filed as ``"<workload> traced"``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

__all__ = ["RunResult", "parse_run", "quartiles", "summarise", "parse_seeds",
           "main"]


@dataclass
class RunResult:
    """What one benchmark run printed."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    correct: bool
    attempted: int
    failed: int
    fingerprint: Optional[str] = None
    speed_factor: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {"metrics": self.metrics, "correct": self.correct,
                "attempted": self.attempted, "failed": self.failed,
                "fingerprint": self.fingerprint,
                "speed_factor": self.speed_factor}


def parse_run(output: str, workload: str) -> RunResult:
    """Parse one run's standard output.

    Raises :class:`ValueError` when the output holds no final JSON line.
    """
    lines = output.strip().splitlines()
    final = None
    for line in reversed(lines):
        if line.startswith("{"):
            final = json.loads(line)
            break
    if final is None:
        raise ValueError("no JSON result line in the benchmark output")
    fingerprint = speed_factor = None
    prefix = f"fingerprint {workload} = "
    for line in lines:
        if line.startswith(prefix):
            fingerprint = line[len(prefix):].split()[0]
        elif "speed factor median" in line:
            speed_factor = float(line.rsplit(" ", 1)[1])
    metrics = final["metrics"]
    return RunResult(
        metrics={name: entry["value"] for name, entry in metrics.items()},
        units={name: entry["unit"] for name, entry in metrics.items()},
        correct=bool(final["correct"]), attempted=int(final["attempted"]),
        failed=int(final["failed"]), fingerprint=fingerprint,
        speed_factor=speed_factor)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (inclusive method) and their IQR."""
    ordered = sorted(values)
    if len(ordered) == 1:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


@dataclass
class Pair:
    """One seed's parent and change runs."""

    seed: int
    first: str
    parent: RunResult
    change: RunResult


def summarise(pairs: Sequence[Pair],
              better: Optional[Dict[str, str]] = None) -> Dict[str, object]:
    """Per metric: both sides' quartiles, the median change and the pairs
    the change won; plus the fingerprints and answer counts seen."""
    better = better or {}
    summary: Dict[str, object] = {}
    names = [name for name in pairs[0].parent.metrics
             if all(name in p.parent.metrics and name in p.change.metrics
                    for p in pairs)]
    for name in names:
        lower = better.get(name, "lower") == "lower"
        parent = [p.parent.metrics[name] for p in pairs]
        change = [p.change.metrics[name] for p in pairs]
        wins = sum(1 for a, b in zip(parent, change)
                   if (b < a if lower else b > a))
        before, after = quartiles(parent), quartiles(change)
        summary[name] = {
            "unit": pairs[0].parent.units.get(name, ""),
            "better": "lower" if lower else "higher",
            "parent": before, "change": after,
            "median_delta": after["median"] - before["median"],
            "median_delta_frac": (after["median"] / before["median"] - 1.0
                                  if before["median"] else 0.0),
            "change_wins": wins, "pairs": len(pairs)}
    return {
        "metrics": summary,
        "fingerprints": {
            "parent": sorted({p.parent.fingerprint for p in pairs
                              if p.parent.fingerprint}),
            "change": sorted({p.change.fingerprint for p in pairs
                              if p.change.fingerprint})},
        "failed": {"parent": sum(p.parent.failed for p in pairs),
                   "change": sum(p.change.failed for p in pairs)},
        "all_correct": all(p.parent.correct and p.change.correct
                           for p in pairs),
    }


def parse_seeds(text: str) -> List[int]:
    """``"101-110"`` or ``"3,5,8"`` (or a mix) as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def _directions(checkout: Path) -> Dict[str, str]:
    """Metric name -> ``"lower"``/``"higher"`` from a ``BENCHMARK.json``."""
    path = checkout / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {entry["name"]: entry.get("better", "lower")
            for group in ("end_to_end", "per_layer")
            for entry in spec.get(group, ())}


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         trace: int) -> RunResult:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    # Each run imports its own checkout's ``src``, never the caller's.
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONPATH"}
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False, env=env)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{checkout}: {' '.join(command)} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return parse_run(done.stdout, workload)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Alternating parent/change benchmark pairs into one "
                    "JSON file.")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload (repeatable)")
    parser.add_argument("--seeds", required=True,
                        help="seeds, one pair each: '101-110' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    seeds = parse_seeds(args.seeds)
    better = _directions(args.change)
    doc: Dict[str, object] = {}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        pairs: List[Pair] = []
        for index, seed in enumerate(seeds):
            first = "parent" if index % 2 == 0 else "change"
            runs = {}
            for side in ((first, "change") if first == "parent"
                         else (first, "parent")):
                checkout = args.parent if side == "parent" else args.change
                runs[side] = _run(checkout, workload, seed, args.seconds,
                                  args.trace)
            pairs.append(Pair(seed, first, runs["parent"], runs["change"]))
            shown = [name for name in ("setup_s", "suite_s", "peak_rss_mb")
                     if name in runs["parent"].metrics] or ["proof.strip_s"]
            print(f"{workload} seed {seed} ({first} first): "
                  + ", ".join(f"{name} {runs['parent'].metrics[name]:.4g} -> "
                              f"{runs['change'].metrics[name]:.4g}"
                              for name in shown), flush=True)
        entry = summarise(pairs, better)
        entry.update({
            "seeds": seeds, "seconds": args.seconds, "trace": args.trace,
            "pairs": [{"seed": p.seed, "first": p.first,
                       "parent": p.parent.as_dict(),
                       "change": p.change.as_dict()} for p in pairs]})
        workloads[workload + (" traced" if args.trace else "")] = entry
    doc["python"] = platform.python_version()
    doc["platform"] = platform.platform()
    doc["cpus"] = os.cpu_count()
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
