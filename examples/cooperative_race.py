#!/usr/bin/env python3
"""A cooperative race: six engines share lemmas instead of racing blind.

Run with:  python examples/cooperative_race.py

A blind race recomputes everything N times: every depth one worker
refutes, every other worker refutes again.  The cooperative race
publishes each refuted depth as a typed fact over the share bus
(``repro.share.lemma.DepthLemma``: "no counterexample up to depth d"),
and every engine that runs a counterexample search imports it at its
next bound boundary and skips the searches it already decides.

This walkthrough uses the deterministic in-process runner
(``repro.share.cooperative_race``): same engines and the same turnstile
schedule with sharing on and off, so the clause-count delta you see is
the effect of the lemmas themselves, not scheduling luck.
"""

from repro.circuits import get_instance
from repro.core import EngineOptions
from repro.share import cooperative_race

# A counterexample instance: sharing shines on FAIL cells, where the UMC
# engines' refuted-depth facts let BMC skip straight to the failure depth.
INSTANCE = "mutexbug"


def main() -> None:
    instance = get_instance(INSTANCE)
    model = instance.build()
    options = EngineOptions(max_bound=30, time_limit=None)

    print(f"model: {model.name} ({model.num_latches} latches), "
          f"expected verdict: {instance.expected}")

    # -- Blind baseline: identical schedule, zero lemma traffic. ------------
    blind = cooperative_race(instance.build(), options=options, share=False)
    print(f"\nblind race:       {blind.result.verdict.value} via "
          f"{blind.winner}, {blind.clauses_total} clauses added in total")

    # -- Cooperative: same turnstile, lemmas delivered. ---------------------
    coop = cooperative_race(instance.build(), options=options, share=True)
    gain = 100.0 * (blind.clauses_total - coop.clauses_total) \
        / blind.clauses_total
    print(f"cooperative race: {coop.result.verdict.value} via "
          f"{coop.winner}, {coop.clauses_total} clauses added in total "
          f"({gain:+.1f}%)")

    # The determinism guarantee: sharing never changes the answer.
    assert coop.result.verdict == blind.result.verdict

    # -- Who shared what: the per-engine traffic ledger. --------------------
    print("\nper-engine clauses and lemma traffic "
          "(tx = published, rx = imported):")
    for name in sorted(coop.results):
        stats, before = coop.results[name].stats, blind.results[name].stats
        print(f"  {name:10s} {coop.results[name].verdict.value:9s} "
              f"clauses {before.clauses_added:6d} -> "
              f"{stats.clauses_added:6d} tx={stats.lemmas_tx:3d} "
              f"rx={stats.lemmas_rx:3d} "
              f"skipped_solves={stats.share_solves_skipped}")

    print("\nNotes:")
    print(" * sharing is answer-preserving by construction: verdict, "
          "k_fp and j_fp are identical share-on vs share-off for every "
          "engine")
    print(" * the multi-process `python -m repro design.aag --engine "
          "portfolio --race` is always blind")
    print(" * the committed cooperative-vs-blind table is "
          "benchmarks/results/race_sharing.txt — counterexample cells "
          "gain >= 25%, deep interpolation-won cells are documented as "
          "no-harm only")


if __name__ == "__main__":
    main()
