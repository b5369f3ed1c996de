#!/usr/bin/env python3
"""The preprocessing pipeline from the inside: passes, maps and lift-back.

The example walks the pipeline over the redundant-logic family (the
scenario class preprocessing exists for), narrating what each pass does:

1. cone-of-influence reduction on a counter dragging an 8-latch *dead
   cone* — logic feeding a primary output the property never observes;
2. ternary-simulation sweeping on a counter polluted through *stuck*
   latches: COI alone keeps everything (the polluting network sits in the
   property cone); the sweep proves the gating latches never leave 0,
   substitutes the constant, and a second COI pass then harvests the
   disconnected churn latches;
3. structural rewriting on a shift register whose pattern matcher is
   instantiated three times under different gate associations: flattening
   and the sorted chain rebuild normalise the copies, and structural
   hashing merges them;
4. the full pipeline inside an interpolation engine run, and its
   end-to-end effect on the deterministic clause counters;
5. a counterexample found on the *reduced* model, lifted back through the
   composed :class:`~repro.preprocess.ModelMap` and replayed on the raw
   circuit.

Run with:  python examples/preprocess_walkthrough.py
"""

from repro.circuits import dead_cone_counter, duplicated_pattern, stuck_gate_counter
from repro.core import EngineOptions, run_engine
from repro.preprocess import CoiPass, RewritePass, SweepPass, build_pipeline


def sizes(model):
    stats = model.stats()
    return f"{stats['inputs']} PI, {stats['latches']} FF, {stats['ands']} AND"


def banner(text):
    print()
    print(f"=== {text}")


def main():
    banner("1. Cone of influence: the dead cone vanishes wholesale")
    model = dead_cone_counter(4, 8)
    print(f"    raw model: {sizes(model)}")
    result = CoiPass().apply(model)
    print(f"    after COI: {sizes(result.model)}")
    print("    the 8 junk latches and their private inputs fed an output the")
    print("    property never reads - the pass dropped them without a single")
    print("    solver query.")

    banner("2. Ternary sweeping: constants COI cannot see")
    model = stuck_gate_counter(4, 4)
    print(f"    raw model: {sizes(model)}")
    coi_only = CoiPass().apply(model)
    print(f"    after COI alone: {sizes(coi_only.model)}  (nothing! the "
          "corrupt network is in the cone)")
    swept = SweepPass().apply(model)
    print(f"    after sweep: {sizes(swept.model)}  (stuck latches proved "
          "constant-0 and substituted)")
    harvested = CoiPass().apply(swept.model)
    print(f"    sweep + second COI: {sizes(harvested.model)}  (churn latches "
          "disconnected and dropped)")

    banner("3. Rewriting: duplicated matchers normalise and merge")
    model = duplicated_pattern(6, 3)
    print(f"    raw model: {sizes(model)}  (3 structurally distinct copies "
          "of one conjunction)")
    rewritten = RewritePass().apply(model)
    print(f"    after rewrite: {sizes(rewritten.model)}  (one sorted chain, "
          "shared by hashing)")

    banner("4. The full pipeline inside an engine run")
    for preprocess in (False, True):
        result = run_engine("itpseq", stuck_gate_counter(4, 4),
                            EngineOptions(preprocess=preprocess))
        label = "preprocessed" if preprocess else "raw        "
        print(f"    {label}: verdict={result.verdict.value} "
              f"clauses_added={result.stats.clauses_added:6d} "
              f"ands_removed={result.stats.pre_ands_removed}")
    print("    same verdict, same fixpoint - the solver just paid for less.")

    banner("5. Lift-back: the counterexample replays on the RAW circuit")
    model = stuck_gate_counter(4, 4, target=5)
    pipeline = build_pipeline().run(model)
    print(f"    reduced model: {sizes(pipeline.model)} (from {sizes(model)})")
    result = run_engine("pdr", model, EngineOptions())
    trace = result.trace
    print(f"    engine verdict: {result.verdict.value} at depth {result.k_fp}")
    print(f"    lifted trace pins {len(trace.initial_state)} original latches "
          f"and {len(trace.inputs[0])} original inputs per frame")
    print(f"    replay on the raw model: "
          f"{'VIOLATION REPRODUCED' if trace.check(model) else 'BROKEN'}")


if __name__ == "__main__":
    main()
