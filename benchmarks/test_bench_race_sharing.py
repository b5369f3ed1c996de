"""Benchmark: cooperative (lemma-sharing) race vs the blind race.

Both races use the deterministic in-process runner
(:func:`repro.share.cooperative_race`): same engines, same turnstile
schedule driven by the engines' own work counters, and the blind baseline
is the identical runner over a non-delivering bus — so the clause deltas
below isolate the effect of the shared lemmas from scheduling noise, and
the committed artefact regenerates byte-for-byte on any machine
(CI gates on ``git diff --exit-code benchmarks/results/``).

What the numbers show (and the committed table records honestly):

* On counterexample instances the cooperative race is a large win
  (>= 25% fewer total clause additions), and the saving is in the
  losers.  The UMC engines' "no counterexample up to depth d" facts let
  BMC skip the solves at every depth a peer already refuted.  BMC's own
  clause count does not move (``extend_to`` encodes every skipped frame
  at the next uncovered depth: 172 in both races on mutexbug, 586 on
  ctrldp08bug), but it reaches the failure in fewer turns, so the race
  stops the other engines earlier: itp, itpseq and sitpseq add 93
  clauses instead of 178 on mutexbug, and itpseqcba, which imports
  nothing, 227 instead of 884 on ctrldp08bug.
* On deep PASS cells (the ring/arb family) the gains are real but small
  (single digits).  The winner there is standard interpolation at k=1,
  and no answer-sound import can shorten its fixpoint argument: lemmas
  only ever reach the proof-free counterexample searcher, never the
  refutations interpolants come from.  The original >= 25% target for
  these cells is structurally out of reach for answer-sound sharing;
  the no-harm bound is what is asserted there.
* Everywhere else sharing is at worst scheduling noise, bounded below by
  ``blind * 1.05 + 150`` (the absolute slack covers tiny cells where a
  single re-queued proof obligation is already several percent).
"""

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import get_instance
from repro.core import EngineOptions
from repro.harness import format_table
from repro.share import cooperative_race

pytestmark = pytest.mark.benchmark(group="race_sharing")

#: Cells whose cooperative run must beat blind by at least this much —
#: the counterexample instances, where BMC skips the solves at
#: peer-refuted depths and so ends the race before the losers spend as
#: much (measured: +27.0% and +43.0%).
_GAIN_CELLS = {"mutexbug": 25.0, "indF4_ctrldp08bug": 25.0}

#: The full bench family: deep PASS cells first, then the
#: counterexample cells, then the small PASS cells.
_CELLS = [
    "indA1_ring12", "indA2_ring16", "indB1_arb08",
    "mutexbug", "indF4_ctrldp08bug",
    "ring04", "arb03", "mutex", "traffic1", "parity03", "queue02",
    "modcnt06", "cnt08", "indC1_pipe08", "indE1_lock05", "indF1_ctrldp08",
]


def test_race_sharing_artifact(save_artifact):
    """Cooperative vs blind race: verdict identity, no-harm, gains."""
    options = EngineOptions(max_bound=30, time_limit=None,
                            max_clauses=CLAUSE_BUDGET,
                            max_propagations=PROP_BUDGET)
    rows = []
    blind_total = coop_total = 0
    for name in _CELLS:
        instance = get_instance(name)
        blind = cooperative_race(instance.build(), options=options,
                                 share=False)
        coop = cooperative_race(instance.build(), options=options,
                                share=True)

        # Sharing must never change the answer: both races reach the
        # expected verdict for the cell.
        assert blind.result.verdict.value == instance.expected, name
        assert coop.result.verdict.value == instance.expected, name

        # No-harm bound: the relative tolerance absorbs turn-schedule
        # drift, the absolute slack keeps tiny cells (hundreds of
        # clauses) from failing on single re-queued obligations.
        assert coop.clauses_total <= blind.clauses_total * 1.05 + 150, name

        gain = (100.0 * (blind.clauses_total - coop.clauses_total)
                / max(blind.clauses_total, 1))
        floor = _GAIN_CELLS.get(name)
        if floor is not None:
            assert gain >= floor, (name, gain)

        blind_total += blind.clauses_total
        coop_total += coop.clauses_total
        rows.append([name, instance.expected, blind.winner,
                     blind.clauses_total, coop.winner, coop.clauses_total,
                     f"{gain:+.1f}%"])

    # The suite as a whole must come out ahead.
    assert coop_total < blind_total
    total_gain = 100.0 * (blind_total - coop_total) / blind_total
    rows.append(["TOTAL", "-", "-", blind_total, "-", coop_total,
                 f"{total_gain:+.1f}%"])

    table = format_table(
        ["instance", "expected", "blind_winner", "blind_clauses",
         "coop_winner", "coop_clauses", "gain"],
        rows,
        title="cooperative race vs blind race "
              "(total clause additions, all workers)")
    save_artifact("race_sharing.txt", table + "\n" + _NOTES)


_NOTES = """\
notes:
  * Both columns come from the deterministic in-process runner
    (repro.share.cooperative_race); blind = same turnstile schedule over
    a non-delivering bus, so the deltas isolate the lemmas themselves.
  * Counterexample cells that BMC wins gain >= 25%, all of it in the
    losers.  Foreign "no cex up to d" facts let BMC skip the solves at
    peer-refuted depths; its clauses do not move (extend_to encodes the
    skipped frames at the next uncovered depth), but it reaches the
    failure in fewer turns and the race stops the losers earlier.
  * Cells that PDR wins end when PDR's work clock does.  Skipped
    counterexample-search solves (the searcher never extends its
    unrolling past an imported depth fact) advance the losers' clocks
    less, so they reach further bounds before PDR finishes and may add
    more clauses: these cells land on either side of blind, and the
    no-harm bound is the asserted property there.
  * Deep ring/arb PASS cells stay low single-digit: their winner is
    standard interpolation at k=1 and no answer-sound import can shorten
    its fixpoint proof (lemmas reach only the proof-free searcher, never
    the refutations interpolants come from).  The no-harm bound is the
    asserted property there.
  * PDR and CBA export lemmas but import none: a foreign clause in
    PDR's frames or CBA's abstraction cores would change their
    trajectories.
"""
