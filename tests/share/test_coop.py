"""The deterministic cooperative runner: schedule reproducibility.

Two cooperative races of the same instance must agree on *everything* —
winner, total clause count and, per engine, verdict, fixpoint pair and
every deterministic counter (lemmas sent, received and retracted, solves
skipped, solver work) — on any machine and at any CPU count: the
turnstile grants turns by the engines' own work counters (propagations
plus weighted clause additions), never by wall time.
"""

from repro.circuits import get_instance
from repro.core import EngineOptions
from repro.share import cooperative_race


def _options():
    return EngineOptions(max_bound=20, time_limit=None,
                         max_clauses=2_000_000,
                         max_propagations=50_000_000)


def _counters(stats):
    """Every counter except ``sat_time``, the one wall-clock field."""
    row = stats.as_dict()
    del row["sat_time"]
    return row


def _snapshot(outcome):
    return {
        "winner": outcome.winner,
        "clauses_total": outcome.clauses_total,
        "results": {
            name: (result.verdict.value, result.k_fp, result.j_fp,
                   _counters(result.stats))
            for name, result in outcome.results.items()
        },
    }


def test_cooperative_race_is_deterministic():
    model = get_instance("arb03").build()
    first, second = (_snapshot(cooperative_race(model, options=_options()))
                     for _ in range(2))
    assert first == second
    assert first["winner"] is not None
    # The race really exchanged lemmas, so the identity covers imports.
    counters = [row[3] for row in first["results"].values()]
    assert sum(c["lemmas_tx"] for c in counters) > 0
    assert sum(c["lemmas_rx"] for c in counters) > 0


def test_cooperative_race_verdicts_match_expectations():
    for name in ("ring04", "mutexbug"):
        instance = get_instance(name)
        outcome = cooperative_race(instance.build(), options=_options())
        assert outcome.winner is not None, name
        assert outcome.result.verdict.value == instance.expected, name
        # Losers are synthesized OVERFLOW, never half-finished results.
        for engine, result in outcome.results.items():
            if engine != outcome.winner and not result.solved:
                assert result.message in ("cancelled: lost the race", "") \
                    or result.message


def test_blind_baseline_runs_same_cadence_without_traffic():
    model = get_instance("ring04").build()
    blind = cooperative_race(model, options=_options(), share=False)
    assert blind.winner is not None
    assert blind.result.verdict.value == "pass"
    # The blind bus drops publications before sequencing: nothing received.
    for result in blind.results.values():
        assert result.stats.lemmas_rx == 0


def test_cooperative_race_run_all_mode():
    # With first_result_wins=False nobody is cancelled: every UMC engine
    # keeps its own bound ladder and reports its own full convergence,
    # and wrong verdicts must never appear.
    model = get_instance("ring04").build()
    outcome = cooperative_race(model, options=_options(),
                               first_result_wins=False)
    solved = {name: r for name, r in outcome.results.items() if r.solved}
    assert len(solved) >= 5  # bmc alone reports UNKNOWN on a pass instance
    assert {r.verdict.value for r in solved.values()} == {"pass"}
