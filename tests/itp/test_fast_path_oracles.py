"""The two exact fast paths of the interpolant lifecycle, against references.

* ``InterpolantBuilder._mcmillan`` takes a resolution step with an identity
  operand (⊥ for ∨, ⊤ for ∧) inline instead of calling ``Aig.add_and``.
  :func:`reference_mcmillan` is the rule loop that always calls
  ``add_and``; on a copy of the AIG it must return the same literal and
  leave the same gate table, in the same order.
* The engines keep one rewrite map per AIG across ``compact_cone`` calls.
  A compaction with a fresh map on a copy of the AIG must return the same
  :class:`~repro.itp.compact.ConeCompaction` and leave the same gates.

Both are checked on every extraction and compaction the four interpolating
engines make over ``quick_suite()``, as the engines call them.
"""

import pytest

import repro.core.base as base
from repro.aig.aig import TRUE
from repro.circuits import quick_suite
from repro.core import EngineOptions, run_engine
from repro.itp.compact import compact_cone
from repro.itp.craig import InterpolantBuilder

ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba")


def reference_mcmillan(aig, builder, core, cut):
    """McMillan's rules with every step through ``aig.add_and``."""
    add_and = aig.add_and
    hi = core.spans.hi
    beyond = core.spans.beyond
    partial = {}
    identity_steps = 0
    for node, reach in zip(core.nodes, core.reach):
        if reach > cut:
            continue
        chain = node.chain
        if not chain:
            out = TRUE
            for lit in node.clause.literals:
                var = abs(lit)
                if hi[var] > cut:
                    out = add_and(out, builder._aig_var(var) ^ (lit > 0))
            partial[node.clause_id] = out ^ 1
            continue
        current = partial.get(chain[0][1], TRUE)
        for pivot, antecedent_id in chain[1:]:
            other = partial.get(antecedent_id, TRUE)
            if hi.get(pivot, beyond) <= cut:
                identity_steps += 0 in (current, other)
                current = add_and(current ^ 1, other ^ 1) ^ 1
            else:
                identity_steps += TRUE in (current, other)
                current = add_and(current, other)
        partial[node.clause_id] = current
    return partial.get(core.root_id, TRUE), identity_steps


def _gates(aig):
    return [(gate.var, gate.left, gate.right) for gate in aig.iter_and_gates()]


def _run_quick_suite(engine):
    for instance in quick_suite():
        result = run_engine(engine, instance.build(),
                            EngineOptions(max_bound=20))
        assert result.verdict.value == instance.expected, instance.name


@pytest.mark.parametrize("engine", ENGINES)
def test_mcmillan_matches_the_add_and_replay(monkeypatch, engine):
    mcmillan = InterpolantBuilder._mcmillan
    seen = {"extractions": 0, "identity_steps": 0}

    def checked(self, core, cut):
        reference_aig = self.aig.copy()
        want, identity_steps = reference_mcmillan(reference_aig, self, core,
                                                  cut)
        got = mcmillan(self, core, cut)
        assert got == want
        assert _gates(self.aig) == _gates(reference_aig)
        seen["extractions"] += 1
        seen["identity_steps"] += identity_steps
        return got

    monkeypatch.setattr(InterpolantBuilder, "_mcmillan", checked)
    _run_quick_suite(engine)
    assert seen["extractions"] > 0 and seen["identity_steps"] > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_kept_rewrite_map_matches_fresh_compaction(monkeypatch, engine):
    seen = {"compactions": 0, "kept_entries": 0}
    owners = []

    def checked(aig, lit, rewrite_map=None):
        assert rewrite_map is not None
        # One map per AIG: a map never serves a second AIG.
        for owner, kept in owners:
            assert (owner is aig) == (kept is rewrite_map)
        if not any(kept is rewrite_map for _, kept in owners):
            owners.append((aig, rewrite_map))
        reference_aig = aig.copy()
        want = compact_cone(reference_aig, lit)
        seen["kept_entries"] += len(rewrite_map)
        got = compact_cone(aig, lit, rewrite_map)
        assert got == want
        assert _gates(aig) == _gates(reference_aig)
        seen["compactions"] += 1
        return got

    monkeypatch.setattr(base, "compact_cone", checked)
    _run_quick_suite(engine)
    assert seen["compactions"] > 0 and seen["kept_entries"] > 0


def test_a_replaced_aig_starts_a_fresh_map():
    """What CBA's refinement does to its abstract AIG, done by hand: the
    engine's map follows the AIG object it compacts into.  The second AIG
    numbers its gates differently, so the first one's map would mislead."""
    from repro.core.portfolio import ENGINES

    engine = ENGINES["itpseq"](quick_suite()[0].build())
    aigs, cones = [], []
    for extra_gate in (False, True):
        aig = engine.model.aig.copy()
        a, b, c = (aig.add_input() for _ in range(3))
        if extra_gate:
            aig.add_and(a, c ^ 1)
        cones.append(aig.add_and(aig.add_and(a, b), aig.add_and(b, c)))
        aigs.append(aig)
    expected = [compact_cone(aig.copy(), cone) for aig, cone in zip(aigs, cones)]
    assert expected[0].lit != expected[1].lit and expected[0].saved > 0
    assert engine._register_interpolant(aigs[0], cones[0]) == expected[0].lit
    kept = engine._rewrite_map
    assert kept and engine._rewrite_aig is aigs[0]
    assert engine._register_interpolant(aigs[1], cones[1]) == expected[1].lit
    assert engine._rewrite_aig is aigs[1] and engine._rewrite_map is not kept
    assert engine.stats.itp_nodes == sum(e.ands_after for e in expected)
    assert engine.stats.itp_ands_compacted == sum(e.saved for e in expected)
