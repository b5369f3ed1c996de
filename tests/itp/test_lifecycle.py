"""Tests for the interpolant lifecycle: trimmed proofs, cone compaction,
and the persistent fixpoint checker.

The acceptance-critical property lives here: every reduced refutation must
still yield interpolants that pass the independent semantic checks of
:mod:`repro.itp.verify` — for both interpolation systems, against both the
reduced and the raw proof's clause sets.
"""

import random

import pytest

from repro.aig.ops import cone_size
from repro.bmc.checks import BmcCheckKind, build_check
from repro.circuits import quick_suite
from repro.core.base import implies
from repro.core.fixpoint import FixpointChecker
from repro.itp import (
    InterpolantBuilder,
    check_craig_conditions,
    check_sequence_conditions,
    compact_cone,
    extract_sequence,
    itp_support_vars,
)
from repro.sat.proof import check_proof, reduce_proof
from repro.sat.types import SatResult

_PASSING = [inst for inst in quick_suite() if inst.expected == "pass"]


def _refuted_check(instance, k=3):
    model = instance.build()
    unroller = build_check(BmcCheckKind.ASSUME, model, k, proof_logging=True)
    assert unroller.solver.solve() is SatResult.UNSAT
    return model, unroller


# --------------------------------------------------------------------- #
# Trimmed proofs through itp/verify.py
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("instance", _PASSING, ids=lambda i: i.name)
@pytest.mark.parametrize("system", ["mcmillan", "pudlak"])
def test_trimmed_proofs_yield_verified_interpolants(instance, system):
    model, unroller = _refuted_check(instance)
    raw = unroller.solver.proof()
    reduced, _ = reduce_proof(raw)
    check_proof(reduced)
    cut_map = unroller.cut_var_map(1)
    builder = InterpolantBuilder(model.aig, cut_map, system=system)
    itp = builder.extract(reduced, a_partitions=[1])
    # Craig conditions hold for the reduced proof's clause sets...
    ok_a, ok_b = check_craig_conditions(reduced, [1], itp, model.aig, cut_map)
    assert ok_a and ok_b, instance.name
    # ...and for the raw (full) formulas the solver actually refuted.
    ok_a, ok_b = check_craig_conditions(raw, [1], itp, model.aig, cut_map)
    assert ok_a and ok_b, instance.name
    # Support stays within the cut.
    cut_leaves = {lit >> 1 for lit in cut_map.values()}
    assert itp_support_vars(model.aig, itp) <= cut_leaves


@pytest.mark.parametrize("instance", _PASSING[:4], ids=lambda i: i.name)
def test_trimmed_proofs_yield_verified_sequences(instance):
    k = 3
    model, unroller = _refuted_check(instance, k)
    reduced, _ = reduce_proof(unroller.solver.proof())
    cut_maps = {j: unroller.cut_var_map(j) for j in range(1, k + 1)}
    sequence = extract_sequence(reduced, k + 1, cut_maps, model.aig)
    assert check_sequence_conditions(reduced, sequence.elements, cut_maps,
                                     model.aig), instance.name


# --------------------------------------------------------------------- #
# Cone compaction
# --------------------------------------------------------------------- #
def _random_cone(aig, leaves, rng, ops=40):
    lits = list(leaves)
    for _ in range(ops):
        a, b = rng.choice(lits), rng.choice(lits)
        if rng.random() < 0.5:
            a ^= 1
        if rng.random() < 0.5:
            b ^= 1
        lits.append(aig.op_or(a, b) if rng.random() < 0.5
                    else aig.add_and(a, b))
    return lits[-1]


def test_compact_cone_preserves_function_and_never_grows():
    from repro.aig import Aig

    rng = random.Random(3)
    for trial in range(20):
        aig = Aig()
        leaves = [aig.add_input(f"x{i}") for i in range(5)]
        lit = _random_cone(aig, leaves, rng)
        compaction = compact_cone(aig, lit)
        assert compaction.ands_after <= compaction.ands_before
        assert compaction.saved == compaction.ands_before - compaction.ands_after
        assert cone_size(aig, compaction.lit) == compaction.ands_after or \
            compaction.lit == lit
        # Semantic equivalence, both directions, by one-shot SAT checks.
        assert implies(aig, lit, compaction.lit), trial
        assert implies(aig, compaction.lit, lit), trial


def test_compact_cone_merges_duplicated_associations():
    from repro.aig import Aig

    aig = Aig()
    a, b, c, d = (aig.add_input(n) for n in "abcd")
    left = aig.add_and(aig.add_and(a, b), aig.add_and(c, d))
    right = aig.add_and(aig.add_and(a, d), aig.add_and(b, c))
    both = aig.add_and(left, right)  # semantically a & b & c & d, twice
    compaction = compact_cone(aig, both)
    assert compaction.saved > 0
    assert compaction.ands_after == 3  # one sorted chain over four leaves


def test_compact_cone_keeps_constants_and_leaves():
    from repro.aig import Aig, TRUE, FALSE

    aig = Aig()
    x = aig.add_input("x")
    for lit in (TRUE, FALSE, x, x ^ 1):
        compaction = compact_cone(aig, lit)
        assert compaction.lit == lit
        assert compaction.saved == 0


# --------------------------------------------------------------------- #
# FixpointChecker
# --------------------------------------------------------------------- #
def test_fixpoint_checker_matches_one_shot_implies():
    from repro.aig import Aig

    rng = random.Random(9)
    aig = Aig()
    leaves = [aig.add_input(f"x{i}") for i in range(4)]
    checker = FixpointChecker(aig)
    for trial in range(30):
        lhs = _random_cone(aig, leaves, rng, ops=15)
        rhs = _random_cone(aig, leaves, rng, ops=15)
        expected = implies(aig, lhs, rhs)
        got = checker.implies(lhs, rhs)
        assert got is not SatResult.UNKNOWN
        assert (got is SatResult.UNSAT) == expected, trial


def test_fixpoint_reuse_counts_the_cached_gates_a_check_reads():
    """The reuse count is the boundary between a check's new gates and the
    cache: cached AND fanins of new gates, plus a cached AND root."""
    from repro.aig import Aig

    aig = Aig()
    a, b, c, d = (aig.add_input(name) for name in "abcd")
    checker = FixpointChecker(aig)
    left, right = aig.add_and(a, b), aig.add_and(c, d)
    reached = aig.add_and(left, right)
    checker.implies(a, reached)            # encodes three gates, reads none
    assert checker.encodings_reused == 0
    wider = aig.add_and(reached, aig.add_and(a, c))
    checker.implies(wider, reached)        # two new gates read `reached`
    assert checker.encodings_reused == 1
    checker.implies(left, right)           # both roots cached outright
    assert checker.encodings_reused == 3


def test_fixpoint_checker_reuses_accumulated_encodings():
    """The R-accumulation pattern: each check re-encodes only the new cone."""
    from repro.aig import Aig

    rng = random.Random(5)
    aig = Aig()
    leaves = [aig.add_input(f"x{i}") for i in range(4)]
    checker = FixpointChecker(aig)
    reached = _random_cone(aig, leaves, rng, ops=10)
    total_cone_gates = 0
    for _ in range(6):
        itp = _random_cone(aig, leaves, rng, ops=10)
        checker.implies(itp, reached)
        total_cone_gates += cone_size(aig, reached)
        reached = aig.op_or(reached, itp)
    # Far more gate encodings were served from the cache than a throwaway
    # solver sequence would ever share (which shares none).
    assert checker.encodings_reused > 0
    assert checker.checks == 6
    # The solver never saw more clause additions than one full re-encoding
    # of everything plus the per-check constraints.
    assert checker.solver.stats.clauses_added < 3 * total_cone_gates


def test_fixpoint_checker_survives_interleaved_aig_growth():
    """Cones built *after* earlier checks encode incrementally and stay
    consistent with the cached prefix."""
    from repro.aig import Aig, lit_negate

    aig = Aig()
    x, y = aig.add_input("x"), aig.add_input("y")
    checker = FixpointChecker(aig)
    assert checker.implies(aig.add_and(x, y), x) is SatResult.UNSAT
    grown = aig.op_or(aig.add_and(x, y), aig.add_and(x, lit_negate(y)))
    # grown == x, so containment holds in both directions.
    assert checker.implies(grown, x) is SatResult.UNSAT
    assert checker.implies(x, grown) is SatResult.UNSAT
    # And a non-implication still answers SAT.
    assert checker.implies(x, aig.add_and(x, y)) is SatResult.SAT
