"""Tests for Craig interpolant extraction and interpolation sequences."""

import pytest

from repro.aig import Aig, FALSE, TRUE
from repro.bmc import build_bound_check, build_exact_check, build_assume_check
from repro.circuits import counter, modular_counter, parity_chain, token_ring, traffic_light
from repro.itp import (
    InterpolantBuilder,
    InterpolationError,
    InterpolationSequence,
    VarClass,
    check_craig_conditions,
    check_sequence_conditions,
    extract_sequence,
    itp_support_vars,
)
from repro.itp.labeling import PartitionSpans
from repro.sat import CdclSolver, SatResult


def _unsat_proof(clause_groups):
    """Solve a partition-labelled CNF expected to be UNSAT; return the proof."""
    solver = CdclSolver(proof_logging=True)
    for partition, clauses in clause_groups.items():
        for clause in clauses:
            solver.add_clause(clause, partition=partition)
    assert solver.solve() is SatResult.UNSAT
    return solver.proof()


def test_variable_classification_simple_split():
    proof = _unsat_proof({1: [[1], [-1, 2]], 2: [[-2, 3], [-3]]})
    spans = PartitionSpans.split(proof, a_partitions=[1])
    assert spans.var_class(1, 1) is VarClass.A_LOCAL
    assert spans.var_class(2, 1) is VarClass.GLOBAL
    assert spans.var_class(3, 1) is VarClass.B_LOCAL
    assert {v for v in spans.lo
            if spans.var_class(v, 1) is VarClass.GLOBAL} == {2}


def test_manual_interpolant_mcmillan_and_pudlak():
    # A = x1 & (x1 -> x2);  B = (x2 -> x3) & !x3.  Shared variable: x2.
    proof = _unsat_proof({1: [[1], [-1, 2]], 2: [[-2, 3], [-3]]})
    aig = Aig()
    x2 = aig.add_input("x2")
    for system in ("mcmillan", "pudlak"):
        builder = InterpolantBuilder(aig, {2: x2}, system=system)
        itp = builder.extract(proof, a_partitions=[1])
        ok_a, ok_b = check_craig_conditions(proof, [1], itp, aig, {2: x2})
        assert ok_a and ok_b, system
        assert itp_support_vars(aig, itp) <= {x2 >> 1}


def test_interpolant_for_inverted_split():
    # Swap the roles: A = suffix, B = prefix; the interpolant flips accordingly.
    proof = _unsat_proof({1: [[1], [-1, 2]], 2: [[-2, 3], [-3]]})
    aig = Aig()
    x2 = aig.add_input("x2")
    builder = InterpolantBuilder(aig, {2: x2})
    itp = builder.extract(proof, a_partitions=[2])
    ok_a, ok_b = check_craig_conditions(proof, [2], itp, aig, {2: x2})
    assert ok_a and ok_b


def test_missing_global_mapping_raises():
    proof = _unsat_proof({1: [[1], [-1, 2]], 2: [[-2, 3], [-3]]})
    aig = Aig()
    builder = InterpolantBuilder(aig, {})
    with pytest.raises(InterpolationError):
        builder.extract(proof, a_partitions=[1])


def test_unknown_system_rejected():
    aig = Aig()
    with pytest.raises(ValueError):
        InterpolantBuilder(aig, {}, system="nonsense")


def _bmc_proof_and_unroller(model, k, kind="exact"):
    builder = {"exact": build_exact_check, "assume": build_assume_check,
               "bound": build_bound_check}[kind]
    unroller = builder(model, k, proof_logging=True)
    result = unroller.solver.solve()
    assert result is SatResult.UNSAT
    return unroller.solver.proof(), unroller


@pytest.mark.parametrize("system", ["mcmillan", "pudlak"])
def test_bmc_standard_interpolant_is_valid(system):
    model = counter(width=4, target=9)
    proof, unroller = _bmc_proof_and_unroller(model, k=3, kind="bound")
    cut_map = unroller.cut_var_map(1)
    builder = InterpolantBuilder(model.aig, cut_map, system=system)
    itp = builder.extract(proof, a_partitions=[1])
    ok_a, ok_b = check_craig_conditions(proof, [1], itp, model.aig, cut_map)
    assert ok_a and ok_b
    # The interpolant is a predicate over latch variables only.
    assert itp_support_vars(model.aig, itp) <= set(model.latch_vars)


@pytest.mark.parametrize("kind", ["exact", "assume"])
def test_bmc_interpolation_sequence_valid(kind):
    model = counter(width=4, target=9)
    k = 4
    proof, unroller = _bmc_proof_and_unroller(model, k=k, kind=kind)
    cut_maps = {j: unroller.cut_var_map(j) for j in range(1, k + 1)}
    seq = extract_sequence(proof, k + 1, cut_maps, model.aig)
    assert seq.elements[0] == TRUE
    assert seq.elements[-1] == FALSE
    assert seq.length == k + 1
    assert len(seq.interior()) == k
    # Every element satisfies the Craig conditions for its own cut.
    for j in range(1, k + 1):
        ok_a, ok_b = check_craig_conditions(proof, list(range(1, j + 1)),
                                            seq.element(j), model.aig, cut_maps[j])
        assert ok_a and ok_b, f"cut {j}"
    # And the chain condition of Definition 2 holds.
    assert check_sequence_conditions(proof, seq.elements, cut_maps, model.aig)


def test_sequence_elements_overapproximate_reachable_states(tmp_path):
    """S_j ⊆ I_j: the j-step reachable states satisfy the j-th interpolant."""
    from repro.aig import SequentialSimulator, lit_value, simulate_comb

    model = modular_counter(width=3, modulus=6, target=7)
    k = 3
    proof, unroller = _bmc_proof_and_unroller(model, k=k, kind="exact")
    cut_maps = {j: unroller.cut_var_map(j) for j in range(1, k + 1)}
    seq = extract_sequence(proof, k + 1, cut_maps, model.aig)

    enable = model.input_vars[0]
    for j in range(1, k + 1):
        # Enumerate all states reachable in exactly j steps by trying all
        # enable sequences (2^j of them; tiny for k<=3).
        for pattern in range(1 << j):
            sim = SequentialSimulator(model.aig)
            for step in range(j):
                sim.step({enable: (pattern >> step) & 1})
            state = {var: int(val) for var, val in sim.state.items()}
            values = simulate_comb(model.aig, {}, state)
            assert lit_value(values, seq.element(j)) == 1, (j, pattern)


def test_sequence_on_safe_control_circuits():
    for model in (token_ring(4), traffic_light(extra_delay_bits=1), parity_chain(3)):
        k = 3
        proof, unroller = _bmc_proof_and_unroller(model, k=k, kind="assume")
        cut_maps = {j: unroller.cut_var_map(j) for j in range(1, k + 1)}
        seq = extract_sequence(proof, k + 1, cut_maps, model.aig)
        for j in range(1, k + 1):
            ok_a, ok_b = check_craig_conditions(proof, list(range(1, j + 1)),
                                                seq.element(j), model.aig, cut_maps[j])
            assert ok_a and ok_b, (model.name, j)


def test_extract_sequence_requires_cut_maps():
    model = counter(width=3, target=6)
    proof, unroller = _bmc_proof_and_unroller(model, k=2, kind="exact")
    with pytest.raises(InterpolationError):
        extract_sequence(proof, 3, {1: unroller.cut_var_map(1)}, model.aig)


def test_extract_sequence_rejects_bad_partition_count():
    model = counter(width=3, target=6)
    proof, unroller = _bmc_proof_and_unroller(model, k=2, kind="exact")
    with pytest.raises(InterpolationError):
        extract_sequence(proof, 2, {1: unroller.cut_var_map(1)}, model.aig)
