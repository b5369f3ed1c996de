"""Oracle for sequence extraction: one prepared core versus a builder per cut.

:func:`extract_sequence` classifies the proof once and replays a shared
core at every cut.  It must create exactly the AIG nodes, in exactly the
order, that a fresh :meth:`InterpolantBuilder.extract` per cut creates —
and both must match a textbook replay that classifies per cut and visits
every core node.
"""

import pytest

from repro.bmc.checks import BmcCheckKind, build_check
from repro.circuits import counter, modular_counter, token_ring, traffic_light
from repro.itp import InterpolantBuilder, VarClass, extract_sequence
from repro.sat.proof import reduce_proof
from repro.sat.types import SatResult

_MODELS = {
    "counter": lambda: counter(width=4, target=9),
    "modcnt": lambda: modular_counter(width=3, modulus=6, target=7),
    "ring": lambda: token_ring(4),
    "traffic": lambda: traffic_light(extra_delay_bits=1),
}


def _textbook(proof, aig, var_map, cut, system):
    """Replay every core node with the rules as written, classifying anew."""
    in_a, in_b = set(), set()
    for node in proof.original_nodes():
        is_a = node.partition is not None and node.partition <= cut
        (in_a if is_a else in_b).update(abs(lit) for lit in node.clause.literals)

    def var_class(var):
        if var not in in_a:
            return VarClass.B_LOCAL
        return VarClass.GLOBAL if var in in_b else VarClass.A_LOCAL

    def aig_lit(lit):
        return var_map[abs(lit)] ^ (lit < 0)

    partial = {}
    for cid in proof.core_ids():
        node = proof.node(cid)
        if not node.chain:
            is_a = node.partition is not None and node.partition <= cut
            if system == "pudlak":
                partial[cid] = 0 if is_a else 1
            elif not is_a:
                partial[cid] = 1
            else:
                partial[cid] = aig.op_or(*[
                    aig_lit(lit) for lit in node.clause.literals
                    if var_class(abs(lit)) is VarClass.GLOBAL])
            continue
        current = partial[node.chain[0][1]]
        for pivot, antecedent_id in node.chain[1:]:
            other = partial[antecedent_id]
            pos, neg = ((other, current)
                        if pivot in proof.node(antecedent_id).clause.literals
                        else (current, other))
            pivot_class = var_class(pivot)
            if pivot_class is VarClass.A_LOCAL:
                current = aig.op_or(pos, neg)
            elif system == "mcmillan" or pivot_class is VarClass.B_LOCAL:
                current = aig.add_and(pos, neg)
            else:
                current = aig.add_and(aig.op_or(var_map[pivot], pos),
                                      aig.op_or(var_map[pivot] ^ 1, neg))
        partial[cid] = current
    return partial[proof.empty_clause_id]


def _snapshot(proof):
    return ([(n.clause_id, n.clause.literals, list(n.chain), n.partition, n.group)
             for n in proof.nodes_in_order()], proof.empty_clause_id)


@pytest.mark.parametrize("name", sorted(_MODELS))
@pytest.mark.parametrize("kind", [BmcCheckKind.EXACT, BmcCheckKind.ASSUME],
                         ids=lambda k: k.name.lower())
@pytest.mark.parametrize("reduced", [False, True], ids=["raw", "reduced"])
@pytest.mark.parametrize("system", ["mcmillan", "pudlak"])
def test_sequence_matches_per_cut_builders(name, kind, reduced, system):
    k = 4
    seq_model, cut_model, ref_model = (_MODELS[name]() for _ in range(3))
    unroller = build_check(kind, seq_model, k, proof_logging=True)
    assert unroller.solver.solve() is SatResult.UNSAT
    proof = unroller.solver.proof()
    if reduced:
        before = _snapshot(proof)
        proof, _ = reduce_proof(proof)
        assert _snapshot(unroller.solver.proof()) == before
    cut_maps = {j: unroller.cut_var_map(j) for j in range(1, k + 1)}

    sequence = extract_sequence(proof, k + 1, cut_maps, seq_model.aig,
                                system=system)
    per_cut = [InterpolantBuilder(cut_model.aig, cut_maps[j], system=system)
               .extract(proof, a_partitions=range(1, j + 1))
               for j in range(1, k + 1)]
    reference = [_textbook(proof, ref_model.aig, cut_maps[j], j, system)
                 for j in range(1, k + 1)]

    assert sequence.interior() == per_cut == reference
    assert (seq_model.aig._and_order == cut_model.aig._and_order
            == ref_model.aig._and_order)
    assert seq_model.aig.ands == cut_model.aig.ands == ref_model.aig.ands
