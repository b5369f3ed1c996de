"""``PartitionSpans`` against a clause-by-clause reference on recorded proofs."""

import pytest

from repro.bmc import BmcCheckKind, build_check
from repro.circuits import get_instance
from repro.itp.labeling import PartitionSpans
from repro.sat import SatResult


def _reference_spans(proof, ranks, beyond):
    """The node-by-node loop: each clause's variables join its rank's set."""
    labels, by_rank = set(), {}
    for node in proof.original_nodes():
        if node.partition is not None:
            labels.add(node.partition)
        rank = ranks.get(node.partition, beyond)
        by_rank.setdefault(rank, set()).update(map(abs, node.clause.literals))
    lo, hi = {}, {}
    for rank in sorted(by_rank, reverse=True):
        lo.update(dict.fromkeys(by_rank[rank], rank))
    for rank in sorted(by_rank):
        hi.update(dict.fromkeys(by_rank[rank], rank))
    return labels, lo, hi


def _recorded_proof(name, kind, depth):
    unroller = build_check(kind, get_instance(name).build(), depth,
                           proof_logging=True)
    assert unroller.solver.solve() is SatResult.UNSAT
    return unroller.solver.proof()


@pytest.mark.parametrize("name,kind,depth", [
    ("ring06", BmcCheckKind.ASSUME, 5),
    ("modcnt06", BmcCheckKind.EXACT, 4),
    ("indA1_ring12", BmcCheckKind.BOUND, 6),
])
def test_spans_match_the_reference(name, kind, depth):
    proof = _recorded_proof(name, kind, depth)
    num_partitions = depth + 1
    cases = [(PartitionSpans.prefix(proof, num_partitions),
              {p: p for p in range(1, num_partitions + 1)}, num_partitions + 1)]
    # Fewer ranks than labels: the rest fall beyond every cut.
    cases.append((PartitionSpans.prefix(proof, depth - 1),
                  {p: p for p in range(1, depth)}, depth))
    for a_side in ([1], [1, 2], list(range(2, num_partitions))):
        cases.append((PartitionSpans.split(proof, a_side),
                      {p: 1 for p in a_side}, 2))
    for spans, ranks, beyond in cases:
        labels, lo, hi = _reference_spans(proof, ranks, beyond)
        assert spans.labels == labels
        assert spans.lo == lo
        assert spans.hi == hi
    assert len(labels) == num_partitions
