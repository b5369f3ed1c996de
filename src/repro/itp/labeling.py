"""Variable locality classification for interpolation.

Given a refutation proof whose *original* clauses carry partition labels
(the Γ indices of the BMC unrolling), and a choice of which partitions form
the ``A`` side of the Craig split, every CNF variable is classified as:

* ``A_LOCAL`` — occurs only in A-side clauses;
* ``B_LOCAL`` — occurs only in B-side clauses;
* ``GLOBAL``  — occurs on both sides (these are the only variables allowed
  in the interpolant's support).

Classification is computed over *all* original clauses, not only over the
clauses participating in the refutation core: this keeps the labelling
consistent with the full (A, B) formulas, which is what Definition 1 in the
paper constrains the interpolant's support against.

One pass over the original clauses serves every cut of an interpolation
sequence: :class:`PartitionSpans` records each variable's partition span
``[lo, hi]``, and a prefix cut ``j`` (partitions ``1..j`` on the A side)
classifies a variable from its span alone — A-local when ``hi <= j``,
B-local when ``lo > j``, global otherwise.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Mapping, Optional, Set

from ..sat.proof import ResolutionProof

__all__ = ["VarClass", "PartitionSpans"]


class VarClass(enum.Enum):
    """Locality of a CNF variable with respect to an (A, B) split."""

    A_LOCAL = "a"
    B_LOCAL = "b"
    GLOBAL = "ab"


class PartitionSpans:
    """Every variable's partition span over a proof's original clauses.

    Each original clause gets a *rank* from ``ranks`` (keyed by partition
    label); unlabelled clauses and labels missing from ``ranks`` get
    ``beyond``, which must exceed every cut asked about — such clauses are
    B-side at every cut.  ``lo[var]`` and ``hi[var]`` are the least and the
    greatest rank of a clause containing ``var``; ``labels`` is the set of
    partition labels seen.  A cut ``j`` puts the ranks ``<= j`` on the A
    side, so a variable's class there is an O(1) lookup.
    """

    def __init__(self, proof: ResolutionProof, ranks: Mapping[int, int],
                 beyond: int) -> None:
        self.ranks = dict(ranks)
        self.beyond = beyond
        self.labels: Set[int] = set()
        by_rank: Dict[int, Set[int]] = {}
        for node in proof.original_nodes():
            partition = node.partition
            if partition is not None:
                self.labels.add(partition)
            rank = ranks.get(partition, beyond)
            variables = by_rank.get(rank)
            if variables is None:
                variables = by_rank[rank] = set()
            variables.update(map(abs, node.clause.literals))
        # Later writes win: descending ranks leave the least, ascending the
        # greatest.
        self.lo: Dict[int, int] = {}
        self.hi: Dict[int, int] = {}
        for rank in sorted(by_rank, reverse=True):
            self.lo.update(dict.fromkeys(by_rank[rank], rank))
        for rank in sorted(by_rank):
            self.hi.update(dict.fromkeys(by_rank[rank], rank))

    @classmethod
    def prefix(cls, proof: ResolutionProof, num_partitions: int) -> "PartitionSpans":
        """Spans for the prefix cuts of a partition ``1..num_partitions``:
        cut ``j`` puts partitions ``1..j`` on the A side."""
        return cls(proof, {p: p for p in range(1, num_partitions + 1)},
                   num_partitions + 1)

    @classmethod
    def split(cls, proof: ResolutionProof,
              a_partitions: Iterable[int]) -> "PartitionSpans":
        """Spans for one arbitrary (A, B) split, read at cut 1: the
        ``a_partitions`` rank 1, every other clause ranks 2."""
        return cls(proof, {p: 1 for p in a_partitions}, 2)

    def rank(self, partition: Optional[int]) -> int:
        """The rank of a clause labelled ``partition``."""
        return self.ranks.get(partition, self.beyond)

    def var_class(self, var: int, cut: int) -> VarClass:
        """The class of ``var`` at ``cut``; unknown variables are B-local."""
        low = self.lo.get(var)
        if low is None or low > cut:
            return VarClass.B_LOCAL
        return VarClass.A_LOCAL if self.hi[var] <= cut else VarClass.GLOBAL
