"""Craig interpolant extraction from resolution refutations.

Two labelled interpolation systems are implemented:

* ``mcmillan`` — McMillan's original system (CAV'03): A-leaves contribute
  the disjunction of their global literals, B-leaves contribute ⊤;
  resolutions on A-local pivots take the disjunction of the premises'
  partial interpolants, all other pivots the conjunction.
* ``pudlak`` — the symmetric system (Pudlák / HKP): A-leaves contribute ⊥,
  B-leaves ⊤; A-local pivots disjoin, B-local pivots conjoin, and global
  pivots introduce a multiplexer on the pivot variable.

Interpolants are materialised as AND-inverter cones inside a caller-supplied
:class:`~repro.aig.aig.Aig`; the caller also supplies the mapping from
*global CNF variables* to AIG literals (for BMC unrollings these are the
latch instances at the cut time frame).  Structural hashing inside the AIG
gives the usual constant propagation and sharing, which keeps interpolants
compact relative to the proof size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from ..aig.aig import FALSE, TRUE, Aig
from ..sat.proof import ProofError, ProofNode, ResolutionProof
from .labeling import PartitionSpans

__all__ = ["InterpolationError", "InterpolantBuilder", "RefutationCore",
           "ITP_SYSTEMS"]

ITP_SYSTEMS = ("mcmillan", "pudlak")


class InterpolationError(RuntimeError):
    """Raised when interpolant extraction is impossible or inconsistent."""


class RefutationCore:
    """A refutation's core DAG, prepared once for extraction at many cuts.

    Holds the core nodes in topological order, the partition spans of the
    proof's original clauses, and for every core node the least rank among
    the leaves it derives from (``reach``).  A node whose ``reach`` exceeds
    the cut derives only from B clauses, so its McMillan partial
    interpolant is exactly ⊤: every leaf is ⊤ and ⊤ ∧ ⊤ = ⊤ ∨ ⊤ = ⊤ creates
    no AIG node.  Every chain is checked here, once, rather than per cut.
    """

    def __init__(self, proof: ResolutionProof, spans: PartitionSpans) -> None:
        if not proof.is_refutation():
            raise InterpolationError("proof does not derive the empty clause")
        self.proof = proof
        self.spans = spans
        self.root_id = proof.empty_clause_id
        self.nodes: List[ProofNode] = [proof.node(cid) for cid in proof.core_ids()]
        reach: Dict[int, int] = {}
        for node in self.nodes:
            chain = node.chain
            if not chain:
                reach[node.clause_id] = spans.rank(node.partition)
                continue
            low = reach[chain[0][1]]
            for pivot, antecedent_id in chain[1:]:
                if pivot is None:
                    raise ProofError("only the first chain entry may omit the pivot")
                literals = proof.node(antecedent_id).clause.literals
                if pivot not in literals and -pivot not in literals:
                    raise InterpolationError(
                        f"pivot {pivot} does not occur in antecedent clause "
                        f"{antecedent_id}")
                if reach[antecedent_id] < low:
                    low = reach[antecedent_id]
            reach[node.clause_id] = low
        self.reach = [reach[node.clause_id] for node in self.nodes]


class InterpolantBuilder:
    """Extracts Craig interpolants from a refutation into an AIG.

    Parameters
    ----------
    aig:
        Destination AIG; partial interpolants become AND/OR cones in it.
    global_var_map:
        Mapping from CNF variable to AIG literal for every variable that may
        be classified *global*.  Variables missing from the map but found
        global trigger :class:`InterpolationError` — this is deliberate: for
        time-frame partitionings the global variables must be exactly the
        state cut, and anything else indicates a mis-labelled clause.
    system:
        ``"mcmillan"`` (default) or ``"pudlak"``.
    """

    def __init__(self, aig: Aig, global_var_map: Mapping[int, int],
                 system: str = "mcmillan") -> None:
        if system not in ITP_SYSTEMS:
            raise ValueError(f"unknown interpolation system {system!r}")
        self.aig = aig
        self.global_var_map = dict(global_var_map)
        self.system = system

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def extract(self, proof: ResolutionProof,
                a_partitions: Iterable[int]) -> int:
        """Return the AIG literal of ITP(A, B) for the given A-side partitions.

        The proof may be a raw solver trace or a reduced refutation from
        :func:`repro.sat.proof.reduce_proof` — extraction only walks the
        core DAG, so a trimmed proof with recycled pivots yields smaller
        partial-interpolant cones at no loss of validity.
        """
        core = RefutationCore(proof, PartitionSpans.split(proof, a_partitions))
        return self.extract_at(core, 1)

    def extract_at(self, core: RefutationCore, cut: int) -> int:
        """ITP(A, B) where A is every clause of rank ``<= cut`` in ``core``.

        Replays the core's chains bottom-up.  The AIG operations, and so the
        nodes created and their order, are exactly those of the rules in
        the module docstring; the partial interpolants are threaded through
        :meth:`Aig.add_and` directly, with ``a ∨ b`` as ``¬(¬a ∧ ¬b)``.
        """
        if self.system == "mcmillan":
            return self._mcmillan(core, cut)
        return self._pudlak(core, cut)

    # ------------------------------------------------------------------ #
    # Leaf and resolution rules
    # ------------------------------------------------------------------ #
    def _aig_var(self, var: int) -> int:
        mapped = self.global_var_map.get(var)
        if mapped is None:
            raise InterpolationError(
                f"global CNF variable {var} has no AIG mapping; the partition "
                "labelling does not cut the formula on state variables")
        return mapped

    def _mcmillan(self, core: RefutationCore, cut: int) -> int:
        """A-leaves give the disjunction of their global literals, B-leaves
        ⊤; A-local pivots disjoin, all others conjoin.  Nodes deriving only
        from B clauses are ⊤ and are skipped (see :class:`RefutationCore`)."""
        add_and = self.aig.add_and
        hi = core.spans.hi
        beyond = core.spans.beyond
        partial: Dict[int, int] = {}
        for node, reach in zip(core.nodes, core.reach):
            if reach > cut:
                continue
            chain = node.chain
            if not chain:
                # An A clause: every variable has lo <= cut, so it is global
                # exactly when it also occurs right of the cut.
                out = TRUE
                for lit in node.clause.literals:
                    var = lit if lit > 0 else -lit
                    if hi[var] > cut:
                        out = add_and(out, self._aig_var(var) ^ (lit > 0))
                partial[node.clause_id] = out ^ 1
                continue
            # Both rules are symmetric in the premises: no pivot polarity.
            current = partial.get(chain[0][1], TRUE)
            for pivot, antecedent_id in chain[1:]:
                other = partial.get(antecedent_id, TRUE)
                if hi.get(pivot, beyond) <= cut:
                    current = add_and(current ^ 1, other ^ 1) ^ 1
                else:
                    current = add_and(current, other)
            partial[node.clause_id] = current
        return partial.get(core.root_id, TRUE)

    def _pudlak(self, core: RefutationCore, cut: int) -> int:
        """A-leaves give ⊥, B-leaves ⊤; A-local pivots disjoin, B-local
        pivots conjoin, global pivots select on the pivot variable."""
        add_and = self.aig.add_and
        spans = core.spans
        lo, hi = spans.lo, spans.hi
        node_of = core.proof.node
        partial: Dict[int, int] = {}
        for node in core.nodes:
            chain = node.chain
            if not chain:
                partial[node.clause_id] = (FALSE if spans.rank(node.partition) <= cut
                                           else TRUE)
                continue
            current = partial[chain[0][1]]
            for pivot, antecedent_id in chain[1:]:
                other = partial[antecedent_id]
                if pivot in node_of(antecedent_id).clause.literals:
                    itp_pos, itp_neg = other, current
                else:
                    itp_pos, itp_neg = current, other
                low = lo.get(pivot)
                if low is None or low > cut:
                    current = add_and(itp_pos, itp_neg)
                elif hi[pivot] <= cut:
                    current = add_and(itp_pos ^ 1, itp_neg ^ 1) ^ 1
                else:
                    # (pivot ∨ itp_pos) ∧ (¬pivot ∨ itp_neg)
                    pivot_aig = self._aig_var(pivot)
                    left = add_and(pivot_aig ^ 1, itp_pos ^ 1) ^ 1
                    right = add_and(pivot_aig, itp_neg ^ 1) ^ 1
                    current = add_and(left, right)
            partial[node.clause_id] = current
        return partial[core.root_id]
