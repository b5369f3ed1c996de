"""Interpolation sequences (Definition 2 of the paper).

An interpolation sequence for an inconsistent partition Γ₁..ₙ is the ordered
set (I₀ = ⊤, I₁, …, Iₙ = ⊥) with Iᵢ ∧ Aᵢ₊₁ ⇒ Iᵢ₊₁ and each Iᵢ supported only
by the variables shared between the prefix and the suffix.

The *parallel* computation (Eq. (2) of the paper) extracts every element
from the same refutation proof Π by re-running a standard Craig extraction
with a different prefix/suffix split:

    Iⱼ = ITP(⋀_{i≤j} Aᵢ, ⋀_{i>j} Aᵢ)

which is exactly what :func:`extract_sequence` does.  The proof is prepared
once: the trace's original-clause index gives every variable its partition
span (:class:`~repro.itp.labeling.PartitionSpans`, memoised set operations
per index key, no pass over the clauses), so its class at any cut is an
O(1) lookup, and one core walk checks the chains and records which
subderivations lie wholly right of each cut — under McMillan those are ⊤
and never replayed.  Each cut then replays the rest of the core
(:meth:`~repro.itp.craig.InterpolantBuilder.extract_at`), creating exactly
the AIG nodes, in exactly the order, of a fresh
:meth:`~repro.itp.craig.InterpolantBuilder.extract` per cut.

The *serial* variant (Definition 3 / Fig. 4) needs fresh SAT calls and
therefore lives with the engines (:mod:`repro.core.sitpseq_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

from ..aig.aig import FALSE, TRUE, Aig
from ..sat.proof import ResolutionProof
from .craig import InterpolantBuilder, InterpolationError, RefutationCore
from .labeling import PartitionSpans

__all__ = ["InterpolationSequence", "extract_sequence"]


@dataclass
class InterpolationSequence:
    """A materialised interpolation sequence.

    ``elements[j]`` is the AIG literal of Iⱼ for j in 0..n; ``elements[0]``
    is ⊤ and ``elements[n]`` is ⊥ by construction.
    """

    elements: List[int]

    @property
    def length(self) -> int:
        """The number of partitions n (the sequence has n+1 elements)."""
        return len(self.elements) - 1

    def element(self, j: int) -> int:
        return self.elements[j]

    def interior(self) -> List[int]:
        """The non-trivial elements I₁ … I_{n-1}."""
        return self.elements[1:-1]


def extract_sequence(
    proof: ResolutionProof,
    num_partitions: int,
    cut_var_maps: Mapping[int, Mapping[int, int]],
    aig: Aig,
    system: str = "mcmillan",
    first_cut: int = 1,
) -> InterpolationSequence:
    """Extract a parallel interpolation sequence from one refutation.

    Parameters
    ----------
    proof:
        Refutation of ⋀ᵢ Aᵢ whose original clauses are labelled with their
        partition index (1..``num_partitions``).
    num_partitions:
        The number n of partitions in Γ.
    cut_var_maps:
        For every cut ``j`` in 1..n-1, the mapping from global CNF variables
        (the state variables at the cut) to AIG literals.
    aig:
        Destination AIG for the interpolant cones.
    system:
        Interpolation system, per :class:`InterpolantBuilder`.
    first_cut:
        The first cut to extract; ``cut_var_maps`` then needs the cuts
        ``first_cut..n-1`` only.  Partitions ``1..first_cut`` together form
        the first member, so a refutation of a suffix whose labels keep
        the absolute frame indices of a longer unrolling yields that
        suffix's sequence.

    Returns
    -------
    InterpolationSequence
        With ``n - first_cut + 1`` members: I₀ = ⊤, then for ``i ≥ 1``
        ``element(i)`` is the interpolant at cut ``first_cut + i - 1``, and
        the last element is ⊥.
    """
    if num_partitions < 1:
        raise ValueError("need at least one partition")
    if not 1 <= first_cut <= num_partitions:
        raise ValueError(f"first cut {first_cut} outside 1..{num_partitions}")
    spans = PartitionSpans.prefix(proof, num_partitions)
    unknown = {p for p in spans.labels if not 1 <= p <= num_partitions}
    if unknown:
        raise InterpolationError(
            f"proof contains partition labels outside 1..{num_partitions}: {unknown}")

    # One classification and one core walk serve every cut: the refutation
    # (reduced or raw) is shared, only the (A, B) split moves.
    core = RefutationCore(proof, spans)
    elements: List[int] = [TRUE]
    for j in range(first_cut, num_partitions):
        var_map = cut_var_maps.get(j)
        if var_map is None:
            raise InterpolationError(f"no cut variable map supplied for cut {j}")
        builder = InterpolantBuilder(aig, var_map, system=system)
        elements.append(builder.extract_at(core, j))
    elements.append(FALSE)
    return InterpolationSequence(elements)
