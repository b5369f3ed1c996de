"""Serial interpolation sequences (Definition 3 and Fig. 4).

A serial sequence replaces the first ``n_s = ⌊alpha_s · n⌋`` elements of the
parallel computation by a chain of standard interpolation steps,

    Iⱼ = ITP(Iⱼ₋₁ ∧ Aⱼ, ⋀_{i>j} Aᵢ)            (Eq. (3))

each of which needs its own SAT call (the B term shrinks as j grows), and
computes the remaining elements in parallel from one additional refutation
of ``I_{n_s} ∧ Γ_{n_s+1..n}``.  The extra SAT effort buys the *cumulative*
abstraction effect of standard interpolation — the saturation the paper
credits for convergence at shorter depths (Section IV-B/C).

The first element comes from the bound's base refutation.  Every later
step, and the parallel remainder, refutes a suffix of the depth-k
unrolling the run's proof-logged searcher already holds — the engine's
own, or CBA's current abstract one — so no frame is encoded twice:
step j asserts Iⱼ₋₁ at frame j−1 in a throwaway group and assumes only
the target and frames j−1..k
(:meth:`~repro.bmc.incremental.IncrementalUnroller.step`).  S₀'s group
and every frame group below j−1 are held false.  That is what keeps the
chain sound: a refutation that could use the Init-free prefix Tʲ⁻¹ would
yield an Iⱼ implied only by Iⱼ₋₁-states that *have* (j−1)-step
predecessors, not by Img(Iⱼ₋₁), and the fixpoint argument of Fig. 2
would break.  Every clause of those
groups, and every clause learned from them, carries their activation
literal, so :func:`~repro.sat.proof.strip_activations` either turns the
UNSAT answer into a refutation of exactly Eq. (3)'s A ∧ B (plus
definitions of gates below frame j−1, which only join the A side) or
rejects it.  A rejected step, and every step of a share-attached run
(whose searcher logs no proof), is solved on a fresh suffix check
instead (:func:`_build_suffix_check`; a rejection counts in
``proof_group_fallbacks``).

The verification loop around the sequence is identical to Fig. 2 and is
inherited from :class:`ItpSeqEngine`; only the extraction step differs.
"""

from __future__ import annotations

from typing import List, Tuple

from ..aig.aig import FALSE, TRUE
from ..aig.model import Model
from ..bmc.checks import BmcCheckKind, build_check
from ..bmc.incremental import IncrementalUnroller
from ..bmc.unroll import Unroller
from ..itp.craig import InterpolantBuilder
from ..itp.sequence import extract_sequence
from ..sat.proof import ResolutionProof
from .base import UmcEngine
from .itpseq_engine import ItpSeqEngine

__all__ = ["SerialItpSeqEngine", "compute_serial_sequence"]


def compute_serial_sequence(
    engine: UmcEngine,
    model: Model,
    k: int,
    base_proof: ResolutionProof,
    base_unroller: Unroller,
    searcher: IncrementalUnroller,
) -> List[int]:
    """Compute the (partially) serial sequence of Fig. 4 for a bound ``k``.

    ``base_proof`` / ``base_unroller`` come from the already-solved
    (unsatisfiable) depth-``k`` BMC check on ``model``; its cut-1 interpolant
    seeds the serial chain, so the first serial element costs no extra SAT
    call.  The later steps and the parallel remainder refute suffixes of
    ``searcher``'s depth-``k`` unrolling (see the module docstring).
    Elements are materialised in ``model.aig`` and returned as the full
    list I₀..I_{k+1} (with I₀ = ⊤ and I_{k+1} = ⊥).

    The function is deliberately engine-agnostic: the serial+CBA engine
    calls it with an *abstract* model and its abstract searcher, the plain
    serial engine with the concrete ones.
    """
    aig = model.aig
    n = k + 1                                   # number of partitions in Γ
    n_serial = min(int(engine.options.alpha_s * n), k)  # serially-built cuts

    elements: List[int] = [TRUE] + [FALSE] * k + [FALSE]

    if n_serial == 0:
        # Fully parallel: just Eq. (2) on the base proof.
        cut_maps = {j: base_unroller.cut_var_map(j) for j in range(1, k + 1)}
        parallel = extract_sequence(base_proof, n, cut_maps, aig)
        for j in range(1, k + 1):
            elements[j] = engine._register_interpolant(aig, parallel.element(j))
        return elements

    # Serial element 1 = ITP(A₁, A₂..Aₙ): extract it from the base refutation.
    builder = InterpolantBuilder(aig, base_unroller.cut_var_map(1))
    elements[1] = engine._register_interpolant(
        aig, builder.extract(base_proof, a_partitions=[1]))

    # Serial elements 2..n_serial: one SAT call each on the suffix from frame
    # j-1, constrained there to the previous element (Eq. (3)).
    for j in range(2, n_serial + 1):
        # One serial step per cooperative turn: a bound's whole chain of
        # k+1 proof-logged solves in a single turn would overshoot the
        # turnstile's progress clock by an entire bound.
        engine._share_yield()
        proof, cuts, shift = _suffix_refutation(engine, model, searcher, k,
                                                j, elements[j - 1])
        cut = j - shift
        step_builder = InterpolantBuilder(aig, cuts.cut_var_map(cut))
        elements[j] = engine._register_interpolant(
            aig, step_builder.extract(proof, a_partitions=range(1, cut + 1)))

    # Remaining elements n_serial+1 .. k: parallel extraction from one more
    # refutation, of I_{n_serial} ∧ Γ_{n_serial+1..n}.
    if n_serial < k:
        engine._share_yield()
        proof, cuts, shift = _suffix_refutation(
            engine, model, searcher, k, n_serial + 1, elements[n_serial])
        first = n_serial + 1 - shift
        cut_maps = {cut: cuts.cut_var_map(cut)
                    for cut in range(first, k + 1 - shift)}
        remainder = extract_sequence(proof, k + 1 - shift, cut_maps, aig,
                                     first_cut=first)
        for offset in range(1, k - n_serial + 1):
            elements[n_serial + offset] = engine._register_interpolant(
                aig, remainder.element(offset))
    return elements


def _suffix_refutation(
    engine: UmcEngine, model: Model, searcher: IncrementalUnroller, k: int,
    j: int, seed: int,
) -> Tuple[ResolutionProof, Unroller, int]:
    """Refute the suffix from frame ``j-1`` of bound ``k``'s check, seeded
    with ``seed`` there: serial step ``j``, or the parallel remainder when
    ``j = n_s + 1``.

    Returns ``(proof, cuts, shift)``: the trimmed refutation, the unroller
    serving its cuts, and how far its partition labels sit below the
    absolute ones — 0 on the searcher, ``j-1`` on the fresh fallback
    check, which starts at frame 0.
    """
    with engine.tracer.span("serial_step", bound=k, j=j, depth=k - j + 1):
        refuted = engine._step_refutation(
            searcher, j - 1, seed,
            lambda: _build_suffix_check(engine, model, seed, k - j + 1),
            serial_step=j)
    if refuted is None:
        # Guaranteed unreachable by the Craig property of the seed; guard
        # against it anyway so a bug surfaces loudly instead of silently.
        raise RuntimeError(f"serial step {j} of bound {k} unexpectedly "
                           "satisfiable")
    proof, cuts = refuted
    return proof, cuts, 0 if cuts is searcher.unroller else j - 1


def _build_suffix_check(engine: UmcEngine, model: Model, init_formula: int,
                        depth: int) -> Unroller:
    """Build the BMC check for a suffix Γ, with frame 0 constrained to a predicate.

    The fallback of :func:`_suffix_refutation`, and every step of a
    share-attached run, on a fresh solver.  Under
    the assume-k formulation the original partition A_j also carries the
    p(V^{j-1}) constraint (Section III); the re-indexed frame 0 of the
    suffix plays the role of frame j-1, so that constraint is re-asserted
    here in partition 1.  Without it the suffix would be weaker than the B
    term the previous interpolant was extracted against, and the
    "guaranteed unsatisfiable" property of Definition 3 would be lost.
    """
    def initial(unroller: Unroller, formula=init_formula) -> None:
        unroller.assert_formula(formula, frame=0, partition=1)

    unroller = build_check(engine.options.bmc_check, model, depth,
                           proof_logging=True, initial=initial)
    if engine.options.bmc_check is BmcCheckKind.ASSUME:
        unroller.assert_property(0, partition=1)
    return unroller


class SerialItpSeqEngine(ItpSeqEngine):
    """Serial interpolation sequences (SITPSEQ of Fig. 4 inside Fig. 2's loop)."""

    name = "sitpseq"

    def _extract_elements(self, k: int, proof: ResolutionProof,
                          unroller: Unroller) -> List[int]:
        """Fig. 4: the serial chain seeded by the bound's refutation."""
        return compute_serial_sequence(self, self.model, k, proof, unroller,
                                       self._cex_searcher)
