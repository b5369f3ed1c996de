"""Structural compaction of freshly extracted interpolant cones.

Interpolants are the one place in the verification loop where structural
sharing pays *compounding* dividends: every interpolant is disjoined into
the accumulated reachable-set over-approximation R, and R's cone is
re-encoded at every subsequent containment check — so a gate saved here is
saved once per remaining fixpoint iteration, not once.

The compaction itself is the cone-level form of the preprocessing rewrite
pass (:func:`repro.preprocess.rewrite.rewrite_cone`): one-level Boolean
rules through complemented AND children plus AND-tree flattening into
sorted, deduplicated chains.  The sorted rebuild is what makes two
structurally different but semantically equal subcones — the typical
product of extracting interpolants from closely related refutations bound
after bound — normalise to the same chain, which the AIG's structural
hashing then shares.

Rebuilding happens **in place**: the rewritten cone is added to the same
AIG (the engine's private copy, where interpolants are materialised), and
the original gates simply stop being referenced.  What the solver pays for
is the *cone of the literal it encodes*, not the container, so compaction
is judged — and guarded — on cone size: if rewriting fails to shrink the
cone, the original literal is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..aig.aig import Aig, lit_is_const
from ..aig.ops import cone_size
from ..preprocess.rewrite import rewrite_cone

__all__ = ["ConeCompaction", "compact_cone"]


@dataclass(frozen=True)
class ConeCompaction:
    """Outcome of compacting one interpolant cone."""

    lit: int
    ands_before: int
    ands_after: int

    @property
    def saved(self) -> int:
        """AND gates removed from the cone (0 when compaction was a no-op)."""
        return self.ands_before - self.ands_after


def compact_cone(aig: Aig, lit: int,
                 rewrite_map: Optional[Dict[int, int]] = None) -> ConeCompaction:
    """Rewrite the cone of ``lit`` in place; never returns a larger cone.

    Returns the (possibly unchanged) literal together with the cone sizes
    before and after.  The rewritten literal denotes the same Boolean
    function over the same input/latch leaves, so callers may substitute
    it freely — containment checks, disjunction into R, trace extraction
    all see an equivalent predicate.

    ``rewrite_map`` is the caller's rewrite map for ``aig``, kept across
    calls (see :func:`~repro.preprocess.rewrite.rewrite_cone`): successive
    interpolants share most of their cones, and with the map each gate is
    rewritten once per AIG instead of once per call.  The result is the
    same literal, and the AIG the same nodes in the same order, as with a
    fresh map.
    """
    if lit_is_const(lit):
        return ConeCompaction(lit, 0, 0)
    before = cone_size(aig, lit)
    rewritten = rewrite_cone(aig, [lit], rewrite_map=rewrite_map)[0]
    if rewritten == lit:
        return ConeCompaction(lit, before, before)
    after = cone_size(aig, rewritten)
    if after >= before:
        # Flattening un-shared more than the rules saved: keep the original
        # cone (the same never-grows promise the model-level pass makes).
        return ConeCompaction(lit, before, before)
    return ConeCompaction(rewritten, before, after)
