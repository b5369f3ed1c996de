"""Import-side lemma validation.

A foreign lemma is accepted only after two checks, both deterministic and
neither costing a single SAT clause:

1. **Fingerprint** — the bus-wide model fingerprint must match the
   importing engine's reduced model (checked once at attach time;
   see :func:`repro.share.lemma.model_fingerprint`).
2. **Simulation refutation** — a capped number of seeded bit-parallel
   simulation rounds from reset (:func:`repro.aig.simulate.random_stimulus_rounds`,
   64 lanes per round) actively tries to *refute* the lemma: a bad state
   at or below a claimed safe depth rejects it.

Rejection is cheap and silent by design: sharing is an optimisation, so a
suspect lemma is simply not imported (the ``lemmas_retracted`` counter and
a ``share_reject`` trace point record it).  Validation is deliberately
*deterministic* — same seed, same rounds, same verdict on any machine —
so two runs of the same cooperative race accept the same lemmas.

Validation is defence in depth, not the soundness story: even a malicious
lemma that survives it can only make the proof-free counterexample
searcher skip a bound, and every engine then runs its proof-logged
check, whose SAT answer produces the genuine counterexample regardless
(and triggers retraction of every import — see
:meth:`repro.core.base.UmcEngine._share_check_disagreement`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..aig.model import Model
from ..aig.simulate import lit_value, random_stimulus_rounds
from .lemma import Lemma

__all__ = ["ImportValidator", "SIM_VALIDATION_STEPS", "SIM_VALIDATION_WIDTH"]

#: Simulation-refutation caps: rounds simulated from reset and lanes per
#: round.  Deterministic (fixed seed 0) and machine-independent.
SIM_VALIDATION_STEPS = 24
SIM_VALIDATION_WIDTH = 64


class ImportValidator:
    """Per-engine validator for foreign lemmas over one reduced model."""

    def __init__(self, model: Model, steps: int = SIM_VALIDATION_STEPS,
                 width: int = SIM_VALIDATION_WIDTH, seed: int = 0) -> None:
        self.model = model
        self.steps = steps
        self.width = width
        self.seed = seed
        self._rounds: Optional[List[Dict[int, int]]] = None

    def prepare(self) -> None:
        """Precompute the simulation rounds (call while the AIG is pristine:
        engines grow their private AIGs with interpolant cones later, and
        simulating those would be pure waste)."""
        if self._rounds is None:
            # steps + 1 value maps: states at times 0..steps inclusive.
            self._rounds = random_stimulus_rounds(
                self.model.aig, self.steps + 1, width=self.width,
                seed=self.seed)

    @property
    def rounds(self) -> List[Dict[int, int]]:
        self.prepare()
        assert self._rounds is not None
        return self._rounds

    def reject_reason(self, lemma: Lemma) -> Optional[str]:
        """``None`` when the depth fact survives validation, else a reason."""
        if lemma.depth < 0:
            return "negative depth"
        bad = self.model.bad_literal
        horizon = min(lemma.depth, self.steps)
        for time, values in enumerate(self.rounds[:horizon + 1]):
            if lit_value(values, bad, self.width):
                return f"bad state simulated at depth {time} <= {lemma.depth}"
        return None
