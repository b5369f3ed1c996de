"""The typed lemma kind the cooperative portfolio shares.

One lemma kind crosses between engines: a *sound fact about the shared
reduced model* (every engine preprocesses the same source model through
the same deterministic pipeline, so the reduced models — and hence their
fingerprints — agree).  :class:`DepthLemma` says "no counterexample of
length ≤ depth exists".  Any engine publishes it after refuting a bound
in strict deepening order; it lets every other engine skip
counterexample searches whose answer is already known.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

from ..aig.model import Model

__all__ = ["Lemma", "DepthLemma", "SharedLemma", "model_fingerprint"]


@dataclass(frozen=True)
class DepthLemma:
    """No counterexample of length ≤ ``depth`` exists (for the shared model)."""

    depth: int

    kind = "depth"


#: The type every bus and port carries.
Lemma = DepthLemma


@dataclass(frozen=True)
class SharedLemma:
    """A published lemma as delivered: global sequence number + provenance."""

    seq: int
    source: str
    lemma: Lemma


# --------------------------------------------------------------------- #
# Model fingerprint
# --------------------------------------------------------------------- #
def model_fingerprint(model: Model) -> str:
    """A short structural hash of the (reduced) model.

    Covers inputs, latches (variable, init, next), AND gates, the checked
    bad literal and the invariant constraints — everything a lemma's
    semantics depends on.  Engines running the same deterministic
    preprocessing pipeline on the same source model produce identical
    reduced structures, so their fingerprints agree; a lemma arriving with
    a different fingerprint is about a *different* circuit and is rejected
    before validation even starts.
    """
    aig = model.aig
    parts: List[str] = [
        "i" + ",".join(str(v) for v in sorted(aig.input_vars())),
        "l" + ";".join(
            f"{latch.var}:{latch.init}:{latch.next}"
            for latch in sorted(aig.latches, key=lambda la: la.var)),
        "a" + ";".join(f"{g.var}:{g.left}:{g.right}"
                       for g in aig.iter_and_gates()),
        "b" + str(model.bad_literal),
        "c" + ",".join(str(c) for c in aig.constraints),
    ]
    digest = hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()
    return digest[:16]
