"""Cross-engine lemma sharing for the cooperative portfolio.

A blind race recomputes everything: every depth one engine refutes is
refuted again by every other engine.  This package provides the one
cooperative mode, :func:`repro.share.coop.cooperative_race`, whose
effect ``benchmarks/results/race_sharing.txt`` measures against the
blind baseline of the same runner:

* :mod:`repro.share.lemma` — the typed lemma: "no counterexample up to
  depth d" facts that let the other engines skip shallow counterexample
  searches, and the model fingerprint that scopes them;
* :mod:`repro.share.bus` — the share-port protocol and the in-process
  publish/subscribe bus;
* :mod:`repro.share.adapt` — import validation: model fingerprint check
  and seeded bit-parallel simulation refutation, so a malicious depth
  claim is rejected before it ever skips a solve;
* :mod:`repro.share.coop` — the deterministic cooperative race: every
  engine runs in lock step on a virtual work clock (its own deterministic
  propagation counter plus weighted clause additions), so winner, loser
  progress and every engine's imports are reproducible on any machine.

Determinism contract
--------------------
Imports are applied only at bound/obligation boundaries
(:meth:`repro.core.base.UmcEngine._share_sync`), and the cooperative
runner fixes the order in which engines reach them, so two runs of the
same race import the same lemmas at the same boundaries.

Soundness contract
------------------
Sharing is *answer-preserving by construction*: a foreign depth fact only
ever skips a solve of the proof-free incremental counterexample searcher
whose answer it already decides (UNSAT).  The proof-logged refutation
checks never see a foreign lemma, so verdicts *and* the (k, j) fixpoint
pair are identical with sharing on or off.  PDR and the CBA engine import
nothing: they run no such searcher.
"""

from .bus import LocalShareBus, ShareCancelled, SharePort
from .coop import CoopOutcome, cooperative_race
from .lemma import DepthLemma, Lemma, SharedLemma, model_fingerprint

__all__ = [
    "DepthLemma", "Lemma", "SharedLemma", "model_fingerprint",
    "SharePort", "LocalShareBus", "ShareCancelled",
    "CoopOutcome", "cooperative_race",
]
