"""Cross-engine lemma sharing for the cooperative portfolio.

The racing portfolio (:mod:`repro.parallel.race`) used to run its members
blind: every depth one engine refuted was refuted again by every other
engine.  This package turns the race cooperative:

* :mod:`repro.share.lemma` — the typed, pickle-safe wire format: "no
  counterexample up to depth d" facts that let the other engines skip
  shallow counterexample searches;
* :mod:`repro.share.bus` — publish/subscribe plumbing: an in-process bus
  for the deterministic cooperative runner, plus the replay port that
  re-applies a recorded share log;
* :mod:`repro.share.log` — the replayable share log (every published lemma
  with a global sequence number and payload hash, every *accepted* import
  keyed by the engine's bound/obligation boundary);
* :mod:`repro.share.adapt` — import validation: model fingerprint check
  and seeded bit-parallel simulation refutation, so a malicious depth
  claim is rejected before it ever skips a solve;
* :mod:`repro.share.coop` — the deterministic cooperative race: every
  engine runs in lock step on a virtual work clock (its own deterministic
  propagation counter plus weighted clause additions), so winner, loser
  progress and the share log are byte-reproducible on any machine.

Determinism contract
--------------------
Imports are applied only at bound/obligation boundaries
(:meth:`repro.core.base.UmcEngine._share_sync`), every accepted lemma is
recorded in the share log, and ``--share-replay FILE`` re-runs any engine
with exactly the logged imports — so a run that consumed foreign lemmas
regenerates bit-identically from its log, on one process or many.

Soundness contract
------------------
Sharing is *answer-preserving by construction*: a foreign depth fact only
ever skips a solve of the proof-free incremental counterexample searcher
whose answer it already decides (UNSAT).  The proof-logged refutation
checks never see a foreign lemma, so verdicts *and* the (k, j) fixpoint
pair are identical with sharing on, off, or replayed.  PDR and the CBA
engine import nothing: they run no such searcher.
"""

from .bus import LocalShareBus, ReplayShareBus, ShareCancelled, SharePort
from .coop import CoopOutcome, cooperative_race
from .lemma import (DepthLemma, Lemma, SharedLemma, lemma_from_wire,
                    lemma_hash, model_fingerprint)
from .log import ShareLog, read_share_log

__all__ = [
    "DepthLemma", "Lemma", "SharedLemma",
    "lemma_from_wire", "lemma_hash", "model_fingerprint",
    "ShareLog", "read_share_log",
    "SharePort", "LocalShareBus", "ReplayShareBus", "ShareCancelled",
    "CoopOutcome", "cooperative_race",
]
