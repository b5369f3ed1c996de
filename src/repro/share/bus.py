"""Publish/subscribe plumbing for cross-engine lemma sharing.

One small protocol (:class:`SharePort`, whose base class is the inert
no-op port) and one implementation: :class:`LocalShareBus` /
:class:`LocalSharePort`, the in-process hub behind the deterministic
cooperative runner (:mod:`repro.share.coop`) and the share tests.
Publications get a global sequence number and land in every *other*
port's inbox for delivery at its next sync.

Engines talk to their port only at bound/obligation boundaries
(:meth:`repro.core.base.UmcEngine._share_sync`), so what an engine
imports depends only on the order in which the engines reach their
boundaries — which the cooperative runner fixes deterministically.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .lemma import Lemma, SharedLemma

__all__ = ["ShareCancelled", "SharePort", "LocalShareBus", "LocalSharePort"]


class ShareCancelled(Exception):
    """Raised inside a blocked sync when the engine lost the race."""


class SharePort:
    """Engine-side endpoint of a share bus (base: the inert no-op port).

    ``fingerprint`` is the bus-wide model fingerprint (``None`` until some
    participant registered one); engines compare it against their own
    reduced model before trusting any delivery.
    """

    def __init__(self, engine: str) -> None:
        self.engine = engine

    @property
    def fingerprint(self) -> Optional[str]:
        return None

    def register_fingerprint(self, fingerprint: str) -> bool:
        """Adopt-or-compare the model fingerprint; False on mismatch."""
        return True

    def publish(self, lemma: Lemma) -> None:
        """Offer a lemma to the bus."""

    def sync(self) -> List[SharedLemma]:
        """Deliver pending foreign lemmas at a bound/obligation boundary.

        May raise :class:`ShareCancelled` when the surrounding race ended.
        """
        return []

    def yield_turn(self) -> None:
        """Heartbeat between solves *inside* a boundary: no lemma exchange.

        The cooperative turnstile uses it to preempt engines whose
        boundaries span many solver calls (the ITP refinement loop, a PDR
        frame's obligation queue) so the work clock stays fair; it never
        delivers lemmas.  May raise :class:`ShareCancelled` when the
        surrounding race ended.
        """


class LocalShareBus:
    """In-process hub: deterministic delivery for the cooperative runner.

    ``deliver=False`` turns the bus blind — publications are dropped and
    syncs return nothing — so the blind baseline of a cooperative
    comparison runs the *same* sync cadence with zero lemma traffic.
    """

    def __init__(self, deliver: bool = True) -> None:
        self.deliver = deliver
        self._ports: Dict[str, "LocalSharePort"] = {}
        self._seq = 0
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> Optional[str]:
        return self._fingerprint

    def register_fingerprint(self, fingerprint: str) -> bool:
        if self._fingerprint is None:
            self._fingerprint = fingerprint
            return True
        return self._fingerprint == fingerprint

    def port(self, engine: str) -> "LocalSharePort":
        if engine not in self._ports:
            self._ports[engine] = LocalSharePort(self, engine)
        return self._ports[engine]

    def publish(self, source: str, lemma: Lemma) -> None:
        if not self.deliver:
            return
        shared = SharedLemma(seq=self._seq, source=source, lemma=lemma)
        self._seq += 1
        for name, port in self._ports.items():
            if name != source:
                port.inbox.append(shared)


class LocalSharePort(SharePort):
    """One engine's mailbox on a :class:`LocalShareBus`."""

    def __init__(self, bus: LocalShareBus, engine: str) -> None:
        super().__init__(engine)
        self.bus = bus
        self.inbox: List[SharedLemma] = []

    @property
    def fingerprint(self) -> Optional[str]:
        return self.bus.fingerprint

    def register_fingerprint(self, fingerprint: str) -> bool:
        return self.bus.register_fingerprint(fingerprint)

    def publish(self, lemma: Lemma) -> None:
        self.bus.publish(self.engine, lemma)

    def sync(self) -> List[SharedLemma]:
        if not self.bus.deliver:
            self.inbox.clear()
            return []
        delivered, self.inbox = self.inbox, []
        return delivered
