"""Proof obligations and their priority queue.

A proof obligation ``(s, i)`` records that the cube ``s`` can reach a
property violation and must be excluded from frame F_i (or be shown
reachable, yielding a counterexample).  Obligations form a backward chain
from the initial states towards the bad cube: each one keeps the concrete
witness state and the input valuation that drives any state of its cube
into the successor obligation's cube, so a completed chain converts
directly into a replayable :class:`~repro.bmc.cex.Trace`.

The queue orders obligations by frame level (lowest first, ties broken
FIFO): handling the shallowest obligation first is what lets PDR find
counterexamples without ever unrolling, and re-enqueueing a blocked
obligation one level up keeps the search for deeper counterexamples alive
within the current frame count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["ProofObligation", "ObligationQueue"]


@dataclass
class ProofObligation:
    """One step of a potential counterexample, pending at ``level``.

    Attributes
    ----------
    cube:
        The (lifted) latch cube to block.  Every state of the cube reaches
        the successor obligation's cube under ``inputs`` (or violates the
        property directly, for the chain's last obligation).
    level:
        Frame index the cube must be excluded from.
    state:
        The full witness state the SAT model produced (used to seed the
        counterexample trace).
    inputs:
        Primary-input valuation for this step.
    succ:
        The obligation this one is a predecessor of (``None`` for the bad
        cube at the top of the chain).
    """

    cube: Dict[int, bool]
    level: int
    state: Dict[int, bool]
    inputs: Dict[int, bool]
    succ: Optional["ProofObligation"] = None

    def chain(self) -> List["ProofObligation"]:
        """The obligation chain from this cube to the bad cube."""
        links: List[ProofObligation] = []
        node: Optional[ProofObligation] = self
        while node is not None:
            links.append(node)
            node = node.succ
        return links

    @property
    def steps_to_bad(self) -> int:
        """Number of transitions from this cube to the property violation."""
        return len(self.chain()) - 1

    def at_level(self, level: int) -> "ProofObligation":
        """A copy of this obligation rescheduled at another frame level."""
        return ProofObligation(cube=self.cube, level=level, state=self.state,
                               inputs=self.inputs, succ=self.succ)


class ObligationQueue:
    """Min-priority queue over obligations, keyed by frame level."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0

    def push(self, obligation: ProofObligation) -> None:
        heapq.heappush(self._heap, (obligation.level, self._seq, obligation))
        self._seq = self._seq + 1

    def pop(self) -> ProofObligation:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
