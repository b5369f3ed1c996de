"""Inductive generalization: drop literals while the cube stays blocked.

Blocking the exact cube a SAT witness produced excludes a single corner of
the state space per clause; PDR's convergence comes from *generalizing*
each blocked cube into the smallest sub-cube that is still inductive
relative to its frame, so one clause cuts away an exponentially larger
region.

The procedure here is the standard literal-dropping loop (a light version
of Bradley's MIC): try the cube minus one literal, keep the reduction when
the relative-induction query stays UNSAT — harvesting the query's
failed-assumption core, which often removes several more literals at once —
and put the literal back otherwise.  Dropping is attempted once per
literal; *failed* attempts consume a fixed retry budget
(``repro.core.pdr_engine.GEN_BUDGET``) so a stubborn cube cannot soak up an
unbounded number of SAT calls.

Initiation (S₀ ⇒ ¬cube) is preserved throughout: candidates that would
swallow an initial state are skipped syntactically (S₀ is a cube, so the
check is free), and the cores returned by
:meth:`~repro.pdr.frames.FrameSequence.check_obligation` are already
initiation-repaired.
"""

from __future__ import annotations

from typing import Mapping

from .frames import Cube, FrameSequence

__all__ = ["generalize"]


def generalize(frames: FrameSequence, cube: Mapping[int, bool], level: int,
               budget: int) -> Cube:
    """Shrink a relatively-inductive ``cube`` at ``level`` by literal dropping.

    ``cube`` must already be blocked at ``level`` (i.e. inductive relative
    to F_{level-1}); the result is a sub-cube with the same property.
    ``budget`` bounds the number of *unsuccessful* drop attempts (each one
    is a wasted SAT query); successful drops are free since every one
    strictly shrinks the cube.
    """
    result: Cube = dict(cube)
    retries = budget
    for var, _ in sorted(cube.items()):
        if len(result) <= 1:
            break
        if retries <= 0:
            break
        if var not in result:
            continue  # already removed by an earlier core
        candidate = {v: b for v, b in result.items() if v != var}
        if frames.intersects_initial(candidate):
            continue  # dropping this literal would swallow an initial state
        answer = frames.check_obligation(candidate, level)
        if answer[0] == "blocked":
            result = answer[1]
        else:
            retries -= 1
    return result
