"""Host speed: time a fixed reference kernel while cells run, so that wall
times can be reported at one reference speed.

On a shared host the interpreter's speed drifts by up to 2x within minutes
(neighbours on the same cores and caches), and a run's wall clock follows
it.  :class:`SpeedSampler` runs :func:`kernel` from a ``SIGALRM`` handler
every ``interval`` seconds of wall time while ``active`` is set, so its
samples interleave with the measured work at a fine grain.  A time ``t``
measured while the samples ``r_1 .. r_n`` were taken has the speed factor
``f = mean(REFERENCE_S / r_i)`` and is reported as ``t * f ** ELASTICITY``
(:func:`at_reference`): the seconds it would have taken at the speed at
which the kernel runs in :data:`REFERENCE_S`.  The handler's own time is
taken out of every measured interval.

The kernel is the benchmark's own code, not the program's, so a change to
the program never moves it.  It mixes the interpreter work the engines do:
an integer loop, method calls with attribute reads over small objects, and
dict stores with a sort.  The program slows more than the kernel when the
host is busy, hence :data:`ELASTICITY`.  On a 2-core shared VM whose raw
pass times spread by 20-34% (IQR/median) over ten runs, ``suite_s`` spread
by 5.9% (``itp_deep``), 7.9% (``pdr_deep``) and 5.1% (``fuzz_small``) with
an elasticity of 1, and by 2.0%, 2.7% and 2.4% with 1.25 (ten fresh runs
each, ``--seconds 30``).
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds :func:`kernel` takes on the reference machine (one 2-core x86-64
#: VM, CPython 3.11, at its quietest).
REFERENCE_S = 0.00085

#: How the program's time scales with the kernel's as the host's load
#: changes: the slope of log(pass time) against log(1 / speed factor).  Fitted
#: on the reference machine over ten runs of each workload, it was 1.25 to
#: 1.3 on all three (and 1.25 over 50 further ``pdr_deep`` passes), where an
#: elasticity of 1 would mean the kernel tracks the program exactly.
ELASTICITY = 1.25


def at_reference(seconds: float, factor: float) -> float:
    """``seconds`` measured at speed factor ``factor``, at the reference speed."""
    return seconds * factor ** ELASTICITY


class _Lit:
    __slots__ = ("var", "neg")

    def __init__(self, var: int, neg: bool):
        self.var = var
        self.neg = neg

    def value(self, assignment: List[bool]) -> bool:
        bit = assignment[self.var]
        return (not bit) if self.neg else bit


_rng = random.Random(20110314)
_ASSIGNMENT = [_rng.random() < 0.5 for _ in range(512)]
_CLAUSES = [[_Lit(_rng.randrange(512), _rng.random() < 0.5) for _ in range(3)]
            for _ in range(300)]


def kernel() -> int:
    """A fixed amount of mixed interpreter work (about 1 ms)."""
    total = 0
    for i in range(5000):
        total += i & 7
    assignment = _ASSIGNMENT
    for _ in range(5):
        for clause in _CLAUSES:
            for lit in clause:
                if lit.value(assignment):
                    total += 1
                    break
    table = {}
    for i in range(3000):
        table[(i * 7919) & 1023] = i
    return total + sorted(table.values())[0]


class SpeedSampler:
    """Samples :func:`kernel` every ``interval`` seconds while ``active``.

    Use as a context manager; it owns ``SIGALRM`` and ``ITIMER_REAL`` while
    entered.  ``samples`` holds ``(start, end)`` of every kernel run.
    """

    def __init__(self, interval: float = 0.04):
        self.interval = interval
        self.active = False
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.active = False

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def spent(self, since: int, start: float, end: float) -> float:
        """Kernel time inside ``[start, end]`` among samples from ``since`` on."""
        return sum(e - s for s, e in self.samples[since:] if s >= start and e <= end)

    def factor(self, since: int = 0) -> float:
        """``mean(REFERENCE_S / r)`` over the samples from ``since`` on; one
        extra sample is taken when there are none."""
        if len(self.samples) <= since:
            start = time.perf_counter()
            kernel()
            self.samples.append((start, time.perf_counter()))
        return statistics.fmean(REFERENCE_S / (e - s) for s, e in self.samples[since:])
