"""A portfolio over the five engines: sequential turns or a true race.

The paper positions ITPSEQ (and its serial / CBA variants) as "an
additional engine within a potential portfolio of available MC techniques"
(Section IV).  :class:`Portfolio` realises that: it runs a configurable
list of engines on the same model, stopping at the first definitive answer
or collecting every result for comparison — the mode the experiment harness
uses to build Table I.  With the PDR engine registered the portfolio now
contains a structurally different prover as well: the four interpolation
engines refute ever-deeper unrollings, PDR strengthens relative-inductive
frames over a single transition copy, and the two families dominate on
different instances (deep diameters with easy inductive invariants favour
PDR; shallow convergence with hard local reasoning favours interpolation).

Real portfolios *race*: with ``parallel=True`` both entry points run every
member in its own worker process (:mod:`repro.parallel`), so a portfolio
pays the *minimum* of its members' runtimes instead of their sum —
``run_first_solved`` cancels the losers the moment one engine returns a
definitive PASS/FAIL, while ``run_all`` joins all workers and keeps its
cross-engine disagreement check.  The verdict is identical to the
sequential mode (every member answers the same decision problem); only the
identity of the engine that happened to answer first may differ.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Type

from ..aig.model import Model
from .base import UmcEngine
from .cba_engine import ItpSeqCbaEngine
from .itp_engine import ItpEngine
from .itpseq_engine import ItpSeqEngine
from .options import EngineOptions
from .pdr_engine import PdrEngine
from .result import VerificationResult
from .sitpseq_engine import SerialItpSeqEngine

__all__ = ["ENGINES", "Portfolio", "run_engine"]

#: Registry of engine name -> class, in the order the paper's Table I uses
#: (PDR appended as the portfolio's non-interpolation member).
ENGINES: Dict[str, Type[UmcEngine]] = {
    "itp": ItpEngine,
    "itpseq": ItpSeqEngine,
    "sitpseq": SerialItpSeqEngine,
    "itpseqcba": ItpSeqCbaEngine,
    "pdr": PdrEngine,
}


def run_engine(name: str, model: Model,
               options: Optional[EngineOptions] = None,
               tracer=None) -> VerificationResult:
    """Instantiate and run one engine by its registry name, solo.

    Sharing never goes through here: the cooperative race
    (:func:`repro.share.cooperative_race`) constructs its engines with a
    share port itself.
    """
    try:
        engine_cls = ENGINES[name]
    except KeyError as exc:
        raise KeyError(f"unknown engine {name!r}; known: {sorted(ENGINES)}") from exc
    # Keep the two-argument constructor contract for engine subclasses that
    # predate tracing (ad-hoc test engines monkeypatched into the registry
    # included): the tracer only travels when there is one.
    if tracer is None:
        return engine_cls(model, options).run()
    return engine_cls(model, options, tracer=tracer).run()


class Portfolio:
    """Run several engines on one model."""

    def __init__(self, engine_names: Optional[Sequence[str]] = None,
                 options: Optional[EngineOptions] = None) -> None:
        self.engine_names = list(engine_names or ENGINES.keys())
        unknown = [n for n in self.engine_names if n not in ENGINES]
        if unknown:
            raise KeyError(f"unknown engines: {unknown}")
        self.options = options or EngineOptions()

    def run_first_solved(self, model: Model, parallel: bool = False,
                         jobs: Optional[int] = None, tracer=None,
                         events_path: Optional[str] = None
                         ) -> VerificationResult:
        """Return the first definitive PASS/FAIL answer.

        Sequentially (the default) the engines take turns in registry
        order.  With ``parallel=True`` they race in worker processes and
        the losers are cancelled as soon as one returns a definitive
        answer — first-result-wins, with ties broken deterministically by
        registry order (``jobs`` caps the concurrent workers; default one
        per engine).  If nothing solves the instance, the last engine's
        result is returned in both modes.

        ``tracer`` threads span tracing through the sequential mode; the
        parallel mode instead takes ``events_path`` (tracers hold live sinks
        and never cross a process boundary) and merges the per-worker
        segments there.
        """
        if parallel:
            from ..parallel import race_engines  # deferred: import cycle
            outcome = race_engines(model, self.engine_names, self.options,
                                   jobs=jobs, first_result_wins=True,
                                   events_path=events_path)
            return outcome.result
        last: Optional[VerificationResult] = None
        for name in self.engine_names:
            result = run_engine(name, model, self.options, tracer=tracer)
            last = result
            if result.solved:
                return result
        assert last is not None
        return last

    def run_all(self, model: Model, parallel: bool = False,
                jobs: Optional[int] = None, tracer=None,
                events_path: Optional[str] = None
                ) -> Dict[str, VerificationResult]:
        """Run every engine and return all results keyed by engine name.

        With ``parallel=True`` the engines run concurrently but *all* of
        them are joined (no cancellation): this mode exists for the
        cross-engine comparison, so every member's answer is collected and
        the disagreement check below applies to exactly the same set of
        results as in the sequential mode.  ``tracer`` / ``events_path``
        follow the same split as :meth:`run_first_solved`.
        """
        results: Dict[str, VerificationResult] = {}
        if parallel:
            from ..parallel import race_engines  # deferred: import cycle
            outcome = race_engines(model, self.engine_names, self.options,
                                   jobs=jobs, first_result_wins=False,
                                   events_path=events_path)
            results = outcome.results
        else:
            for name in self.engine_names:
                results[name] = run_engine(name, model, self.options,
                                           tracer=tracer)
        verdicts = {r.verdict for r in results.values() if r.solved}
        if len(verdicts) > 1:
            raise RuntimeError(
                f"engines disagree on {model.name}: "
                f"{ {n: r.verdict.value for n, r in results.items()} }")
        return results
