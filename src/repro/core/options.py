"""Configuration options for the UMC engines.

Defaults follow the paper's experimental setup where a setting is
mentioned (``alpha_s = 0.5``, assume-k checks for interpolation sequences)
and otherwise pick values that behave sensibly on the down-scaled synthetic
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..bmc.checks import BmcCheckKind
from ..preprocess.passes import validate_pass_names

__all__ = ["EngineOptions"]


@dataclass
class EngineOptions:
    """Knobs shared by all engines (engine-specific ones are ignored by others).

    None of them selects how a refutation is obtained or post-processed: a
    solo run refutes every bound and step on its one proof-logged
    unrolling, and a share-attached run on fresh checks
    (``UmcEngine._group_proof_active``); every refutation is trimmed
    before extraction (``UmcEngine._trim_proof``).  Every interpolant
    is McMillan's (the Pudlák system stays in :mod:`repro.itp.craig` as
    a test oracle), and every FAIL trace is replayed on the source model
    before it is reported (``UmcEngine._fail``).

    Attributes
    ----------
    max_bound:
        Largest BMC bound attempted before giving up with ``UNKNOWN``.
    time_limit:
        Wall-clock budget in seconds for one verification run (the paper
        used 1800 s on its testbed); ``None`` disables the limit.  Exceeding
        it yields an ``OVERFLOW`` verdict, mirroring the paper's *ovf*.
        Must be non-negative and not NaN; ``0.0`` overflows at the first
        budgeted call.
    conflict_limit:
        Per-SAT-call conflict budget; ``None`` disables it.  Must be
        non-negative; ``0`` allows no conflict above decision level 0, so
        the first SAT call that needs one overflows.
    max_clauses:
        Deterministic resource budget: total clause additions across every
        SAT call of the run (the counter behind ``EngineStats.clauses_added``).
        Exceeding it yields ``OVERFLOW`` exactly like the wall-clock limit,
        but at a machine-independent point — the committed benchmark
        artefacts are regenerated under this budget instead of a time limit
        so that reruns on any hardware (and at any ``jobs`` count) produce
        byte-identical tables.  Binds on the *encoding-heavy* failure mode
        (re-unrolling a deep circuit per bound).  ``None`` disables it.
    max_propagations:
        Deterministic resource budget: total unit propagations across every
        SAT call of the run.  Propagations are the classic deterministic
        effort proxy (cf. kissat's "ticks"): they track wall-clock time far
        more closely than conflicts or clauses, so this budget binds on the
        *search-heavy* failure mode (exact-k checks whose formulas stay
        small but hard) that ``max_clauses`` never catches.  Same
        ``OVERFLOW`` semantics, same machine-independence.  ``None``
        disables it.
    bmc_check:
        Which BMC formulation the sequence engines use for their main check
        (``ASSUME`` by default, per Section III; ``EXACT`` reproduces the
        other axis of Fig. 7); they raise ``ValueError`` on ``BOUND``.  The
        standard-interpolation engine always refutes with bound-k checks
        as required for its correctness.
    alpha_s:
        Serialisation ratio for serial interpolation sequences (Fig. 4).
    preprocess:
        Run the model-preprocessing pipeline (:mod:`repro.preprocess`)
        before encoding anything: cone-of-influence reduction, stuck-latch
        sweeping, structural rewriting and SAT sweeping (fraiging).
        Counterexamples found on the reduced model are lifted back to the
        original variables before validation, so
        verdicts and replayed traces are identical either way — only the
        amount of logic the solver pays for changes.  On by default;
        disable to encode the raw circuit as the seed implementation did.
    preprocess_passes:
        Pass names (in order) for the pipeline; ``None`` selects the
        default ``('coi', 'sweep', 'coi', 'rewrite', 'fraig', 'cnf')``.
        Ignored when ``preprocess`` is off.
    """

    max_bound: int = 30
    time_limit: Optional[float] = None
    conflict_limit: Optional[int] = None
    max_clauses: Optional[int] = None
    max_propagations: Optional[int] = None
    bmc_check: BmcCheckKind = BmcCheckKind.ASSUME
    alpha_s: float = 0.5
    preprocess: bool = True
    preprocess_passes: Optional[Tuple[str, ...]] = None

    def with_changes(self, **kwargs) -> "EngineOptions":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        # NaN fails every comparison below and infinity passes them, so a
        # non-finite count would silently switch its bound off.
        for name in ("max_bound", "conflict_limit", "max_clauses",
                     "max_propagations"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite integer, got {value}")
        if not 0.0 <= self.alpha_s <= 1.0:
            raise ValueError(f"alpha_s must be within [0, 1], got {self.alpha_s}")
        if self.max_bound < 1:
            raise ValueError("max_bound must be at least 1")
        if self.time_limit is not None and (self.time_limit < 0
                                            or math.isnan(self.time_limit)):
            raise ValueError("time_limit must be non-negative (or None), "
                             f"got {self.time_limit}")
        if self.conflict_limit is not None and self.conflict_limit < 0:
            raise ValueError("conflict_limit must be non-negative (or None)")
        if self.max_clauses is not None and self.max_clauses < 1:
            raise ValueError("max_clauses must be at least 1 (or None)")
        if self.max_propagations is not None and self.max_propagations < 1:
            raise ValueError("max_propagations must be at least 1 (or None)")
        if self.preprocess_passes is not None:
            self.preprocess_passes = validate_pass_names(self.preprocess_passes)
