"""Verification results reported by the UMC engines.

The paper reports, per instance and per engine, the outcome, the CPU time
and the depth measures (k_fp, j_fp) defined in Section IV-B:

* ``k_fp`` — the BMC bound of the outer iteration at which the engine
  stopped (the fixed-point bound for proofs, the failure depth for
  counterexamples, the last attempted bound for overflows);
* ``j_fp`` — the depth of the over-approximate forward traversal at the
  fixed-point (the index of the cut); reported as 0 for failures, matching
  the paper's convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Sequence

from ..bmc.cex import Trace

__all__ = ["Verdict", "VerificationResult", "EngineStats", "STAT_GROUPS",
           "SPAN_COUNTERS"]

#: Subsystem grouping of the :class:`EngineStats` counters.  Every field
#: appears in exactly one group (a test pins this); engines declare
#: which groups are structurally meaningful for them via their
#: ``stat_groups`` class attribute, and the CLI's ``--stats`` rendering
#: suppresses the groups an engine can only ever report as zero.  No
#: engine lists ``share``: the CLI never attaches a share bus, and only
#: :func:`repro.share.cooperative_race` fills those counters.
STAT_GROUPS: Dict[str, tuple] = {
    "solver": ("sat_calls", "sat_time", "clauses_added", "conflicts",
               "propagations", "max_call_conflicts"),
    "preprocess": ("pre_inputs_removed", "pre_latches_removed",
                   "pre_ands_removed", "fraig_classes", "fraig_merges",
                   "fraig_sat_confirms"),
    "lifecycle": ("itp_extractions", "itp_nodes", "containment_checks",
                  "proof_nodes_trimmed", "itp_ands_compacted",
                  "fixpoint_encodings_reused", "fixpoint_groups_shed",
                  "fixpoint_witness_hits", "proof_group_solves_saved",
                  "proof_chains_stripped", "proof_group_fallbacks"),
    "pdr": ("blocked_cubes", "clauses_pushed"),
    "cba": ("refinements", "abstract_latches"),
    "share": ("lemmas_tx", "lemmas_rx", "lemmas_retracted",
              "share_solves_skipped"),
}

#: The cumulative SAT counters every engine's span tracer samples (see
#: :meth:`EngineStats.sample`); span deltas are computed from these.
SPAN_COUNTERS = ("sat_calls", "clauses_added", "conflicts", "propagations")


class Verdict(enum.Enum):
    """Outcome of a verification run."""

    PASS = "pass"
    FAIL = "fail"
    OVERFLOW = "ovf"
    UNKNOWN = "unknown"


@dataclass
class EngineStats:
    """Aggregate counters accumulated during a run.

    ``clauses_added``, ``conflicts`` and ``propagations`` are *cumulative*
    across every SAT call routed through the engine's accounting (the
    incremental counterexample search plus the proof-logged refutation
    checks); ``max_call_conflicts`` is the *per-call* peak, so Fig. 6/7
    records can report both the total solver work and the hardest single
    query.  ``propagations`` is the deterministic effort proxy closest to
    wall clock (and the counter behind ``EngineOptions.max_propagations``).

    ``blocked_cubes`` and ``clauses_pushed`` are populated by the PDR
    engine only (frame clauses learned, and how many of them the
    propagation phase moved forward); they stay 0 for the interpolation
    engines, whose proof effort shows up in ``itp_extractions``/``itp_nodes``
    instead.

    The ``pre_*`` counters describe the preprocessing pipeline's reduction
    of the run's model (inputs/latches/AND gates removed before any
    encoding happened); they stay 0 with ``EngineOptions.preprocess`` off.
    The ``fraig_*`` counters expose the SAT-sweeping pass of the pipeline:
    candidate equivalence classes examined, nodes merged onto class
    representatives, and the miter UNSAT answers that proved those merges
    (they stay 0 when the pipeline contains no ``fraig`` pass).

    The interpolant-lifecycle counters measure what the post-extraction
    machinery saved: ``proof_nodes_trimmed`` — proof nodes removed from
    refutations before extraction (core trimming + RecyclePivots, which
    every refutation goes through);
    ``itp_ands_compacted`` — AND gates removed from freshly extracted
    interpolant cones by structural compaction; and
    ``fixpoint_encodings_reused`` — cached AND gates the persistent
    containment checker's checks read directly: the distinct fanins of
    each check's newly encoded gates that earlier checks had encoded,
    plus a root that was cached outright.  It is counted in O(new
    gates), so it is a lower bound on the cone encodings a throwaway
    solver would have re-emitted (the cached cones below those fanins
    are not walked).  ``fixpoint_groups_shed`` counts the checker's clause
    groups released because column strengthening superseded their cones
    (:meth:`repro.core.fixpoint.FixpointChecker.shed_superseded`); only
    the sequence engines shed, so it stays 0 elsewhere.
    ``fixpoint_witness_hits`` counts the containment checks the checker's
    witness filter answered "not contained" from its pooled SAT models,
    with no encoding and no solve (they add nothing to ``sat_calls``,
    ``sat_time`` or the solver counters; see :mod:`repro.core.fixpoint`).
    All of them stay 0 for the PDR/BMC engines.

    The group-proof counters measure the one-solve-per-bound path that
    every solo run takes: ``proof_group_solves_saved`` — bounds
    whose refutation came from the incremental searcher's stripped trace
    instead of a fresh monolithic re-solve (each one is a whole SAT solve
    that never happened); ``proof_chains_stripped`` — derived chains an
    activation literal was deleted from across those refutations and the
    steps refuted on the searcher (serial steps, the parallel remainder,
    ITP's image steps; :func:`repro.sat.proof.strip_activations`); and
    ``proof_group_fallbacks`` — bounds, or steps, where stripping was
    rejected (a chain depended on a group the check must not use) and the
    engine fell back to a fresh solver.  Share-attached runs refute on
    fresh checks, so both stay 0 there.
    """

    sat_calls: int = 0
    sat_time: float = 0.0
    itp_extractions: int = 0
    itp_nodes: int = 0
    refinements: int = 0
    abstract_latches: int = 0
    containment_checks: int = 0
    clauses_added: int = 0
    conflicts: int = 0
    propagations: int = 0
    max_call_conflicts: int = 0
    blocked_cubes: int = 0
    clauses_pushed: int = 0
    pre_inputs_removed: int = 0
    pre_latches_removed: int = 0
    pre_ands_removed: int = 0
    fraig_classes: int = 0
    fraig_merges: int = 0
    fraig_sat_confirms: int = 0
    proof_nodes_trimmed: int = 0
    itp_ands_compacted: int = 0
    fixpoint_encodings_reused: int = 0
    fixpoint_groups_shed: int = 0
    fixpoint_witness_hits: int = 0
    proof_group_solves_saved: int = 0
    proof_chains_stripped: int = 0
    proof_group_fallbacks: int = 0
    lemmas_tx: int = 0
    lemmas_rx: int = 0
    lemmas_retracted: int = 0
    share_solves_skipped: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Every counter, in field order (``sat_time`` rounded to 0.1 ms)."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["sat_time"] = round(self.sat_time, 4)
        return row

    def sample(self, names: Sequence[str]) -> Dict[str, int]:
        """The named counters' current values, in ``names`` order."""
        return {name: getattr(self, name) for name in names}

    def grouped(self, groups=None) -> "Dict[str, Dict[str, float]]":
        """The :meth:`as_dict` counters bucketed by subsystem.

        ``groups`` selects (and orders) the buckets; ``None`` means every
        bucket of :data:`STAT_GROUPS`.  Unknown group names raise
        ``KeyError`` — a typo in an engine's ``stat_groups`` should surface
        loudly, not silently drop counters.
        """
        flat = self.as_dict()
        selected = tuple(groups) if groups is not None else tuple(STAT_GROUPS)
        return {group: {name: flat[name] for name in STAT_GROUPS[group]}
                for group in selected}


@dataclass
class VerificationResult:
    """The answer of one engine on one model."""

    verdict: Verdict
    engine: str
    model_name: str
    k_fp: Optional[int] = None
    j_fp: Optional[int] = None
    time_seconds: float = 0.0
    trace: Optional[Trace] = None
    stats: EngineStats = field(default_factory=EngineStats)
    message: str = ""

    @property
    def is_pass(self) -> bool:
        return self.verdict is Verdict.PASS

    @property
    def is_fail(self) -> bool:
        return self.verdict is Verdict.FAIL

    @property
    def is_overflow(self) -> bool:
        return self.verdict is Verdict.OVERFLOW

    @property
    def solved(self) -> bool:
        """Whether the run produced a definitive PASS or FAIL answer."""
        return self.verdict in (Verdict.PASS, Verdict.FAIL)

    def depth_pair(self) -> str:
        """Render (k_fp, j_fp) the way Table I does.

        Overflows show the last attempted bound in round brackets and a dash
        for the traversal depth.
        """
        if self.is_overflow:
            k = f"({self.k_fp})" if self.k_fp is not None else "(-)"
            return f"{k} -"
        k = str(self.k_fp) if self.k_fp is not None else "-"
        j = str(self.j_fp) if self.j_fp is not None else "-"
        return f"{k} {j}"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"{self.engine}: {self.verdict.value} on {self.model_name} "
                f"(k_fp={self.k_fp}, j_fp={self.j_fp}, "
                f"t={self.time_seconds:.2f}s)")
