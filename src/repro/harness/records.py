"""Result records produced by the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..bdd.checker import BddVerdict
from ..core.result import EngineStats, VerificationResult

__all__ = ["EngineRecord", "InstanceRecord"]


#: The :class:`EngineStats` counters an :class:`EngineRecord` reports, in
#: column order (after engine, verdict, time, k_fp and j_fp).
RECORD_COLUMNS = (
    "sat_calls", "itp_nodes", "refinements", "clauses_added", "conflicts",
    "propagations", "max_call_conflicts", "blocked_cubes", "clauses_pushed",
    "pre_latches_removed", "pre_ands_removed", "fraig_classes",
    "fraig_merges", "fraig_sat_confirms",
    "proof_nodes_trimmed", "itp_ands_compacted", "fixpoint_encodings_reused",
    "fixpoint_groups_shed", "fixpoint_witness_hits",
    "proof_group_solves_saved",
    "proof_chains_stripped", "proof_group_fallbacks",
)


@dataclass
class EngineRecord:
    """One engine's outcome on one instance (one Table I cell group).

    ``stats`` is the run's :class:`~repro.core.result.EngineStats`; the
    record's rows report the :data:`RECORD_COLUMNS` subset of it (what
    each counter means is documented on ``EngineStats``).  Cumulative
    solver work (``clauses_added``, ``conflicts``) sits next to the
    per-call peak (``max_call_conflicts``), so the Fig. 6/7 artefacts can
    relate runtimes to the incremental-vs-monolithic encoding effort; the
    PDR, preprocessing, interpolant-lifecycle and group-proof columns are
    zero for the engines (or option settings) that never move them.
    """

    engine: str
    verdict: str
    time_seconds: float
    k_fp: Optional[int]
    j_fp: Optional[int]
    stats: EngineStats = field(default_factory=EngineStats)

    @staticmethod
    def from_result(result: VerificationResult) -> "EngineRecord":
        return EngineRecord(engine=result.engine,
                            verdict=result.verdict.value,
                            time_seconds=result.time_seconds,
                            k_fp=result.k_fp, j_fp=result.j_fp,
                            stats=result.stats)

    @property
    def solved(self) -> bool:
        return self.verdict in ("pass", "fail")

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "engine": self.engine,
            "verdict": self.verdict,
            "time": round(self.time_seconds, 3),
            "k_fp": self.k_fp,
            "j_fp": self.j_fp,
        }
        row.update(self.stats.sample(RECORD_COLUMNS))
        return row

    def as_deterministic_dict(self) -> Dict[str, object]:
        """Everything in :meth:`as_dict` that reruns reproduce exactly.

        Drops the measured wall-clock time — the one field that differs
        between a ``jobs=1`` and a ``jobs=N`` run (or between two machines).
        Equality of these projections is the harness's definition of
        "bit-identical records", asserted by ``tests/parallel/`` and by the
        CI staleness gate over the committed artefacts.
        """
        row = self.as_dict()
        del row["time"]
        return row


@dataclass
class InstanceRecord:
    """All results for one benchmark instance (one Table I row)."""

    name: str
    category: str
    expected: str
    num_inputs: int
    num_latches: int
    bdd: Optional[BddVerdict] = None
    engines: Dict[str, EngineRecord] = field(default_factory=dict)

    def engine_record(self, engine: str) -> Optional[EngineRecord]:
        return self.engines.get(engine)

    def verdict_consistent(self) -> bool:
        """All solved answers (engines and BDD) must agree with the expected one."""
        answers = {rec.verdict for rec in self.engines.values() if rec.solved}
        if self.bdd is not None and self.bdd.status in ("pass", "fail"):
            answers.add(self.bdd.status)
        return answers <= {self.expected}

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "name": self.name,
            "category": self.category,
            "expected": self.expected,
            "PI": self.num_inputs,
            "FF": self.num_latches,
        }
        if self.bdd is not None:
            row.update({
                "bdd_status": self.bdd.status,
                "d_F": self.bdd.d_f,
                "time_F": round(self.bdd.time_forward, 3),
                "d_B": self.bdd.d_b,
                "time_B": round(self.bdd.time_backward, 3),
            })
        for engine, record in self.engines.items():
            row[f"{engine}_time"] = round(record.time_seconds, 3)
            row[f"{engine}_verdict"] = record.verdict
            row[f"{engine}_k_fp"] = record.k_fp
            row[f"{engine}_j_fp"] = record.j_fp
            row[f"{engine}_clauses"] = record.stats.clauses_added
            row[f"{engine}_max_call_conflicts"] = record.stats.max_call_conflicts
        return row

    def as_deterministic_dict(self) -> Dict[str, object]:
        """The machine- and job-count-independent projection of the row.

        BDD diameters and statuses stay (they are exact); every measured
        time goes.  Two suite runs — serial vs. pooled, laptop vs. CI —
        must produce equal lists of these dicts or something real broke.
        """
        row: Dict[str, object] = {
            "name": self.name,
            "category": self.category,
            "expected": self.expected,
            "PI": self.num_inputs,
            "FF": self.num_latches,
        }
        if self.bdd is not None:
            row.update({"bdd_status": self.bdd.status,
                        "d_F": self.bdd.d_f, "d_B": self.bdd.d_b})
        for engine, record in self.engines.items():
            for key, value in record.as_deterministic_dict().items():
                if key != "engine":
                    row[f"{engine}_{key}"] = value
        return row
