"""Outside-in per-layer timing: spans around each layer's public entry points.

:class:`LayerTracer` wraps the functions and methods listed in
:data:`ENTRY_POINTS` for the duration of a traced pass.  It patches the
defining module (or class) and every module that imported the name, so a
call through any binding is timed.  A span stack gives each layer its
*self time*: a call's duration minus the time of the timed calls nested in
it.  The cell itself is the root span, so whatever no layer claims is the
engines' own time (``core.engine_self_s``).

Nothing per clause is wrapped: a per-clause wrapper costs more than the
layers it would attribute.  A call into a layer from inside the same layer
(``encode_roots`` calling ``literal``, ``extract_sequence`` calling
``InterpolantBuilder.extract``) runs unwrapped, so call counts are entries
into the layer.

Installing fails loudly (:class:`LayerError`) when a listed entry point, or
an importing module's binding of it, is missing or no longer the original
object.  A refactor that renames or replaces an entry point then breaks
the benchmark instead of silently reporting that layer as zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

__all__ = ["ENTRY_POINTS", "METRICS", "LayerError", "LayerTracer",
           "median_metrics"]

#: ``(span key, defining module, attribute, modules that import the name)``.
#: The attribute is ``Class.method`` or a module-level function; a method is
#: patched on its class, so no importer list applies.  ``sat.solve`` splits
#: into ``sat.proof_solve`` per call, on solvers with proof logging on.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sat.solve", "repro.sat.solver", "CdclSolver.solve", ()),
    ("cnf.encode", "repro.cnf.tseitin", "TseitinEncoder.encode_roots", ()),
    ("cnf.encode", "repro.cnf.tseitin", "TseitinEncoder.literal", ()),
    ("proof.trim", "repro.sat.proof", "reduce_proof", ("repro.core.base",)),
    ("proof.strip", "repro.sat.proof", "strip_activations",
     ("repro.sat", "repro.bmc.incremental")),
    ("itp.extract", "repro.itp.sequence", "extract_sequence",
     ("repro.itp", "repro.core.itpseq_engine", "repro.core.sitpseq_engine")),
    ("itp.extract", "repro.itp.craig", "InterpolantBuilder.extract", ()),
    ("itp.compact", "repro.itp.compact", "compact_cone",
     ("repro.itp", "repro.core.base")),
    ("core.fixpoint", "repro.core.fixpoint", "FixpointChecker.implies", ()),
    ("bmc.extend", "repro.bmc.incremental", "IncrementalUnroller.extend_to", ()),
    ("bmc.build_check", "repro.bmc.checks", "build_check",
     ("repro.bmc", "repro.bmc.engine", "repro.core.cba_engine",
      "repro.core.itpseq_engine", "repro.core.sitpseq_engine")),
    ("bmc.trace_check", "repro.bmc.cex", "Trace.check", ()),
    ("pdr.generalize", "repro.pdr.generalize", "generalize",
     ("repro.pdr", "repro.core.pdr_engine")),
    ("preprocess.pass", "repro.preprocess.coi", "CoiPass.apply", ()),
    ("preprocess.pass", "repro.preprocess.sweep", "SweepPass.apply", ()),
    ("preprocess.pass", "repro.preprocess.rewrite", "RewritePass.apply", ()),
    ("preprocess.pass", "repro.preprocess.passes", "CnfEliminationPass.apply", ()),
    ("preprocess.fraig", "repro.preprocess.fraig", "FraigPass.apply", ()),
    ("aig.simulate", "repro.aig.simulate", "simulate_comb",
     ("repro.aig", "repro.aig.model", "repro.bmc.cex", "repro.preprocess.fraig")),
    ("aig.simulate", "repro.aig.simulate", "ternary_simulate_comb",
     ("repro.aig", "repro.preprocess.sweep")),
    ("aig.simulate", "repro.aig.simulate", "random_stimulus_rounds",
     ("repro.aig", "repro.preprocess.fraig", "repro.share.adapt")),
    ("abstraction.refine", "repro.abstraction.cba", "choose_refinement",
     ("repro.abstraction", "repro.core.cba_engine")),
    ("abstraction.refine", "repro.abstraction.cba", "extend_counterexample",
     ("repro.abstraction", "repro.core.cba_engine")),
)

#: Root span of every cell; its self time is ``core.engine_self_s``.
CELL_KEY = "core.engine"

#: ``(name, unit)`` of every per-layer metric, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("sat.solve_s", "s"), ("sat.proof_solve_s", "s"),
    ("sat.solve_calls", "count"), ("sat.propagations", "count"),
    ("sat.conflicts", "count"), ("sat.decisions", "count"),
    ("sat.clauses_added", "count"), ("sat.props_per_s", "1/s"),
    ("cnf.encode_s", "s"), ("cnf.encode_calls", "count"),
    ("proof.trim_s", "s"), ("proof.trim_calls", "count"),
    ("proof.trim_keep_ratio", "ratio"), ("proof.strip_s", "s"),
    ("proof.strip_calls", "count"), ("proof.group_fallbacks", "count"),
    ("itp.extract_s", "s"), ("itp.extract_calls", "count"),
    ("itp.compact_s", "s"), ("itp.compact_saved_ratio", "ratio"),
    ("itp.nodes", "count"),
    ("core.fixpoint_s", "s"), ("core.fixpoint_checks", "count"),
    ("core.fixpoint_reused", "count"), ("core.engine_self_s", "s"),
    ("bmc.extend_s", "s"), ("bmc.build_check_s", "s"),
    ("bmc.trace_check_s", "s"),
    ("pdr.generalize_s", "s"), ("pdr.generalize_calls", "count"),
    ("pdr.blocked_cubes", "count"), ("pdr.cubes_per_solve", "ratio"),
    ("preprocess.passes_s", "s"), ("preprocess.fraig_s", "s"),
    ("preprocess.ands_removed", "count"),
    ("preprocess.fraig_merge_ratio", "ratio"),
    ("aig.simulate_s", "s"), ("aig.simulate_calls", "count"),
    ("abstraction.refine_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class LayerError(RuntimeError):
    """A listed entry point, or a binding of it, is not what the list says."""


class CellSpan:
    """Wall time of one cell's root span, set when the span ends."""

    seconds = 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _after_solve(counts, args, result) -> None:
    call = args[0].last_call_stats
    counts["propagations"] += call.propagations
    counts["conflicts"] += call.conflicts
    counts["decisions"] += call.decisions
    counts["clauses_added"] += call.clauses_added


def _after_trim(counts, args, result) -> None:
    reduction = result[1]
    counts["trim_nodes_in"] += reduction.nodes_before
    counts["trim_nodes_out"] += reduction.nodes_after


def _after_pass(counts, args, result) -> None:
    stats = result.stats
    counts["ands_removed"] += stats.ands_removed
    counts["fraig_classes"] += stats.extra.get("fraig_classes", 0)
    counts["fraig_merges"] += stats.extra.get("fraig_merges", 0)


#: Per-key hooks reading the counters a call's result or receiver carries.
_AFTER = {"sat.solve": _after_solve, "proof.trim": _after_trim,
          "preprocess.pass": _after_pass, "preprocess.fraig": _after_pass}


def _repro_modules() -> List[str]:
    """Import every ``repro`` module, so no importing module is missed."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        importlib.import_module(info.name)
        names.append(info.name)
    return names


class LayerTracer:
    """Self-time and call counts per layer, from spans around entry points."""

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self.entry_points = entry_points
        self._patches: List[Tuple[object, str, object]] = []
        self._stack: List[list] = []
        self.reset()

    # ------------------------------------------------------------------ #
    # Totals
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero the totals (the patches stay)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)

    def _enter(self, key: str) -> list:
        frame = [key, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> float:
        elapsed = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += elapsed - frame[2]
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    @contextlib.contextmanager
    def cell(self) -> Iterator[CellSpan]:
        """The root span of one cell; yields its wall time once it ends."""
        span = CellSpan()
        frame = self._enter(CELL_KEY)
        try:
            yield span
        finally:
            span.seconds = self._leave(frame)

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        after = _AFTER.get(key)
        solve = key == "sat.solve"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span_key = ("sat.proof_solve" if solve and args[0].proof_logging
                        else key)
            if stack and stack[-1][0] == span_key:
                return fn(*args, **kwargs)
            frame = self._enter(span_key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame)
            if after is not None:
                after(self.counts, args, result)
            return result

        return timed

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def _resolve(self) -> List[Tuple[str, List[Tuple[object, str]], object]]:
        """Check every entry point and binding; return what to patch."""
        loaded = _repro_modules()
        plan = []
        for key, module_name, attribute, importers in self.entry_points:
            where = f"{module_name}.{attribute}"
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                raise LayerError(f"{where}: module is missing ({exc})") from None
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(name) if isinstance(owner, type) else None
                if not callable(original):
                    raise LayerError(f"{where} is missing")
                plan.append((key, [(owner, name)], original))
                continue
            original = vars(module).get(name)
            if not callable(original) or getattr(original, "__module__", None) != module_name:
                raise LayerError(f"{where} is missing or not defined there")
            bindings = [(module, name)]
            for importer in importers:
                try:
                    bound = vars(importlib.import_module(importer)).get(name)
                except ImportError as exc:
                    raise LayerError(f"{importer} (imports {where}) is missing "
                                     f"({exc})") from None
                if bound is not original:
                    raise LayerError(f"{importer}.{name} is no longer {where}")
                bindings.append((sys.modules[importer], name))
            listed = {module_name, *importers}
            for other in loaded:
                mod = sys.modules[other]
                if other not in listed and vars(mod).get(name) is original:
                    bindings.append((mod, name))
            plan.append((key, bindings, original))
        return plan

    def install(self) -> None:
        """Wrap every entry point; raise :class:`LayerError` before patching
        anything if one is missing or rebound."""
        if self._patches:
            raise LayerError("layer wrappers are already installed")
        for key, bindings, original in self._resolve():
            wrapper = self._wrap(key, original)
            for owner, name in bindings:
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # ------------------------------------------------------------------ #
    # Metrics of one traced pass
    # ------------------------------------------------------------------ #
    def pass_metrics(self, stats: Sequence[Tuple[str, object]]) -> Dict[str, float]:
        """Per-layer metrics of the pass just traced.

        ``stats`` pairs each UMC cell's engine name with its
        :class:`~repro.core.result.EngineStats`, the source of the
        deterministic counters the wrappers cannot see.
        """
        s, n, c = self.self_s, self.calls, self.counts
        umc = [st for _, st in stats]
        pdr = [st for engine, st in stats if engine == "pdr"]
        itp_nodes = sum(st.itp_nodes for st in umc)
        compacted = sum(st.itp_ands_compacted for st in umc)
        blocked = sum(st.blocked_cubes for st in pdr)
        solve_s = s["sat.solve"] + s["sat.proof_solve"]
        return {
            "sat.solve_s": s["sat.solve"],
            "sat.proof_solve_s": s["sat.proof_solve"],
            "sat.solve_calls": n["sat.solve"] + n["sat.proof_solve"],
            "sat.propagations": c["propagations"],
            "sat.conflicts": c["conflicts"],
            "sat.decisions": c["decisions"],
            "sat.clauses_added": c["clauses_added"],
            "sat.props_per_s": _ratio(c["propagations"], solve_s),
            "cnf.encode_s": s["cnf.encode"],
            "cnf.encode_calls": n["cnf.encode"],
            "proof.trim_s": s["proof.trim"],
            "proof.trim_calls": n["proof.trim"],
            "proof.trim_keep_ratio": _ratio(c["trim_nodes_out"],
                                            c["trim_nodes_in"]),
            "proof.strip_s": s["proof.strip"],
            "proof.strip_calls": n["proof.strip"],
            "proof.group_fallbacks": sum(st.proof_group_fallbacks for st in umc),
            "itp.extract_s": s["itp.extract"],
            "itp.extract_calls": n["itp.extract"],
            "itp.compact_s": s["itp.compact"],
            "itp.compact_saved_ratio": _ratio(compacted, itp_nodes + compacted),
            "itp.nodes": itp_nodes,
            "core.fixpoint_s": s["core.fixpoint"],
            "core.fixpoint_checks": n["core.fixpoint"],
            "core.fixpoint_reused": sum(st.fixpoint_encodings_reused for st in umc),
            "core.engine_self_s": s[CELL_KEY],
            "bmc.extend_s": s["bmc.extend"],
            "bmc.build_check_s": s["bmc.build_check"],
            "bmc.trace_check_s": s["bmc.trace_check"],
            "pdr.generalize_s": s["pdr.generalize"],
            "pdr.generalize_calls": n["pdr.generalize"],
            "pdr.blocked_cubes": blocked,
            "pdr.cubes_per_solve": _ratio(blocked, sum(st.sat_calls for st in pdr)),
            "preprocess.passes_s": s["preprocess.pass"] + s["preprocess.fraig"],
            "preprocess.fraig_s": s["preprocess.fraig"],
            "preprocess.ands_removed": c["ands_removed"],
            "preprocess.fraig_merge_ratio": _ratio(c["fraig_merges"],
                                                   c["fraig_classes"]),
            "aig.simulate_s": s["aig.simulate"],
            "aig.simulate_calls": n["aig.simulate"],
            "abstraction.refine_s": s["abstraction.refine"],
        }


def median_metrics(passes: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The per-metric (low) median over traced passes: always a measured
    value, so counts stay whole numbers."""
    return {name: statistics.median_low(p[name] for p in passes)
            for name in passes[0]}
