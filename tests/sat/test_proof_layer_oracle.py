"""Oracle for the shared original-clause layer: core-only strip and trim.

``strip_activations`` walks only the root's core and shares the trace's
originals through a view, ``reduce_proof`` shares its input's view and
replays only the chains RecyclePivots changes, and ``PartitionSpans`` reads
variable sets from the layer's per-key index.  The reference kept here
does it the old way: the strip visits every node of the trace and copies
every kept original into a standalone proof, the reduction replays every
core chain, the spans visit every original clause, and core order comes
from filtering the full node list.

:class:`Recorder` wraps the strip and trim bindings the engines call, so
every group-proof bound, serial suffix step, CBA abstract bound and fresh
(fallback) refutation of a run becomes a case.  A case is checked when the
run is over, after the traces it was cut from have grown: partition spans,
the interpolant's AIG literal at every cut, the core order, the
materialised originals, every node of the reduced core (clause, chain,
partition), the root and the strip and trim counters must all equal the
reference's.  ``tests/fuzz/test_proof_layer_stream.py`` runs the same
recorder over the whole quick suite.
"""

from dataclasses import dataclass
from typing import Any, Dict, List

import pytest

from repro.aig.aig import Aig
from repro.bmc import incremental
from repro.circuits import get_instance
from repro.cnf import Clause
from repro.core import ENGINES, EngineOptions
from repro.core import base
from repro.itp.craig import InterpolantBuilder, RefutationCore
from repro.itp.labeling import PartitionSpans
from repro.itp.sequence import extract_sequence
from repro.sat import (ActivationDependencyError, CdclSolver, ProofError,
                       ResolutionProof, SatResult)
from repro.sat.proof import ProofNode, reduce_proof, strip_activations
from repro.share.bus import LocalShareBus

#: The engines that extract interpolants from refutations.
ITP_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba")


# --------------------------------------------------------------------- #
# The reference: full node lists, full copies, a per-clause spans loop
# --------------------------------------------------------------------- #
def old_core_ids(nodes_in_order, root_id):
    """The reached set, ordered by filtering the whole node list."""
    nodes = {n.clause_id: n for n in nodes_in_order}
    needed, stack = {root_id}, [root_id]
    while stack:
        for _, antecedent in nodes[stack.pop()].chain:
            if antecedent not in needed:
                needed.add(antecedent)
                stack.append(antecedent)
    return [n.clause_id for n in nodes_in_order if n.clause_id in needed]


def reference_strip(proof, active_groups, other_groups, root_id):
    """Strip by visiting every node of the trace, copying every kept
    original; returns the standalone proof and the three counters."""
    active = set(active_groups)
    others = set(other_groups) - active
    strip_lits = {-g for g in active}
    group_vars = others | active
    trace = proof.nodes_in_order()
    core = set(old_core_ids(trace, root_id))
    counts = {"chains_stripped": 0, "literals_stripped": 0,
              "originals_dropped": 0}
    out = ResolutionProof()
    for node in trace:
        cid = node.clause_id
        if not node.chain:
            lits = node.clause.literals
            release_unit = (node.group is None and len(lits) == 1
                            and -lits[0] in group_vars)
            if node.group in others or release_unit:
                if cid in core:
                    raise ActivationDependencyError(f"core clause {cid}")
                counts["originals_dropped"] += 1
                continue
            if node.group in active:
                kept = [l for l in lits if l not in strip_lits]
                counts["literals_stripped"] += len(lits) - len(kept)
                out.add_original(cid, Clause(kept), node.partition)
            elif node.group is None:
                out.add_original(cid, node.clause, node.partition)
            else:
                out.add_original(cid, node.clause, node.partition)
            continue
        if cid not in core:
            continue
        lits = []
        for pivot, _ in node.chain:
            if pivot in group_vars:
                raise ActivationDependencyError(f"core clause {cid} pivot")
        for lit in node.clause.literals:
            if lit in strip_lits:
                continue
            if abs(lit) in group_vars:
                raise ActivationDependencyError(f"core clause {cid} literal")
            lits.append(lit)
        if len(lits) < len(node.clause):
            counts["chains_stripped"] += 1
            counts["literals_stripped"] += len(node.clause) - len(lits)
        if cid == root_id and lits:
            raise ProofError(f"root {cid} strips to {lits}")
        out.add_derived(cid, Clause(lits), node.chain)
    if not out.is_refutation():
        raise ProofError("no refutation")
    return out, counts


def reference_reduce(proof):
    """Trim and RecyclePivots with every core chain replayed.

    Returns the reduced derived nodes in core order, the root id and the
    four ``ProofReductionStats`` fields; ``nodes_after`` counts every
    original of ``proof``, as a reduced proof keeps them all."""
    root_id = proof.empty_clause_id
    core = old_core_ids(proof.nodes_in_order(), root_id)
    derived_core = [proof.node(cid) for cid in core
                    if proof.node(cid).chain]
    refcount = {}
    for node in derived_core:
        for _, aid in node.chain:
            refcount[aid] = refcount.get(aid, 0) + 1
    # Marking: a step whose pivot literal is safe below is redundant.
    start_at, dropped = {}, {}
    rl, live = {root_id: set()}, {root_id}

    def note(aid, contribution):
        if proof.node(aid).chain:
            live.add(aid)
            rl[aid] = contribution if refcount.get(aid, 0) == 1 else set()

    for node in reversed(derived_core):
        cid = node.clause_id
        if cid not in live:
            continue
        inherited = rl.pop(cid, None)
        safe = (set(inherited) if inherited is not None
                and refcount.get(cid, 0) <= 1 else set())
        start, drops = 0, set()
        for index in range(len(node.chain) - 1, 0, -1):
            pivot, aid = node.chain[index]
            literals = proof.node(aid).clause.literals
            lit = (pivot if pivot in literals
                   else -pivot if -pivot in literals else None)
            if lit is None:
                safe = set()
            elif -lit in safe:
                drops.add(index)
            elif lit in safe:
                start = index
                note(aid, set(safe))
                break
            else:
                note(aid, safe | {lit})
                safe.add(-lit)
        if start == 0:
            note(node.chain[0][1], set(safe))
        start_at[cid], dropped[cid] = start, drops
    # Reconstruction: every surviving chain is replayed.
    stats = {"steps_dropped": 0, "clauses_strengthened": 0}
    alias, clauses, chains = {}, {}, {}

    def resolved(cid):
        while cid in alias:
            cid = alias[cid]
        return cid

    def clause_of(cid):
        return clauses[cid] if cid in clauses else proof.node(cid).clause

    for node in derived_core:
        cid = node.clause_id
        if cid not in start_at:
            continue
        start, drops = start_at[cid], dropped[cid]
        begin = resolved(node.chain[start][1])
        current = set(clause_of(begin).literals)
        rebuilt = [(None, begin)]
        for index in range(start + 1, len(node.chain)):
            pivot, aid = node.chain[index]
            aid = resolved(aid)
            antecedent = clause_of(aid).literals
            if index in drops or (pivot not in current
                                  and -pivot not in current):
                stats["steps_dropped"] += 1
            elif pivot not in antecedent and -pivot not in antecedent:
                current, rebuilt = set(antecedent), [(None, aid)]
                stats["steps_dropped"] += 1
            elif -pivot in current and pivot in antecedent:
                current.discard(-pivot)
                current.update(l for l in antecedent if l != pivot)
                rebuilt.append((pivot, aid))
            elif pivot in current and -pivot in antecedent:
                current.discard(pivot)
                current.update(l for l in antecedent if l != -pivot)
                rebuilt.append((pivot, aid))
            else:
                stats["steps_dropped"] += 1
        if len(rebuilt) == 1 and cid != root_id:
            alias[cid] = rebuilt[0][1]
            continue
        clauses[cid] = Clause(current)
        if len(clauses[cid]) < len(node.clause):
            stats["clauses_strengthened"] += 1
        chains[cid] = rebuilt
    # Only the chains the root still reaches survive.
    needed, stack = set(), [root_id]
    while stack:
        cid = stack.pop()
        if cid in chains and cid not in needed:
            needed.add(cid)
            stack.extend(aid for _, aid in chains[cid])
    derived = [ProofNode(cid, clauses[cid], chains[cid])
               for cid in sorted(needed)]
    stats["nodes_before"] = len(proof)
    stats["nodes_after"] = len(proof.original_nodes()) + len(derived)
    return derived, root_id, stats


def copy_trace(proof):
    """A standalone copy of a trace, every original re-registered."""
    out = ResolutionProof()
    for node in proof.nodes_in_order():
        if node.chain:
            out.add_derived(node.clause_id, node.clause, node.chain)
        else:
            out.add_original(node.clause_id, node.clause, node.partition,
                             node.group)
    return out


def reference_spans(originals, ranks, beyond):
    """Spans from a loop over every original clause."""
    labels, by_rank = set(), {}
    for node in originals:
        if node.partition is not None:
            labels.add(node.partition)
        rank = ranks.get(node.partition, beyond)
        by_rank.setdefault(rank, set()).update(map(abs, node.clause.literals))
    spans = PartitionSpans.__new__(PartitionSpans)
    spans.ranks, spans.beyond, spans.labels = dict(ranks), beyond, labels
    spans.lo, spans.hi = {}, {}
    for rank in sorted(by_rank, reverse=True):
        spans.lo.update(dict.fromkeys(by_rank[rank], rank))
    for rank in sorted(by_rank):
        spans.hi.update(dict.fromkeys(by_rank[rank], rank))
    return spans


class ListedProof:
    """A proof read through an explicit node list, in the old core order."""

    def __init__(self, nodes_in_order, root_id):
        self.order = list(nodes_in_order)
        self.nodes = {n.clause_id: n for n in self.order}
        self.empty_clause_id = root_id

    def is_refutation(self):
        return True

    def node(self, clause_id):
        return self.nodes[clause_id]

    def core_ids(self, root_id=None):
        return old_core_ids(self.order, self.empty_clause_id)


# --------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------- #
@dataclass
class Case:
    """One refutation on its way to extraction, both ways."""

    label: str
    proof: Any                    # what the engine extracts from
    stripped: Any                 # the new strip's proof (or None)
    ref_originals: List[Any]
    ref_order: List[Any]          # reference node list, old core order
    root: int
    counters: Dict[str, int]
    ref_counters: Dict[str, int]


def _interpolants(aig_proof, spans_or_none, n, system, max_var):
    """Every cut's interpolant literal, and the AIG size after them."""
    aig = Aig()
    var_map = {v: aig.add_input() for v in range(1, max_var + 1)}
    maps = {j: var_map for j in range(1, n)}
    if spans_or_none is None:
        elements = extract_sequence(aig_proof, n, maps, aig, system=system)
        return elements.elements[1:-1], aig.num_ands
    core = RefutationCore(aig_proof, spans_or_none)
    builder = InterpolantBuilder(aig, var_map, system=system)
    return [builder.extract_at(core, j) for j in range(1, n)], aig.num_ands


def check_case(case: Case, systems=("mcmillan",)) -> None:
    """Compare one recorded case against its reference."""
    what = case.label
    assert case.counters == case.ref_counters, what
    ref_originals = case.ref_originals
    labels = {n.partition for n in ref_originals if n.partition is not None}
    n = max(labels)
    ranks = {p: p for p in range(1, n + 1)}
    ref_spans = reference_spans(ref_originals, ranks, n + 1)
    spans = PartitionSpans.prefix(case.proof, n)
    assert spans.labels == ref_spans.labels, what
    assert spans.lo == ref_spans.lo, what
    assert spans.hi == ref_spans.hi, what
    listed = ListedProof(case.ref_order, case.root)
    assert case.proof.empty_clause_id == case.root, what
    assert case.proof.core_ids() == listed.core_ids(), what
    for cid in case.proof.core_ids():
        got, want = case.proof.node(cid), listed.node(cid)
        assert (got.clause.literals, list(got.chain), got.partition) == \
            (want.clause.literals, list(want.chain), want.partition), \
            (what, cid)
    max_var = max(ref_spans.lo)
    for system in systems:
        new = _interpolants(case.proof, None, n, system, max_var)
        ref = _interpolants(listed, ref_spans, n, system, max_var)
        assert new == ref, (what, system)
    for proof in (case.proof, case.stripped):
        if proof is None:
            continue
        got = [(m.clause_id, m.clause.literals, m.partition)
               for m in proof.original_nodes()]
        want = [(m.clause_id, m.clause.literals, m.partition)
                for m in ref_originals]
        assert got == want, what
        assert proof.partitions() == labels, what


class Recorder:
    """Wraps the strip and trim bindings the engines call; every
    refutation they prepare becomes a :class:`Case`."""

    def __init__(self, monkeypatch):
        self.cases: List[Case] = []
        self.label = ""
        self._pending: Dict[int, tuple] = {}
        monkeypatch.setattr(incremental, "strip_activations", self._strip)
        monkeypatch.setattr(base, "reduce_proof", self._reduce)

    def _strip(self, proof, active, others, root_id=None):
        try:
            ref, ref_counts = reference_strip(proof, active, others, root_id)
        except ActivationDependencyError:
            with pytest.raises(ActivationDependencyError):
                strip_activations(proof, active, others, root_id)
            raise
        stripped, stats = strip_activations(proof, active, others, root_id)
        counts = {"chains_stripped": stats.chains_stripped,
                  "literals_stripped": stats.literals_stripped,
                  "originals_dropped": stats.originals_dropped}
        assert counts == ref_counts, self.label
        assert (stats.nodes_before, stats.nodes_after) == \
            (len(proof), len(ref)), self.label
        self._pending[id(stripped)] = (stripped, ref, counts, ref_counts)
        return stripped, stats

    def _reduce(self, proof):
        reduced, stats = reduce_proof(proof)
        pending = self._pending.pop(id(proof), None)
        if pending is None:             # a fresh solver's trace
            pending = (None, copy_trace(proof), {}, {})
        stripped, ref, counts, ref_counts = pending
        ref_derived, ref_root, ref_stats = reference_reduce(ref)
        ref_originals = ref.original_nodes()
        counts = dict(counts, nodes_trimmed=stats.nodes_trimmed,
                      **{field: getattr(stats, field) for field in ref_stats})
        ref_counts = dict(ref_counts, nodes_trimmed=(
            len(ref) - len(ref_originals) - len(ref_derived)), **ref_stats)
        self.cases.append(Case(
            f"{self.label} #{len(self.cases)}", reduced, stripped,
            ref_originals, ref_originals + ref_derived, ref_root,
            counts, ref_counts))
        return reduced, stats

    def check(self, systems=("mcmillan",)) -> int:
        """Check every recorded case; return how many there were."""
        for case in self.cases:
            check_case(case, systems)
        checked = len(self.cases)
        self.cases.clear()
        return checked


def run_recorded(recorder, engine, instance_name, peerless=False,
                 **options):
    """Run one engine on one instance under ``recorder``; return its
    result, whose verdict must be the suite's.  ``peerless`` attaches a
    share port with no peer, which puts every refutation on a fresh
    check."""
    recorder.label = f"{engine}/{instance_name}/{options}" + (
        "/peerless" if peerless else "")
    options.setdefault("max_bound", 20)
    share = LocalShareBus().port(engine) if peerless else None
    result = ENGINES[engine](get_instance(instance_name).build(),
                             EngineOptions(**options), share=share).run()
    assert result.verdict.value == get_instance(instance_name).expected
    return result


# --------------------------------------------------------------------- #
# Tier-1 cases
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ITP_ENGINES)
def test_engine_refutations_match_the_reference(monkeypatch, engine):
    recorder = Recorder(monkeypatch)
    stripped = fresh = 0
    for name, options in (("ring04", {}), ("cnt08", {}),
                          ("traffic1", {"peerless": True})):
        result = run_recorded(recorder, engine, name, **options)
        stripped += sum(1 for c in recorder.cases if c.stripped is not None)
        fresh += sum(1 for c in recorder.cases if c.stripped is None)
        assert result.stats.proof_chains_stripped == sum(
            c.counters.get("chains_stripped", 0) for c in recorder.cases)
        recorder.check(systems=("mcmillan", "pudlak"))
    assert stripped and fresh


def test_a_kept_stripped_proof_ignores_later_clauses():
    # The strip sees the trace as it stands; a frame added afterwards (new
    # partition, new variables) must not reach its spans or its view.
    solver = CdclSolver(proof_logging=True)
    x, y = solver.new_var(), solver.new_var()
    solver.add_clause([x], partition=1)
    solver.add_clause([-x, y], partition=2)
    group = solver.new_group()
    solver.add_clause([-y], partition=3, group=group)
    assert solver.solve([group]) is SatResult.UNSAT
    root = solver.last_refutation_root()
    ref, _ = reference_strip(solver.proof(), {group}, set(), root)
    stripped, _ = strip_activations(solver.proof(), {group}, set(), root)
    reduced, _ = reduce_proof(stripped)
    solver.release_group(group)
    z = solver.new_var()
    solver.add_clause([-y, z], partition=4)
    solver.add_clause([y, -z], partition=2)
    later = solver.new_group()
    solver.add_clause([-z], partition=3, group=later)
    assert solver.solve([later]) is SatResult.UNSAT
    # Spans of the later strip fold the grown index past the kept one's.
    grown, _ = strip_activations(solver.proof(), {later}, {group},
                                 solver.last_refutation_root())
    assert PartitionSpans.prefix(grown, 4).labels == {1, 2, 3, 4}
    ref_derived, ref_root, _ = reference_reduce(ref)
    case = Case("kept", reduced, stripped, ref.original_nodes(),
                ref.original_nodes() + ref_derived, ref_root, {}, {})
    check_case(case, systems=("mcmillan", "pudlak"))
    assert len(stripped) == len(ref)


def _foreign_original_without_literal():
    """A core resting on a foreign group's clause that, against the
    solver's invariant, lacks the group's ``-h``: only the original's own
    group tells the strip to reject it."""
    proof = ResolutionProof()
    g, h = 10, 11
    proof.add_original(0, Clause([1, -g]), partition=1, group=g)
    proof.add_original(1, Clause([-1]), partition=2, group=h)
    proof.add_derived(2, Clause([-g]), [(None, 0), (1, 1)])
    return proof, {g}, {h}, 2


def _assumed_released_group():
    """A solve assuming a group the solver has released: the root rests
    on the group's release unit."""
    solver = CdclSolver(proof_logging=True)
    x = solver.new_var()
    group = solver.new_group()
    solver.add_clause([x], group=group)
    solver.release_group(group)
    assert solver.solve([group]) is SatResult.UNSAT
    return solver.proof(), {group}, set(), solver.last_refutation_root()


def test_rejections_match_the_reference():
    proof, active, others, root = _foreign_original_without_literal()
    with pytest.raises(ActivationDependencyError):
        reference_strip(proof, active, others, root)
    with pytest.raises(ActivationDependencyError):
        strip_activations(proof, active, others, root)


def test_an_assumed_released_group_is_rejected():
    # The old strip rejected the release unit in the core as a released
    # group's clause; it now carries that group, and the group is refused
    # as an active one.
    proof, active, others, root = _assumed_released_group()
    with pytest.raises(ActivationDependencyError):
        strip_activations(proof, active, others, root)


def test_release_units_carry_their_group():
    # Both release paths: the unit inserted under kept levels, and the
    # unit-clause path when the group is already assigned at level 0.
    solver = CdclSolver(proof_logging=True)
    x = solver.new_var()
    inserted, assigned = solver.new_group(), solver.new_group()
    solver.add_clause([x], group=inserted)
    solver.add_clause([-x], group=assigned)
    assert solver.solve([inserted]) is SatResult.SAT
    added = solver.stats.clauses_added
    solver.release_group(inserted)
    solver.add_clause([-assigned])
    solver.release_group(assigned)
    assert solver.stats.clauses_added == added + 3
    refuted = solver.new_group()
    solver.add_clause([], group=refuted)
    assert solver.solve([refuted]) is SatResult.UNSAT
    units = [n for n in solver.proof().original_nodes()
             if n.clause.literals in ((-inserted,), (-assigned,))]
    assert [(n.clause.literals, n.group) for n in units] == [
        ((-inserted,), inserted), ((-assigned,), None),
        ((-assigned,), assigned)]
    assert all(n.partition is None for n in units)


# --------------------------------------------------------------------- #
# core_ids: the reached set in the old filter's order
# --------------------------------------------------------------------- #
def test_core_ids_order_matches_the_old_filter():
    instance = get_instance("ring04").build()
    searcher = incremental.IncrementalUnroller(instance, proof_logging=True)
    checked = 0
    for depth in range(1, 6):
        searcher.extend_to(depth)
        if searcher.solve() is not SatResult.UNSAT:
            continue
        proof = searcher.solver.proof()
        root = searcher.solver.last_refutation_root()
        assert proof.core_ids(root) == old_core_ids(proof.nodes_in_order(),
                                                    root)
        stripped, _ = incremental.grouped_refutation(
            searcher.solver, searcher.assumptions())
        assert stripped.core_ids() == old_core_ids(
            stripped.nodes_in_order(), stripped.empty_clause_id)
        reduced, _ = reduce_proof(stripped)
        assert reduced.core_ids() == old_core_ids(
            reduced.nodes_in_order(), reduced.empty_clause_id)
        # The reduced order lists originals first, as its node list does.
        order = reduced.core_ids()
        kinds = [bool(reduced.node(cid).chain) for cid in order]
        assert kinds == sorted(kinds)
        checked += 1
    assert checked >= 3
