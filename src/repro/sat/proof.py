"""Resolution proof recording and checking.

The CDCL solver records, for every learned clause, the *regular input
resolution chain* that derives it: a starting clause followed by a sequence
of ``(pivot variable, antecedent clause)`` resolution steps.  When the
solver reaches a conflict at decision level 0 it performs one final analysis
that derives the empty clause, completing a refutation; that chain is
regular too (latest-assigned literal first, each pivot at most once).

The proof is the object interpolation works on: :mod:`repro.itp.craig`
replays the chains bottom-up, attaching partial interpolants to every
clause.  Because the proof keeps the *original* clauses with their partition
labels (which time frame / which side of the (A, B) split they came from),
a single proof supports extraction of a whole interpolation sequence — the
key property the paper exploits (Section II-C, Eq. (2)).

The module also contains an independent proof checker used by the
test-suite: it re-performs every resolution step with the slow-but-obvious
:meth:`Clause.resolve` and confirms the final clause is empty.

Shared original clauses
-----------------------
A trace's originals live in one append-only :class:`OriginalLayer`, which
also files each clause's literals under its ``(partition, group)`` key.
The proofs interpolation consumes are derived from a trace —
:func:`strip_activations` and :func:`reduce_proof` — and neither copies
the originals: each holds the nodes its core reaches and shares the
trace's layer through an :class:`OriginalView`, a snapshot of the layer
that never sees clauses added later.  Their work scales with the
refutation's core, not with the trace, and
:class:`~repro.itp.labeling.PartitionSpans` reads variable spans from the
index instead of visiting every clause.

Activation-literal clause groups and proofs
-------------------------------------------
A proof recorded on an *incremental* solver (activation-literal clause
groups, :meth:`repro.sat.solver.CdclSolver.new_group`) is a refutation of
the formula *under the assumed activation literals*, not of the caller's
formula: every clause of a group ``g`` carries the literal ``-g``, and so
does every derived clause that transitively used one.  The key structural
fact that makes such proofs salvageable is **literal-presence provenance**:
no clause ever contains the *positive* activation literal ``+g`` (grouped
input clauses only append ``-g``, and learned clauses inherit literals from
input clauses), so no resolution step ever pivots on an activation
variable, and a derived clause depends on group ``g`` exactly when ``-g``
appears among its literals.  :func:`strip_activations` exploits this:
deleting the active groups' ``-g`` literals from every clause commutes with
every recorded resolution step (the pivot is never ``g``), so the chains
replay unchanged and the stripped proof is a genuine refutation of the
caller's formula.  Clauses carrying a *released* (or foreign) group's
literal cannot be repaired that way — their group clauses are gone from
the formula — so a core that touches one is rejected with
:class:`ActivationDependencyError`, the clean fallback signal.  A group's
``[-g]`` release unit is recorded under the group it retracts, so it is
dropped or rejected with the group's own clauses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import itertools
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..cnf.cnf import Clause

__all__ = ["ProofNode", "ResolutionProof", "ProofError",
           "ActivationDependencyError", "check_proof",
           "OriginalLayer", "OriginalView",
           "ProofReductionStats", "reduce_proof",
           "ActivationStripStats", "strip_activations"]


class ProofError(ValueError):
    """Raised when a recorded proof fails validation."""


class ActivationDependencyError(ProofError):
    """A refutation core depends on a released (or foreign) clause group.

    Raised by :func:`strip_activations` when the derivation of the root
    clause uses a clause whose activation group is no longer active: the
    group's input clauses are not part of the caller's formula any more, so
    no activation-free refutation can be reconstructed from this trace.
    Callers treat this as the clean signal to fall back to a fresh
    monolithic proof-logged solve.
    """


#: A chain step's antecedent id.
_ANTECEDENT = itemgetter(1)

#: The chain of every original node: one shared immutable empty tuple.
_NO_CHAIN: Tuple[Tuple[Optional[int], int], ...] = ()


class ProofNode:
    """One clause in the proof DAG.

    ``chain`` is empty for original (root) clauses.  For derived clauses it
    lists the resolution steps: the derivation starts from clause
    ``chain[0][1]`` (whose pivot entry is ``None``) and successively resolves
    with ``chain[i][1]`` on pivot variable ``chain[i][0]``.

    A proof holds one node per clause, so the class keeps ``__slots__``
    (written out, as ``dataclass(slots=True)`` needs Python 3.10).
    """

    __slots__ = ("clause_id", "clause", "chain", "partition", "group")

    def __init__(self, clause_id: int, clause: Clause,
                 chain: Sequence[Tuple[Optional[int], int]] = _NO_CHAIN,
                 partition: Optional[int] = None,
                 group: Optional[int] = None) -> None:
        self.clause_id = clause_id
        self.clause = clause
        self.chain = chain
        #: Partition label for original clauses (``None`` for derived clauses).
        self.partition = partition
        #: Activation group of an original clause (``None`` for ungrouped
        #: clauses and for derived clauses).  Derived clauses need no explicit
        #: tag: their group provenance is the presence of ``-g`` among their
        #: literals (see the module docstring).
        self.group = group

    def __repr__(self) -> str:
        return (f"ProofNode(clause_id={self.clause_id!r}, clause={self.clause!r}, "
                f"chain={self.chain!r}, partition={self.partition!r}, "
                f"group={self.group!r})")

    @property
    def is_original(self) -> bool:
        return not self.chain

    @property
    def antecedents(self) -> List[int]:
        return [cid for _, cid in self.chain]


_Key = Tuple[Optional[int], Optional[int]]


class OriginalLayer:
    """The original clauses of one trace, indexed for sharing.

    Append-only.  ``trace`` is the trace's own node table (ids in creation
    order; the originals are the nodes without a chain), and ``index``
    files each original clause's literal tuple under its
    ``(partition, group)`` key — one list append per clause on the
    solver's ingest path.  A proof derived from the trace (stripped or
    reduced) shares the layer by reference through an :class:`OriginalView`
    instead of copying its nodes, and :class:`~repro.itp.labeling.PartitionSpans`
    reads variable sets from the index, memoised per key, instead of
    looping over the clauses.  ``released`` holds the groups whose ``[-g]``
    release unit the trace records.
    """

    __slots__ = ("trace", "index", "released", "_folds")

    def __init__(self, trace: Dict[int, ProofNode]) -> None:
        self.trace = trace
        self.index: Dict[_Key, List[Tuple[int, ...]]] = {}
        self.released: Set[int] = set()
        #: key -> [clauses folded, their literals, their variables].
        self._folds: Dict[_Key, list] = {}

    def counts(self) -> Dict[_Key, int]:
        """How many clauses each non-empty key holds now."""
        return {key: len(clauses) for key, clauses in self.index.items()
                if clauses}

    def variables(self, key: _Key, count: int,
                  strip_lits: Optional[Set[int]] = None) -> Set[int]:
        """The variables of the first ``count`` clauses filed under ``key``,
        with the literals ``strip_lits`` deleted from every clause first.

        The fold is memoised per key and extended by the clauses appended
        since; a snapshot older than the memo folds its prefix afresh.  The
        returned set must not be mutated, and it may grow with the layer.
        """
        fold = self._folds.get(key)
        clauses = self.index[key]
        if fold is not None and fold[0] > count:
            literals = set(itertools.chain.from_iterable(clauses[:count]))
            if strip_lits:
                literals -= strip_lits
            return set(map(abs, literals))
        if fold is None:
            fold = self._folds[key] = [0, set(), set()]
        if fold[0] < count:
            new = set(itertools.chain.from_iterable(clauses[fold[0]:count]))
            fold[0] = count
            fold[1] |= new
            fold[2].update(map(abs, new))
        if strip_lits and not strip_lits.isdisjoint(fold[1]):
            return set(map(abs, fold[1] - strip_lits))
        return fold[2]


class OriginalView:
    """A derived proof's original clauses: a trace's layer as of one moment.

    ``counts`` holds, per index key the view keeps, how many of the key's
    clauses it sees; clauses appended to the layer later are invisible.
    A *stripped* view (``active`` is not ``None``) hides the ``hidden``
    groups' clauses (``dropped`` counts them), deletes the active groups'
    ``-g`` literals, and drops the group tag of every grouped clause it
    keeps; ``core`` holds the stripped proof's own nodes, built for the
    refutation's core, so a node is the same object whichever way it is
    reached.  The node-level view is materialised only when asked for
    (:meth:`nodes`).
    """

    __slots__ = ("layer", "size", "counts", "total", "dropped", "active",
                 "strip_lits", "hidden", "core", "_nodes")

    def __init__(self, layer: OriginalLayer, active: Optional[Set[int]] = None,
                 hidden: Set[int] = frozenset()) -> None:
        self.layer = layer
        self.size = len(layer.trace)
        self.counts = layer.counts()
        self.dropped = sum(self.counts.pop(key) for key in list(self.counts)
                           if key[1] in hidden)
        self.total = sum(self.counts.values())
        self.active = active
        self.strip_lits = {-g for g in active} if active else set()
        self.hidden = hidden
        self.core: Dict[int, ProofNode] = {}
        self._nodes: Optional[Dict[int, ProofNode]] = None

    def nodes(self) -> Dict[int, ProofNode]:
        """Every original node the view sees, by id, in creation order."""
        if self._nodes is not None:
            return self._nodes
        out: Dict[int, ProofNode] = {}
        seen = itertools.islice(self.layer.trace.values(), self.size)
        if self.active is None:
            for node in seen:
                if not node.chain:
                    out[node.clause_id] = node
        else:
            active, hidden, core = self.active, self.hidden, self.core
            strip_lits = self.strip_lits
            for node in seen:
                if node.chain:
                    continue
                group = node.group
                cid = node.clause_id
                if group is None:
                    out[cid] = node
                elif group not in hidden:
                    kept = core.get(cid)
                    if kept is None:
                        kept = _stripped_original(node, group in active,
                                                  strip_lits)
                    out[cid] = kept
        self._nodes = out
        return out


def _stripped_original(node: ProofNode, active: bool,
                       strip_lits: Set[int]) -> ProofNode:
    """A kept grouped original as a stripped proof holds it: no group tag,
    and, for an active group, no ``-g`` literals."""
    clause = node.clause
    if active:
        clause = Clause([l for l in clause.literals if l not in strip_lits])
    return ProofNode(node.clause_id, clause, _NO_CHAIN, node.partition)


class ResolutionProof:
    """A recorded resolution refutation (or partial derivation).

    Clause identifiers are dense integers assigned by the solver in creation
    order, which guarantees antecedents always have smaller identifiers than
    the clauses derived from them — the property the interpolation replay
    relies on to process nodes in one pass.

    A solver's trace owns an :class:`OriginalLayer`.  A proof derived from
    a trace (:func:`strip_activations`, :func:`reduce_proof`) holds only
    the nodes its derivation reaches and shares the trace's originals
    through an :class:`OriginalView`; :meth:`original_nodes`,
    :meth:`nodes_in_order`, ``in`` and ``len`` see the full view.
    """

    def __init__(self, view: Optional[OriginalView] = None) -> None:
        self._nodes: Dict[int, ProofNode] = {}
        #: The trace's own originals (``None`` on a derived proof).
        self._layer: Optional[OriginalLayer] = (
            OriginalLayer(self._nodes) if view is None else None)
        #: A derived proof's originals (``None`` on a trace).
        self._view = view
        #: Reduced proofs list every original before the first derived node.
        self._originals_first = False
        #: A derived proof's :meth:`core_ids`, recorded as it is built.
        self._core: Optional[List[int]] = None
        self.empty_clause_id: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Construction (called by the solver)
    # ------------------------------------------------------------------ #
    def add_original(self, clause_id: int, clause: Clause,
                     partition: Optional[int] = None,
                     group: Optional[int] = None) -> None:
        """Register an original (input) clause.

        ``group`` records the activation-literal group the clause belongs
        to, when the solver added it under one — the bookkeeping
        :func:`strip_activations` uses to tell a group's defining clauses
        apart from permanent ones.
        """
        self.original_adder(partition, group)(clause_id, clause)

    def original_adder(self, partition: Optional[int] = None,
                       group: Optional[int] = None
                       ) -> Callable[[int, Clause], None]:
        """:meth:`add_original` for a batch of clauses sharing one
        partition label and group: the index key is looked up once, so
        each clause costs its node and one list append."""
        layer = self._layer
        if layer is None:
            raise ProofError("a derived proof shares its original clauses")
        nodes = self._nodes
        key = (partition, group)
        clauses = layer.index.get(key)
        if clauses is None:
            clauses = layer.index[key] = []
        file_literals = clauses.append

        def add(clause_id: int, clause: Clause) -> None:
            if clause_id in nodes:
                raise ProofError(f"duplicate clause id {clause_id}")
            nodes[clause_id] = ProofNode(clause_id, clause, _NO_CHAIN,
                                         partition, group)
            file_literals(clause.literals)

        return add

    def add_release_unit(self, clause_id: int, group: int) -> None:
        """Register the ``[-group]`` unit that releases ``group``.

        The clause is the ungrouped unit, but it is filed under the group it
        retracts, so a strip drops or rejects it together with the group's
        own clauses.
        """
        self.add_original(clause_id, Clause.from_normalised((-group,)),
                          None, group)
        assert self._layer is not None
        self._layer.released.add(group)

    def add_derived(self, clause_id: int, clause: Clause,
                    chain: Sequence[Tuple[Optional[int], int]]) -> None:
        """Register a derived clause with its resolution chain."""
        if clause_id in self._nodes:
            raise ProofError(f"duplicate clause id {clause_id}")
        if not chain:
            raise ProofError("derived clause requires a non-empty chain")
        if chain[0][0] is not None:
            raise ProofError("first chain entry must carry no pivot")
        for pivot, antecedent in chain:
            if antecedent not in self._nodes:
                raise ProofError(f"chain references unknown clause {antecedent}")
            if antecedent >= clause_id:
                raise ProofError("antecedent ids must precede the derived clause id")
        self._nodes[clause_id] = ProofNode(clause_id, clause, list(chain), None)
        if len(clause) == 0:
            self.empty_clause_id = clause_id

    def shared_view(self) -> OriginalView:
        """This proof's originals as a view a derived proof can share."""
        if self._view is not None:
            return self._view
        assert self._layer is not None
        return OriginalView(self._layer)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, clause_id: int) -> bool:
        if clause_id in self._nodes:
            return True
        return self._view is not None and clause_id in self._view.nodes()

    def __len__(self) -> int:
        if self._view is None:
            return len(self._nodes)
        derived = sum(1 for node in self._nodes.values() if node.chain)
        return self._view.total + derived

    def node(self, clause_id: int) -> ProofNode:
        try:
            return self._nodes[clause_id]
        except KeyError:
            if self._view is None:
                raise
            return self._view.nodes()[clause_id]

    def nodes_in_order(self) -> List[ProofNode]:
        """All nodes in creation (topological) order."""
        if self._view is None:
            return list(self._nodes.values())
        originals = list(self._view.nodes().values())
        derived = self.derived_nodes()
        if self._originals_first:
            return originals + derived
        return sorted(originals + derived, key=lambda n: n.clause_id)

    def original_nodes(self) -> List[ProofNode]:
        if self._view is None:
            return [n for n in self._nodes.values() if not n.chain]
        return list(self._view.nodes().values())

    def derived_nodes(self) -> List[ProofNode]:
        return [n for n in self._nodes.values() if n.chain]

    def is_refutation(self) -> bool:
        """``True`` when the proof derives the empty clause."""
        return self.empty_clause_id is not None

    def _index(self) -> Tuple[OriginalLayer, Dict[_Key, int], Set[int]]:
        """The layer, the clause count per index key this proof sees, and
        the groups whose ``-g`` literals it deletes."""
        if self._view is None:
            assert self._layer is not None
            return self._layer, self._layer.counts(), set()
        view = self._view
        return view.layer, view.counts, view.active or set()

    def partition_variables(self) -> List[Tuple[Optional[int], Set[int]]]:
        """``(partition label, variables)`` per index key of the original
        clauses this proof sees: set operations over the trace's memoised
        index, no pass over the clauses.  The sets must not be mutated."""
        layer, counts, active = self._index()
        strip_lits = {-g for g in active}
        return [(key[0], layer.variables(
                    key, count, strip_lits if key[1] in active else None))
                for key, count in counts.items()]

    def partitions(self) -> Set[int]:
        """Return the set of partition labels used by original clauses."""
        _, counts, _ = self._index()
        return {partition for partition, _ in counts if partition is not None}

    # ------------------------------------------------------------------ #
    # Core DAG extraction
    # ------------------------------------------------------------------ #
    def core_ids(self, root_id: Optional[int] = None) -> List[int]:
        """Return the clause ids reachable from ``root_id`` (default: the empty clause).

        The result is in topological order (antecedents before consequents)
        and is the *unsat core DAG* interpolation actually traverses; chains
        recorded for clauses that never feed the refutation are skipped.
        The order is the proof's own: id order, and on a reduced proof the
        originals before the derived nodes.  The cost is the core's, not
        the trace's.
        """
        if root_id is None:
            if self.empty_clause_id is None:
                raise ProofError("proof does not derive the empty clause")
            if self._core is not None:
                return list(self._core)
            root_id = self.empty_clause_id
        nodes = self._nodes
        needed: Set[int] = {root_id}
        stack = [root_id]
        while stack:
            for _, antecedent in nodes[stack.pop()].chain:
                if antecedent not in needed:
                    needed.add(antecedent)
                    stack.append(antecedent)
        ids = sorted(needed)
        if self._originals_first:
            return ([cid for cid in ids if not nodes[cid].chain]
                    + [cid for cid in ids if nodes[cid].chain])
        return ids

    def core_original_clauses(self) -> List[ProofNode]:
        """Original clauses participating in the refutation."""
        nodes = self._nodes
        return [nodes[cid] for cid in self.core_ids() if not nodes[cid].chain]

    def stats(self) -> Dict[str, int]:
        core = self.core_ids() if self.is_refutation() else []
        return {
            "clauses": len(self),
            "original": len(self.original_nodes()),
            "derived": len(self.derived_nodes()),
            "core": len(core),
            "refutation": int(self.is_refutation()),
        }


def _resolve_chain(proof: ResolutionProof, node: ProofNode) -> Clause:
    """Replay one node's chain with explicit resolution; return the result."""
    current = proof.node(node.chain[0][1]).clause
    for pivot, antecedent_id in node.chain[1:]:
        if pivot is None:
            raise ProofError("only the first chain entry may omit the pivot")
        antecedent = proof.node(antecedent_id).clause
        current = current.resolve(antecedent, pivot)
    return current


# --------------------------------------------------------------------- #
# Proof post-processing (trimming + RecyclePivots)
# --------------------------------------------------------------------- #
@dataclass
class ProofReductionStats:
    """What :func:`reduce_proof` removed from a refutation.

    ``nodes_trimmed`` is the headline counter threaded into the engines'
    statistics: how many proof nodes the reduced refutation no longer
    carries (off-core derived clauses, plus chains that RecyclePivots
    collapsed into an alias for one of their premises).
    """

    nodes_before: int = 0
    nodes_after: int = 0
    steps_dropped: int = 0
    clauses_strengthened: int = 0

    @property
    def nodes_trimmed(self) -> int:
        return self.nodes_before - self.nodes_after


def _mark_recyclable(proof: ResolutionProof, derived_core: List["ProofNode"],
                     refcount: Counter
                     ) -> Tuple[Set[int], Dict[int, Tuple[int, Set[int]]]]:
    """RecyclePivots marking pass over the core's chains.

    Walks the derivation DAG from the empty clause towards the leaves,
    maintaining per (virtual) resolvent the set of *safe literals* — pivot
    literals guaranteed to be resolved away again on the (unique) path down
    to the root.  A resolution step whose pivot is already safe is
    redundant: the premise carrying the safe literal can replace the
    resolvent, because the extra literal it leaves behind dies downstream
    anyway.  Nodes referenced from more than one chain get an empty safe
    set (the paths below them diverge), the classic single-child
    restriction of RecyclePivots.

    Returns ``(live, marks)``: the chains some surviving reference still
    reaches, and for each *marked* chain the step index its reconstruction
    starts from (0 = the recorded start clause) and the step indices it
    drops.  A chain with a step whose pivot its antecedent lacks is marked
    too, with no drop, so that reconstruction replays it, and so is a
    chain with no step at all, which reconstruction aliases to its start.
    """
    nodes = proof._nodes
    rl: Dict[int, Set[int]] = {}
    root_id = proof.empty_clause_id
    assert root_id is not None
    live: Set[int] = {root_id}
    marks: Dict[int, Tuple[int, Set[int]]] = {}

    def note_antecedent(antecedent: ProofNode, contribution: Set[int]) -> None:
        # A shared antecedent gets no entry: it starts from an empty set.
        if antecedent.chain:
            antecedent_id = antecedent.clause_id
            live.add(antecedent_id)
            if refcount[antecedent_id] == 1:
                rl[antecedent_id] = contribution

    for node in reversed(derived_core):
        cid = node.clause_id
        if cid not in live:
            continue  # every reference to this chain was recycled away
        # ``safe`` is this chain's own set (rl entries are never shared), so
        # it grows in place; a derived antecedent met midway gets a snapshot,
        # the one the walk ends on gets the set itself.
        safe = rl.pop(cid, None)
        if safe is None:
            safe = set()
        start = 0
        drops: Set[int] = set()
        malformed = False
        chain = node.chain
        for index in range(len(chain) - 1, 0, -1):
            pivot, antecedent_id = chain[index]
            assert pivot is not None
            antecedent = nodes[antecedent_id]
            literals = antecedent.clause.literals
            if pivot in literals:
                lit = pivot
            elif -pivot in literals:
                lit = -pivot
            else:
                # Defensive: a malformed step; keep it, stop propagating.
                safe = set()
                malformed = True
                continue
            if -lit in safe:
                # The prefix side's pivot literal survives harmlessly:
                # drop this step, keep resolving the prefix.
                drops.add(index)
                continue
            if lit in safe:
                # The antecedent side's pivot literal is safe below: the
                # whole prefix (steps 1..index) is bypassed and the chain
                # restarts at this antecedent.
                start = index
                note_antecedent(antecedent, safe)
                break
            if antecedent.chain:
                live.add(antecedent_id)
                if refcount[antecedent_id] == 1:
                    rl[antecedent_id] = safe | {lit}
            safe.add(-lit)
        if start == 0:
            note_antecedent(nodes[chain[0][1]], safe)
        if start or drops or malformed or len(chain) == 1:
            marks[cid] = (start, drops)
    return live, marks


def reduce_proof(proof: ResolutionProof
                 ) -> Tuple[ResolutionProof, ProofReductionStats]:
    """Return a reduced copy of a refutation, plus what the reduction did.

    Two post-processing passes over the recorded resolution trace:

    * **core trimming** — derived clauses whose chains never feed the empty
      clause are dropped (the solver records every learned clause, but a
      typical refutation uses a fraction of them);
    * **RecyclePivots** — redundant-pivot elimination in the style of
      Bar-Ilan et al. (HVC'08): a resolution step whose pivot literal is
      resolved away again on every path below is bypassed, and a
      reconstruction replay propagates the resulting clause
      strengthenings through the remaining chains (a step whose pivot no
      longer occurs in the intermediate clause is skipped; an antecedent
      that lost its pivot literal subsumes the resolvent and replaces it).

    Reconstruction replays only the chains whose result can differ from
    what was recorded: a chain the marking pass marked, and a chain one of
    whose antecedents was replayed or collapsed into an alias.  Every
    other chain is kept exactly as recorded, and when the marking pass
    leaves no mark at all the reduced proof is the core itself.  This is
    exact because the solver records every derived clause as the exact
    resolvent of its chain, each step resolving a pivot that occurs with
    opposite signs in the intermediate clause and the antecedent: an
    unmarked chain over unchanged antecedents replays to its own clause
    and chain, drops no step and strengthens nothing.
    ``tests/sat/test_refutation_chains.py`` pins that invariant on solver
    streams; ``tests/sat/test_proof_layer_oracle.py`` compares every
    engine refutation with a reconstruction that replays every chain, and
    ``tests/sat/test_proof_reduce.py`` has a consumer that must be
    rebuilt.  A hand-built chain that records a weaker clause than its
    resolvent is kept weak unless reconstruction reaches it.

    Every *original* clause is kept, with its partition label, even when it
    falls outside the core: interpolation classifies variable locality over
    the full (A, B) clause sets (see :mod:`repro.itp.labeling`), so keeping
    the leaves intact guarantees a reduced proof never changes a variable's
    class — only the derivation DAG above the leaves shrinks.  The originals
    are not copied: the reduced proof shares ``proof``'s original layer
    (:meth:`ResolutionProof.shared_view`) and holds only its core nodes, so
    the work is the core's.  ``proof`` is left unchanged.  Every kept and
    replayed chain is a valid derivation, so the reduced proof satisfies
    :func:`check_proof`, and any interpolant extracted from it is a valid
    interpolant for the original (A, B) split.
    """
    if not proof.is_refutation():
        raise ProofError("only refutations can be reduced")
    root_id = proof.empty_clause_id
    assert root_id is not None
    nodes = proof._nodes
    core = [nodes[cid] for cid in proof.core_ids()]
    derived_core = [node for node in core if node.chain]

    stats = ProofReductionStats(nodes_before=len(proof))
    refcount = Counter(map(_ANTECEDENT, itertools.chain.from_iterable(
        node.chain for node in derived_core)))
    live, marks = _mark_recyclable(proof, derived_core, refcount)

    reduced = ResolutionProof(proof.shared_view())
    reduced._originals_first = True
    if marks:
        _reconstruct(proof, derived_core, live, marks, reduced, stats)
    else:
        # Every chain replays to itself: the reduced proof is the core.
        kept = reduced._nodes
        for node in core:
            if not node.chain:
                kept[node.clause_id] = node
        for node in derived_core:
            reduced.add_derived(node.clause_id, node.clause, node.chain)
    if not reduced.is_refutation():
        raise ProofError("proof reduction failed to preserve the refutation")
    reduced._core = list(reduced._nodes)
    stats.nodes_after = len(reduced)
    return reduced, stats


def _reconstruct(proof: ResolutionProof, derived_core: List[ProofNode],
                 live: Set[int], marks: Dict[int, Tuple[int, Set[int]]],
                 reduced: ResolutionProof, stats: ProofReductionStats) -> None:
    """Apply RecyclePivots' marks and add the reduced core to ``reduced``.

    Replays front to back the marked chains and the chains that consume a
    changed clause, propagating clause strengthenings; every other chain
    is kept as recorded.  Counts dropped steps and strengthened clauses
    into ``stats``.
    """
    nodes = proof._nodes
    root_id = proof.empty_clause_id
    # ``chains`` holds every surviving chain, kept or rebuilt;
    # ``new_clauses`` the replayed clauses that differ from the recorded
    # ones; ``alias`` redirects references to chains that collapsed into a
    # single premise.
    alias: Dict[int, int] = {}
    new_clauses: Dict[int, Clause] = {}
    chains: Dict[int, Sequence[Tuple[Optional[int], int]]] = {}

    def resolve_id(cid: int) -> int:
        while cid in alias:
            cid = alias[cid]
        return cid

    def clause_of(cid: int) -> Clause:
        if cid in new_clauses:
            return new_clauses[cid]
        return nodes[cid].clause

    no_mark: Tuple[int, Set[int]] = (0, set())
    for node in derived_core:
        cid = node.clause_id
        if cid not in live:
            continue  # recycled away entirely (never referenced any more)
        chain = node.chain
        mark = marks.get(cid)
        if mark is None:
            for _, antecedent_id in chain:
                if antecedent_id in alias or antecedent_id in new_clauses:
                    break
            else:
                chains[cid] = chain  # replays to itself
                continue
            mark = no_mark
        start, drops = mark
        begin_id = resolve_id(chain[start][1])
        current = set(clause_of(begin_id).literals)
        rebuilt: List[Tuple[Optional[int], int]] = [(None, begin_id)]
        for index in range(start + 1, len(chain)):
            if index in drops:
                stats.steps_dropped += 1
                continue
            pivot, antecedent_id = chain[index]
            assert pivot is not None
            antecedent_id = resolve_id(antecedent_id)
            c_pos, c_neg = pivot in current, -pivot in current
            if not c_pos and not c_neg:
                # An earlier strengthening already removed the pivot: the
                # intermediate clause subsumes the would-be resolvent.
                stats.steps_dropped += 1
                continue
            antecedent = clause_of(antecedent_id)
            d_pos, d_neg = pivot in antecedent, -pivot in antecedent
            if not d_pos and not d_neg:
                # The antecedent lost its pivot literal: it subsumes the
                # resolvent outright and replaces the whole prefix.
                current = set(antecedent.literals)
                rebuilt = [(None, antecedent_id)]
                stats.steps_dropped += 1
                continue
            if (c_neg and d_pos) or (c_pos and d_neg):
                lit = pivot if (c_neg and d_pos) else -pivot
                current.discard(-lit)
                current.update(l for l in antecedent.literals if l != lit)
                rebuilt.append((pivot, antecedent_id))
            else:
                # Same polarity on both sides (possible only through a
                # tautological ancestor): the original step removed the
                # complement, which the strengthened clause no longer
                # carries, so skipping preserves subsumption.
                stats.steps_dropped += 1
        if len(rebuilt) == 1 and cid != root_id:
            # The chain collapsed to a copy of its premise: alias it.
            alias[cid] = rebuilt[0][1]
            continue
        replayed = Clause(sorted(current))
        if replayed != node.clause:
            if len(replayed) < len(node.clause):
                stats.clauses_strengthened += 1
            new_clauses[cid] = replayed
        chains[cid] = rebuilt

    # Garbage-collect: only chains reachable from the root survive; the
    # leaves they reach are the reduced core's originals.
    needed: Set[int] = set()
    leaves: Set[int] = set()
    stack = [root_id]
    while stack:
        cid = stack.pop()
        if cid in needed or cid in leaves:
            continue
        if cid not in chains:
            leaves.add(cid)
            continue
        needed.add(cid)
        stack.extend(map(_ANTECEDENT, chains[cid]))

    for cid in sorted(leaves):
        node = reduced._nodes[cid] = nodes[cid]
        if node.chain:
            raise ProofError(f"reduced chains reference dropped clause {cid}")
    for node in derived_core:
        cid = node.clause_id
        if cid in needed:
            reduced.add_derived(cid, new_clauses.get(cid, node.clause),
                                chains[cid])


# --------------------------------------------------------------------- #
# Activation-literal stripping (group-aware proofs)
# --------------------------------------------------------------------- #
@dataclass
class ActivationStripStats:
    """What :func:`strip_activations` did to a grouped refutation.

    ``chains_stripped`` is the headline counter threaded into the engines'
    statistics: how many derived clauses carried at least one active
    activation literal that the strip removed.
    """

    nodes_before: int = 0
    nodes_after: int = 0
    chains_stripped: int = 0
    literals_stripped: int = 0
    originals_dropped: int = 0


def strip_activations(proof: ResolutionProof, active_groups: Set[int],
                      other_groups: Set[int] = frozenset(),
                      root_id: Optional[int] = None
                      ) -> Tuple[ResolutionProof, ActivationStripStats]:
    """Turn a grouped refutation into an activation-free one.

    ``proof`` is the raw trace of an incremental solver whose UNSAT answer
    was obtained under the assumptions ``{g : g in active_groups}`` —
    either a recorded empty clause or (the usual incremental case) a
    final-conflict clause over negated activation literals, identified by
    ``root_id`` (default: the recorded empty clause).

    The transformation relies on literal-presence provenance (module
    docstring): activation variables are never resolution pivots, so
    deleting every active group's ``-g`` literal from every clause commutes
    with each recorded resolution step, and the chains are kept verbatim.
    The stripped proof sees the trace's originals as they stand at the
    strip:

    * original clauses of an *active* group lose their ``-g`` literal and
      keep their partition label — they become exactly the caller-level
      clauses (e.g. the depth target of a BMC check);
    * every other original clause is kept untouched, label included, even
      off-core: interpolation classifies variable locality over the full
      (A, B) clause sets, exactly the rationale of :func:`reduce_proof`;
    * original clauses of *released or foreign* groups — including the
      ``[-g]`` release units, which carry the group they retract — are
      dropped when they sit outside the root's core and rejected with
      :class:`ActivationDependencyError` when inside it (their group is no
      longer part of the caller's formula); so is an active group the trace
      has released;
    * derived clauses outside the core are dropped; derived clauses inside
      it lose the active ``-g`` literals.  A core clause still carrying a
      released/foreign group's literal, a positive activation literal, or
      an activation-variable pivot is rejected — each would falsify the
      provenance invariant the strip is built on;
    * the root clause must strip to the empty clause (its literals are all
      negated active-group literals), completing the refutation.

    Only the root's core is walked.  The other originals are shared with
    the trace through an :class:`OriginalView` and built only if asked for,
    and ``literals_stripped`` / ``originals_dropped`` count them per index
    key (each active-group clause carries its own ``-g`` once), so the
    work is the core's, not the trace's.

    Returns the stripped proof and an :class:`ActivationStripStats`.
    """
    if root_id is None:
        root_id = proof.empty_clause_id
    if root_id is None:
        raise ProofError("no refutation root to strip")
    if root_id not in proof:
        raise ProofError(f"unknown refutation root {root_id}")
    layer = proof._layer
    if layer is None:
        raise ProofError("only a solver trace can be stripped")
    active = set(active_groups)
    others = set(other_groups) - active
    released = active & layer.released
    if released:
        raise ActivationDependencyError(
            f"assumed groups {sorted(released)} are released")
    strip_lits = {-g for g in active}
    stats = ActivationStripStats(nodes_before=len(proof))
    nodes = proof._nodes
    view = OriginalView(layer, active, others)
    stripped = ResolutionProof(view)
    kept = view.core = stripped._nodes
    core_ids = proof.core_ids(root_id)
    for cid in core_ids:
        node = nodes[cid]
        chain = node.chain
        if not chain:
            group = node.group
            if group is not None:
                if group in others:
                    raise ActivationDependencyError(
                        f"core clause {cid} belongs to released/foreign "
                        f"group {group}")
                node = _stripped_original(node, group in active, strip_lits)
            kept[cid] = node
            continue
        for pivot, _ in chain:
            if pivot in active or pivot in others:
                raise ActivationDependencyError(
                    f"core clause {cid} resolves on activation variable "
                    f"{pivot}")
        lits = []
        for lit in node.clause.literals:
            if lit in strip_lits:
                continue
            var = abs(lit)
            if var in others:
                raise ActivationDependencyError(
                    f"core clause {cid} depends on released/foreign "
                    f"group {var}")
            if var in active:
                # +g: no clause may ever contain a positive activation
                # literal (provenance invariant).
                raise ActivationDependencyError(
                    f"core clause {cid} carries positive activation "
                    f"literal {lit}")
            lits.append(lit)
        if cid == root_id and lits:
            raise ProofError(
                f"refutation root {cid} strips to non-empty clause "
                f"{sorted(lits)}")
        if len(lits) < len(node.clause):
            stats.chains_stripped += 1
            stats.literals_stripped += len(node.clause) - len(lits)
            # Deleting literals keeps the normal form of a clause that has
            # no complementary pair.
            clause = (Clause(lits) if node.clause.is_tautology
                      else Clause.from_normalised(tuple(lits)))
            node = ProofNode(cid, clause, chain)
        # The chains are the trace's, already checked when recorded.
        kept[cid] = node
        if not lits:
            stripped.empty_clause_id = cid
    if not stripped.is_refutation():
        raise ProofError("activation stripping failed to produce a refutation")
    stripped._core = core_ids
    stats.literals_stripped += sum(count for (_, group), count
                                   in view.counts.items() if group in active)
    stats.originals_dropped = view.dropped
    stats.nodes_after = len(stripped)
    return stripped, stats


def check_proof(proof: ResolutionProof, require_refutation: bool = True) -> None:
    """Validate every recorded chain; raise :class:`ProofError` on failure.

    For each derived clause the chain is replayed with explicit binary
    resolution; the replayed clause must *subsume or equal* the recorded
    clause (the solver may record a clause with literals in a different
    order, but never a logically weaker one).
    """
    for node in proof.derived_nodes():
        replayed = _resolve_chain(proof, node)
        recorded = set(node.clause.literals)
        obtained = set(replayed.literals)
        if not obtained <= recorded and obtained != recorded:
            raise ProofError(
                f"clause {node.clause_id}: replayed {sorted(obtained)} is not contained "
                f"in recorded {sorted(recorded)}")
        if len(node.clause) == 0 and len(replayed) != 0:
            raise ProofError(
                f"clause {node.clause_id} recorded as empty but replays to {replayed}")
    if require_refutation and not proof.is_refutation():
        raise ProofError("proof does not derive the empty clause")
