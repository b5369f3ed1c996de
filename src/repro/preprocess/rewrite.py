"""Structural rewriting on the strashed AIG.

The pass rebuilds every cone the model observes (latch next-state
functions, the property, the constraints) through a rewriting variant of
``add_and`` that goes beyond the constructor's constant/trivial rules:

* **one-level Boolean rules** involving a complemented AND child —
  ``a & !(a & d) = a & !d`` (substitution) and ``a & !( !a & d) = a``
  (absorption);
* **AND-tree flattening** — both fanins are flattened through positive AND
  edges into one literal set (bounded at :data:`_MAX_FLAT_WIDTH` conjuncts;
  wider trees keep their binary structure); duplicates vanish, a
  complementary pair collapses the whole conjunction to FALSE, and the set
  is rebuilt as a chain in sorted literal order.  The sorted rebuild is
  what merges *structurally different but semantically equal* duplicated
  cones: two copies of the same conjunction built with different gate
  associations normalise to the same chain, which structural hashing then
  shares.

Rewriting never changes the input/latch interface (the model map is the
identity) and — by construction — never grows the model: if the rebuilt
AIG ends up with more gates than the original (possible when flattening
un-shares a multi-fanout child), the pass returns the model unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..aig.aig import FALSE, TRUE, Aig, lit_from_var, lit_negate, lit_sign, lit_var
from ..aig.model import Model
from .modelmap import ModelMap
from .passes import Pass, PassResult
from .rebuild import rebuild_model

__all__ = ["RewritePass", "rewrite_and", "rewrite_cone"]

#: Conjunctions wider than this are not flattened (bounds chain rebuilds).
_MAX_FLAT_WIDTH = 8


def _flatten(aig: Aig, lit: int, acc: Set[int]) -> bool:
    """Collect the conjuncts of ``lit`` through positive AND edges.

    Returns ``False`` (and stops descending) once the conjunction exceeds
    :data:`_MAX_FLAT_WIDTH` — callers then keep the original structure.
    """
    stack = [lit]
    while stack:
        current = stack.pop()
        if not lit_sign(current) and aig.is_and(lit_var(current)):
            gate = aig.and_gate(lit_var(current))
            stack.append(gate.left)
            stack.append(gate.right)
        else:
            acc.add(current)
            if len(acc) > _MAX_FLAT_WIDTH:
                return False
    return True


def rewrite_and(aig: Aig, a: int, b: int) -> int:
    """Build ``a & b`` in ``aig`` with two-level rewriting simplifications."""
    # One-level rules through a complemented AND child.
    for x, y in ((a, b), (b, a)):
        if lit_sign(y) and aig.is_and(lit_var(y)):
            gate = aig.and_gate(lit_var(y))
            c, d = gate.left, gate.right
            # x & !(c & d) with x => !c (or x => !d): the negation is implied.
            if x == lit_negate(c) or x == lit_negate(d):
                return x
            # x & !(c & d) with x == c: reduces to x & !d (and symmetrically).
            if x == c:
                return aig.add_and(x, lit_negate(d))
            if x == d:
                return aig.add_and(x, lit_negate(c))

    # Flatten both AND trees into one deduplicated, sorted conjunction.
    leaves: Set[int] = set()
    if not (_flatten(aig, a, leaves) and _flatten(aig, b, leaves)):
        return aig.add_and(a, b)
    leaves.discard(TRUE)
    if FALSE in leaves:
        return FALSE
    for lit in leaves:
        if lit_negate(lit) in leaves:
            return FALSE
    out = TRUE
    for lit in sorted(leaves):
        out = aig.add_and(out, lit)
    return out


def _copy_rewritten(src: Aig, dst: Aig, var_map: Dict[int, int], lit: int,
                    identity_leaves: bool) -> int:
    """Copy a literal's cone into ``dst``, rewriting every AND on the way.

    With ``identity_leaves`` (the in-place ``rewrite_cone`` mode, where
    ``dst is src``) input/latch leaves missing from ``var_map`` map to
    themselves; otherwise every leaf must have been declared up front.
    """
    root_var = lit_var(lit)
    if root_var not in var_map:
        stack: List[int] = [root_var]
        while stack:
            var = stack[-1]
            if var in var_map:
                stack.pop()
                continue
            if not src.is_and(var):
                if not identity_leaves:
                    raise KeyError(
                        f"leaf variable {var} has no mapping in the "
                        "destination AIG")
                var_map[var] = lit_from_var(var)
                stack.pop()
                continue
            gate = src.and_gate(var)
            pending = [u for u in (lit_var(gate.left), lit_var(gate.right))
                       if u not in var_map]
            if pending:
                stack.extend(pending)
                continue
            left = _map_lit(var_map, gate.left)
            right = _map_lit(var_map, gate.right)
            var_map[var] = rewrite_and(dst, left, right)
            stack.pop()
    return _map_lit(var_map, lit)


def _map_lit(var_map: Dict[int, int], lit: int) -> int:
    mapped = var_map[lit_var(lit)]
    return lit_negate(mapped) if lit_sign(lit) else mapped


def rewrite_cone(src: Aig, roots: Sequence[int], dst: Optional[Aig] = None,
                 leaf_map: Optional[Mapping[int, int]] = None,
                 rewrite_map: Optional[Dict[int, int]] = None) -> List[int]:
    """Rebuild the cones of ``roots`` through the rewriting rules.

    This is the cone-level form of the rewrite pass — the one-level Boolean
    rules plus AND-tree flattening of :func:`rewrite_and`, applicable to
    *arbitrary* literals rather than to a whole model:

    * ``dst is None`` (the default) rebuilds the cones **in place**: new,
      normalised gates are added to ``src`` itself (structural hashing
      shares whatever already exists) and leaves map to themselves.  This
      is the interpolant-compaction mode (:mod:`repro.itp.compact`): the
      returned literal denotes the same function as the input root, over
      the same leaves, usually through a smaller cone.
    * With an explicit ``dst`` and ``leaf_map`` (source leaf variable →
      destination literal) the cones are copied *across* AIGs, which is
      how :class:`RewritePass` rebuilds a whole model into a scratch AIG.

    All roots share one rewrite map, so common subcones normalise once.
    In place, a caller may also keep that map across calls on the same AIG
    and pass it as ``rewrite_map``: the AIG is append-only, so a gate
    rewritten once rewrites to the same literal every time, and a fresh
    map would only re-find the gates the first rewrite created.  The map
    is extended with every gate this call rewrites.  Returns the rewritten
    literal for each root, in order.
    """
    target = src if dst is None else dst
    identity = dst is None
    var_map: Dict[int, int] = {0: FALSE} if rewrite_map is None else rewrite_map
    if leaf_map is not None:
        var_map.update(leaf_map)
    return [_copy_rewritten(src, target, var_map, root, identity)
            for root in roots]


class RewritePass(Pass):
    """Two-level AND rewriting + duplicate-cone merging; never grows the AIG."""

    name = "rewrite"

    def apply(self, model: Model) -> PassResult:
        aig = model.aig
        # First rebuild with rewriting into a scratch AIG.  Normalising a
        # cone leaves the pre-normalisation gates of its duplicates behind
        # as garbage, so a second, plain copy garbage-collects: only the
        # cones the model observes survive.
        scratch = Aig(aig.name)
        leaf_map: Dict[int, int] = {}
        for var in aig.input_vars():
            leaf_map[var] = scratch.add_input(aig.input_name(var))
        for latch in aig.latches:
            leaf_map[latch.var] = scratch.add_latch(init=latch.init,
                                                    name=latch.name)
        bad = aig.bad[model.property_index]
        roots = ([latch.next for latch in aig.latches] + [bad]
                 + list(aig.constraints))
        rewritten = rewrite_cone(aig, roots, dst=scratch, leaf_map=leaf_map)
        scratch_nexts = {latch.var: rewritten[i]
                         for i, latch in enumerate(aig.latches)}
        scratch_bad = rewritten[len(aig.latches)]
        scratch_constraints = rewritten[len(aig.latches) + 1:]

        result, model_map = rebuild_model(
            interface=model,
            src=scratch,
            src_inputs=list(zip(aig.input_vars(), scratch.input_vars())),
            src_latches=[(orig, copied.var, scratch_nexts[orig.var])
                         for orig, copied in zip(aig.latches, scratch.latches)],
            src_bad=scratch_bad,
            src_constraints=scratch_constraints)

        if result.aig.num_ands >= aig.num_ands:
            # Flattening un-shared more than the rules saved: keep the
            # original (the pass promises never to grow the model).
            return PassResult(model, ModelMap.identity(model),
                              self._stats(model, model))
        return PassResult(result, model_map, self._stats(model, result))
