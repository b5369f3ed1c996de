"""The preprocessing and simulation kernels against their former forms.

Each reference below is the implementation the library used before its
kernel was made cheaper; the rewrite must compute the identical result:

* :func:`reference_cone_of_influence` starts a fresh ``Aig.support`` walk
  for every latch next-state function it reaches (the kernel walks once,
  with one visited set), and :func:`reference_cone_size` counts a cone's
  gates through the topological ``fanin_cone`` list (the kernel counts
  during one walk of the gate table);
* :func:`reference_copy_var` and :func:`reference_copy_rewritten` (with
  :func:`reference_rewrite_and`) copy cones through ``and_gate`` /
  ``is_and`` / ``lit_var`` calls (the kernels read the gate table with bit
  operations, in the same right-fanin-first order, so gates are created
  in the same order);
* :func:`reference_simulate_comb`, :func:`reference_ternary_simulate_comb`
  and :func:`reference_step` evaluate every fanin through ``lit_var`` /
  ``lit_sign`` calls (the kernels use bit operations on the gate table);
* :func:`reference_find_equivalences` is the fraig loop that SAT-checks
  every candidate pair of a round and feeds the counterexamples back as
  simulation rounds afterwards (the kernel simulates each counterexample
  at once and skips the pairs it already tells apart);
* :func:`reference_trace_check` replays a trace through three separate
  simulations per frame (``next_state``, ``constraints_hold`` and
  ``is_bad_state``; the kernel reads all three from one).

They are compared on the quick and redundant suites and a few fuzz
circuits: identical models, maps, pass counters, merges and trace
verdicts.  Under deliberately narrow signatures (:data:`NARROW`) the
merges must still agree.  ``tests/fuzz/test_preprocess_kernel_stream.py``
runs the same comparisons over a longer stream of generated and mutated
circuits.
"""

import random
from types import SimpleNamespace

import pytest

import repro.aig.ops as ops
import repro.preprocess.fraig as fraig
import repro.preprocess.rewrite as rewrite
from repro.aig.aig import FALSE, TRUE, lit_from_var, lit_negate, lit_sign, lit_var
from repro.aig.simulate import (SequentialSimulator, random_leaf_words,
                                random_stimulus_rounds, simulate_comb,
                                ternary_simulate_comb)
from repro.bmc import BmcEngine
from repro.bmc.cex import Trace
from repro.circuits import fuzz_instance, quick_suite, redundant_suite
from repro.cnf.tseitin import TseitinEncoder
from repro.preprocess import FraigConfig, build_pipeline, find_equivalences
from repro.sat.solver import CdclSolver
from repro.sat.types import Budget, SatResult

_WIDTH = 64
FUZZ_SEEDS = (0, 3, 7, 11)


# --------------------------------------------------------------------- #
# References
# --------------------------------------------------------------------- #
def reference_cone_of_influence(aig, roots):
    """The sequential cone through one ``support`` walk per literal."""
    inputs, latches = set(), set()
    frontier = list(roots)
    visited_lits = set()
    while frontier:
        lit = frontier.pop()
        if lit in visited_lits:
            continue
        visited_lits.add(lit)
        ins, lats = aig.support([lit])
        inputs.update(ins)
        new_latches = [v for v in lats if v not in latches]
        latches.update(lats)
        for var in new_latches:
            frontier.append(aig.latch(var).next)
    return inputs, latches


def reference_cone_size(aig, root):
    """AND gates in a literal's cone, through the topological cone list."""
    return sum(1 for v in aig.fanin_cone([root]) if aig.is_and(v))


def _shallow(var_map, lit):
    mapped = var_map[lit_var(lit)]
    return lit_negate(mapped) if lit_sign(lit) else mapped


def reference_copy_var(mapper, var):
    """``LiteralMapper._copy_var`` through ``and_gate``/``lit_var`` calls
    (mapped leaves only: the error paths are not replayed)."""
    var_map, redirects = mapper._var_map, mapper._redirects
    stack = [var]
    while stack:
        v = stack[-1]
        if v in var_map:
            stack.pop()
            continue
        redirect = redirects.get(v)
        if redirect is not None:
            if lit_var(redirect) in var_map:
                var_map[v] = _shallow(var_map, redirect)
                stack.pop()
            else:
                stack.append(lit_var(redirect))
            continue
        gate = mapper.src.and_gate(v)
        pending = [u for u in (lit_var(gate.left), lit_var(gate.right))
                   if u not in var_map]
        if pending:
            stack.extend(pending)
            continue
        var_map[v] = mapper.dst.add_and(_shallow(var_map, gate.left),
                                        _shallow(var_map, gate.right))
        stack.pop()
    return var_map[var]


def _reference_flatten(aig, lit, acc):
    stack = [lit]
    while stack:
        current = stack.pop()
        if not lit_sign(current) and aig.is_and(lit_var(current)):
            gate = aig.and_gate(lit_var(current))
            stack.append(gate.left)
            stack.append(gate.right)
        else:
            acc.add(current)
            if len(acc) > rewrite._MAX_FLAT_WIDTH:
                return False
    return True


def reference_rewrite_and(aig, a, b):
    """``rewrite_and`` through ``is_and``/``and_gate`` calls."""
    for x, y in ((a, b), (b, a)):
        if lit_sign(y) and aig.is_and(lit_var(y)):
            gate = aig.and_gate(lit_var(y))
            c, d = gate.left, gate.right
            if x == lit_negate(c) or x == lit_negate(d):
                return x
            if x == c:
                return aig.add_and(x, lit_negate(d))
            if x == d:
                return aig.add_and(x, lit_negate(c))
    leaves = set()
    if not (_reference_flatten(aig, a, leaves)
            and _reference_flatten(aig, b, leaves)):
        return aig.add_and(a, b)
    leaves.discard(TRUE)
    if FALSE in leaves or any(lit_negate(lit) in leaves for lit in leaves):
        return FALSE
    out = TRUE
    for lit in sorted(leaves):
        out = aig.add_and(out, lit)
    return out


def reference_copy_rewritten(src, dst, var_map, lit, identity_leaves):
    """``_copy_rewritten`` through ``is_and``/``and_gate`` calls."""
    stack = [lit_var(lit)]
    while stack:
        var = stack[-1]
        if var in var_map:
            stack.pop()
            continue
        if not src.is_and(var):
            assert identity_leaves
            var_map[var] = lit_from_var(var)
            stack.pop()
            continue
        gate = src.and_gate(var)
        pending = [u for u in (lit_var(gate.left), lit_var(gate.right))
                   if u not in var_map]
        if pending:
            stack.extend(pending)
            continue
        var_map[var] = reference_rewrite_and(
            dst, _shallow(var_map, gate.left), _shallow(var_map, gate.right))
        stack.pop()
    return _shallow(var_map, lit)


def _lit_value(values, lit, mask):
    value = values[lit_var(lit)]
    if lit_sign(lit):
        value = ~value & mask
    return value


def reference_simulate_comb(aig, input_values, state_values=None, width=1):
    mask = (1 << width) - 1
    values = {0: 0}
    for var in aig.input_vars():
        values[var] = input_values.get(var, 0) & mask
    for latch in aig.latches:
        if state_values is not None and latch.var in state_values:
            values[latch.var] = state_values[latch.var] & mask
        else:
            init = latch.init if latch.init is not None else 0
            values[latch.var] = mask if init else 0
    for gate in aig.iter_and_gates():
        values[gate.var] = (_lit_value(values, gate.left, mask)
                            & _lit_value(values, gate.right, mask))
    return values


def reference_step(aig, state, input_values, width):
    """``SequentialSimulator.step`` as it was: (values, next state)."""
    values = reference_simulate_comb(aig, input_values, state, width)
    mask = (1 << width) - 1
    return values, {latch.var: _lit_value(values, latch.next, mask)
                    for latch in aig.latches}


def reference_ternary_simulate_comb(aig, input_values=None, state_values=None,
                                    width=1):
    mask = (1 << width) - 1

    def lit_pair(values, lit):
        value, known = values[lit_var(lit)]
        if lit_sign(lit):
            value = ~value & known & mask
        return value, known

    values = {0: (0, mask)}
    for var in aig.input_vars():
        if input_values is not None and var in input_values:
            value, known = input_values[var]
            values[var] = (value & known & mask, known & mask)
        else:
            values[var] = (0, 0)
    for latch in aig.latches:
        if state_values is not None and latch.var in state_values:
            value, known = state_values[latch.var]
            values[latch.var] = (value & known & mask, known & mask)
        elif latch.init is None:
            values[latch.var] = (0, 0)
        else:
            values[latch.var] = (mask if latch.init else 0, mask)
    for gate in aig.iter_and_gates():
        left_v, left_k = lit_pair(values, gate.left)
        right_v, right_k = lit_pair(values, gate.right)
        known = ((left_k & right_k)
                 | (left_k & ~left_v)
                 | (right_k & ~right_v)) & mask
        values[gate.var] = (left_v & right_v & known, known)
    return values


def reference_find_equivalences(model, config=None):
    """The round loop that SAT-checks every remaining pair of a round."""
    config = config or FraigConfig()
    aig = model.aig
    result = SimpleNamespace(merges={}, classes=0, sat_confirms=0,
                             sat_refutes=0, abandoned=0)
    roots = ([latch.next for latch in aig.latches]
             + [aig.bad[model.property_index]] + list(aig.constraints))
    gates = sorted(v for v in aig.fanin_cone(roots) if aig.is_and(v))
    if not gates:
        return result
    inputs = sorted(aig.input_vars())
    latch_vars = sorted(latch.var for latch in aig.latches)
    ordered = [0] + sorted(set(inputs) | set(latch_vars) | set(gates))
    gate_set = set(gates)
    sigs = {var: [] for var in ordered}
    masks = []

    def append_round(values, width):
        masks.append((1 << width) - 1)
        for var in ordered:
            sigs[var].append(values[var])

    rng = random.Random(config.seed)
    for _ in range(config.comb_rounds):
        input_words = random_leaf_words(rng, inputs, config.width)
        state_words = random_leaf_words(rng, latch_vars, config.width)
        append_round(reference_simulate_comb(aig, input_words, state_words,
                                             config.width), config.width)
    if aig.latches and config.seq_steps:
        for values in random_stimulus_rounds(aig, config.seq_steps,
                                             config.width, rng=rng):
            append_round(values, config.width)

    solver = CdclSolver()
    encoder = TseitinEncoder(aig, solver.new_var, solver.add_cnf,
                             allocate_leaves=True)
    abandoned = set()
    while True:
        classes, phases = {}, {}
        for var in ordered:
            if var in result.merges:
                continue
            signature = sigs[var]
            phase = signature[0] & 1
            key = (tuple(~word & mask for word, mask in zip(signature, masks))
                   if phase else tuple(signature))
            phases[var] = phase
            classes.setdefault(key, []).append(var)
        patterns = []
        for members in classes.values():
            representative = members[0]
            mergeable = [m for m in members[1:] if m in gate_set
                         and (representative, m) not in abandoned]
            if not mergeable:
                continue
            result.classes += 1
            rep_lit = lit_from_var(representative)
            for member in mergeable:
                target = (rep_lit if phases[member] == phases[representative]
                          else lit_negate(rep_lit))
                member_cnf = encoder.literal(lit_from_var(member))
                target_cnf = encoder.literal(target)
                group = solver.new_group()
                solver.add_clause([member_cnf, target_cnf], group=group)
                solver.add_clause([-member_cnf, -target_cnf], group=group)
                answer = solver.solve(
                    assumptions=[group],
                    budget=Budget(max_conflicts=config.conflict_limit))
                solver.release_group(group)
                if answer is SatResult.UNSAT:
                    result.merges[member] = target
                    result.sat_confirms += 1
                elif answer is SatResult.SAT:
                    result.sat_refutes += 1
                    patterns.append({
                        var: solver.model_value(encoder.cnf_var(var))
                        for var in inputs + latch_vars
                        if encoder.has_var(var)})
                else:
                    result.abandoned += 1
                    abandoned.add((representative, member))
        if not patterns:
            return result
        for start in range(0, len(patterns), config.width):
            chunk = patterns[start:start + config.width]
            input_words = {var: 0 for var in inputs}
            state_words = {var: 0 for var in latch_vars}
            for lane, pattern in enumerate(chunk):
                for var, bit in pattern.items():
                    if bit:
                        words = input_words if var in input_words else state_words
                        words[var] |= 1 << lane
            append_round(reference_simulate_comb(aig, input_words, state_words,
                                                 len(chunk)), len(chunk))


def reference_trace_check(trace, model):
    """``Trace.check`` as three separate simulations per frame."""
    for latch in model.latches:
        if latch.init is None:
            continue
        if trace.initial_state.get(latch.var, False) != bool(latch.init):
            return False
    states = trace.states(model)
    for frame, state in enumerate(states):
        if not model.constraints_hold(state, trace.input_at(frame)):
            return False
    return model.is_bad_state(states[trace.depth], trace.input_at(trace.depth))


# --------------------------------------------------------------------- #
# Comparisons (shared with the fuzz-lane stream)
# --------------------------------------------------------------------- #
def _pipeline_outcome(build):
    result = build_pipeline().run(build())
    aig = result.model.aig
    return ([(g.var, g.left, g.right) for g in aig.iter_and_gates()],
            [(latch.var, latch.init, latch.next) for latch in aig.latches],
            aig.input_vars(), result.model.bad_literal, aig.constraints,
            result.model_map, [stats.as_dict() for stats in result.passes])


def check_preprocessing(build, monkeypatch):
    """The pipeline and the fraig search against the references.

    Returns the kernel's :class:`~repro.preprocess.fraig.FraigResult` on
    the raw model.
    """
    model = build()
    aig = model.aig
    roots = [model.bad_literal] + aig.constraints
    assert ops.cone_of_influence(aig, roots) == \
        reference_cone_of_influence(aig, roots)
    for root in roots + [latch.next for latch in aig.latches]:
        assert ops.cone_size(aig, root) == reference_cone_size(aig, root)

    found = find_equivalences(model)
    want = reference_find_equivalences(build())
    assert found.merges == want.merges
    assert (found.classes, found.sat_confirms, found.abandoned) == \
        (want.classes, want.sat_confirms, want.abandoned)
    # Every refuted pair is answered either by SAT or by a counterexample
    # of its round.
    assert found.sat_refutes + found.resim_answered == want.sat_refutes

    got = _pipeline_outcome(build)
    with monkeypatch.context() as patched:
        patched.setattr(ops, "cone_of_influence", reference_cone_of_influence)
        patched.setattr(ops.LiteralMapper, "_copy_var", reference_copy_var)
        patched.setattr(rewrite, "_copy_rewritten", reference_copy_rewritten)
        patched.setattr(fraig, "find_equivalences",
                        reference_find_equivalences)
        assert _pipeline_outcome(build) == got
    return found


#: Signatures from one narrow random round: coarse candidate classes, so
#: most pairs are refuted and the per-counterexample refinement does the
#: work.  The rounds' partitions then differ from the reference's (so does
#: the class count), but the merges may not.
NARROW = FraigConfig(comb_rounds=1, seq_steps=0, width=2)


def check_narrow_fraig(build):
    """Merges under :data:`NARROW` signatures against the reference.

    Returns the kernel's :class:`~repro.preprocess.fraig.FraigResult`.
    """
    found = find_equivalences(build(), NARROW)
    want = reference_find_equivalences(build(), NARROW)
    assert found.abandoned == want.abandoned == 0
    assert found.merges == want.merges
    assert found.sat_confirms == want.sat_confirms == len(found.merges)
    return found


def check_simulation(aig, seed):
    """Binary, ternary and sequential simulation against the references."""
    rng = random.Random(seed)
    inputs = sorted(aig.input_vars())
    latch_vars = sorted(latch.var for latch in aig.latches)
    input_words = random_leaf_words(rng, inputs, _WIDTH)
    state_words = random_leaf_words(rng, latch_vars, _WIDTH)
    assert simulate_comb(aig, input_words, state_words, _WIDTH) == \
        reference_simulate_comb(aig, input_words, state_words, _WIDTH)
    assert simulate_comb(aig, input_words) == \
        reference_simulate_comb(aig, input_words)

    def ternary_words(variables):
        words = {}
        for var in variables:
            if rng.random() < 0.8:
                words[var] = (rng.getrandbits(_WIDTH), rng.getrandbits(_WIDTH))
        return words

    ternary_inputs = ternary_words(inputs)
    ternary_states = ternary_words(latch_vars)
    assert ternary_simulate_comb(aig, ternary_inputs, ternary_states,
                                 _WIDTH) == \
        reference_ternary_simulate_comb(aig, ternary_inputs, ternary_states,
                                        _WIDTH)
    assert ternary_simulate_comb(aig) == reference_ternary_simulate_comb(aig)

    simulator = SequentialSimulator(aig, _WIDTH)
    state = dict(simulator.state)
    for _ in range(4):
        frame = random_leaf_words(rng, inputs, _WIDTH)
        want_values, state = reference_step(aig, state, frame, _WIDTH)
        assert simulator.step(frame) == want_values
        assert simulator.state == state


def _corruptions(trace, model, rng):
    """The trace itself plus variants with one thing changed."""
    yield trace
    latches = [latch.var for latch in model.latches]
    inputs = model.input_vars
    for _ in range(3):
        frames = [dict(frame) for frame in trace.inputs]
        if inputs:
            frame = rng.randrange(len(frames))
            var = rng.choice(inputs)
            frames[frame][var] = not frames[frame].get(var, False)
        yield Trace(dict(trace.initial_state), frames, trace.depth)
    if latches:
        initial = dict(trace.initial_state)
        var = rng.choice(latches)
        initial[var] = not initial.get(var, False)
        yield Trace(initial, [dict(f) for f in trace.inputs], trace.depth)
    if trace.depth:
        yield Trace(dict(trace.initial_state),
                    [dict(f) for f in trace.inputs[:trace.depth]],
                    trace.depth - 1)
    yield Trace(dict(trace.initial_state),
                [dict(f) for f in trace.inputs] + [{}], trace.depth + 1)


def _random_trace(model, rng, depth):
    initial = {latch.var: (rng.random() < 0.5 if latch.init is None
                           else bool(latch.init))
               for latch in model.latches}
    frames = [{var: rng.random() < 0.5 for var in model.input_vars}
              for _ in range(depth + 1)]
    return Trace(initial, frames, depth)


def check_traces(model, seed, max_depth):
    """Trace verdicts against the reference replay: the engine's trace (if
    the model fails within ``max_depth``), its corruptions and random
    traces.  Returns how many traces the reference accepts."""
    rng = random.Random(seed)
    traces = [_random_trace(model, rng, rng.randrange(4)) for _ in range(4)]
    result = BmcEngine(model).run(max_depth=max_depth)
    if result.trace is not None:
        traces.extend(_corruptions(result.trace, model, rng))
    accepted = 0
    for trace in traces:
        want = reference_trace_check(trace, model)
        assert trace.check(model) == want
        accepted += want
    return accepted


# --------------------------------------------------------------------- #
# Tier-1 cases
# --------------------------------------------------------------------- #
_CASES = ([(inst.name, inst.build) for inst in quick_suite() + redundant_suite()]
          + [(f"fuzz_s{seed}", fuzz_instance(seed).build)
             for seed in FUZZ_SEEDS])


@pytest.mark.parametrize("name,build", _CASES, ids=[name for name, _ in _CASES])
def test_preprocessing_matches_the_references(name, build, monkeypatch):
    check_preprocessing(build, monkeypatch)


@pytest.mark.parametrize("name,build", _CASES, ids=[name for name, _ in _CASES])
def test_simulation_matches_the_references(name, build):
    check_simulation(build().aig, seed=len(name))


def test_resimulation_answers_pairs_on_the_redundant_family():
    answered = sum(find_equivalences(inst.build()).resim_answered
                   for inst in redundant_suite() + quick_suite())
    assert answered > 0


@pytest.mark.parametrize("name,build", _CASES, ids=[name for name, _ in _CASES])
def test_narrow_signatures_give_the_reference_merges(name, build):
    check_narrow_fraig(build)


@pytest.mark.parametrize("name,build", _CASES, ids=[name for name, _ in _CASES])
def test_trace_check_matches_the_reference(name, build):
    check_traces(build(), seed=len(name), max_depth=12)


def test_trace_check_accepts_the_engine_traces():
    accepted = sum(check_traces(inst.build(), seed=1, max_depth=12)
                   for inst in quick_suite() if inst.expected == "fail")
    assert accepted > 0
