"""Reference implementations of the counter-machine hot paths, kept as
oracles for the indexed versions in `brts.counters`.

`reference_simulation` is the round-based (Jacobi) greatest-simulation
loop over a set of state pairs: every round re-checks every surviving pair
against the relation of the round before.  Both routes of
`check_simulation` reach the same rounds, so the rounds, and the
counterexample rebuilt from them, must agree pair for pair: the bitset
refinement over a (control, valuation) grid per side, and the
predecessor-counter worklist it falls back on where that grid is sparse
or its moves share few shifts.  `reference_successors` grounds a machine
guard with `substitute` + `simplify`, pins primed counters by unit
equations and enumerates the rest.  `reference_reach` is the breadth-first
search over `reference_successors`, with quantifiers decided by bounded
search instead of elimination.  `reference_mca_to_lts` and
`reference_brts_to_lts` are the two breadth-first loops the LTS builders
ran before they shared one walk.  `Contract` is the contract matcher that
`brts_to_lts` ran before contracts were compiled: it pins only plain-variable
pre arguments and evaluates every other candidate; `contract_matches` plugs
it into `reference_brts_to_lts`.  All are slow and obviously faithful to the
definitions, which is what an oracle is for.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache

from brts.counters import (
    Annotation, CounterMachine, Counterexample, Lts, LtsState, SimulationRelation,
    primed,
)
from brts.presburger import (
    And, Const, EqZ, Exists, Formula, Not, Or, TRUE, conj, eq, eliminate_quantifiers,
    evaluate, free_vars, simplify, substitute,
)


def reference_simulation(sim: Lts, simulated: Lts):
    """Greatest simulation of `simulated` by `sim` (a SimulationRelation),
    or the counterexample rebuilt from the rounds in which pairs fell."""
    pairs: set[tuple[LtsState, LtsState]] = set()
    removed_round: dict[tuple[LtsState, LtsState], int] = {}
    for p in sim.states:
        for q in simulated.states:
            if q in simulated.finals and p not in sim.finals:
                removed_round[(p, q)] = 0
            else:
                pairs.add((p, q))

    rnd = 0
    changed = True
    while changed:
        changed = False
        rnd += 1
        dropped = []
        for (p, q) in pairs:
            for a, q2 in simulated.moves(q):
                if not any(b == a and (p2, q2) in pairs for b, p2 in sim.moves(p)):
                    dropped.append((p, q))
                    break
        for pq in dropped:
            pairs.discard(pq)
            removed_round[pq] = rnd
            changed = True

    init_pair = (sim.initial, simulated.initial)
    if init_pair in pairs:
        return SimulationRelation(pairs)

    steps: list[tuple[str, LtsState]] = []
    p, q = init_pair
    while True:
        k = removed_round[(p, q)]
        if k == 0:
            return Counterexample(
                steps, f"state {q.label()} is final but {p.label()} is not")
        best = None
        for a, q2 in simulated.moves(q):
            matches = [p2 for b, p2 in sim.moves(p) if b == a]
            if any((p2, q2) in pairs for p2 in matches):
                continue
            if not matches:
                steps.append((a, q2))
                return Counterexample(
                    steps, f"no move labelled '{a}' from {p.label()}")
            depth = max(removed_round[(p2, q2)] for p2 in matches)
            cand = min(matches, key=lambda p2: removed_round[(p2, q2)])
            if best is None or depth < best[0]:
                best = (depth, a, q2, cand)
        assert best is not None, "refuted pair must have a failing move"
        _, a, q2, p2 = best
        steps.append((a, q2))
        p, q = p2, q2


def reference_successors(machine: CounterMachine, state: str,
                         valuation: tuple[int, ...], bound: int):
    """The (label, dst, valuation') steps enabled at a machine state, in
    transition order and, per transition, in product order of the free
    primed counters."""
    env = dict(zip(machine.counters, valuation))
    out = []
    for t in machine.transitions:
        if t.src != state:
            continue
        grounded = substitute(t.guard, {c: Const(v) for c, v in env.items()})
        for nxt in _primed_solutions(grounded, machine.counters, env, bound):
            out.append((t.label, t.dst, nxt))
    return out


def _primed_solutions(grounded: Formula, counters: tuple[str, ...],
                      env: dict[str, int], bound: int):
    mentioned = free_vars(grounded)
    values: dict[str, int] = {}
    for c in counters:
        if primed(c) not in mentioned:
            values[primed(c)] = env[c]
    # propagate unit equalities until fixpoint
    work = grounded
    changed = True
    while changed:
        changed = False
        atoms = work.parts if isinstance(work, And) else (work,)
        for a in atoms:
            if isinstance(a, EqZ) and len(a.lin.coeffs) == 1:
                (v, coeff), = a.lin.coeffs.items()
                if a.lin.const % coeff == 0 and v not in values:
                    values[v] = -a.lin.const // coeff
                    work = simplify(substitute(work, {v: Const(values[v])}))
                    changed = True
    free = [primed(c) for c in counters if primed(c) not in values]
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        full = {**values, **dict(zip(free, combo))}
        leftover = simplify(substitute(grounded, {v: Const(k) for v, k in full.items()}))
        if leftover == TRUE or (not free_vars(leftover) and evaluate(leftover, {})):
            out = tuple(full[primed(c)] for c in counters)
            if all(abs(x) <= bound for x in out):
                yield out


def reference_reach(machine: CounterMachine, bad: Formula, bound: int, radius: int):
    """The steps of a shortest path from the initial state into a valuation
    where `bad` holds, found breadth first over `reference_successors`, or
    None.  `bad` may keep its quantifiers; see `bounded_evaluate`."""
    def holds(valuation):
        return bounded_evaluate(bad, dict(zip(machine.counters, valuation)), radius)

    init = (machine.initial, machine.init_valuation)
    if holds(init[1]):
        return []
    parent = {init: None}
    queue = deque([init])
    while queue:
        key = queue.popleft()
        for label, dst, nxt in reference_successors(machine, key[0], key[1], bound):
            reached = (dst, nxt)
            if reached in parent:
                continue
            parent[reached] = (key, (label, dst, nxt))
            if holds(nxt):
                steps = []
                while parent[reached] is not None:
                    reached, step = parent[reached]
                    steps.append(step)
                return steps[::-1]
            queue.append(reached)
    return None


def bounded_evaluate(f: Formula, env: dict[str, int], radius: int) -> bool:
    """`evaluate`, where `exists v. body` tries v over -radius..radius: exact
    when some witness, if there is one, lies within the radius."""
    match f:
        case Exists(v, body):
            return any(bounded_evaluate(body, {**env, v: k}, radius)
                       for k in range(-radius, radius + 1))
        case And(parts):
            return all(bounded_evaluate(p, env, radius) for p in parts)
        case Or(parts):
            return any(bounded_evaluate(p, env, radius) for p in parts)
        case Not(body):
            return not bounded_evaluate(body, env, radius)
    return evaluate(f, env)


def reference_mca_to_lts(machine: CounterMachine, bound: int) -> Lts:
    """`mca_to_lts` as its own breadth-first loop over the machine's
    `successors`, keeping a step that two transitions make twice.  The
    initial valuation is taken as within the bound."""
    init = LtsState(machine.initial, machine.init_valuation)
    lts = Lts(init, [], {}, set())
    seen = {init: init}
    queue = deque([init])
    while queue:
        cur = queue.popleft()
        lts.states.append(cur)
        moves = []
        for label, dst, val in machine.successors(cur.control, cur.valuation, bound):
            nxt = seen.get((dst, val))
            if nxt is None:
                nxt = seen[(dst, val)] = LtsState(dst, val)
                queue.append(nxt)
            moves.append((label, nxt))
        lts.transitions[cur] = tuple(moves)
    lts.finals = {s for s in lts.states if s.control in machine.finals}
    return lts


def reference_brts_to_lts(annotations, initial, bound, table=None, final=None,
                          match=None) -> Lts:
    """`brts_to_lts` matching every contract at every state through `match`,
    by default `reference_match_args`.  The initial instance is taken as
    valid."""
    match = match or reference_match_args
    init = LtsState(initial.state, tuple(a.const for a in initial.args))
    lts = Lts(init, [], {}, set())
    seen = {(init.control, init.valuation): init}
    queue = deque([init])
    while queue:
        cur = queue.popleft()
        lts.states.append(cur)
        moves = []
        for ann in annotations:
            applies = (ann.family == initial.family
                       and len(ann.pre_args) == len(cur.valuation)
                       and (table.is_substate(cur.control, ann.pre_state) if table is not None
                            else cur.control == ann.pre_state))
            if not applies:
                continue
            for sigma in match(ann, cur.valuation, bound):
                post_val = tuple(a.evaluate(sigma) for a in ann.post_args)
                if any(abs(v) > bound for v in post_val):
                    continue
                nxt = seen.get((ann.post_state, post_val))
                if nxt is None:
                    nxt = seen[(ann.post_state, post_val)] = LtsState(ann.post_state, post_val)
                    queue.append(nxt)
                moves.append((ann.label, nxt))
        lts.transitions[cur] = tuple(dict.fromkeys(moves))
    if final is not None:
        lts.finals = {s for s in lts.states if final(s.control, s.valuation)}
    return lts


def reference_match_args(ann: Annotation, valuation: tuple[int, ...], bound: int):
    """Instantiations of the contract's logical variables consistent with the
    current valuation and both side constraints."""
    facts = [ann.pre_constraint, ann.post_constraint]
    for term, value in zip(ann.pre_args, valuation):
        facts.append(eq(term, Const(value)))
    formula = simplify(conj(*facts))
    if formula == TRUE:
        yield {}
        return
    sigma: dict[str, int] = {}
    # plain-variable arguments pin their value directly
    for lin, value in zip(ann.pre_args, valuation):
        if len(lin.coeffs) == 1 and lin.const == 0:
            (v, c), = lin.coeffs.items()
            if c == 1:
                sigma[v] = value
    grounded = simplify(substitute(formula, {v: Const(k) for v, k in sigma.items()}))
    rest = sorted(free_vars(grounded))
    if not rest:
        if grounded == TRUE or evaluate(grounded, {}):
            yield sigma
        return
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(rest)):
        env = dict(zip(rest, combo))
        if evaluate(grounded, env):
            yield {**sigma, **env}


class Contract:
    """A contract prepared for matching valuations.

    A pre argument that is a plain variable pins that variable to its
    coordinate (the last such position wins); every other pre argument is
    an equality to check.  The remaining logical variables, those of the
    constraints and the arguments that no position pins, range over the
    bound."""

    def __init__(self, ann: Annotation):
        pre = ann.pre_args
        self.constraint = eliminate_quantifiers(conj(ann.pre_constraint, ann.post_constraint))
        pins: dict[str, int] = {}
        for i, lin in enumerate(pre):
            if lin.const == 0 and len(lin.coeffs) == 1:
                (v, c), = lin.coeffs.items()
                if c == 1:
                    pins[v] = i
        self.pins = tuple(pins.items())
        pinned_at = set(pins.values())
        self.checks = tuple((lin, i) for i, lin in enumerate(pre) if i not in pinned_at)
        names = set(free_vars(self.constraint))
        for lin in itertools.chain(pre, ann.post_args):
            names.update(lin.coeffs)
        self.rest = tuple(sorted(names - pins.keys()))

    def holds(self, valuation: tuple[int, ...], env: dict[str, int]) -> bool:
        return (all(lin.evaluate(env) == valuation[i] for lin, i in self.checks)
                and evaluate(self.constraint, env))

    def matches(self, valuation: tuple[int, ...], bound: int):
        """Instantiations of the logical variables consistent with the
        valuation and both side constraints, in product order of the
        remaining variables over the bound."""
        sigma = {v: valuation[i] for v, i in self.pins}
        if not self.rest:
            if self.holds(valuation, sigma):
                yield sigma
            return
        for combo in itertools.product(range(-bound, bound + 1), repeat=len(self.rest)):
            env = {**sigma, **dict(zip(self.rest, combo))}
            if self.holds(valuation, env):
                yield env


@lru_cache(maxsize=1024)
def _contract(ann: Annotation) -> Contract:
    return Contract(ann)


def contract_matches(ann: Annotation, valuation: tuple[int, ...], bound: int):
    """`match` for `reference_brts_to_lts` through `Contract`."""
    return _contract(ann).matches(valuation, bound)
