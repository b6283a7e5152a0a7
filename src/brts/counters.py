"""Guarded counter machines, their bounded transition systems, simulation
checking, violation reachability, and single-loop acceleration.

Machine guards speak about counters and their primed next-state values
(``p'``); a primed counter the guard never mentions keeps its value.  All
transition-system constructions are explicit and bounded: states whose
counter magnitudes exceed the bound are not explored, which is what makes
simulation checking and reachability both runnable and exact on the
explored window.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import networkx as nx

from .diagnostics import BrtsError
from .parser import parse_formula
from .presburger import (
    Const, Formula, Lin, Term, Var,
    conj, disj, eq, evaluate, free_vars, ge, simplify, substitute, TRUE,
)
from .syntax import ChangeType, InstanceType, PermPair, StateTable, Type


class MachineError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def primed(name: str) -> str:
    return name + "'"


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transition:
    src: str
    label: str
    guard: Formula            # conjunction over counters and primed counters
    dst: str


@dataclass
class CounterMachine:
    name: str
    states: tuple[str, ...]
    initial: str
    counters: tuple[str, ...]
    init_valuation: tuple[int, ...]
    transitions: tuple[Transition, ...]
    finals: frozenset[str] = frozenset()
    invariant: Optional[Formula] = None

    def __post_init__(self) -> None:
        names = set(self.counters) | {primed(c) for c in self.counters}
        for t in self.transitions:
            if t.src not in self.states or t.dst not in self.states:
                raise MachineError("UnknownState",
                                   f"transition {t.label} uses an undeclared state")
            extra = free_vars(t.guard) - names
            if extra:
                raise MachineError(
                    "UnknownCounter",
                    f"guard of '{t.label}' mentions unknown names: {sorted(extra)}")
            _check_guard_shape(t.guard, t.label)

    def outgoing(self, state: str) -> list[Transition]:
        return [t for t in self.transitions if t.src == state]

    def successors(self, state: str, valuation: tuple[int, ...],
                   bound: int) -> Iterable[tuple[str, str, tuple[int, ...]]]:
        """All (label, dst, valuation') steps enabled here, within the bound."""
        env = dict(zip(self.counters, valuation))
        for t in self.outgoing(state):
            grounded = substitute(t.guard, {c: Const(v) for c, v in env.items()})
            for nxt in _primed_solutions(grounded, self.counters, env, bound):
                yield t.label, t.dst, nxt


def _check_guard_shape(guard: Formula, label: str) -> None:
    from .presburger import And, Le, EqZ, TrueF
    atoms = guard.parts if isinstance(guard, And) else (guard,)
    for a in atoms:
        if isinstance(a, TrueF):
            continue
        if not isinstance(a, (Le, EqZ)):
            raise MachineError(
                "BadGuard",
                f"guard of '{label}' must be a conjunction of comparisons")
        lin = a.lin
        if len(lin.coeffs) > 2 or any(abs(c) != 1 for c in lin.coeffs.values()):
            raise MachineError(
                "BadGuard",
                f"guard atom of '{label}' is not of the form x # y + c or x # c")


def _primed_solutions(grounded: Formula, counters: tuple[str, ...],
                      env: dict[str, int], bound: int):
    """Enumerate next valuations.  Unmentioned primed counters are framed to
    their current value; pinned ones come from unit equations; the rest range
    over the bound."""
    mentioned = free_vars(grounded)
    values: dict[str, list[int] | None] = {}
    work = grounded
    for c in counters:
        pc = primed(c)
        if pc not in mentioned:
            values[pc] = [env[c]]
    # propagate unit equalities until fixpoint
    changed = True
    pinned: dict[str, int] = {}
    while changed:
        changed = False
        from .presburger import And, EqZ
        atoms = work.parts if isinstance(work, And) else (work,)
        for a in atoms:
            if isinstance(a, EqZ) and len(a.lin.coeffs) == 1:
                (v, coeff), = a.lin.coeffs.items()
                if a.lin.const % coeff == 0:
                    value = -a.lin.const // coeff
                    if v not in pinned:
                        pinned[v] = value
                        work = simplify(substitute(work, {v: Const(value)}))
                        changed = True
    for v, value in pinned.items():
        values[v] = [value]
    free = [primed(c) for c in counters
            if primed(c) not in values]
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        env2 = {v: k for v, k in zip(free, combo)}
        env2.update({v: vs[0] for v, vs in values.items() if vs})
        leftover = substitute(grounded, {v: Const(k) for v, k in env2.items()})
        leftover = simplify(leftover)
        if leftover == TRUE or (not free_vars(leftover) and evaluate(leftover, {})):
            out = tuple(env2[primed(c)] for c in counters)
            if all(abs(x) <= bound for x in out):
                yield out


# ---------------------------------------------------------------------------
# Labeled transition systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LtsState:
    control: str
    valuation: tuple[int, ...]

    def label(self) -> tuple:
        return (self.control, self.valuation)


@dataclass
class Lts:
    counters: tuple[str, ...]
    initial: LtsState
    states: list[LtsState] = field(default_factory=list)
    transitions: dict[LtsState, tuple[tuple[str, LtsState], ...]] = field(default_factory=dict)
    finals: set[LtsState] = field(default_factory=set)
    actions: set[str] = field(default_factory=set)

    def moves(self, s: LtsState) -> tuple[tuple[str, LtsState], ...]:
        return self.transitions.get(s, ())

    def size(self) -> int:
        return len(self.states)


def mca_to_lts(machine: CounterMachine, bound: int) -> Lts:
    """Explicit bounded transition system of a machine: states pair a control
    state with a concrete counter valuation of magnitude at most bound."""
    if bound < 0:
        raise MachineError("BoundTooSmall", "bound must be nonnegative")
    if any(abs(v) > bound for v in machine.init_valuation):
        raise MachineError("BoundTooSmall",
                           "initial valuation exceeds the bound")
    init = LtsState(machine.initial, machine.init_valuation)
    lts = Lts(machine.counters, init)
    seen = {init}
    queue = [init]
    while queue:
        cur = queue.pop(0)
        lts.states.append(cur)
        moves = []
        for label, dst, val in machine.successors(cur.control, cur.valuation, bound):
            nxt = LtsState(dst, val)
            moves.append((label, nxt))
            lts.actions.add(label)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        lts.transitions[cur] = tuple(moves)
    lts.finals = {s for s in lts.states if s.control in machine.finals}
    return lts


@dataclass(frozen=True)
class Annotation:
    """One transition contract: a labelled pre/post typestate pair."""
    label: str
    pre_state: str
    pre_args: tuple[Term, ...]
    pre_constraint: Formula
    post_state: str
    post_args: tuple[Term, ...]
    post_constraint: Formula


def annotation_from_change(label: str, change: ChangeType) -> Optional[Annotation]:
    pre = change.pre.inner if isinstance(change.pre, PermPair) else change.pre
    post = change.post.inner if isinstance(change.post, PermPair) else change.post
    if not isinstance(pre, InstanceType) or not isinstance(post, InstanceType):
        return None
    if not pre.args or not post.args:
        return None
    return Annotation(label, pre.state, pre.args, pre.constraint,
                      post.state, post.args, post.constraint)


def annotations_of_program(table: StateTable) -> list[Annotation]:
    """Every dependent transition contract a program's methods declare,
    labelled by method name."""
    out: list[Annotation] = []
    for name in sorted(table.states):
        info = table.states[name]
        for mname, decl in sorted(info.methods.items()):
            for p in list(decl.params) + list(decl.env):
                ann = annotation_from_change(mname, p.change)
                if ann is not None:
                    out.append(ann)
    return out


def brts_to_lts(annotations: Iterable[Annotation], initial: InstanceType,
                bound: int, table: Optional[StateTable] = None,
                final: Optional[Callable[[str, tuple[int, ...]], bool]] = None) -> Lts:
    """Ground transition system of a set of typestate contracts: states pair
    a state name with a counter valuation reachable by applying contracts."""
    annotations = list(annotations)
    init_args = [Lin.of(a) for a in initial.args]
    if not all(l.is_const for l in init_args):
        raise MachineError("UnsatisfiableInitial",
                           "initial instance needs ground coordinates")
    if initial.constraint != TRUE:
        env = {}
        grounded = simplify(initial.constraint)
        if free_vars(grounded) or not evaluate(grounded, env):
            raise MachineError("UnsatisfiableInitial",
                               "initial instance constraint does not hold")
    init = LtsState(initial.state, tuple(l.const for l in init_args))
    counters = tuple(f"c{i}" for i in range(len(init.valuation)))
    lts = Lts(counters, init)
    seen = {init}
    queue = [init]

    def substate(sub: str, sup: str) -> bool:
        if table is not None:
            return table.is_substate(sub, sup)
        return sub == sup

    while queue:
        cur = queue.pop(0)
        lts.states.append(cur)
        moves = []
        for ann in annotations:
            if not substate(cur.control, ann.pre_state):
                continue
            for sigma in _match_args(ann, cur.valuation, bound):
                post_val = tuple(Lin.of(a).evaluate(sigma) for a in ann.post_args)
                if any(abs(v) > bound for v in post_val):
                    continue
                nxt = LtsState(ann.post_state, post_val)
                moves.append((ann.label, nxt))
                lts.actions.add(ann.label)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        lts.transitions[cur] = tuple(dict.fromkeys(moves))
    if final is not None:
        lts.finals = {s for s in lts.states if final(s.control, s.valuation)}
    return lts


def _match_args(ann: Annotation, valuation: tuple[int, ...], bound: int):
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
    for term, value in zip(ann.pre_args, valuation):
        lin = Lin.of(term)
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


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

@dataclass
class SimulationRelation:
    pairs: set[tuple[LtsState, LtsState]]
    witness: dict[tuple[LtsState, LtsState, str, LtsState], LtsState]

    def size(self) -> int:
        return len(self.pairs)


@dataclass
class Counterexample:
    """A path of the simulated system the candidate simulator cannot mirror."""
    steps: list[tuple[str, LtsState]]
    reason: str

    def labels(self) -> list[str]:
        return [a for a, _ in self.steps]


def check_simulation(sim: Lts, simulated: Lts):
    """Greatest simulation of `simulated` by `sim`, or a counterexample.

    A pair survives while the simulator matches every labelled move of the
    simulated state and respects finals.
    """
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
            ok = True
            for a, q2 in simulated.moves(q):
                if not any(b == a and (p2, q2) in pairs for b, p2 in sim.moves(p)):
                    ok = False
                    break
            if not ok:
                dropped.append((p, q))
        for pq in dropped:
            pairs.discard(pq)
            removed_round[pq] = rnd
            changed = True

    init_pair = (sim.initial, simulated.initial)
    if init_pair in pairs:
        witness = {}
        for (p, q) in pairs:
            for a, q2 in simulated.moves(q):
                for b, p2 in sim.moves(p):
                    if b == a and (p2, q2) in pairs:
                        witness[(p, q, a, q2)] = p2
                        break
        return SimulationRelation(pairs, witness)

    # reconstruct a shortest refutation path by round numbers
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
            alive = [p2 for p2 in matches if (p2, q2) in pairs]
            if alive:
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


def verify_simulation(rel: SimulationRelation, sim: Lts, simulated: Lts) -> bool:
    """Clause-by-clause audit of a claimed simulation relation."""
    for (p, q) in rel.pairs:
        if q in simulated.finals and p not in sim.finals:
            return False
        for a, q2 in simulated.moves(q):
            if not any(b == a and (p2, q2) in rel.pairs for b, p2 in sim.moves(p)):
                return False
    return True


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

@dataclass
class WitnessPath:
    steps: list[tuple[str, str, tuple[int, ...]]]   # (action, state, valuation)
    initial: tuple[str, tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.steps)

    def final_valuation(self) -> tuple[int, ...]:
        return self.steps[-1][2] if self.steps else self.initial[1]

    def to_json(self) -> dict:
        return {
            "initial": {"state": self.initial[0], "valuation": list(self.initial[1])},
            "steps": [
                {"action": a, "state": s, "valuation": list(v)}
                for a, s, v in self.steps
            ],
        }


def reach_violation(machine: CounterMachine, bad: Formula,
                    bound: int) -> Optional[WitnessPath]:
    """Breadth-first search for the shortest path into a valuation satisfying
    the bad-state formula; None when the bounded window has no such path."""
    if bound < 0:
        raise MachineError("BoundTooSmall", "bound must be nonnegative")
    extra = free_vars(bad) - set(machine.counters)
    if extra:
        raise MachineError("UnknownCounter",
                           f"bad-state formula mentions unknown counters: {sorted(extra)}")
    init = (machine.initial, machine.init_valuation)
    if _holds(bad, machine.counters, machine.init_valuation):
        return WitnessPath([], init)
    seen = {init}
    queue: list[tuple[str, tuple[int, ...], list]] = [(machine.initial,
                                                       machine.init_valuation, [])]
    while queue:
        state, val, path = queue.pop(0)
        for label, dst, nxt in machine.successors(state, val, bound):
            key = (dst, nxt)
            if key in seen:
                continue
            seen.add(key)
            new_path = path + [(label, dst, nxt)]
            if _holds(bad, machine.counters, nxt):
                return WitnessPath(new_path, init)
            queue.append((dst, nxt, new_path))
    return None


def _holds(f: Formula, counters: tuple[str, ...], valuation: tuple[int, ...]) -> bool:
    return evaluate(f, dict(zip(counters, valuation)))


def replay(machine: CounterMachine, path: WitnessPath, bound: int) -> bool:
    """Check a witness step by step against the machine's own guards."""
    state, val = path.initial
    if (state, val) != (machine.initial, machine.init_valuation):
        return False
    for action, dst, nxt in path.steps:
        moves = set(machine.successors(state, val, bound))
        if (action, dst, nxt) not in moves:
            return False
        state, val = dst, nxt
    return True


# ---------------------------------------------------------------------------
# Flatness and acceleration
# ---------------------------------------------------------------------------

def is_flat(machine: CounterMachine) -> bool:
    """Flat iff no control state lies on more than one elementary cycle."""
    graph = nx.DiGraph()
    multiplicity: dict[tuple[str, str], int] = {}
    graph.add_nodes_from(machine.states)
    for t in machine.transitions:
        multiplicity[(t.src, t.dst)] = multiplicity.get((t.src, t.dst), 0) + 1
        graph.add_edge(t.src, t.dst)
    through: dict[str, int] = {s: 0 for s in machine.states}
    for cycle in nx.simple_cycles(graph):
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        count = 1
        for e in edges:
            count *= multiplicity[e]
        for node in cycle:
            through[node] += count
    return all(v <= 1 for v in through.values())


def accelerate_self_loop(machine: CounterMachine, loop: Transition,
                         k_name: str = "k") -> Formula:
    """Presburger relation for any number of iterations of a translation
    self-loop: each primed counter advances by a constant per step, under a
    linear enabling condition.

    The result relates the counters, their primed copies and the fresh
    iteration count; validity of the guard at the first and last step covers
    every intermediate one because the guard is linear along the line.
    """
    if loop.src != loop.dst:
        raise MachineError("NotATranslationLoop", "not a self-loop")
    from .presburger import And, EqZ, Le, TrueF
    atoms = loop.guard.parts if isinstance(loop.guard, And) else (loop.guard,)
    primes = {primed(c): c for c in machine.counters}
    deltas: dict[str, int] = {}
    pre_atoms: list[Formula] = []
    for a in atoms:
        if isinstance(a, TrueF):
            continue
        lin = a.lin
        mentioned_primes = [v for v in lin.coeffs if v in primes]
        if not mentioned_primes:
            pre_atoms.append(a)
            continue
        # must be exactly x' == x + c
        if (not isinstance(a, EqZ) or len(mentioned_primes) != 1
                or len(lin.coeffs) != 2):
            raise MachineError("NotATranslationLoop",
                               f"guard atom {a!r} is not a translation update")
        pv = mentioned_primes[0]
        base = primes[pv]
        cp, cb = lin.coeff(pv), lin.coeff(base)
        if {cp, cb} != {1, -1}:
            raise MachineError("NotATranslationLoop",
                               f"guard atom {a!r} is not a translation update")
        delta = -lin.const * cp  # cp*x' + cb*x + const == 0 with cb == -cp
        if base in deltas:
            raise MachineError("NotATranslationLoop",
                               f"counter '{base}' updated twice")
        deltas[base] = delta
    for c in machine.counters:
        deltas.setdefault(c, 0)

    k = Var(k_name)
    pre = conj(*pre_atoms) if pre_atoms else TRUE
    frame = conj(*(eq(Var(primed(c)), Var(c)) for c in machine.counters))
    advance = conj(*(
        eq(Var(primed(c)), Var(c) + Lin({k_name: deltas[c]}).to_term())
        for c in machine.counters))
    last = {c: Var(c) + Lin({k_name: deltas[c]}).to_term()
            + Const(-deltas[c]) for c in machine.counters}
    pre_at_last = substitute(pre, last)
    return disj(
        conj(eq(k, Const(0)), frame),
        conj(ge(k, Const(1)), advance, pre, pre_at_last),
    )


def compose_loop(machine: CounterMachine, loop: Transition, times: int) -> Formula:
    """Exact k-fold composition of the loop's transition relation, computed
    by chaining and projecting; the independent oracle for acceleration."""
    from .presburger import project_onto

    counters = machine.counters
    if times == 0:
        return conj(*(eq(Var(primed(c)), Var(c)) for c in counters))
    relation = loop.guard
    relation = conj(relation,
                    *(eq(Var(primed(c)), Var(c))
                      for c in counters if primed(c) not in free_vars(loop.guard)))
    out = relation
    for _ in range(times - 1):
        mid = {primed(c): Var(f"{c}@mid") for c in counters}
        first = substitute(out, mid)
        second = substitute(relation, {c: Var(f"{c}@mid") for c in counters})
        joined = conj(first, second)
        keep = list(counters) + [primed(c) for c in counters]
        out = project_onto(joined, keep)
    return out


# ---------------------------------------------------------------------------
# Machine file format
# ---------------------------------------------------------------------------

def parse_machine(text: str, name: str = "machine") -> CounterMachine:
    """Parse the .mca text format:

        counters p c
        state close
        state open
        init close 0 0
        final open
        trans close -> open : open : p' == p && c' == c
        invariant p >= c
    """
    counters: tuple[str, ...] = ()
    states: list[str] = []
    initial = None
    init_val: tuple[int, ...] = ()
    finals: set[str] = set()
    transitions: list[Transition] = []
    invariant = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "counters":
                counters = tuple(rest.split())
            elif head == "state":
                states.append(rest)
            elif head == "init":
                parts = rest.split()
                initial = parts[0]
                init_val = tuple(int(x) for x in parts[1:])
            elif head == "final":
                finals.update(rest.split())
            elif head == "invariant":
                invariant = parse_formula(rest)
            elif head == "trans":
                arrow, _, tail = rest.partition(":")
                label, _, guard_text = tail.partition(":")
                src, _, dst = arrow.partition("->")
                guard = parse_formula(guard_text.strip()) if guard_text.strip() else TRUE
                transitions.append(Transition(src.strip(), label.strip(),
                                              guard, dst.strip()))
            else:
                raise MachineError("ParseError", f"unknown directive '{head}'")
        except BrtsError as err:
            raise MachineError("ParseError",
                               f"{name}:{lineno}: {err.diagnostic.message}") from err
    if initial is None:
        raise MachineError("ParseError", f"{name}: missing init line")
    if len(init_val) != len(counters):
        raise MachineError("ParseError",
                           f"{name}: init gives {len(init_val)} values for "
                           f"{len(counters)} counters")
    return CounterMachine(name, tuple(states), initial, counters, init_val,
                          tuple(transitions), frozenset(finals), invariant)


def load_machine(path) -> CounterMachine:
    from pathlib import Path
    p = Path(path)
    return parse_machine(p.read_text(), name=p.stem)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def lts_to_dot(lts: Lts, title: str = "lts") -> str:
    def node_id(s: LtsState) -> str:
        return f"\"{s.control}{s.valuation}\""

    lines = [f"digraph {title} {{", "  rankdir=LR;"]
    for s in lts.states:
        shape = "doublecircle" if s in lts.finals else "circle"
        lines.append(f"  {node_id(s)} [shape={shape}];")
    lines.append(f"  \"__init\" [shape=point];")
    lines.append(f"  \"__init\" -> {node_id(lts.initial)};")
    for s in lts.states:
        for a, t in lts.moves(s):
            lines.append(f"  {node_id(s)} -> {node_id(t)} [label=\"{a}\"];")
    lines.append("}")
    return "\n".join(lines)


def witness_to_dot(path: WitnessPath, title: str = "witness") -> str:
    lines = [f"digraph {title} {{", "  rankdir=LR;"]
    prev = f"\"{path.initial[0]}{path.initial[1]}\""
    lines.append(f"  {prev} [shape=circle];")
    for i, (a, s, v) in enumerate(path.steps):
        cur = f"\"{s}{v}#{i}\""
        color = ", color=red" if i == len(path.steps) - 1 else ""
        lines.append(f"  {cur} [shape=circle, label=\"{s}{v}\"{color}];")
        lines.append(f"  {prev} -> {cur} [label=\"{a}\"];")
        prev = cur
    lines.append("}")
    return "\n".join(lines)


def witness_to_json(path: Optional[WitnessPath]) -> str:
    if path is None:
        return json.dumps({"witness": None})
    return json.dumps({"witness": path.to_json()})
