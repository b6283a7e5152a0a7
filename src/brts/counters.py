"""Guarded counter machines, their bounded transition systems, simulation
checking, violation reachability, and single-loop acceleration.

Machine guards speak about counters and their primed next-state values
(``p'``); a primed counter the guard never mentions keeps its value.  All
transition-system constructions are explicit and bounded: states whose
counter magnitudes exceed the bound are not explored, which is what makes
simulation checking and reachability both runnable and exact on the
explored window.

Guards are solved directly over the integers, each compiled once into a
generated Python function: a machine's guards when it is built, and every
typestate contract, read as a guard over the coordinates, their primed
copies and its logical variables, when an LTS first grounds it.  Which
variable each unit equation pins depends only on the guard, so the
propagation runs at compile time.  Per state the function assigns the
pinned values, tests them against the bound and tests the atoms already
known; then one `itertools.product` enumerates the variables still free over
the bound, and each candidate costs a test of the remaining atoms.

Both transition systems, of a machine and of a program's contracts, come
from one breadth-first walk (`_explore`) over a successor function: the
machine's `successors`, or the compiled contracts that apply at a state.
An `Lts` holds its initial state, its states in the order the walk found
them, the moves of each and its final states.

Simulation is the greatest relation left by round-based (Jacobi)
refinement.  Where each side lies densely on a grid over (control,
valuation) it runs bit-parallel: the relation is one Python int over pairs
of grid positions, and all moves with one label and one shift of position
act on it as a single shift and mask.  Elsewhere predecessor counters find
the same rounds.  The relation is kept as its route computed it, the int
or the array of rounds, so its size is a count, a membership test reads
one byte, and the set of pairs is built only when read.  Counterexamples
are rebuilt from the rounds in which pairs fell.
"""

from __future__ import annotations

import itertools
import json
from array import array
from collections import Counter, deque
from functools import cached_property, lru_cache
from itertools import compress, repeat
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional

from .diagnostics import BrtsError
from .parser import parse_formula
from .presburger import (
    And, Const, Dvd, EqZ, FalseF, Formula, Le, Lin, Not, NotDvd, Or, TrueF, Var,
    conj, disj, eliminate_quantifiers, eq, evaluate, free_vars, ge, substitute,
    TRUE,
)
from .record import record
from .syntax import ChangeType, InstanceType, StateTable, strip_perm


class MachineError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def primed(name: str) -> str:
    return name + "'"


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------

@record(frozen=True)
class Transition:
    src: str
    label: str
    guard: Formula            # conjunction over counters and primed counters
    dst: str


@record
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
        primes = tuple(primed(c) for c in self.counters)
        self._outgoing: dict[str, list[tuple[str, str, Callable]]] = {}
        for t in self.transitions:
            if t.src not in self.states or t.dst not in self.states:
                raise MachineError("UnknownState",
                                   f"transition {t.label} uses an undeclared state")
            mentioned = free_vars(t.guard)
            extra = mentioned - names
            if extra:
                raise MachineError(
                    "UnknownCounter",
                    f"guard of '{t.label}' mentions unknown names: {sorted(extra)}")
            _check_guard_shape(t.guard, t.label)
            # a primed counter the guard never mentions keeps its value
            frame = [eq(Var(p), Var(c)) for c, p in zip(self.counters, primes)
                     if p not in mentioned]
            self._outgoing.setdefault(t.src, []).append(
                (t.label, t.dst,
                 _compile_guard(frame + _guard_atoms(t.guard), self.counters, primes, primes)))

    def successors(self, state: str, valuation: tuple[int, ...],
                   bound: int) -> Iterable[tuple[str, str, tuple[int, ...]]]:
        """All (label, dst, valuation') steps enabled here, within the bound."""
        for label, dst, solutions in self._outgoing.get(state, ()):
            for nxt in solutions(valuation, bound):
                yield label, dst, nxt


def _guard_atoms(guard: Formula) -> list[Formula]:
    atoms = guard.parts if isinstance(guard, And) else (guard,)
    return [a for a in atoms if not isinstance(a, TrueF)]


def _check_guard_shape(guard: Formula, label: str) -> None:
    for a in _guard_atoms(guard):
        if not isinstance(a, (Le, EqZ)):
            raise MachineError(
                "BadGuard",
                f"guard of '{label}' must be a conjunction of comparisons")
        lin = a.lin
        if len(lin.coeffs) > 2 or any(abs(c) != 1 for c in lin.coeffs.values()):
            raise MachineError(
                "BadGuard",
                f"guard atom of '{label}' is not of the form x # y + c or x # c")


def _compile_guard(atoms: list[Formula], counters: tuple[str, ...],
                   unknowns: tuple[str, ...], outputs: tuple[str, ...]) -> Callable:
    """Compile the conjunction of `atoms` into `solutions(valuation, bound)`,
    a generator of the `outputs` values it allows from `valuation`, the
    values of `counters`, in the product order of `unknowns` over the bound.

    A unit equation (every variable known but one, whose coefficient is +1
    or -1) pins that one, and a pinned value outside the bound rules out
    its candidate.  Before the product only what the counters determine is
    pinned, so the product runs over the unknowns still free, in their
    order; inside it the outputs left are pinned.  Each atom is tested once
    its variables are known: a comparison inline, any other formula by its
    own `compile_predicate`.  The source names counter i `v<i>`, output i
    `w<i>` and unknown i `x<i>`; nothing else but int literals enters it."""
    atoms = list(atoms)
    names = {c: f"v{i}" for i, c in enumerate(counters)}
    slots = {u: f"x{i}" for i, u in enumerate(unknowns)}
    slots.update((o, f"w{i}") for i, o in enumerate(outputs))
    namespace: dict = {"product": itertools.product}

    def settle() -> tuple[list[str], list[str]]:
        """Pins and tests of what the names known so far decide."""
        pins, tests = [], []
        changed = True
        while changed:
            changed = False
            for a in list(atoms):
                if not isinstance(a, EqZ):
                    continue
                unknown = [v for v in a.lin.coeffs if v not in names]
                if len(unknown) == 1 and abs(a.lin.coeffs[unknown[0]]) == 1:
                    # c*v + rest == 0 with c = +1 or -1, so v = -c * rest, and
                    # the equation holds by construction
                    v = unknown[0]
                    c = a.lin.coeffs[v]
                    rest = {u: -c * d for u, d in a.lin.coeffs.items() if u != v}
                    names[v] = slots[v]
                    pins.append(f"{names[v]} = {_lin_source(rest, -c * a.lin.const, names)}")
                    tests.append(f"-bound <= {names[v]} <= bound")
                    atoms.remove(a)
                    changed = True
        for a in [a for a in atoms if free_vars(a) <= names.keys()]:
            atoms.remove(a)
            if isinstance(a, (And, Or, Not)):
                args = sorted(free_vars(a))
                test = f"t{len(namespace)}"
                namespace[test] = compile_predicate(a, tuple(args))
                tests.append(f"{test}(({''.join(names[v] + ', ' for v in args)}))")
            else:
                tests.append(_formula_source(a, names))
        return pins, tests

    body = [f"{', '.join(names.values())}, = valuation"] if counters else []
    pins, tests = settle()
    body += pins
    if tests:
        # a known test that fails rules out every candidate
        body.append(f"if not ({' and '.join(tests)}):\n        return")
    result = f"yield ({''.join(slots[o] + ', ' for o in outputs)})"
    free = [slots[u] for u in unknowns if u not in names]
    if free:
        names.update((u, slots[u]) for u in unknowns)
        pins, tests = settle()
        body.append(f"for {', '.join(free)}, in product(range(-bound, bound + 1), "
                    f"repeat={len(free)}):")
        if tests:
            pins.append(f"if {' and '.join(tests)}:")
            result = "    " + result
        body += ["    " + line for line in pins + [result]]
    else:
        body.append(result)
    exec("def solutions(valuation, bound):\n    " + "\n    ".join(body), namespace)
    return namespace["solutions"]


def _lin_source(coeffs: dict[str, int], const: int, names: dict[str, str]) -> str:
    """Python source of sum(k * v) + const over the generated names."""
    out = []
    for v, k in coeffs.items():
        term = names[v] if abs(k) == 1 else f"{abs(int(k))} * {names[v]}"
        out.append(("- " if k < 0 else "+ ") + term)
    if const or not out:
        out.append(("- " if const < 0 else "+ ") + str(abs(int(const))))
    text = " ".join(out)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _atom_source(atom: Formula, names: dict[str, str]) -> str:
    lhs = _lin_source(atom.lin.coeffs, 0, names)
    return f"{lhs} {'==' if isinstance(atom, EqZ) else '<='} {-int(atom.lin.const)}"


# ---------------------------------------------------------------------------
# Labeled transition systems
# ---------------------------------------------------------------------------

class LtsState(NamedTuple):
    control: str
    valuation: tuple[int, ...]

    def label(self) -> tuple:
        return (self.control, self.valuation)


@record
class Lts:
    initial: LtsState
    states: list[LtsState]
    transitions: dict[LtsState, tuple[tuple[str, LtsState], ...]]
    finals: set[LtsState]

    def moves(self, s: LtsState) -> tuple[tuple[str, LtsState], ...]:
        return self.transitions.get(s, ())

    def size(self) -> int:
        return len(self.states)


def _explore(init: LtsState,
             successors: Callable[[LtsState], Iterable[tuple[str, str, tuple[int, ...]]]]
             ) -> tuple[list[LtsState], dict[LtsState, tuple[tuple[str, LtsState], ...]]]:
    """The states reachable from `init` in breadth-first order, and the
    moves of each, in the order `successors` gives its (label, control,
    valuation) steps."""
    states = [init]
    seen = {init: init}
    transitions = {}
    for cur in states:      # the list grows as it is walked
        moves = []
        for label, dst, val in successors(cur):
            nxt = seen.get((dst, val))
            if nxt is None:
                nxt = seen[(dst, val)] = LtsState(dst, val)
                states.append(nxt)
            moves.append((label, nxt))
        transitions[cur] = tuple(moves)
    return states, transitions


def mca_to_lts(machine: CounterMachine, bound: int) -> Lts:
    """Explicit bounded transition system of a machine: states pair a control
    state with a concrete counter valuation of magnitude at most bound.  A
    step that two transitions make is a move twice."""
    if bound < 0:
        raise MachineError("BoundTooSmall", "bound must be nonnegative")
    if any(abs(v) > bound for v in machine.init_valuation):
        raise MachineError("BoundTooSmall",
                           "initial valuation exceeds the bound")
    init = LtsState(machine.initial, machine.init_valuation)
    states, transitions = _explore(
        init, lambda s: machine.successors(s.control, s.valuation, bound))
    finals = {s for s in states if s.control in machine.finals}
    return Lts(init, states, transitions, finals)


@record(frozen=True)
class Annotation:
    """One transition contract: a labelled pre/post typestate pair over the
    coordinates of one type family."""
    label: str
    family: str
    pre_state: str
    pre_args: tuple[Lin, ...]
    pre_constraint: Formula
    post_state: str
    post_args: tuple[Lin, ...]
    post_constraint: Formula


def annotation_from_change(label: str, change: ChangeType) -> Optional[Annotation]:
    pre = strip_perm(change.pre)
    post = strip_perm(change.post)
    if not isinstance(pre, InstanceType) or not isinstance(post, InstanceType):
        return None
    if not pre.args or not post.args:
        return None
    return Annotation(label, pre.family, pre.state, pre.args, pre.constraint,
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
    a state name with a counter valuation reachable by applying contracts.
    A contract applies where its pre instance is of the initial instance's
    family, with as many arguments as the valuation has counters, at a
    state below its pre state."""
    if not all(a.is_const for a in initial.args):
        raise MachineError("UnsatisfiableInitial",
                           "initial instance needs ground coordinates")
    if initial.constraint != TRUE:
        grounded = eliminate_quantifiers(initial.constraint)
        if free_vars(grounded) or not evaluate(grounded, {}):
            raise MachineError("UnsatisfiableInitial",
                               "initial instance constraint does not hold")
    init = LtsState(initial.state, tuple(a.const for a in initial.args))
    substate = table.is_substate if table is not None else str.__eq__
    # each contract's successor function, and the contracts that apply at a
    # control state and valuation length
    compiled = [(ann, _compile_contract(ann)) for ann in annotations
                if ann.family == initial.family]
    applicable: dict[tuple[str, int], list[tuple[str, str, Callable]]] = {}

    def successors(cur: LtsState):
        key = (cur.control, len(cur.valuation))
        contracts = applicable.get(key)
        if contracts is None:
            contracts = applicable[key] = [
                (ann.label, ann.post_state, solutions) for ann, solutions in compiled
                if len(ann.pre_args) == len(cur.valuation)
                and substate(cur.control, ann.pre_state)]
        # a step that two contracts make is one move
        return dict.fromkeys([(label, post_state, val)
                              for label, post_state, solutions in contracts
                              for val in solutions(cur.valuation, bound)])

    states, transitions = _explore(init, successors)
    finals = set() if final is None else {s for s in states if final(s.control, s.valuation)}
    return Lts(init, states, transitions, finals)


@lru_cache(maxsize=256)
def _compile_contract(ann: Annotation) -> Callable:
    """`successors(valuation, bound)` of a contract: the post valuations of
    its instantiations that agree with `valuation` and both constraints, with
    every logical variable and post coordinate within the bound, in product
    order of the sorted logical variables over the bound.

    A plain-variable pre argument names its coordinate (the last such
    position wins).  Any other pre argument i is the equation `i == pre_i`,
    post argument i is `i' == post_i`, and with the constraints they form a
    guard for `_compile_guard`.  Equal contracts share one function, since
    `annotations_of_program` builds new ones on every call."""
    plain = {next(iter(lin.coeffs)): i for i, lin in enumerate(ann.pre_args)
             if lin.const == 0 and list(lin.coeffs.values()) == [1]}
    coordinate = {i: v for v, i in plain.items()}
    # digits name what no program identifier can
    counters = tuple(coordinate.get(i, str(i)) for i in range(len(ann.pre_args)))
    outputs = tuple(primed(str(i)) for i in range(len(ann.post_args)))
    constraint = eliminate_quantifiers(conj(ann.pre_constraint, ann.post_constraint))
    atoms = [eq(Var(c), lin) for c, lin in zip(counters, ann.pre_args) if c not in plain]
    atoms += [eq(Var(o), lin) for o, lin in zip(outputs, ann.post_args)]
    logical = set(free_vars(constraint)).union(*(a.coeffs for a in ann.pre_args + ann.post_args))
    return _compile_guard(atoms + _guard_atoms(constraint), counters,
                          tuple(sorted(logical - plain.keys())), outputs)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

class SimulationRelation:
    """A simulation relation as the route of `check_simulation` that found
    it computed it: the number of its pairs, the index of each state of
    either side, and `flags()`, one byte per pair of indexes (i, j) at
    `i * nq + j`, 1 where that pair of states is in the relation.  `size()`
    and `in` read these, the flags made on the first `in`; `pairs` is built
    on its first read, and kept.  Built from a set of pairs, the relation
    is that set."""

    def __init__(self, pairs: Optional[set] = None, *, size: int = 0,
                 flags: Optional[Callable[[], bytes]] = None,
                 p_index: Optional[dict] = None, q_index: Optional[dict] = None, nq: int = 0):
        if pairs is not None:
            self.pairs, size = pairs, len(pairs)
        self._size, self._flags, self._nq = size, flags, nq
        self._p_index, self._q_index = p_index, q_index

    def size(self) -> int:
        return self._size

    @cached_property
    def _bits(self) -> bytes:
        return self._flags()

    def __contains__(self, pair: tuple[LtsState, LtsState]) -> bool:
        if self._flags is None:
            return pair in self.pairs
        i, j = self._p_index.get(pair[0]), self._q_index.get(pair[1])
        if i is None or j is None:
            return False
        k = i * self._nq + j
        return self._bits[k:k + 1] == b"\1"

    @cached_property
    def pairs(self) -> set[tuple[LtsState, LtsState]]:
        bits, nq, q_at = self._bits, self._nq, [None] * self._nq
        for q, j in self._q_index.items():
            q_at[j] = q
        pairs: set[tuple[LtsState, LtsState]] = set()
        for p, i in self._p_index.items():
            pairs.update(zip(repeat(p), compress(q_at, bits[i * nq:(i + 1) * nq])))
        return pairs


@record
class Counterexample:
    """A path of the simulated system the candidate simulator cannot mirror."""
    steps: list[tuple[str, LtsState]]
    reason: str

    def labels(self) -> list[str]:
        return [a for a, _ in self.steps]


class _Grid:
    """Bit positions of one side's states, and its moves grouped by label
    and by the shift from source to target position.

    A state sits at `base[control] + sum(v_i * stride_i)`, with the strides
    of the box around all valuations.  Each control takes the span from its
    least to its greatest such position, right after the control before
    it.  A move from control c to c' that changes the valuation by d
    therefore shifts the position by the same amount wherever it starts.
    The valuations must all have one length.
    """

    def __init__(self, lts: Lts):
        states = lts.states
        strides, box = [], 1
        for column in zip(*(s.valuation for s in states)):
            strides.append(box)
            box *= max(column) - min(column) + 1
        flat = [sum(map(mul, s.valuation, strides)) for s in states]
        span: dict[str, tuple[int, int]] = {}
        for s, f in zip(states, flat):
            lo, hi = span.get(s.control, (f, f))
            span[s.control] = (min(lo, f), max(hi, f))
        base, self.size = {}, 0
        for c, (lo, hi) in span.items():
            base[c] = self.size - lo
            self.size += hi - lo + 1
        self.at = [base[s.control] + f for s, f in zip(states, flat)]
        self.index = dict(zip(states, self.at))
        self.groups: dict[tuple[str, int], list[int]] = {}
        for s, i in zip(states, self.at):
            for a, s2 in lts.moves(s):
                self.groups.setdefault((a, self.index[s2] - i), []).append(i)


# the most bits of masks per pair of states for which `check_simulation`
# refines on the grid: below the 300 to 1500 bits per pair at which the
# predecessor counters peak on the corpus at bounds 15 to 25
MASK_BITS = 256


def _grids(sim: Lts, simulated: Lts) -> Optional[tuple[_Grid, _Grid]]:
    """The grids of both sides, when the valuations of each side have one
    length and the masks of the grid refinement take at most `MASK_BITS`
    bits per pair of states: one relation-sized mask per group of the
    simulated side and per group of the simulator with a label it needs."""
    if any(len({len(s.valuation) for s in lts.states}) > 1 for lts in (sim, simulated)):
        return None
    ps, qs = _Grid(sim), _Grid(simulated)
    labels = {a for a, _ in qs.groups}
    groups = sum(a in labels for a, _ in ps.groups) + len(qs.groups)
    if groups * ps.size * qs.size > MASK_BITS * len(sim.states) * len(simulated.states):
        return None
    return ps, qs


def check_simulation(sim: Lts, simulated: Lts):
    """Greatest simulation of `simulated` by `sim`, or a counterexample.

    A pair survives while the simulator matches every labelled move of the
    simulated state and respects finals.  A pair failing the finals test is
    removed in round 0; any other removed pair gets one more than the least,
    over its unmatched moves, of the greatest round among that move's
    matches (round 1 when the simulator has no move with the label).

    Where both sides lie densely on their grids and their moves share few
    shifts (`_grids`), the rounds run bit-parallel (`_grid_simulation`);
    elsewhere a worklist of predecessor counters finds the same rounds
    (`_counting_simulation`).
    """
    grids = _grids(sim, simulated)
    if grids is None:
        return _counting_simulation(sim, simulated)
    return _grid_simulation(sim, simulated, *grids)


def _shifted(bits: int, by: int) -> int:
    """`bits` moved `by` places toward the low end (the high end if negative)."""
    return bits >> by if by >= 0 else bits << -by


_BITS = bytes.maketrans(b"01", b"\0\1")


def _grid_simulation(sim: Lts, simulated: Lts, ps: _Grid, qs: _Grid):
    """`check_simulation` as one bitset refinement over the grids `ps` of
    `sim` and `qs` of `simulated`.

    The relation is one int, with the pair (p, q) at bit `p * nq + q`,
    where p and q are grid positions and nq is the simulated side's number
    of positions, rounded up to whole bytes.  A side's moves with one label
    and one shift between positions form a group, and a group acts on the
    whole relation at once: a round computes, for each label a, the pairs
    (p, q2) where p has an a-move into some p2 with (p2, q2) in the
    relation, as the union over the simulator's a-groups of the relation
    shifted by the group's rows and masked to its source rows; then it
    keeps, for each a-group of the simulated side, only the pairs of its
    source columns whose shifted column is in that union.  Each round reads
    the relation of the round before, so it removes exactly the pairs of
    that round.  The round of each removed pair is kept in binary, one
    bitset per binary digit, and the refinement stops once the initial pair
    is removed: the counterexample rebuilt from the rounds only looks at
    pairs removed earlier than the pair it starts from.
    """
    # a row of the relation takes whole bytes, so masks are built as bytes
    row_bytes = -(-qs.size // 8)
    nq = 8 * row_bytes
    full_row, empty_row = b"\xff" * row_bytes, bytes(row_bytes)

    def rows(positions: Iterable[int]) -> int:
        marked = set(positions)
        return int.from_bytes(b"".join(full_row if p in marked else empty_row
                                       for p in range(ps.size)), "little")

    def columns(positions: Iterable[int]) -> int:
        row = sum(1 << q for q in set(positions))
        return int.from_bytes(row.to_bytes(row_bytes, "little") * ps.size, "little")

    labels = {a for a, _ in qs.groups}
    # per label, the simulator's groups as (shift of the relation, source rows)
    simulator_groups: dict[str, list[tuple[int, int]]] = {a: [] for a in labels}
    for (a, shift), sources in ps.groups.items():
        if a in labels:
            simulator_groups[a].append((shift * nq, rows(sources)))
    needs = [(a, shift, ~columns(sources)) for (a, shift), sources in qs.groups.items()]

    non_final = [i for s, i in zip(sim.states, ps.at) if s not in sim.finals]
    final = [j for s, j in zip(simulated.states, qs.at) if s in simulated.finals]
    rel = rows(ps.at) & columns(qs.at) & ~(rows(non_final) & columns(final))
    initial = ps.index[sim.initial] * nq + qs.index[simulated.initial]
    digits: list[int] = []      # digit d holds the removed pairs whose round has bit d
    rnd = 0
    while rel >> initial & 1:
        matched = {}
        for a, groups in simulator_groups.items():
            m = 0
            for shift, mask in groups:
                m |= _shifted(rel, shift) & mask
            matched[a] = m
        kept = rel
        for a, shift, outside in needs:
            kept &= outside | _shifted(matched[a], shift)
        if kept == rel:
            # byte k of the flags is bit k of the relation
            return SimulationRelation(
                size=rel.bit_count(), flags=lambda: bin(rel)[:1:-1].encode().translate(_BITS),
                p_index=ps.index, q_index=qs.index, nq=nq)
        rnd += 1
        removed = rel ^ kept
        for d in range(rnd.bit_length()):
            if d == len(digits):
                digits.append(0)
            if rnd >> d & 1:
                digits[d] |= removed
        rel = kept

    def removed_round(p: LtsState, q: LtsState) -> int:
        # -1 for a pair still in the relation, as every pair removed after
        # the initial one is
        k = ps.index[p] * nq + qs.index[q]
        if rel >> k & 1:
            return -1
        return sum((digit >> k & 1) << d for d, digit in enumerate(digits))

    return _refutation(sim, simulated, removed_round)


def _counting_simulation(sim: Lts, simulated: Lts):
    """`check_simulation` by predecessor counters (Henzinger, Henzinger &
    Kopke, "Computing simulations on finite and infinite graphs", FOCS
    1995).

    States are interned to integers, and for every simulator state p, label
    a and simulated state q2 a counter holds how many a-successors p2 of p
    still have (p2, q2) in the relation.  Removing a pair decrements the
    counters of its predecessors; a counter at zero removes every pair
    (p, q) with an a-move of q into q2.  The worklist runs in round order,
    so each removed pair keeps the round in which the Jacobi iteration
    drops it.
    """
    ps, qs = sim.states, simulated.states
    nq = len(qs)
    p_id = {s: i for i, s in enumerate(ps)}
    q_id = {s: i for i, s in enumerate(qs)}
    label_id: dict[str, int] = {}
    # simulator: successors by label
    succ: list[dict[int, set[int]]] = [{} for _ in ps]
    for i, p in enumerate(ps):
        for b, p2 in sim.moves(p):
            succ[i].setdefault(label_id.setdefault(b, len(label_id)), set()).add(p_id[p2])
    # simulated side: the labels each state needs, and the states with an
    # a-move into q2, keyed a * nq + q2
    needs: list[set[int]] = [set() for _ in qs]
    into: dict[int, list[int]] = {}
    for j, q in enumerate(qs):
        for a, q2 in simulated.moves(q):
            aid = label_id.setdefault(a, len(label_id))
            needs[j].add(aid)
            into.setdefault(aid * nq + q_id[q2], []).append(j)
    nl = len(label_id)
    # simulator predecessors of p2: (p * nq, a * nq, counter base, number
    # of a-successors of p); the counter of (p, a, q2) sits at base + q2
    pred: list[list[tuple[int, int, int, int]]] = [[] for _ in ps]
    for i, by_label in enumerate(succ):
        for a, targets in by_label.items():
            for j in targets:
                pred[j].append((i * nq, a * nq, (i * nl + a) * nq, len(targets)))

    # round of each removed pair, -1 while the pair is in the relation
    rounds = array("i", [-1]) * (len(ps) * nq)
    queue: deque[int] = deque()
    non_final = [i for i, p in enumerate(ps) if p not in sim.finals]
    for j, q in enumerate(qs):
        if q in simulated.finals:
            for i in non_final:
                rounds[i * nq + j] = 0
                queue.append(i * nq + j)
    by_labels: dict[frozenset[int], list[int]] = {}
    for i, by_label in enumerate(succ):
        by_labels.setdefault(frozenset(by_label), []).append(i)
    for j in range(nq):
        for have, group in by_labels.items():
            if needs[j] <= have:
                continue
            for i in group:
                if rounds[i * nq + j] < 0:
                    rounds[i * nq + j] = 1
                    queue.append(i * nq + j)

    alive_matches: dict[int, int] = {}
    while queue:
        removed = queue.popleft()
        i2, j2 = divmod(removed, nq)
        rnd = rounds[removed] + 1
        for row, a_nq, base, matches in pred[i2]:
            dependents = into.get(a_nq + j2)
            if dependents is None:
                continue
            left = alive_matches.get(base + j2, matches) - 1
            alive_matches[base + j2] = left
            if left:
                continue
            for j in dependents:
                pair = row + j
                if rounds[pair] < 0:
                    rounds[pair] = rnd
                    queue.append(pair)

    def removed_round(p: LtsState, q: LtsState) -> int:
        return rounds[p_id[p] * nq + q_id[q]]

    if removed_round(sim.initial, simulated.initial) < 0:
        return SimulationRelation(size=rounds.count(-1),
                                  flags=lambda: bytes(map((-1).__eq__, rounds)),
                                  p_index=p_id, q_index=q_id, nq=nq)

    return _refutation(sim, simulated, removed_round)


def _refutation(sim: Lts, simulated: Lts, removed_round: Callable[[LtsState, LtsState], int]):
    """The counterexample from the round in which each pair was removed
    (-1 for a pair in the relation): a shortest refutation path, taking at
    each pair the unmatched move whose matches all fell earliest."""
    p, q = sim.initial, simulated.initial
    steps: list[tuple[str, LtsState]] = []
    while True:
        k = removed_round(p, q)
        if k == 0:
            return Counterexample(
                steps, f"state {q.label()} is final but {p.label()} is not")
        best = None
        for a, q2 in simulated.moves(q):
            matches = [p2 for b, p2 in sim.moves(p) if b == a]
            if any(removed_round(p2, q2) < 0 for p2 in matches):
                continue
            if not matches:
                steps.append((a, q2))
                return Counterexample(
                    steps, f"no move labelled '{a}' from {p.label()}")
            depth = max(removed_round(p2, q2) for p2 in matches)
            cand = min(matches, key=lambda p2: removed_round(p2, q2))
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
            if not any(b == a and (p2, q2) in rel for b, p2 in sim.moves(p)):
                return False
    return True


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

@record
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
    holds = compile_predicate(bad, machine.counters)
    init = (machine.initial, machine.init_valuation)
    if holds(machine.init_valuation):
        return WitnessPath([], init)
    # each reached (state, valuation) maps to its BFS parent and the step into it
    parent: dict[tuple, Optional[tuple]] = {init: None}
    queue = deque([init])
    while queue:
        key = queue.popleft()
        for label, dst, nxt in machine.successors(key[0], key[1], bound):
            reached = (dst, nxt)
            if reached in parent:
                continue
            parent[reached] = (key, (label, dst, nxt))
            if holds(nxt):
                steps = []
                link = parent[reached]
                while link is not None:
                    key, step = link
                    steps.append(step)
                    link = parent[key]
                return WitnessPath(steps[::-1], init)
            queue.append(reached)
    return None


def compile_predicate(f: Formula, counters: tuple[str, ...]
                      ) -> Callable[[tuple[int, ...]], bool]:
    """Compile a quantifier-free formula over the counters into
    `holds(valuation)`, which reads counter i at index i of a valuation and
    agrees with `evaluate`.  The source names counter i `v<i>`, as the guard
    compiler does.  A formula nested too deeply for Python to compile is
    evaluated as it stands."""
    names = {c: f"v{i}" for i, c in enumerate(counters)}
    unpack = f"{', '.join(names.values())}, = valuation\n    " if counters else ""
    namespace: dict = {}
    try:
        exec(f"def holds(valuation):\n    {unpack}return {_formula_source(f, names)}",
             namespace)
    except (SyntaxError, RecursionError):
        return lambda valuation: evaluate(f, dict(zip(counters, valuation)))
    return namespace["holds"]


def _formula_source(f: Formula, names: dict[str, str]) -> str:
    match f:
        case TrueF():
            return "True"
        case FalseF():
            return "False"
        case Le() | EqZ():
            return _atom_source(f, names)
        case Dvd(d, lin) | NotDvd(d, lin):
            test = "==" if isinstance(f, Dvd) else "!="
            return f"({_lin_source(lin.coeffs, lin.const, names)}) % {d} {test} 0"
        case And(parts) | Or(parts):
            glue = " and " if isinstance(f, And) else " or "
            return "(" + glue.join(_formula_source(p, names) for p in parts) + ")"
        case Not(body):
            return f"(not {_formula_source(body, names)})"
    raise ValueError("cannot evaluate a quantified formula directly")


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
    """Flat iff no control state lies on more than one elementary cycle,
    counting parallel transitions apart.  That holds iff every strongly
    connected component has at most as many internal transitions
    (self-loops included) as states; one Tarjan pass finds the components.

    Library API, kept for tests: no command calls it."""
    succ: dict[str, list[str]] = {s: [] for s in machine.states}
    for t in machine.transitions:
        succ[t.src].append(t.dst)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    component: dict[str, int] = {}
    stack: list[str] = []
    for root in machine.states:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        while work:
            node, edges = work[-1]
            nxt = next(edges, None)
            if nxt is None:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        component[member] = index[node]
                        if member == node:
                            break
            elif nxt not in index:
                index[nxt] = low[nxt] = len(index)
                stack.append(nxt)
                work.append((nxt, iter(succ[nxt])))
            elif nxt not in component:
                low[node] = min(low[node], index[nxt])
    nodes = Counter(component.values())
    inner = Counter(component[t.src] for t in machine.transitions
                    if component[t.src] == component[t.dst])
    return all(inner[c] <= n for c, n in nodes.items())


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
    primes = {primed(c): c for c in machine.counters}
    deltas: dict[str, int] = {}
    pre_atoms: list[Formula] = []
    for a in _guard_atoms(loop.guard):
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
        eq(Var(primed(c)), Var(c) + deltas[c] * k) for c in machine.counters))
    last = {c: Var(c) + deltas[c] * k - deltas[c] for c in machine.counters}
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
    named: list[tuple[str, int]] = []      # the states init and final lines name
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "counters":
                counters = tuple(rest.split())
                twice = sorted({c for c in counters if counters.count(c) > 1})
                if twice:
                    raise MachineError("ParseError",
                                       f"{name}:{lineno}: counter '{twice[0]}' is "
                                       f"declared twice")
            elif head == "state":
                if rest in states:
                    raise MachineError("ParseError",
                                       f"{name}:{lineno}: state '{rest}' is declared twice")
                states.append(rest)
            elif head == "init":
                parts = rest.split()
                if not parts:
                    raise MachineError("ParseError",
                                       f"{name}:{lineno}: init expects a state and "
                                       f"the counters' initial values")
                try:
                    init_val = tuple(int(x) for x in parts[1:])
                except ValueError:
                    raise MachineError("ParseError",
                                       f"{name}:{lineno}: init values must be integers, "
                                       f"got '{' '.join(parts[1:])}'") from None
                initial = parts[0]
                named.append((initial, lineno))
            elif head == "final":
                finals.update(rest.split())
                named += [(f, lineno) for f in rest.split()]
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
                raise MachineError("ParseError", f"{name}:{lineno}: unknown directive '{head}'")
        except BrtsError as err:
            raise MachineError("ParseError",
                               f"{name}:{lineno}: {err.diagnostic.message}") from err
    if initial is None:
        raise MachineError("ParseError", f"{name}: missing init line")
    for state, lineno in named:
        if state not in states:
            raise MachineError("ParseError",
                               f"{name}:{lineno}: state '{state}' is not declared")
    if len(init_val) != len(counters):
        raise MachineError("ParseError",
                           f"{name}: init gives {len(init_val)} values for "
                           f"{len(counters)} counters")
    return CounterMachine(name, tuple(states), initial, counters, init_val,
                          tuple(transitions), frozenset(finals), invariant)


def load_machine(path) -> CounterMachine:
    from pathlib import Path
    p = Path(path)
    try:
        text = p.read_text()
    except UnicodeDecodeError as err:
        raise MachineError("ParseError", f"not UTF-8 text: {err}") from err
    return parse_machine(text, name=p.stem)


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
