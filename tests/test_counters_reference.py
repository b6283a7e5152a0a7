"""Differential tests: the indexed counter-machine tools and the compiled
contract matcher against the reference implementations in
`counters_oracle.py`, and `is_flat` against a brute-force count of
elementary cycles."""

import itertools
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from brts import counters
from brts.cli import initial_instance_of
from brts.counters import (
    Annotation, Counterexample, CounterMachine, Lts, LtsState, SimulationRelation,
    Transition, _compile_contract, _counting_simulation, _Grid, _grid_simulation, _grids,
    annotations_of_program, brts_to_lts, check_simulation, compile_predicate, is_flat, load_machine, mca_to_lts, primed, reach_violation,
)
from brts.parser import parse_formula, parse_program
from brts.presburger import (
    TRUE, Const, Dvd, NotDvd, Var, conj, disj, eliminate_quantifiers, eq, evaluate,
    exists, le, neg,
)
from brts.syntax import InstanceType, state_table

from counters_oracle import (
    contract_matches, reference_brts_to_lts, reference_mca_to_lts, reference_reach,
    reference_simulation, reference_successors,
)

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"

# program-side finals per case, as `brts simulate` would be asked for them
FINALS = {"prodcons": ("state", "OpenBuffer"), "dyck": ("formula", "n == m")}


# a state of neither side of any simulation these tests check
STRANGER = LtsState("\0", ())


def same_outcome(got, want, sim: Lts, simulated: Lts) -> None:
    assert type(got) is type(want)
    if isinstance(want, SimulationRelation):
        # size and membership first, before anything builds the pair set
        assert got.size() == len(want.pairs)
        assert all(((p, q) in got) == ((p, q) in want.pairs)
                   for p in sim.states for q in simulated.states)
        assert (STRANGER, simulated.initial) not in got
        assert (sim.initial, STRANGER) not in got
        assert got.pairs == want.pairs
    else:
        assert got.steps == want.steps
        assert got.reason == want.reason


def one_length(lts: Lts) -> bool:
    return len({len(s.valuation) for s in lts.states}) == 1


def simulation_agrees(sim: Lts, simulated: Lts):
    """`check_simulation` and both of its routes against the Jacobi oracle;
    the oracle's outcome.  The grid route also runs where its masks would
    be too large for `check_simulation` to take it, as long as the grids
    have at most 2**20 pairs of positions."""
    want = reference_simulation(sim, simulated)
    same_outcome(check_simulation(sim, simulated), want, sim, simulated)
    same_outcome(_counting_simulation(sim, simulated), want, sim, simulated)
    if one_length(sim) and one_length(simulated):
        ps, qs = _Grid(sim), _Grid(simulated)
        if ps.size * qs.size <= 1 << 20:
            same_outcome(_grid_simulation(sim, simulated, ps, qs), want, sim, simulated)
    return want


def outcome_kind(result) -> str:
    if isinstance(result, SimulationRelation):
        return "relation"
    return "final" if "final" in result.reason else "no move"


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def random_lts(rng: random.Random, tag: str) -> Lts:
    states = [LtsState(tag, (i,)) for i in range(rng.randint(1, 6))]
    lts = Lts(states[0], states, {}, set())
    for s in states:
        moves = tuple((rng.choice("abc"), rng.choice(states))
                      for _ in range(rng.randint(0, 4)))
        if moves or rng.random() < 0.5:
            lts.transitions[s] = moves
    lts.finals = {s for s in states if rng.random() < 0.4}
    return lts


def test_simulation_matches_reference_on_random_lts():
    rng = random.Random(20240611)
    outcomes = {"relation": 0, "final": 0, "no move": 0, "longer": 0}
    for _ in range(600):
        want = simulation_agrees(random_lts(rng, "p"), random_lts(rng, "q"))
        outcomes[outcome_kind(want)] += 1
        outcomes["longer"] += len(getattr(want, "steps", ())) > 1
    # the sample exercises every way the check can end
    assert all(n >= 20 for n in outcomes.values()), outcomes


def random_grid_lts(rng: random.Random, tag: str) -> Lts:
    """An LTS over 1-3 controls and 0-3 counters, its states a random
    subset of a box of valuations that reaches below zero: dense enough
    for the grid route or sparse enough for the predecessor counters.  Half
    of the moves repeat one of a few (label, control step, valuation step)
    shifts, as a counter machine's moves do; the rest go anywhere."""
    arity = rng.randint(0, 3)
    controls = [f"{tag}{i}" for i in range(rng.randint(1, 3))]
    # one in four boxes is spread out, so its states lie sparse on the grid
    spread = rng.choice([1, 1, 1, 5])
    ranges = [range(lo, lo + spread * rng.randint(1, 4), spread)
              for lo in (rng.randint(-4, 1) for _ in range(arity))]
    box = [LtsState(c, v) for c in controls for v in itertools.product(*ranges)]
    states = rng.sample(box, rng.randint(1, min(len(box), 12)))
    present = set(states)
    shifts = [(rng.choice("abc"), rng.randint(0, 2),
               tuple(spread * rng.randint(-1, 1) for _ in range(arity)))
              for _ in range(rng.randint(1, 3))]
    lts = Lts(states[0], states, {}, set())
    for s in states:
        moves = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                a, step, delta = rng.choice(shifts)
                control = controls[(controls.index(s.control) + step) % len(controls)]
                target = LtsState(control, tuple(map(sum, zip(s.valuation, delta))))
                if target in present:
                    moves.append((a, target))
            else:
                moves.append((rng.choice("abc"), rng.choice(states)))
        if moves or rng.random() < 0.5:
            lts.transitions[s] = tuple(moves)
    lts.finals = {s for s in states if rng.random() < 0.3}
    return lts


def test_simulation_matches_reference_on_random_grids():
    rng = random.Random(20261020)
    outcomes = {"relation": 0, "final": 0, "no move": 0, "longer": 0,
                "grid": 0, "counting": 0, "no counters": 0, "three counters": 0}
    for _ in range(1000):
        sim, simulated = random_grid_lts(rng, "p"), random_grid_lts(rng, "q")
        want = simulation_agrees(sim, simulated)
        outcomes[outcome_kind(want)] += 1
        outcomes["longer"] += len(getattr(want, "steps", ())) > 1
        outcomes["counting" if _grids(sim, simulated) is None else "grid"] += 1
        for lts in (sim, simulated):
            outcomes["no counters"] += not lts.initial.valuation
            outcomes["three counters"] += len(lts.initial.valuation) == 3
    # every way the check can end, by each route, with each counter count
    assert all(n >= 20 for n in outcomes.values()), outcomes


def test_sparse_or_mixed_valuations_fall_back_to_counters():
    """States 10**6 apart would ask for a grid of over 10**6 positions per
    side and 10**12 bits of relation, and valuations of two lengths have
    no grid: both go to the predecessor counters."""
    far = 10 ** 6
    sides = []
    for tag, valuations in [("p", [(0, 0, 0), (far, -far, 3), (-far, far, -3), (1, 0, far)]),
                            ("q", [(0, 0, 0), (far, -far, 3), (-far, far, -3)]),
                            ("r", [(0,), (0, 1), (1,)])]:
        states = [LtsState(tag, v) for v in valuations]
        sides.append(Lts(states[0], states,
                         {s: (("a", t), ("b", s)) for s, t in zip(states, states[1:] + states[:1])},
                         {states[-1]}))
    started = time.perf_counter()
    for pair in itertools.product(sides, repeat=2):
        assert _grids(*pair) is None
        simulation_agrees(*pair)
    assert time.perf_counter() - started < 1.0


def corpus_lts(case: str, bound: int, drop: str | None = None) -> tuple[Lts, Lts]:
    """(program LTS, machine LTS) of a corpus case at a bound."""
    program = parse_program((CORPUS / case / "good.brts").read_text())
    table = state_table(program)
    initial = initial_instance_of(program)
    kind, value = FINALS.get(case, (None, None))
    if kind == "state":
        final = lambda s, v: table.is_substate(s, value)
    elif kind == "formula":
        formula = parse_formula(value)
        coords = table.find_family(initial.family).coord_vars
        final = lambda s, v: evaluate(formula, dict(zip(coords, v)))
    else:
        final = lambda s, v: True
    kept = [a for a in annotations_of_program(table) if a.label != drop]
    br = brts_to_lts(kept, initial, bound, table=table, final=final)
    return br, mca_to_lts(load_machine(CORPUS / case / "machine.mca"), bound)


@pytest.mark.parametrize("bound", [3, 6, 9])
@pytest.mark.parametrize("case", ["anbn", "arraybounds", "dyck", "inevitability",
                                  "prodcons", "train"])
def test_simulation_matches_reference_on_corpus(case, bound):
    br, machine = corpus_lts(case, bound)
    for sim, simulated in [(br, machine), (machine, br), (machine, machine)]:
        simulation_agrees(sim, simulated)


def test_size_and_membership_do_not_build_the_pairs():
    br, machine = corpus_lts("prodcons", 6)
    for rel in (_grid_simulation(br, machine, _Grid(br), _Grid(machine)),
                _counting_simulation(br, machine)):
        assert rel.size() == 420 and (br.initial, machine.initial) in rel
        assert "pairs" not in vars(rel)
        assert len(rel.pairs) == 420


@pytest.mark.parametrize("bound", [3, 6, 9])
@pytest.mark.parametrize("case, label", [
    ("prodcons", "open"), ("prodcons", "produce"), ("prodcons", "consume"),
    ("prodcons", "close"), ("dyck", "PushL"), ("dyck", "PushR"), ("dyck", "PushLR"),
])
def test_deletion_counterexample_matches_reference(case, label, bound):
    br, machine = corpus_lts(case, bound, drop=label)
    assert isinstance(simulation_agrees(br, machine), Counterexample)


@pytest.mark.parametrize("case, most", [("prodcons", 4), ("dyck", 5)])
def test_corpus_moves_share_few_shifts(case, most):
    """At the largest benchmark bound a corpus case takes the grid route,
    and the moves of each side form at most `most` (label, shift) groups:
    one group per move would be hundreds."""
    grids = _grids(*corpus_lts(case, 15))
    assert grids is not None
    assert all(len(grid.groups) <= most for grid in grids)


def test_sparse_corpus_grid_takes_the_counters():
    """The train's braking counter moves only in one of its four controls,
    and its resets give a shift per value: at bound 15 the grid's masks
    would take more than `MASK_BITS` bits per pair of states."""
    assert _grids(*corpus_lts("train", 15)) is None


# ---------------------------------------------------------------------------
# contract matching
# ---------------------------------------------------------------------------

def same_lts(got: Lts, want: Lts) -> None:
    assert got.initial == want.initial
    assert got.states == want.states
    assert list(got.transitions.items()) == list(want.transitions.items())
    assert got.finals == want.finals


def even_sum(control: str, valuation: tuple[int, ...]) -> bool:
    return sum(valuation) % 2 == 0


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.brts")),
                         ids=lambda p: f"{p.parent.name}-{p.stem}")
def test_brts_to_lts_matches_reference_on_corpus(path):
    """Every corpus program at bounds 0-9, with all of its contracts and with
    each label deleted in turn."""
    program = parse_program(path.read_text())
    table = state_table(program)
    initial = initial_instance_of(program)
    annotations = annotations_of_program(table)
    for drop in [None, *sorted({a.label for a in annotations})]:
        kept = [a for a in annotations if a.label != drop]
        for bound in range(10):
            same_lts(brts_to_lts(kept, initial, bound, table=table, final=even_sum),
                     reference_brts_to_lts(kept, initial, bound, table=table,
                                           final=even_sum))


LOGICAL = ("k", "m", "n")


def random_pre_arg(rng: random.Random):
    v = Var(rng.choice(LOGICAL))
    kind = rng.choice(["plain", "plain", "shift", "double", "negate", "ground"])
    return {"plain": v, "shift": v + rng.choice([-1, 1]), "double": 2 * v,
            "negate": -v, "ground": Const(rng.randint(-1, 1))}[kind]


def random_constraint(rng: random.Random):
    def atom():
        a, b = Var(rng.choice(LOGICAL)), Var(rng.choice(LOGICAL))
        shift = rng.randint(-1, 2)
        return eq(a, b + shift) if rng.random() < 0.25 else le(a, b + shift)
    parts = [disj(atom(), atom()) if rng.random() < 0.4 else atom()
             for _ in range(rng.choice([0, 0, 1, 2]))]
    return conj(*parts) if parts else TRUE


def random_contract(rng: random.Random, label: str, arity: int) -> Annotation:
    # mostly of the initial instance's family and arity; the post arity may
    # differ, so the states reached over it have no matching contract
    family = "G" if rng.random() < 0.1 else "F"
    pre = tuple(random_pre_arg(rng) for _ in range(arity + (rng.random() < 0.1)))
    # post arguments mostly reuse a pre argument's variable; the others are
    # unpinned, or free when no constraint mentions them either
    near = sorted({v for a in pre for v in a.coeffs}) or list(LOGICAL)
    post = tuple(Var(rng.choice(near if rng.random() < 0.8 else LOGICAL))
                 + rng.randint(-1, 1) if rng.random() < 0.8
                 else Const(rng.randint(-1, 1)) for _ in range(rng.randint(1, 2)))
    return Annotation(label, family, rng.choice("AB"), pre, random_constraint(rng),
                      rng.choice("AB"), post, random_constraint(rng))


def test_brts_to_lts_matches_reference_on_random_contracts():
    rng = random.Random(1702)
    compared = excluded = 0
    for _ in range(400):
        arity = rng.randint(1, 2)
        annotations = [random_contract(rng, label, arity)
                       for label in "abcd"[:rng.randint(2, 4)]]
        initial = InstanceType("F", tuple(Const(rng.randint(-1, 1)) for _ in range(arity)),
                               TRUE, rng.choice("AB"))
        bound = rng.randint(1, 2)
        got = brts_to_lts(annotations, initial, bound, final=even_sum)
        try:
            want = reference_brts_to_lts(annotations, initial, bound, final=even_sum)
        except KeyError:
            # a post argument over a variable the reference leaves unbound
            excluded += 1
            continue
        same_lts(got, want)
        compared += 1
    assert compared >= 300 and excluded >= 20, (compared, excluded)


# the compiled contracts against the matcher they replaced

PROGRAM_NAMES = ("alpha", "beta", "gamma")


def drawn_pre_args(rng: random.Random, arity: int) -> tuple:
    """Pre arguments over PROGRAM_NAMES: a bare variable, `n + 1`, `2 * n`,
    a constant, and sometimes one variable in two positions."""
    def one():
        v = Var(rng.choice(PROGRAM_NAMES))
        kind = rng.choice(["bare", "bare", "shift", "double", "ground"])
        return {"bare": v, "shift": v + 1, "double": 2 * v,
                "ground": Const(rng.randint(-1, 1))}[kind]

    args = [one() for _ in range(arity)]
    if arity > 1 and rng.random() < 0.25:
        args[1] = args[0]
    return tuple(args)


def drawn_constraint(rng: random.Random):
    """A conjunction over PROGRAM_NAMES, some of them in no pre argument,
    with disjunctions and existentials among its parts."""
    def atom():
        a, b = Var(rng.choice(PROGRAM_NAMES)), Var(rng.choice(PROGRAM_NAMES))
        shift = rng.randint(-1, 1)
        return eq(a, b + shift) if rng.random() < 0.3 else le(a, b + shift)

    def part():
        kind = rng.choice(["atom", "atom", "or", "exists", "not"])
        if kind == "or":
            return disj(atom(), atom())
        if kind == "exists":
            # alpha is even, or lies between two names
            if rng.random() < 0.5:
                return exists("t", eq(Var(rng.choice(PROGRAM_NAMES)), 2 * Var("t")))
            a, b = rng.sample(PROGRAM_NAMES, 2)
            return exists("t", conj(le(Var(a), Var("t")), le(Var("t"), Var(b))))
        if kind == "not":
            return neg(conj(atom(), atom()))
        return atom()

    parts = [part() for _ in range(rng.choice([0, 1, 1, 2]))]
    return conj(*parts) if parts else TRUE


def drawn_contract(rng: random.Random, label: str, arity: int) -> Annotation:
    post = tuple(Var(rng.choice(PROGRAM_NAMES)) + rng.randint(-1, 1) if rng.random() < 0.85
                 else Const(rng.randint(-1, 1)) for _ in range(arity))
    return Annotation(label, "F", rng.choice("AB"), drawn_pre_args(rng, arity),
                      drawn_constraint(rng), rng.choice("AB"), post, drawn_constraint(rng))


def test_compiled_contracts_match_the_contract_oracle():
    """Seeded random contracts at bounds 0-4: the same states, the same
    transitions in the same order, and the same finals as the matcher that
    evaluates every candidate."""
    rng = random.Random(1903)
    for _ in range(150):
        arity = rng.randint(1, 3)
        annotations = [drawn_contract(rng, label, arity)
                       for label in "abc"[:rng.randint(1, 3)]]
        initial = InstanceType("F", tuple(Const(rng.randint(-1, 1)) for _ in range(arity)),
                               TRUE, rng.choice("AB"))
        for bound in range(5 if arity < 3 else 3):
            same_lts(brts_to_lts(annotations, initial, bound, final=even_sum),
                     reference_brts_to_lts(annotations, initial, bound, final=even_sum,
                                           match=contract_matches))


def generated_sources(monkeypatch, ann: Annotation) -> list[str]:
    """The source of every function compiling `ann` generates."""
    sources = []

    def spy(source, namespace):
        sources.append(source)
        exec(source, namespace)

    _compile_contract.cache_clear()
    monkeypatch.setattr(counters, "exec", spy, raising=False)
    try:
        _compile_contract(ann)
    finally:
        _compile_contract.cache_clear()
    return sources


GENERATED_WORDS = re.compile(r"(def|solutions|holds|valuation|bound|if|not|and|or|return|for|in|yield|"
                             r"product|range|repeat|True|False|[vwxt]\d+)")


def test_generated_contract_source_holds_only_generated_names(monkeypatch):
    rng = random.Random(1904)
    for _ in range(60):
        ann = drawn_contract(rng, "alpha", rng.randint(1, 3))
        for source in generated_sources(monkeypatch, ann):
            words = re.findall(r"[A-Za-z_]\w*", source)
            assert all(GENERATED_WORDS.fullmatch(w) for w in words), source
            assert not any(name in source for name in PROGRAM_NAMES + ("'",)), source


def test_a_shifted_pre_argument_pins_its_variable(monkeypatch):
    shift = Annotation("dec", "F", "A", (Var("alpha") + 1,), TRUE, "A", (Var("alpha"),), TRUE)
    double = Annotation("half", "F", "A", (2 * Var("alpha"),), TRUE, "A", (Var("alpha"),), TRUE)
    assert not any("product" in s for s in generated_sources(monkeypatch, shift))
    assert any("product" in s for s in generated_sources(monkeypatch, double))
    # from -2, alpha would be -3, outside the bound it used to range over
    lts = brts_to_lts([shift], InstanceType("F", (Const(2),), TRUE, "A"), 2)
    assert [s.valuation for s in lts.states] == [(2,), (1,), (0,), (-1,), (-2,)]
    assert lts.moves(LtsState("A", (-2,))) == ()


# ---------------------------------------------------------------------------
# machine successors
# ---------------------------------------------------------------------------

def random_guard(rng: random.Random, counters: tuple[str, ...]):
    names = list(counters) + [primed(c) for c in counters]
    atoms = []
    for _ in range(rng.randint(0, 4)):
        chosen = rng.sample(names, rng.randint(1, 2))
        lhs = Var(chosen[0]) if rng.random() < 0.5 else -Var(chosen[0])
        shift = Const(rng.randint(-2, 2))
        rhs = Var(chosen[1]) + shift if len(chosen) == 2 else shift
        atoms.append(eq(lhs, rhs) if rng.random() < 0.6 else le(lhs, rhs))
    return conj(*atoms) if atoms else TRUE


def random_machines():
    """150 random machines of one to three counters, each with its bound
    and four valuations within it."""
    rng = random.Random(7)
    for _ in range(150):
        counters = ("x", "y", "z")[:rng.randint(1, 3)]
        transitions = tuple(
            Transition(rng.choice("ab"), f"t{k}", random_guard(rng, counters),
                       rng.choice("ab"))
            for k in range(rng.randint(1, 4)))
        machine = CounterMachine("random", ("a", "b"), "a", counters,
                                 (0,) * len(counters), transitions)
        bound = rng.randint(0, 2)
        valuations = [tuple(rng.randint(-bound, bound) for _ in counters)
                      for _ in range(4)]
        yield machine, bound, valuations


def test_successors_match_reference_on_random_guards():
    for machine, bound, valuations in random_machines():
        for valuation in valuations:
            for state in ("a", "b"):
                assert (list(machine.successors(state, valuation, bound))
                        == reference_successors(machine, state, valuation, bound))


def machine_of(counters: tuple[str, ...], *guards: str) -> CounterMachine:
    return CounterMachine("edge", ("a",), "a", counters, (0,) * len(counters),
                          tuple(Transition("a", f"t{k}", parse_formula(g), "a")
                                for k, g in enumerate(guards)))


def steps_at(machine: CounterMachine, valuation: tuple[int, ...], bound: int):
    got = list(machine.successors("a", valuation, bound))
    assert got == reference_successors(machine, "a", valuation, bound)
    return got


def test_successors_of_a_machine_without_counters():
    machine = machine_of((), "true", "true")
    assert steps_at(machine, (), 0) == [("t0", "a", ()), ("t1", "a", ())]
    assert mca_to_lts(machine, 0).size() == 1


def test_successors_enumerate_25_free_counters_in_one_product():
    counters = tuple(f"x{i}" for i in range(25))
    machine = machine_of(counters, " && ".join(f"{c}' <= {c}" for c in counters))
    assert steps_at(machine, (0,) * 25, 0) == [("t0", "a", (0,) * 25)]


def test_successors_pin_a_chain_listed_backwards():
    # the first equation pins y' only once the second has pinned x'
    machine = machine_of(("x", "y"), "y' == x' + 1 && x' == x + 1")
    assert steps_at(machine, (0, 2), 2) == [("t0", "a", (1, 2))]
    assert steps_at(machine, (1, 0), 2) == []


def test_successors_drop_a_pin_outside_the_bound():
    machine = machine_of(("x", "y"), "x' == x + 1 && y' <= y")
    assert steps_at(machine, (1, 0), 2) == [("t0", "a", (2, -2)), ("t0", "a", (2, -1)),
                                            ("t0", "a", (2, 0))]
    assert steps_at(machine, (2, 0), 2) == []


def test_successors_drop_a_fully_known_atom_that_fails():
    machine = machine_of(("x", "y"), "x >= 1 && y' <= x")
    assert steps_at(machine, (1, 0), 1) == [("t0", "a", (1, -1)), ("t0", "a", (1, 0)),
                                            ("t0", "a", (1, 1))]
    assert steps_at(machine, (0, 0), 1) == []


def random_bad(rng: random.Random, counters: tuple[str, ...], quantified: tuple[str, ...] = (),
               depth: int = 3) -> str:
    """A `--bad` formula with `||`, `~`, `&&` and `exists`.  Each atom
    compares a counter or a multiple of the innermost quantified name with a
    counter or 0, plus a small constant, so a witness of an `exists`, if
    there is one, lies within the bound plus 3."""
    def sub() -> str:
        return random_bad(rng, counters, quantified, depth - 1)

    kind = rng.choice(["atom", "atom", "or", "not", "and", "exists"] if depth else ["atom"])
    if kind == "or":
        return f"({sub()} || {sub()})"
    if kind == "and":
        return f"({sub()} && {sub()})"
    if kind == "not":
        return f"~({sub()})"
    if kind == "exists":
        return f"exists q{depth}. {random_bad(rng, counters, (f'q{depth}',), depth - 1)}"
    lhs = rng.choice(counters + quantified)
    scaled = f"{rng.randint(2, 3)} * {lhs}" if lhs in quantified and rng.random() < 0.5 else lhs
    other = rng.choice(counters + ("0",))
    op = rng.choice(["==", "!=", "<=", ">=", "<", ">"])
    return f"{scaled} {op} {other} + {rng.randint(-2, 2)}"


def test_reach_violation_matches_reference_on_random_machines():
    rng = random.Random(2017)
    hits = misses = longer = 0
    # the corpus machines at small bounds reach further than the random ones
    corpus = [(load_machine(path), bound, None)
              for path in sorted(CORPUS.glob("*/*.mca")) for bound in (2, 3, 4, 5)]
    for machine, bound, _ in itertools.chain(random_machines(), corpus):
        # half of the formulas also ask for a valuation far from the start
        far = mca_to_lts(machine, bound).states[-1].valuation
        target = " && ".join(f"{c} == {v}" for c, v in zip(machine.counters, far))
        for _ in range(4):
            text = random_bad(rng, machine.counters)
            if rng.random() < 0.5:
                text = f"{target} && {text}"
            bad = parse_formula(text)
            got = reach_violation(machine, eliminate_quantifiers(bad), bound)
            want = reference_reach(machine, bad, bound, radius=bound + 3)
            if want is None:
                assert got is None, text
                misses += 1
            else:
                assert got is not None and got.steps == want, text
                hits += 1
                longer += len(want) > 1
    assert min(hits, misses, longer) >= 40, (hits, misses, longer)


def random_qf(rng: random.Random, counters: tuple[str, ...], depth: int):
    """A quantifier-free formula over the counters with divisibility atoms,
    disjunctions and negations."""
    if depth == 0 or rng.random() < 0.25:
        lin = Const(rng.randint(-3, 3))
        for c in rng.sample(counters, rng.randint(1, len(counters))):
            lin = lin + rng.choice([-3, -2, -1, 1, 2, 3]) * Var(c)
        kind = rng.choice(["le", "eq", "dvd", "notdvd"])
        if kind == "le":
            return le(lin, Const(0))
        if kind == "eq":
            return eq(lin, Const(0))
        return (Dvd if kind == "dvd" else NotDvd)(rng.randint(2, 4), lin)
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return neg(random_qf(rng, counters, depth - 1))
    parts = [random_qf(rng, counters, depth - 1) for _ in range(rng.randint(2, 3))]
    return conj(*parts) if kind == "and" else disj(*parts)


def test_compiled_predicate_agrees_with_evaluate():
    rng = random.Random(1702)
    machines = [load_machine(path) for path in sorted(CORPUS.glob("*/*.mca"))]
    bound = 3
    for machine in machines:
        counters = machine.counters
        formulas = [random_qf(rng, counters, 3) for _ in range(12)]
        # the shapes `brts reach` passes on: quantifiers eliminated
        formulas += [eliminate_quantifiers(parse_formula(random_bad(rng, counters)))
                     for _ in range(12)]
        for f in formulas:
            holds = compile_predicate(f, counters)
            for valuation in itertools.product(range(-bound, bound + 1),
                                               repeat=len(counters)):
                assert holds(valuation) == evaluate(f, dict(zip(counters, valuation))), f


def test_compiled_predicate_evaluates_a_formula_too_deep_to_compile():
    f = le(Var("a"), Const(0))
    # 240 nested parentheses: past what Python compiles
    for i in range(120):
        f = disj(conj(f, le(Var("b"), Const(i))), eq(Var("a"), Const(-i)))
    holds = compile_predicate(f, ("a", "b"))
    for valuation in itertools.product(range(-4, 5), repeat=2):
        assert holds(valuation) == evaluate(f, dict(zip(("a", "b"), valuation)))


@pytest.mark.parametrize("bound", [3, 6, 9])
def test_successors_match_reference_on_corpus(bound):
    for path in sorted(CORPUS.glob("*/*.mca")):
        machine = load_machine(path)
        if any(abs(v) > bound for v in machine.init_valuation):
            continue
        for s in mca_to_lts(machine, bound).states:
            assert (list(machine.successors(s.control, s.valuation, bound))
                    == reference_successors(machine, s.control, s.valuation, bound)), path


def test_mca_to_lts_matches_reference_on_corpus():
    """Every corpus machine and mutant at bounds 0-9 from its initial
    valuation up: the shared walk finds the states, the moves in order and
    the finals of the machine's own breadth-first loop."""
    built = 0
    for path in sorted(CORPUS.glob("*/*.mca")):
        machine = load_machine(path)
        for bound in range(max(map(abs, machine.init_valuation)), 10):
            same_lts(mca_to_lts(machine, bound), reference_mca_to_lts(machine, bound))
            built += 1
    assert built == 116


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------

def flat_by_cycle_count(states: list[str], edges: list[tuple[str, str]]) -> bool:
    """Enumerate every elementary cycle, parallel edges apart, from its
    first state in `states` order; flat iff no state lies on two."""
    order = {s: i for i, s in enumerate(states)}
    through = dict.fromkeys(states, 0)

    def extend(start: str, node: str, path: list[str]) -> None:
        for src, dst in edges:
            if src != node:
                continue
            if dst == start:
                for s in path:
                    through[s] += 1
            elif order[dst] > order[start] and dst not in path:
                extend(start, dst, path + [dst])

    for s in states:
        extend(s, s, [s])
    return all(n <= 1 for n in through.values())


def test_is_flat_matches_cycle_enumeration():
    rng = random.Random(3000)
    seen = set()
    for _ in range(3000):
        states = [f"s{i}" for i in range(rng.randint(1, 5))]
        edges = [(rng.choice(states), rng.choice(states))
                 for _ in range(rng.randint(0, 7))]
        machine = CounterMachine("g", tuple(states), states[0], ("x",), (0,),
                                 tuple(Transition(u, f"t{k}", TRUE, v)
                                       for k, (u, v) in enumerate(edges)))
        want = flat_by_cycle_count(states, edges)
        assert is_flat(machine) == want, edges
        seen.add(want)
    assert seen == {True, False}


def test_cli_import_leaves_out_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, brts.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
