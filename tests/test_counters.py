import contextlib
import io

import pytest

from brts import cli
from brts.counters import (
    Annotation, Counterexample, CounterMachine, Lts, LtsState, MachineError,
    SimulationRelation, Transition, accelerate_self_loop, annotations_of_program,
    brts_to_lts, check_simulation, compose_loop, is_flat, lts_to_dot,
    mca_to_lts, parse_machine, reach_violation, replay, verify_simulation,
    witness_to_json,
)
from brts.parser import parse_formula, parse_program
from brts.presburger import (
    Const, Var, conj, eq, exists, formula_equal, ge, substitute, TRUE,
)
from brts.syntax import InstanceType, state_table

from test_typecheck import BUFFER_STATES

PRODCONS_MCA = """
# producer-consumer protocol over a shared buffer
counters p c
state close
state open
init close 0 0
final open
trans close -> open : open : p' == p && c' == c
trans open -> open : produce : p >= c && p' == p + 1 && c' == c && p' >= c'
trans open -> open : consume : p >= c && p' == p && c' == c + 1 && p' >= c'
trans open -> close : close : p' == p && c' == c
invariant p >= c
"""

# consume compares against a constant instead of the consumed count
PRODCONS_MUTANT = """
counters p c
state close
state open
init close 0 0
final open
trans close -> open : open : p' == p && c' == c
trans open -> open : produce : p >= c && p' == p + 1 && c' == c && p' >= c'
trans open -> open : consume : p >= 2 && p' == p && c' == c + 1
trans open -> close : close : p' == p && c' == c
"""

DYCK_MCA = """
# balanced-parentheses counters: n opens, m closes
counters n m
state q0
state q1
init q1 0 0
final q1
trans q0 -> q0 : PushL : n > m && n' == n + 1 && m' == m && n' > m'
trans q0 -> q0 : PushR : n > m && n' == n && m' == m + 1 && n' > m'
trans q0 -> q1 : PushR : n > m && n' == n && m' == m + 1 && n' == m'
trans q1 -> q1 : PushLR : n == m && n' == n + 1 && m' == m + 1 && n' == m'
trans q1 -> q0 : PushL : n == m && n' == n + 1 && m' == m && n' > m'
"""


def prodcons_machine() -> CounterMachine:
    return parse_machine(PRODCONS_MCA, "prodcons")


def dyck_machine() -> CounterMachine:
    return parse_machine(DYCK_MCA, "dyck")


def prodcons_annotations():
    table = state_table(parse_program(
        BUFFER_STATES + "state Main { void main()[] { } }"))
    return table, annotations_of_program(table)


# ---------------------------------------------------------------------------
# machine parsing and bounded unfolding
# ---------------------------------------------------------------------------

def test_parse_machine_shape():
    m = prodcons_machine()
    assert m.counters == ("p", "c")
    assert m.initial == "close" and m.init_valuation == (0, 0)
    assert m.finals == {"open"}
    assert len(m.transitions) == 4
    assert formula_equal(m.invariant, parse_formula("p >= c"))


def test_parse_machine_rejects_a_counter_declared_twice():
    # the guard compiler would unpack a valuation of two into one name
    with pytest.raises(MachineError) as err:
        parse_machine("counters a a\nstate s\ninit s 0 0\ntrans s -> s : t : a' == a + 1\n",
                      "dup")
    assert err.value.kind == "ParseError"
    assert str(err.value) == "dup:1: counter 'a' is declared twice"


@pytest.mark.parametrize("text, message", [
    ("counters x\nstate q\ninit r 0\ntrans q -> q : go : x' == x + 1\n",
     "bad:3: state 'r' is not declared"),
    ("counters x\nstate q\ninit q 0\nfinal q r\n", "bad:4: state 'r' is not declared"),
    ("counters x\nstate q\nstate q\ninit q 0\n", "bad:3: state 'q' is declared twice"),
], ids=["init", "final", "twice"])
def test_parse_machine_rejects_states_not_declared_once(text, message):
    # an undeclared initial state would root an LTS that no transition leaves
    with pytest.raises(MachineError) as err:
        parse_machine(text, "bad")
    assert err.value.kind == "ParseError"
    assert str(err.value) == message


def test_mca_to_lts_contains_consume_edge():
    lts = mca_to_lts(prodcons_machine(), bound=3)
    src = LtsState("open", (2, 0))
    assert src in lts.transitions
    assert ("consume", LtsState("open", (2, 1))) in lts.moves(src)


def test_successors_run_compiled_guards(monkeypatch):
    # guards are compiled when the machine is built, so stepping it never
    # goes back to the generic formula evaluator
    machine = prodcons_machine()

    def evaluate(*args):
        raise AssertionError("successors evaluated a guard formula")

    monkeypatch.setattr("brts.counters.evaluate", evaluate)
    assert mca_to_lts(machine, bound=3).size() == 20


def test_lts_state_keeps_its_record_behaviour():
    state = LtsState("open", (2, 0))
    assert repr(state) == "LtsState(control='open', valuation=(2, 0))"
    assert state.label() == ("open", (2, 0))
    assert state == LtsState("open", (2, 0)) and hash(state) == hash(LtsState("open", (2, 0)))
    # the hash of the fields' tuple, as the record's was
    assert hash(state) == hash(("open", (2, 0)))
    assert state != LtsState("open", (2, 1)) and state != LtsState("close", (2, 0))
    assert len({state, LtsState("open", (2, 0)), LtsState("close", (2, 0))}) == 2


def test_brts_to_lts_runs_compiled_contracts(monkeypatch):
    # contracts are compiled before the states are explored, so grounding
    # never goes back to the generic formula evaluator
    table, anns = prodcons_annotations()
    initial = InstanceType("SB", (Const(0), Const(0)), TRUE, "ClosedBuffer")

    def evaluate(*args):
        raise AssertionError("brts_to_lts evaluated a contract formula")

    monkeypatch.setattr("brts.counters.evaluate", evaluate)
    assert brts_to_lts(anns, initial, bound=3, table=table).size() == 20


def test_lts_holds_only_what_is_read():
    assert Lts._fields == ("initial", "states", "transitions", "finals")


TWICE_MCA = """
counters n
state q
init q 0
trans q -> q : inc : n' == n + 1
trans q -> q : inc : n' == n + 1
"""


def test_a_step_two_transitions_make_is_two_moves(tmp_path):
    # export-lts prints the machine's moves as its transitions make them
    lts = mca_to_lts(parse_machine(TWICE_MCA), bound=1)
    assert lts.moves(LtsState("q", (0,))) == (("inc", LtsState("q", (1,))),) * 2
    path = tmp_path / "twice.mca"
    path.write_text(TWICE_MCA)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["export-lts", str(path), "--bound", "1"]) == 0
    assert out.getvalue().count('"q(0,)" -> "q(1,)" [label="inc"];') == 2


def test_a_step_two_contracts_make_is_one_move():
    table, anns = prodcons_annotations()
    produce = [a for a in anns if a.label == "produce"]
    initial = InstanceType("SB", (Const(0), Const(0)), TRUE, "OpenBuffer")
    once = brts_to_lts(produce, initial, bound=2, table=table)
    twice = brts_to_lts(produce * 2, initial, bound=2, table=table)
    assert once.transitions[once.initial] == (("produce", LtsState("OpenBuffer", (1, 0))),)
    assert twice == once


def test_mca_to_lts_no_transitions():
    m = CounterMachine("still", ("s",), "s", ("x",), (0,), ())
    lts = mca_to_lts(m, bound=2)
    assert lts.states == [LtsState("s", (0,))]
    assert lts.moves(lts.initial) == ()


def test_mca_to_lts_dyck_reaches_1_1():
    lts = mca_to_lts(dyck_machine(), bound=2)
    assert LtsState("q1", (1, 1)) in lts.states
    # via PushL then PushR
    first = dict(lts.moves(LtsState("q1", (0, 0))))
    assert first["PushL"] == LtsState("q0", (1, 0))
    second = dict(lts.moves(LtsState("q0", (1, 0))))
    assert second["PushR"] == LtsState("q1", (1, 1))


def test_mca_to_lts_bound_too_small():
    m = CounterMachine("far", ("s",), "s", ("x",), (5,), ())
    with pytest.raises(MachineError) as err:
        mca_to_lts(m, bound=3)
    assert err.value.kind == "BoundTooSmall"


def test_mca_monotone_restriction():
    m = prodcons_machine()
    for b in (1, 2, 3):
        small = {s for s in mca_to_lts(m, b).states}
        big = {s for s in mca_to_lts(m, b + 1).states
               if all(abs(v) <= b for v in s.valuation)}
        assert small == big


# ---------------------------------------------------------------------------
# typestate-derived transition systems
# ---------------------------------------------------------------------------

def test_brts_lts_reproduces_trace_skeleton():
    table, anns = prodcons_annotations()
    initial = InstanceType("SB", (Const(0), Const(0)), TRUE, "ClosedBuffer")
    lts = brts_to_lts(anns, initial, bound=3, table=table)
    for state, val in [("ClosedBuffer", (0, 0)), ("OpenBuffer", (0, 0)),
                       ("OpenBuffer", (2, 0)), ("OpenBuffer", (2, 1)),
                       ("OpenBuffer", (2, 2)), ("OpenBuffer", (3, 0))]:
        assert LtsState(state, val) in lts.states
    # the violating valuation is never generated
    assert all(s.valuation[0] >= s.valuation[1] for s in lts.states)


def test_brts_lts_empty_annotations():
    initial = InstanceType("SB", (Const(0), Const(0)), TRUE, "ClosedBuffer")
    lts = brts_to_lts([], initial, bound=3)
    assert lts.states == [LtsState("ClosedBuffer", (0, 0))]


def test_brts_lts_produce_only_chain():
    table, anns = prodcons_annotations()
    produce_only = [a for a in anns if a.label == "produce"]
    initial = InstanceType("SB", (Const(0), Const(0)), TRUE, "OpenBuffer")
    lts = brts_to_lts(produce_only, initial, bound=3, table=table)
    assert sorted(s.valuation for s in lts.states) == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_brts_lts_unsatisfiable_initial():
    initial = InstanceType("SB", (Const(0), Const(0)),
                           parse_formula("0 >= 1"), "ClosedBuffer")
    with pytest.raises(MachineError) as err:
        brts_to_lts([], initial, bound=2)
    assert err.value.kind == "UnsatisfiableInitial"


def test_brts_lts_free_post_variable_ranges_over_the_bound():
    # `bump` constrains nothing about its post coordinate k
    bump = Annotation("bump", "C", "Ctr", (Var("n"),), TRUE, "Ctr", (Var("k"),), TRUE)
    initial = InstanceType("C", (Const(0),), TRUE, "Ctr")
    for bound in (0, 2, 5):
        lts = brts_to_lts([bump], initial, bound)
        assert len(lts.states) == 2 * bound + 1
        assert [s.valuation for _, s in lts.moves(lts.initial)] == \
            [(k,) for k in range(-bound, bound + 1)]


def test_brts_lts_quantified_post_constraint():
    step = Annotation("step", "C", "Ctr", (Var("n"),), TRUE, "Ctr", (Var("k"),),
                      exists("j", parse_formula("k == n + j && j == 1")))
    initial = InstanceType("C", (Const(0),), TRUE, "Ctr")
    lts = brts_to_lts([step], initial, bound=3)
    assert [s.valuation for s in lts.states] == [(0,), (1,), (2,), (3,)]


TWO_FAMILIES = """
state Ctr { }
state Ops {
    type C : Pi(phi(n), Ctr);
    type D : Pi(phi(a, b), Ctr);
    void inc((1, C(phi(n), Ctr)) >> (1, C(phi(n + 1), Ctr)) w)[] {
        w <- (1, C(phi(n + 1), Ctr));
    }
    void twin((1, D(phi(a, b), Ctr)) >> (1, D(phi(a + 1, b), Ctr)) w)[] {
        w <- (1, D(phi(a + 1, b), Ctr));
    }
}
state Main {
    void main()[] {
        var (1, _) ops = new Ops();
        var (1, C(phi(0), Ctr)) w = new Ctr();
    }
}
"""


def test_brts_lts_applies_only_the_initial_familys_contracts():
    # `twin` is a contract over D's two coordinates; the object is a C
    from brts.cli import initial_instance_of
    program = parse_program(TWO_FAMILIES)
    table = state_table(program)
    anns = annotations_of_program(table)
    assert sorted((a.label, a.family) for a in anns) == [("inc", "C"), ("twin", "D")]
    br = brts_to_lts(anns, initial_instance_of(program), bound=2, table=table)
    assert [s.valuation for s in br.states] == [(0,), (1,), (2,)]
    assert {a for moves in br.transitions.values() for a, _ in moves} == {"inc"}
    machine = parse_machine("counters n\nstate q\ninit q 0\n"
                            "trans q -> q : inc : n' == n + 1\n")
    rel = check_simulation(br, mca_to_lts(machine, bound=2))
    assert isinstance(rel, SimulationRelation) and rel.size() == 6


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def brts_prodcons_lts(bound=3):
    table, anns = prodcons_annotations()
    initial = InstanceType("SB", (Const(0), Const(0)), TRUE, "ClosedBuffer")
    return brts_to_lts(anns, initial, bound=bound, table=table,
                       final=lambda s, v: table.is_substate(s, "OpenBuffer"))


def test_brts_simulates_prodcons_machine():
    machine_lts = mca_to_lts(prodcons_machine(), bound=3)
    assert machine_lts.size() <= 200
    br = brts_prodcons_lts()
    rel = check_simulation(br, machine_lts)
    assert isinstance(rel, SimulationRelation)
    assert (br.initial, machine_lts.initial) in rel.pairs
    assert verify_simulation(rel, br, machine_lts)


def test_lts_simulates_itself():
    lts = mca_to_lts(prodcons_machine(), bound=2)
    rel = check_simulation(lts, lts)
    assert isinstance(rel, SimulationRelation)
    assert all((s, s) in rel.pairs for s in lts.states)


def test_missing_consume_yields_counterexample():
    machine_lts = mca_to_lts(prodcons_machine(), bound=3)
    table, anns = prodcons_annotations()
    no_consume = [a for a in anns if a.label != "consume"]
    initial = InstanceType("SB", (Const(0), Const(0)), TRUE, "ClosedBuffer")
    br = brts_to_lts(no_consume, initial, bound=3, table=table,
                     final=lambda s, v: table.is_substate(s, "OpenBuffer"))
    cex = check_simulation(br, machine_lts)
    assert isinstance(cex, Counterexample)
    assert cex.labels()[-1] == "consume"
    assert "consume" in cex.reason


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------

def test_reach_violation_on_mutant():
    mutant = parse_machine(PRODCONS_MUTANT, "prodcons_mutant")
    path = reach_violation(mutant, parse_formula("c > p"), bound=4)
    assert path is not None
    assert len(path) == 6
    assert [a for a, _, _ in path.steps] == ["open", "produce", "produce",
                                             "consume", "consume", "consume"]
    assert path.final_valuation() == (2, 3)
    assert replay(mutant, path, bound=4)


def test_reach_violation_blocked_by_guards():
    assert reach_violation(prodcons_machine(), parse_formula("c > p"), bound=6) is None


def test_reach_violation_false_is_unreachable():
    from brts.presburger import FALSE
    assert reach_violation(prodcons_machine(), FALSE, bound=3) is None


def test_reach_violation_dyck_guards_keep_balance():
    assert reach_violation(dyck_machine(), parse_formula("m > n"), bound=4) is None


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------

def test_prodcons_machine_not_flat():
    assert not is_flat(prodcons_machine())


def test_straight_line_machine_flat():
    m = parse_machine("""
counters x
state a
state b
init a 0
trans a -> b : step : x' == x + 1
""", "line")
    assert is_flat(m)


def test_single_self_loop_flat():
    m = parse_machine("""
counters x
state a
init a 0
trans a -> a : tick : x' == x + 1
""", "loop")
    assert is_flat(m)


# ---------------------------------------------------------------------------
# acceleration
# ---------------------------------------------------------------------------

def produce_loop() -> tuple[CounterMachine, Transition]:
    m = parse_machine("""
counters p c
state open
init open 0 0
trans open -> open : produce : p >= c && p' == p + 1 && c' == c
""", "produce_loop")
    return m, m.transitions[0]


def test_accelerate_produce_loop_matches_unrollings():
    m, loop = produce_loop()
    accel = accelerate_self_loop(m, loop, k_name="k")
    for k in range(4):
        grounded = substitute(accel, {"k": Const(k)})
        exact = compose_loop(m, loop, k)
        assert formula_equal(grounded, exact), k


def test_accelerate_identity_loop():
    m = parse_machine("""
counters x y
state a
init a 0 0
trans a -> a : idle : x' == x && y' == y
""", "idle")
    accel = accelerate_self_loop(m, m.transitions[0], k_name="k")
    ident = parse_formula("x' == x && y' == y")
    assert formula_equal(exists("k", conj(accel, ge(Var("k"), Const(0)))), ident)


def test_accelerate_rejects_scaling_update():
    m, _ = produce_loop()
    doubling = Transition("open", "dbl", parse_formula("p' == 2 * p"), "open")
    with pytest.raises(MachineError) as err:
        accelerate_self_loop(m, doubling)
    assert err.value.kind == "NotATranslationLoop"


def test_accelerate_rejects_non_self_loop():
    m = parse_machine("""
counters x
state a
state b
init a 0
trans a -> b : go : x' == x
""", "two")
    with pytest.raises(MachineError) as err:
        accelerate_self_loop(m, m.transitions[0])
    assert err.value.kind == "NotATranslationLoop"


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_dot_and_json_exports():
    lts = mca_to_lts(prodcons_machine(), bound=1)
    dot = lts_to_dot(lts)
    assert dot.startswith("digraph") and "produce" in dot
    mutant = parse_machine(PRODCONS_MUTANT, "m")
    path = reach_violation(mutant, parse_formula("c > p"), bound=4)
    import json
    blob = json.loads(witness_to_json(path))
    assert blob["witness"]["steps"][-1]["valuation"] == [2, 3]
    assert json.loads(witness_to_json(None)) == {"witness": None}
