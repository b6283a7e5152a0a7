import random

import pytest

from brts.cli import EXIT_OK, check_source, render_value
from brts.gen import synthesize_program
from brts.interp import (
    BoolV, IndexedV, IntV, Interp, NULL, ObjV, RuntimeErr, Store, StrV, UNIT,
    default, run_program,
)
from brts.parser import parse_program
from brts import syntax as ast
from brts.syntax import (
    BOOL, INT, STRING, VOID, InstanceType, PermPair, StateRef, state_table,
)
from brts.typecheck import check_program

from test_parser_reference import CORPUS, _perfbench_inputs
from test_typecheck import BUFFER_STATES, GOOD_MAIN, VIOLATING_MAIN


def run_src(src: str, **kw):
    return run_program(parse_program(src), **kw)


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------

def test_default_int():
    assert default(INT) == IntV(0)


def test_default_bool():
    assert default(BOOL) == BoolV(False)


def test_default_string_and_void():
    assert default(STRING) == StrV("")
    assert default(VOID) == UNIT


def test_default_state_is_null():
    assert default(StateRef("S")) == NULL
    assert default(PermPair(1, StateRef("S"))) == NULL


def test_no_default_for_change_types():
    from brts.syntax import ChangeType
    with pytest.raises(RuntimeErr) as err:
        default(ChangeType(INT, INT))
    assert err.value.kind == "NoDefault"


# ---------------------------------------------------------------------------
# core rules
# ---------------------------------------------------------------------------

def test_eval_constant():
    st = state_table(parse_program("state M { void main()[] { } }"))
    interp = Interp(st)
    value = interp.eval(Store(), ast.IntLit(5))
    assert value == IntV(5)


def test_null_dereference():
    src = """
state S { var int f; }
state Main {
    void main()[] {
        var (1, S) x = new S();
        var (1, S) y = x;
        let q = y.f in q;
    }
}
"""
    # make y start as the default null instead
    src = src.replace("var (1, S) y = x;", "val bool d = true;").replace(
        "let q = y.f in q;", "let q = x.f in q;")
    value, _, _ = run_src(src)
    assert value == IntV(0)

    null_src = """
state S { var int f; }
state Main {
    void main()[] {
        var int unused = 0;
        f_of_null();
    }
    void f_of_null()[] { }
}
"""
    # direct construction: field access through an explicitly null binding
    prog = parse_program("""
state S { var int f; }
state Main { void main()[] { } }
""")
    st = state_table(prog)
    interp = Interp(st)
    store = Store()
    store.bind("x", NULL)
    with pytest.raises(RuntimeErr) as err:
        interp.eval(store, ast.FieldRef(ast.VarRef("x"), "f"))
    assert err.value.kind == "NullDereference"


def test_good_prodcons_trace_matches_expected_counts():
    value, interp, _ = run_src(BUFFER_STATES + GOOD_MAIN, trace=True)
    coords = [t.detail["coords"] for t in interp.trace
              if t.rule == "mcall" and t.detail.get("coords") is not None
              and t.detail.get("depth") == 0]
    assert coords == [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]]


def test_violating_prodcons_reaches_2_3_unchecked():
    value, interp, _ = run_src(BUFFER_STATES + VIOLATING_MAIN, trace=True)
    coords = [t.detail["coords"] for t in interp.trace
              if t.rule == "mcall" and t.detail.get("coords") is not None
              and t.detail.get("depth") == 0]
    assert coords[-1] == [2, 3]


def test_object_state_transitions_via_trusted_signature():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        var (1, _) pc = new ProducerConsumer();
        pc.open(buffer);
        buffer;
    }
}
"""
    value, _, _ = run_src(src)
    assert isinstance(value, ObjV)
    assert value.state == "OpenBuffer"
    assert value.coords == (0, 0)


def test_fuel_exhaustion():
    src = """
state Main {
    void main()[] {
        var bool go = true;
        while [exists. 0 <= 0] (go) { };
    }
}
"""
    with pytest.raises(RuntimeErr) as err:
        run_src(src, fuel=50)
    assert err.value.kind == "FuelExhausted"


def test_while_runs_body_until_condition_flips():
    src = """
state Main {
    void main()[] {
        var bool go = true;
        var int seen = 0;
        while [exists. 0 <= 0] (go) {
            seen <- 1;
            go <- false;
        };
        seen;
    }
}
"""
    value, _, _ = run_src(src)
    assert value == IntV(1)


def test_no_matching_arm():
    src = """
state A { }
state B { }
state Main {
    void main()[] {
        var (1, A) x = new A();
        match (x : A) {
            case A { x; }
        };
    }
}
"""
    value, _, _ = run_src(src)
    assert isinstance(value, ObjV)

    bad = src.replace("case A { x; }", "case B { x; }").replace("(x : A)", "(x)")
    with pytest.raises(RuntimeErr) as err:
        run_src(bad)
    assert err.value.kind == "NoMatchingArm"


def test_match_concrete_picks_first_covering_arm():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        match (buffer) {
            case OpenBuffer { 1; }
            case ClosedBuffer { 2; }
            default { 3; }
        };
    }
}
"""
    value, _, _ = run_src(src)
    assert value == IntV(2)


def test_match_abstract_joins_results():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        match (buffer : Buffer) {
            case ClosedBuffer { 2; }
            default { 3; }
        };
    }
}
"""
    value, _, _ = run_src(src, mode="abstract")
    assert isinstance(value, IndexedV)
    assert set(value.options) == {IntV(2), IntV(3)}


def test_concrete_abstract_agree_on_unique_arm():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        match (buffer) {
            case ClosedBuffer { 7; }
        };
    }
}
"""
    concrete, _, _ = run_src(src, mode="concrete")
    abstract, _, _ = run_src(src, mode="abstract")
    assert concrete == abstract == IntV(7)


def test_store_update_rebinds_without_removing():
    src = """
state A { }
state B { }
state Main {
    void main()[] {
        var (1, A) x = new A();
        var int y = 1;
        x <- new B();
        y;
    }
}
"""
    value, _, store = run_src(src)
    assert value == IntV(1)
    assert isinstance(store.lookup("x"), ObjV)
    assert store.lookup("x").state == "B"
    assert store.lookup("y") == IntV(1)


@pytest.mark.parametrize("mode", ["concrete", "abstract"])
def test_arm_declaration_goes_out_of_scope_with_its_block(mode):
    src = """
state S { }
state Main {
    void main()[] {
        var (1, S) s = new S();
        var int z = 1;
        match (s) { case S { var int z = 2; var int w = 3; z; } };
        z;
    }
}
"""
    value, _, store = run_src(src, mode=mode)
    assert value == IntV(1)
    assert store.lookup("z") == IntV(1)
    assert store.lookup("w") is None
    with pytest.raises(RuntimeErr) as err:
        run_src(src.replace("        z;\n    }", "        w;\n    }"), mode=mode)
    assert err.value.kind == "UnboundRuntimeName"


def test_let_name_goes_out_of_scope():
    src = """
state Main {
    void main()[] {
        var int x = 0;
        let y = 1 in x;
        let x = 2 in x;
        x;
    }
}
"""
    value, _, store = run_src(src)
    assert value == IntV(0)
    assert store.lookup("y") is None
    with pytest.raises(RuntimeErr) as err:
        run_src(src.replace("        x;\n    }", "        y;\n    }"))
    assert err.value.kind == "UnboundRuntimeName"
    assert (err.value.span.line, err.value.span.col) == (7, 9)


def test_update_preserves_counters_on_plain_retag():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, SB(phi(3, 1), ClosedBuffer)) buffer = new ClosedBuffer();
        buffer <- new OpenBuffer();
        buffer;
    }
}
"""
    value, _, _ = run_src(src)
    assert value.state == "OpenBuffer"
    assert value.coords == (3, 1)


def test_field_assignment_and_read():
    src = """
state Box { var int size; }
state Main {
    void main()[] {
        var (1, Box) b = new Box();
        let b.size = 9 in b.size;
    }
}
"""
    value, _, _ = run_src(src)
    assert value == IntV(9)


def test_method_call_frame_restored():
    src = """
state Helper {
    int pick((1, Helper) >> (1, Helper) w)[] { 42; }
}
state Main {
    void main()[] {
        var (1, Helper) w = new Helper();
        var (1, Helper) h = new Helper();
        let r = h.pick(w) in r;
    }
}
"""
    value, _, store = run_src(src)
    assert value == IntV(42)
    # the callee's 'this' binding did not leak over main's
    assert store.lookup("this").state == "Main"


# ---------------------------------------------------------------------------
# progress: checked calls instantiate their signatures
# ---------------------------------------------------------------------------

def counter_program(methods: str, calls: str, start: int | str = 2) -> str:
    return f"""
state Ctr {{ }}
state Ops {{
    type C : Pi(phi(n), Ctr);
{methods}
}}
state Main {{
    void main()[] {{
        var (1, _) ops = new Ops();
        var (1, C(phi({start}), Ctr)) c = new Ctr();
{calls}
        c;
    }}
}}
"""


def checked_mcall_coords(src: str, method: str) -> list:
    """Check src, run it in both modes, and return the coordinates of the
    `mcall` events of method, which must agree between the modes."""
    code, checker, diags = check_source(src, "progress.brts")
    assert code == EXIT_OK, [d.message for d in diags]
    seen = []
    for mode in ("concrete", "abstract"):
        _, interp, _ = run_program(checker.program, mode=mode, trace=True)
        seen.append([t.detail["coords"] for t in interp.trace
                     if t.rule == "mcall" and t.detail["method"] == method])
    assert seen[0] == seen[1]
    return seen[0]


DEC = "    void dec((1, C(phi(n + 1), Ctr)) >> (1, C(phi(n), Ctr)) c)[]"


def test_signature_solves_an_offset_pre_term():
    src = counter_program(DEC + ";", "        ops.dec(c);\n        ops.dec(c);")
    assert checked_mcall_coords(src, "dec") == [[1], [0]]


def test_method_body_reads_a_variable_of_an_offset_pre_term():
    body = DEC + " {\n        c <- (1, C(phi(n), Ctr));\n    }"
    src = counter_program(body, "        ops.dec(c);\n        ops.dec(c);")
    assert checked_mcall_coords(src, "dec") == [[1], [0]]


def test_signature_solves_a_scaled_pre_term():
    half = "    void half((1, C(phi(2 * n), Ctr)) >> (1, C(phi(n), Ctr)) c)[];"
    src = counter_program(half, "        ops.half(c);", start=4)
    assert checked_mcall_coords(src, "half") == [[2]]


def test_signature_variable_of_the_post_side_only_comes_from_a_model():
    bump = "    void bump((1, C(phi(n), Ctr)) >> (1, C(phi(m, m > n), Ctr)) c)[];"
    src = counter_program(bump, "        ops.bump(c);")
    [[coord]] = checked_mcall_coords(src, "bump")
    assert coord > 2


def test_unconstrained_post_variable_and_declared_coordinate_take_a_model():
    reset = "    void reset((1, C(phi(n), Ctr)) >> (1, C(phi(m), Ctr)) c)[];"
    src = counter_program(reset, "        ops.reset(c);")
    [[coord]] = checked_mcall_coords(src, "reset")
    assert isinstance(coord, int)
    # a declaration in main whose coordinate is any k > 3
    src = counter_program(DEC + ";", "        ops.dec(c);", start="k, k > 3")
    [[coord]] = checked_mcall_coords(src, "dec")
    assert coord > 2


def test_trusted_receiver_transition_reads_the_callee_variables():
    src = """
state Ctr {
    type C : Pi(phi(n), Ctr);
    void dec()[(1, C(phi(n + 1), Ctr)) >> (1, C(phi(n), Ctr)) this];
}
state Main {
    void main()[] {
        var (1, C(phi(3), Ctr)) c = new Ctr();
        c.dec();
        c.dec();
        c;
    }
}
"""
    assert checked_mcall_coords(src, "dec") == [[2], [1]]


def test_dependent_declaration_in_a_method_reads_the_call_variables():
    methods = """\
    void inc2((1, C(phi(n), Ctr)) >> (1, C(phi(n + 1), Ctr)) c)[] {
        c <- (1, C(phi(n + 1), Ctr));
    }
    void make((1, C(phi(k), Ctr)) >> (1, C(phi(k), Ctr)) c)[] {
        var (1, C(phi(k), Ctr)) d = new Ctr();
        this.inc2(d);
    }"""
    src = counter_program(methods, "        ops.make(c);")
    assert checked_mcall_coords(src, "inc2") == [[3]]


def test_dependent_declaration_in_a_method_keeps_its_own_constraint():
    # the checker opens the declaration's k fresh, so the call's k = 2,
    # which breaks k > 5, must not become d's coordinate
    methods = """\
    void need((1, C(phi(n, n > 5), Ctr)) >> (1, C(phi(m, m > n), Ctr)) c)[];
    void make((1, C(phi(k), Ctr)) >> (1, C(phi(k), Ctr)) c)[] {
        var (1, C(phi(k, k > 5), Ctr)) d = new Ctr();
        this.need(d);
    }"""
    src = counter_program(methods, "        ops.make(c);")
    [[coord]] = checked_mcall_coords(src, "need")
    assert coord > 6


def test_abstract_match_joins_a_plain_value_with_an_object():
    src = """
state S { }
state A case of S { }
state B case of S { }
state Main {
    void main()[] {
        var (1, S) s = new S();
        var (1, S) x = new A();
        match (s) {
            case A { x <- 5; }
            case B { x <- new B(); }
        };
        x;
    }
}
"""
    code, checker, _ = check_source(src, "join.brts")
    assert code == EXIT_OK
    value, _, store = run_program(checker.program, mode="abstract")
    assert render_value(value) == "(+ 5 | B)"
    assert store.lookup("x") == value


# ---------------------------------------------------------------------------
# progress over the checked programs of the byte-identity set
# ---------------------------------------------------------------------------

def progress_programs() -> list[tuple[str, ast.Program]]:
    """The corpus, the benchmark's random programs of seeds 7, 11 and 301
    with their rejected twins, its scaling series, and 200 generated
    programs of seed 1000003."""
    inputs = _perfbench_inputs()
    out = [(f"{p.parent.name}/{p.name}", parse_program(p.read_text(), str(p)))
           for p in sorted(CORPUS.glob("*/*.brts"))]
    for seed in (7, 11, 301):
        accepted, twins = inputs.random_programs(seed)
        out += [(p.name, parse_program(p.source, p.name)) for p in accepted + twins]
    out += [(p.name, parse_program(p.source, p.name)) for p in inputs.series()]
    rng = random.Random(1000003)
    out += [(f"gen{i}", synthesize_program(rng, i)[0]) for i in range(200)]
    return out


def test_checked_programs_make_progress():
    """Every program of the set that `check` accepts runs to a value in
    both modes: a well-typed program does not get stuck."""
    programs = progress_programs()
    ran = 0
    for name, program in programs:
        checker = check_program(program, name)
        if any(d.severity == "error" for d in checker.diagnostics):
            continue
        for mode in ("concrete", "abstract"):
            try:
                run_program(checker.program, mode=mode)
            except RuntimeErr as err:
                pytest.fail(f"{name} gets stuck in {mode} mode: {err} [{err.kind}]")
        ran += 1
    assert (len(programs), ran) == (476, 434)
