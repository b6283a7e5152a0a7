from pathlib import Path

import pytest

from brts.diagnostics import BrtsError
from brts.parser import parse_formula, parse_program
from brts.presburger import (
    Const, Var, conj, entails, eq, formula_equal, ge, is_valid, TRUE,
)
from brts import syntax as ast
from brts.syntax import (
    InstanceType, PermPair, StateRef, state_table, INT, BOOL, VOID,
)
from brts.typecheck import (
    Checker, Ctx, EqRel, SubRel, TransRel, WfRel, check_family_formation,
    check_program, instantiate_family, reduce_to_paf,
)

BUFFER_STATES = """
state Buffer { }
state OpenBuffer case of Buffer {
    void close()[(1, OpenBuffer) >> (1, ClosedBuffer) this];
}
state ClosedBuffer case of Buffer {
    void open()[(1, ClosedBuffer) >> (1, OpenBuffer) this];
}
state ProducerConsumer {
    type SB : Pi(phi(p, c), Buffer);
    void open((1, SB(phi(p, q, p >= q), ClosedBuffer)) >> (1, SB(phi(p, q, p >= q), OpenBuffer)) buf)[] {
        buf.open();
    }
    void produce((1, SB(phi(p, q, p >= q), OpenBuffer)) >> (1, SB(phi(p + 1, q, p + 1 >= q), OpenBuffer)) buf)[] {
        buf <- (1, SB(phi(p + 1, q, p + 1 >= q), OpenBuffer));
    }
    void consume((1, SB(phi(p, q, p >= q), OpenBuffer)) >> (1, SB(phi(p, q + 1, p >= q + 1), OpenBuffer)) buf)[] {
        buf <- (1, SB(phi(p, q + 1, p >= q + 1), OpenBuffer));
    }
    void close((1, SB(phi(p, q, p >= q), OpenBuffer)) >> (1, SB(phi(p, q, p >= q), ClosedBuffer)) buf)[] {
        buf.close();
    }
}
"""

VIOLATING_MAIN = """
state Main {
    void main()[] {
        var (1, _) pc = new ProducerConsumer();
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        pc.open(buffer);
        pc.produce(buffer);
        pc.produce(buffer);
        match (buffer) {
            case OpenBuffer { pc.consume(buffer); pc.consume(buffer); pc.consume(buffer); }
            case ClosedBuffer { pc.produce(buffer); }
            default { pc.produce(buffer); }
        };
    }
}
"""

GOOD_MAIN = VIOLATING_MAIN.replace(
    "pc.consume(buffer); pc.consume(buffer); pc.consume(buffer);",
    "pc.consume(buffer); pc.consume(buffer);")


def check_source(src: str, strict: bool = False, audit: bool = False) -> Checker:
    return check_program(parse_program(src), strict_calls=strict, audit=audit)


def errors_of(checker: Checker) -> list:
    return [d for d in checker.diagnostics if d.severity == "error"]


# ---------------------------------------------------------------------------
# whole-program checking of the running example
# ---------------------------------------------------------------------------

def test_good_program_accepted():
    checker = check_source(BUFFER_STATES + GOOD_MAIN)
    assert errors_of(checker) == []


def test_violating_program_rejected_at_open_arm():
    checker = check_source(BUFFER_STATES + VIOLATING_MAIN)
    errs = errors_of(checker)
    assert len(errs) == 1
    err = errs[0]
    assert err.kind == "PostconditionUnsatisfiable"
    assert "consume" in err.message
    assert "p = 2, c = 3" in err.message
    assert "c <= p" in err.message
    # the failure sits inside the OpenBuffer arm, on the arm's line
    src = BUFFER_STATES + VIOLATING_MAIN
    arm_line = next(i for i, line in enumerate(src.splitlines(), start=1)
                    if "case OpenBuffer" in line)
    assert err.span.line == arm_line
    # and it is the third consume, not the first or second
    assert err.span.col > src.splitlines()[arm_line - 1].index("pc.consume(buffer); pc.consume(buffer);")


def test_prefix_projection_matches_known_counts():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        var (1, _) pc = new ProducerConsumer();
        pc.open(buffer);
        pc.produce(buffer);
        pc.produce(buffer);
        buffer;
    }
}
"""
    prog = parse_program(src)
    checker = check_program(prog)
    assert errors_of(checker) == []
    # replay main's body and look at the type of its final expression
    ctx = Ctx(checker.st, checker)
    main = checker.st.states["Main"].methods["main"]
    got = checker.infer(ctx, main.body)
    inst = got.inner
    assert inst.state == "OpenBuffer"
    proj = checker.inst_formula(ctx, inst)
    assert formula_equal(proj, parse_formula("p == 2 && c == 0 && p >= c"))


def test_produce_on_closed_buffer_rejected():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, _) pc = new ProducerConsumer();
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        pc.produce(buffer);
    }
}
"""
    checker = check_source(src)
    errs = errors_of(checker)
    assert len(errs) == 1
    assert errs[0].kind == "PreconditionViolation"
    assert "state ClosedBuffer is not OpenBuffer" in errs[0].message


def test_constant_leaves_phi_unchanged():
    checker = check_source(BUFFER_STATES + GOOD_MAIN)
    ctx = Ctx(checker.st, checker)
    before = ctx.phi
    result = checker.infer_expr(ctx, ast.IntLit(5))
    assert result.type == INT
    assert result.phi == before


# ---------------------------------------------------------------------------
# declaration checking
# ---------------------------------------------------------------------------

def test_produce_declaration_realizes_post():
    checker = check_source(BUFFER_STATES + "state Main { void main()[] { } }")
    assert errors_of(checker) == []


def test_identity_body_breaks_postcondition():
    src = (BUFFER_STATES + "state Main { void main()[] { } }").replace(
        "buf <- (1, SB(phi(p + 1, q, p + 1 >= q), OpenBuffer));", "buf;")
    checker = check_source(src)
    errs = errors_of(checker)
    assert any(e.kind == "BodyBreaksPostcondition" for e in errs)


def test_empty_state_ok():
    checker = check_source("state S { } state Main { void main()[] { } }")
    assert errors_of(checker) == []


def test_immutable_transition_rejected():
    src = """
state S { }
state T case of S { }
state M {
    void f((-1, S) >> (-1, T) x)[] { }
    void main()[] { }
}
"""
    checker = check_source(src)
    assert any(e.kind == "PermissionViolation" for e in errors_of(checker))


def test_val_binding_rejects_update():
    src = """
state S { }
state Main {
    void main()[] {
        val (1, S) x = new S();
        x <- new S();
    }
}
"""
    checker = check_source(src)
    assert any(e.kind == "PermissionViolation" for e in errors_of(checker))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def fixture_checker() -> Checker:
    checker = check_source(BUFFER_STATES + "state Main { void main()[] { } }")
    assert errors_of(checker) == []
    return checker


def test_family_formation_ok():
    checker = fixture_checker()
    fam = checker.st.states["ProducerConsumer"].families["SB"]
    check_family_formation(checker.st, fam)


def test_family_formation_unknown_state():
    fam = ast.TypeFamDecl("F", ("a",), "Nowhere")
    checker = fixture_checker()
    with pytest.raises(BrtsError) as err:
        check_family_formation(checker.st, fam)
    assert err.value.kind == "IllKindedFamily"


def test_literal_out_of_scope_variable():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        buffer <- (1, SB(phi(k, 0), ClosedBuffer));
    }
}
"""
    checker = check_source(src)
    errs = errors_of(checker)
    assert any(e.kind == "UnboundVariable" for e in errs)


def test_instantiate_family_weakest_and_out_of_family():
    checker = fixture_checker()
    fam = checker.st.states["ProducerConsumer"].families["SB"]
    ctx = Ctx(checker.st, checker)
    inst = instantiate_family(ctx, fam, (Const(0), Const(0)), TRUE, "OpenBuffer")
    assert inst.family == "SB" and inst.state == "OpenBuffer"
    weakest = instantiate_family(ctx, fam, (), TRUE, "Buffer")
    assert len(weakest.args) == 2
    with pytest.raises(BrtsError) as err:
        instantiate_family(ctx, fam, (Const(0), Const(0)), TRUE, "Main")
    assert err.value.kind == "StateOutOfFamily"


# ---------------------------------------------------------------------------
# subtype / type_equal
# ---------------------------------------------------------------------------

def test_subtype_state_hierarchy():
    checker = fixture_checker()
    ctx = Ctx(checker.st, checker)
    assert checker.subtype(ctx, StateRef("OpenBuffer"), StateRef("Buffer"))
    assert not checker.subtype(ctx, StateRef("Buffer"), StateRef("OpenBuffer"))


def test_subtype_requires_equal_permissions():
    checker = fixture_checker()
    ctx = Ctx(checker.st, checker)
    t = StateRef("Buffer")
    assert not checker.subtype(ctx, PermPair(1, t), PermPair(2, t))
    assert checker.subtype(ctx, PermPair(1, t), PermPair(1, t))


def _inst(formula: str, state: str) -> InstanceType:
    return InstanceType("SB", (Var("p"), Var("c")), parse_formula(formula), state)


def test_subtype_instances_by_entailment():
    checker = fixture_checker()
    ctx = Ctx(checker.st, checker)
    strong = _inst("p == 1 && c == 0", "OpenBuffer")
    weak = _inst("p >= c", "OpenBuffer")
    assert checker.subtype(ctx, strong, weak)
    assert not checker.subtype(ctx, weak, strong)


def test_type_equal_instances_semantically():
    checker = fixture_checker()
    ctx = Ctx(checker.st, checker)
    a = _inst("p >= c", "OpenBuffer")
    b = _inst("c <= p", "OpenBuffer")
    assert checker.type_equal(ctx, a, b)
    assert not checker.type_equal(ctx, _inst("p == 0", "OpenBuffer"),
                                  _inst("p >= 0", "OpenBuffer"))
    assert not checker.type_equal(ctx, _inst("p == 0", "OpenBuffer"),
                                  _inst("p == 0", "ClosedBuffer"))


def test_post_annotation_equals_substituted_pre():
    # the produce annotation: post formula == pre formula with p := p + 1
    checker = fixture_checker()
    ctx = Ctx(checker.st, checker)
    from brts.presburger import substitute
    pre = parse_formula("p >= q")
    post = parse_formula("p + 1 >= q")
    a = InstanceType("SB", (Var("x"),), post, "OpenBuffer")
    b = InstanceType("SB", (Var("x"),), substitute(pre, {"p": Var("p") + 1}), "OpenBuffer")
    assert checker.type_equal(ctx, a, b)


# ---------------------------------------------------------------------------
# match refinement
# ---------------------------------------------------------------------------

def test_match_dead_arm_warns_not_errors():
    checker = check_source(BUFFER_STATES + GOOD_MAIN)
    warnings = [d for d in checker.diagnostics if d.severity == "warning"]
    assert any(d.kind == "ContradictoryContext" and "ClosedBuffer" in d.message
               for d in warnings)


def test_match_arm_not_substate():
    src = BUFFER_STATES + """
state Elsewhere { }
state Main {
    void main()[] {
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        match (buffer) {
            case Elsewhere { }
        };
    }
}
"""
    checker = check_source(src)
    assert any(e.kind == "MatchArmNotSubstate" for e in errors_of(checker))


# ---------------------------------------------------------------------------
# strong update
# ---------------------------------------------------------------------------

def test_strong_update_replaces_binding():
    checker = fixture_checker()
    ctx = Ctx(checker.st, checker)
    src = """
state A { }
state B { }
state Main {
    void main()[] {
        var (1, A) x = new A();
        x <- new B();
        x;
    }
}
"""
    prog = parse_program(src)
    c2 = check_program(prog)
    assert errors_of(c2) == []


def test_update_target_must_be_mutable_binding():
    src = """
state A { }
state Main {
    void main()[] {
        let x = new A() in x <- new A();
    }
}
"""
    checker = check_source(src)
    assert any(e.kind == "PermissionViolation" for e in errors_of(checker))


# ---------------------------------------------------------------------------
# while loops
# ---------------------------------------------------------------------------

LOOP_STATES = """
state Cell { }
state Ops {
    type K : Pi(phi(n), Cell);
    void step((1, K(phi(n, n >= 0), Cell)) >> (1, K(phi(n + 1, n + 1 >= 0), Cell)) w)[] {
        w <- (1, K(phi(n + 1, n + 1 >= 0), Cell));
    }
    void reset((1, K(phi(n, n >= 0), Cell)) >> (1, K(phi(n - 1, n - 1 >= 0), Cell)) w)[] {
        w <- (1, K(phi(n - 1, n - 1 >= 0), Cell));
    }
}
"""


def test_while_invariant_accepted():
    src = LOOP_STATES + """
state Main {
    void main()[] {
        var (1, K(phi(0), Cell)) w = new Cell();
        var (1, _) ops = new Ops();
        var bool go = true;
        while [exists. n >= 0] (go) {
            ops.step(w);
            go <- false;
        };
    }
}
"""
    checker = check_source(src)
    assert errors_of(checker) == []


def test_while_invariant_not_established():
    src = LOOP_STATES + """
state Main {
    void main()[] {
        var (1, K(phi(0), Cell)) w = new Cell();
        var (1, _) ops = new Ops();
        var bool go = true;
        while [exists. n >= 1] (go) {
            ops.step(w);
        };
    }
}
"""
    checker = check_source(src)
    assert any(e.kind == "InvariantNotEstablished" for e in errors_of(checker))


def test_while_invariant_not_preserved():
    src = LOOP_STATES + """
state Main {
    void main()[] {
        var (1, K(phi(1, n == 1), Cell)) w = new Cell();
        var (1, _) ops = new Ops();
        var bool go = true;
        while [exists. n >= 1] (go) {
            ops.reset(w);
        };
    }
}
"""
    checker = check_source(src)
    assert any(e.kind == "InvariantNotPreserved" for e in errors_of(checker))


# ---------------------------------------------------------------------------
# reduction to arithmetic
# ---------------------------------------------------------------------------

def test_psi_int_valid():
    checker = fixture_checker()
    assert is_valid(reduce_to_paf(WfRel(INT), checker.st))


def test_psi_reflexive_subtype_valid():
    checker = fixture_checker()
    for ty in (INT, StateRef("Buffer"), _inst("p >= c", "OpenBuffer")):
        assert is_valid(reduce_to_paf(SubRel(ty, ty), checker.st))


def test_psi_violating_instance_subtype_invalid():
    checker = fixture_checker()
    bad = _inst("p == 2 && c == 3", "OpenBuffer")
    inv = _inst("p >= c", "OpenBuffer")
    assert not is_valid(reduce_to_paf(SubRel(bad, inv), checker.st))


def test_reduction_agrees_with_rule_based_checker():
    checker = check_source(BUFFER_STATES + GOOD_MAIN, audit=True)
    assert errors_of(checker) == []
    assert checker.query_log
    for q in checker.query_log:
        rel = SubRel(q.t1, q.t2) if q.kind == "subtype" else EqRel(q.t1, q.t2)
        assert is_valid(reduce_to_paf(rel, checker.st)) == q.result, q


def test_unsupported_relation_renders_with_its_code():
    checker = fixture_checker()
    with pytest.raises(BrtsError) as info:
        reduce_to_paf(object(), checker.st)
    assert info.value.kind == "UnsupportedRelation"
    assert "[BRTS025]" in info.value.diagnostic.render()


def test_strict_mode_agrees_on_running_example():
    lax = check_source(BUFFER_STATES + VIOLATING_MAIN)
    strict = check_source(BUFFER_STATES + VIOLATING_MAIN, strict=True)
    assert [d.kind for d in errors_of(lax)] == [d.kind for d in errors_of(strict)]
    lax_ok = check_source(BUFFER_STATES + GOOD_MAIN)
    strict_ok = check_source(BUFFER_STATES + GOOD_MAIN, strict=True)
    assert errors_of(lax_ok) == [] and errors_of(strict_ok) == []


# ---------------------------------------------------------------------------
# determinism and monotonicity
# ---------------------------------------------------------------------------

def test_checking_is_deterministic():
    one = check_source(BUFFER_STATES + VIOLATING_MAIN)
    two = check_source(BUFFER_STATES + VIOLATING_MAIN)
    assert [(d.kind, d.message, d.span) for d in one.diagnostics] == \
           [(d.kind, d.message, d.span) for d in two.diagnostics]


def test_phi_grows_monotonically_on_straight_line():
    src = BUFFER_STATES + """
state Main {
    void main()[] {
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        var (1, _) pc = new ProducerConsumer();
        pc.open(buffer);
        pc.produce(buffer);
    }
}
"""
    prog = parse_program(src)
    checker = check_program(prog)
    assert errors_of(checker) == []
    # every successive environment in the obligation log entails the previous
    phis = [o.phi_f for o in checker.obligations if o.rule == "mcall"]
    assert len(phis) >= 2
    for earlier, later in zip(phis, phis[1:]):
        assert entails(later, earlier)



# ---------------------------------------------------------------------------
# unreachable code and the opt-in query audit
# ---------------------------------------------------------------------------

# pre and post sides contradict each other, so the whole body is dead
SQUEEZE = """
    void squeeze((1, SB(phi(p, q, p >= q + 5), OpenBuffer)) >> (1, SB(phi(p, q, q >= p + 5), OpenBuffer)) buf)[] {
        this.produce(buf);
        this.consume(buf);
        match (buf) {
            case OpenBuffer { this.produce(buf); }
            default { this.consume(buf); }
        };
        this.produce(buf);
    }
"""


def test_contradictory_context_warned_once_per_span():
    anchor = "    void close((1, SB(phi(p, q, p >= q), OpenBuffer))"
    src = BUFFER_STATES.replace(anchor, SQUEEZE.lstrip("\n") + anchor) + """
state Main {
    void main()[] { }
}
"""
    checker = check_source(src)
    warned = [(d.span.line, d.span.col) for d in checker.diagnostics
              if d.kind == "ContradictoryContext"]
    assert all(d.kind == "ContradictoryContext" for d in checker.diagnostics)
    # the parameter, where pre and post meet, then every call's argument:
    # two before the match, one in each arm, one after the join
    expected = []
    for number, line in enumerate(src.splitlines(), start=1):
        if "void squeeze(" in line:
            expected.append((number, line.index("(") + 2))
        elif "this." in line:
            expected.append((number, line.index("(buf)") + 2))
    assert len(expected) == 6
    assert warned == expected


CORPUS_PROGRAMS = sorted((Path(__file__).parent.parent / "corpus").glob("*/*.brts"))


def _verdicts(checker: Checker) -> tuple:
    return ([d.render() for d in checker.diagnostics],
            [(o.span, o.rule, o.phi, o.goal, o.verdict, o.countermodel)
             for o in checker.obligations])


@pytest.mark.parametrize("path", CORPUS_PROGRAMS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_audit_changes_no_verdict(path):
    program = parse_program(path.read_text(), str(path))
    plain = check_program(program, str(path))
    audited = check_program(program, str(path), audit=True)
    assert _verdicts(plain) == _verdicts(audited)
    assert plain.query_log == []
    assert audited.query_log
