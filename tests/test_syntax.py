import pytest

from brts.diagnostics import BrtsError
from brts.parser import parse_program
from brts.presburger import formula_equal, ge, Var
from brts import syntax as ast
from brts.syntax import find_method_decl, state_table


FIG_STYLE = """
state Buffer { }
state OB case of Buffer {
    void close()[(1, OB) >> (1, CB) this];
}
state CB case of Buffer {
    void open()[(1, CB) >> (1, OB) this];
}
state ProducerConsumer {
    type SB : Pi(phi(p, c), Buffer);
    void produce((1, SB(phi(p, q, p >= q), OB)) >> (1, SB(phi(p + 1, q, p + 1 >= q), OB)) buf)[] {
        buf <- (1, SB(phi(p + 1, q, p + 1 >= q), OB));
    }
}
state Main {
    void main()[] { new ProducerConsumer(); }
}
"""


def test_state_table_contains_declared_states():
    st = state_table(parse_program(FIG_STYLE))
    for name in ("Buffer", "OB", "CB", "ProducerConsumer", "Main"):
        assert name in st
    assert st.main_state == "Main"
    assert st.states["ProducerConsumer"].families["SB"].coord_vars == ("p", "c")


def test_state_table_empty_program_no_main():
    with pytest.raises(BrtsError) as err:
        state_table(parse_program(""))
    assert err.value.kind == "NoMainState"


def test_state_table_two_cycle():
    src = "state A case of B {} state B case of A {} state M { void main()[] { } }"
    with pytest.raises(BrtsError) as err:
        state_table(parse_program(src))
    assert err.value.kind == "CyclicStateHierarchy"


def test_state_table_duplicate_state():
    src = "state A {} state A {} state M { void main()[] { } }"
    with pytest.raises(BrtsError) as err:
        state_table(parse_program(src))
    assert err.value.kind == "DuplicateState"


def test_state_table_unknown_parent():
    src = "state A case of Nowhere {} state M { void main()[] { } }"
    with pytest.raises(BrtsError) as err:
        state_table(parse_program(src))
    assert err.value.kind == "UnknownParent"


def test_substate_relation():
    st = state_table(parse_program(FIG_STYLE))
    assert st.is_substate("OB", "Buffer")
    assert st.is_substate("OB", "OB")
    assert not st.is_substate("Buffer", "OB")
    assert not st.is_substate("OB", "CB")


def test_find_method_decl_produce():
    st = state_table(parse_program(FIG_STYLE))
    defined_in, decl = find_method_decl(st, "produce", "ProducerConsumer")
    assert defined_in == "ProducerConsumer"
    assert decl.ret == ast.VOID
    param, = decl.params
    assert param.name == "buf"
    pre, post = param.change.pre.inner, param.change.post.inner
    assert pre.state == "OB" and post.state == "OB"
    assert formula_equal(pre.constraint, ge(Var("p"), Var("q")))


def test_find_method_decl_via_declaring_state():
    st = state_table(parse_program(FIG_STYLE))
    defined_in, _ = find_method_decl(st, "open", "CB")
    assert defined_in == "CB"
    # and it resolves on substates through the chain
    st2 = state_table(parse_program(FIG_STYLE + "\nstate CBX case of CB { }"))
    assert find_method_decl(st2, "open", "CBX")[0] == "CB"


def test_find_method_decl_missing():
    st = state_table(parse_program(FIG_STYLE))
    with pytest.raises(BrtsError) as err:
        find_method_decl(st, "frobnicate", "Buffer")
    assert err.value.kind == "NoSuchMethod"
    assert str(err.value) == "state 'Buffer' has no method 'frobnicate'"


def test_state_table_order_independent():
    prog = parse_program(FIG_STYLE)
    reordered = ast.Program(tuple(reversed(prog.states)), prog.span)
    st1 = state_table(prog)
    st2 = state_table(reordered)
    assert sorted(st1.states) == sorted(st2.states)
    assert st1.main_state == st2.main_state
