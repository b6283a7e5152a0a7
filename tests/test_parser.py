from pathlib import Path

import pytest

from brts.diagnostics import BrtsError
from brts.parser import parse_formula, parse_program, parse_term, tokenize
from brts.presburger import (
    Const, Var, conj, eq, exists, formula_equal, ge, is_valid, substitute,
    evaluate, eliminate_quantifiers, TRUE,
)
from brts.printer import print_program, strip_spans
from brts import syntax as ast

from parser_oracle import spanned

PRODCONS_SNIPPET = """
state Buffer { }
state OpenBuffer case of Buffer { }
state ClosedBuffer case of Buffer { }
state ProducerConsumer {
    type SB : Pi(phi(p, c), Buffer);
    void produce((1, SB(phi(p, q, p >= q), OpenBuffer)) >> (1, SB(phi(p + 1, q, p + 1 >= q), OpenBuffer)) buf)[] {
        buf <- (1, SB(phi(p + 1, q, p + 1 >= q), OpenBuffer));
    }
}
state Main {
    void main()[] {
        var (1, _) pc = new ProducerConsumer();
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        pc.produce(buffer);
        match (buffer) {
            case OpenBuffer { pc.produce(buffer); }
            default { }
        };
    }
}
"""


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_state_header():
    toks = tokenize("state Buffer {")
    kinds = [(kind, lexeme) for kind, lexeme, _, _ in toks[:3]]
    assert kinds == [("keyword", "state"), ("ident", "Buffer"), ("symbol", "{")]


def test_tokenize_empty():
    assert tokenize("") == [("eof", "", 0, 0)]


def test_tokenize_lex_error_offset_zero():
    with pytest.raises(BrtsError) as err:
        tokenize("@@@")
    assert err.value.kind == "LexError"
    assert (err.value.span.line, err.value.span.col) == (1, 1)


def test_tokenize_spans_line_col():
    toks = spanned("state A {\n  var int x;\n}")
    var_tok = next(t for t in toks if t.lexeme == "var")
    assert (var_tok.span.line, var_tok.span.col) == (2, 3)


def test_tokenize_comments_skipped():
    toks = tokenize("// hello\nstate")
    assert toks[0][:2] == ("keyword", "state")


# ---------------------------------------------------------------------------
# parse_program
# ---------------------------------------------------------------------------

def test_parse_empty_state():
    prog = parse_program("state S case of T {}")
    assert len(prog.states) == 1
    st = prog.states[0]
    assert st.name == "S" and st.parent == "T" and st.decls == ()


def test_parse_prodcons_produce_is_change_type():
    prog = parse_program(PRODCONS_SNIPPET)
    pc = next(s for s in prog.states if s.name == "ProducerConsumer")
    produce = next(d for d in pc.decls if isinstance(d, ast.MethodDecl))
    assert produce.name == "produce"
    change = produce.params[0].change
    assert isinstance(change, ast.ChangeType)
    pre = change.pre
    assert isinstance(pre, ast.PermPair) and pre.perm == 1
    inst = pre.inner
    assert isinstance(inst, ast.InstanceType)
    assert inst.family == "SB" and inst.state == "OpenBuffer"
    assert [str(a) for a in inst.args] == [str(Var("p")), str(Var("q"))]
    assert formula_equal(inst.constraint, ge(Var("p"), Var("q")))
    # post side advances the produced count
    post_inst = change.post.inner
    assert formula_equal(post_inst.constraint, ge(Var("p") + 1, Var("q")))


def test_parse_while_without_invariant_rejected():
    src = """
    state Main {
        void main()[] {
            while (b) { }
        }
    }
    """
    with pytest.raises(BrtsError) as err:
        parse_program(src)
    assert err.value.kind == "ParseError"
    assert "invariant" in str(err.value)


def test_parse_while_with_invariant():
    src = """
    state Main {
        void main()[] {
            val bool go = false;
            while [exists. p >= q] (go) { };
        }
    }
    """
    prog = parse_program(src)
    main = prog.states[0].decls[0]
    decl, loop = main.body.stmts
    assert isinstance(decl, ast.VarDecl) and not decl.mutable
    assert isinstance(loop, ast.While)
    assert formula_equal(loop.invariant, ge(Var("p"), Var("q")))


def test_parse_wildcard_and_dependent_new():
    prog = parse_program(PRODCONS_SNIPPET)
    main = next(s for s in prog.states if s.name == "Main")
    pc, buffer = main.decls[0].body.stmts[:2]
    assert isinstance(pc, ast.VarDecl)
    assert isinstance(pc.declared, ast.PermPair)
    assert isinstance(pc.declared.inner, ast.WildcardType)
    assert isinstance(buffer, ast.VarDecl)
    inst = buffer.declared.inner
    assert inst.family == "SB"
    assert [str(a) for a in inst.args] == [str(Const(0)), str(Const(0))]


def test_parse_match_default_and_update():
    prog = parse_program(PRODCONS_SNIPPET)
    main = next(s for s in prog.states if s.name == "Main")
    node = next(s for s in main.decls[0].body.stmts if isinstance(s, ast.Match))
    assert node.arms[0].state == "OpenBuffer"
    assert node.default is not None


def test_parse_error_reports_span():
    with pytest.raises(BrtsError) as err:
        parse_program("state S {\n  var int;\n}")
    assert err.value.kind == "ParseError"
    assert err.value.span.line == 2


# ---------------------------------------------------------------------------
# parse_formula
# ---------------------------------------------------------------------------

def test_parse_formula_ge():
    f = parse_formula("p >= q")
    assert formula_equal(f, ge(Var("p"), Var("q")))


def test_parse_formula_true():
    assert parse_formula("true") == TRUE


def test_parse_formula_exists_even():
    f = parse_formula("exists v. v + v == n")
    out = eliminate_quantifiers(f)
    for n in range(-6, 7):
        assert evaluate(out, {"n": n}) == (n % 2 == 0)


def test_parse_formula_precedence():
    f = parse_formula("~ p == 0 && q == 0 || r == 1")
    expected = (~eq(Var("p"), Const(0)) & eq(Var("q"), Const(0))) | eq(Var("r"), Const(1))
    assert formula_equal(f, expected)


def test_parse_formula_word_connectives():
    f = parse_formula("p == 0 and q == 0 or p == 1")
    g = parse_formula("p == 0 && q == 0 || p == 1")
    assert formula_equal(f, g)


def test_parse_formula_implication_sugar():
    f = parse_formula("p == 2 && c == 1 => p >= c")
    assert is_valid(f)


def test_parse_term_scalar_multiple():
    t = parse_term("2 * x + y - 3")
    from brts.presburger import Lin
    assert t == Lin({"x": 2, "y": 1}, -3)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_round_trip_prodcons():
    prog = parse_program(PRODCONS_SNIPPET)
    text = print_program(prog)
    again = parse_program(text)
    assert strip_spans(again) == strip_spans(prog)
    # printing is stable
    assert print_program(again) == text


def _fmt_round_trip(source: str) -> None:
    program = parse_program(source)
    assert strip_spans(parse_program(print_program(program))) == strip_spans(program)


def test_round_trip_canonicalises_coordinates():
    # fmt prints `phi(1 + n)` as `n + 1` and `phi(2 * (3 + 1))` as `8`
    _fmt_round_trip("state Box { }\nstate Ops {\n    type B : Pi(phi(n), Box);\n"
                    "    void f((1, B(phi(1 + n), Box)) >> (1, B(phi(2 * (3 + 1)), Box)) w)[];\n"
                    "}\nstate Main { void main()[] { 1; } }\n")


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "corpus").glob("*/*.brts")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_round_trip_corpus(path):
    _fmt_round_trip(path.read_text())


def test_round_trip_bodyless_method_and_fields():
    src = """
state Counter {
    val int limit = 3;
    var string label;
    void bump((1, Counter) >> (1, Counter) it)[];
    int read()[] { 5; }
}
state Main { void main()[] { let x = 1 in x; } }
"""
    prog = parse_program(src)
    text = print_program(prog)
    assert strip_spans(parse_program(text)) == strip_spans(prog)


# ---------------------------------------------------------------------------
# string literals stand only for strings
# ---------------------------------------------------------------------------

BOX = "state Box { }\nstate Ops { type B : Pi(phi(n), Box); }\n"


def _in_main(stmt: str) -> str:
    return BOX + "state Main {\n    void main()[] {\n        " + stmt + "\n    }\n}\n"


@pytest.mark.parametrize("source, message, line, col", [
    (_in_main('var "int" x = 1;'), "expected a type, found '\"int\"'", 5, 13),
    ("state S { var \"int\" x; }", "expected a type, found '\"int\"'", 1, 15),
    (_in_main('var x "=" 1;'), "expected an identifier, found '\"=\"'", 5, 15),
    (_in_main('var (1, B(phi(0, 0 "<=" 1), Box)) w = new Box();'),
     "expected ',', found '\"<=\"'", 5, 28),
    (_in_main('var (1, B(phi(0, (0) "<=" 1), Box)) w = new Box();'),
     "expected ',', found '\"<=\"'", 5, 30),
    (_in_main('var (1, B(phi(0, 0 >= 0 "&&" 1 >= 0), Box)) w = new Box();'),
     "expected ',', found '\"&&\"'", 5, 33),
])
def test_string_literal_is_not_a_type_operator_or_equals(source, message, line, col):
    with pytest.raises(BrtsError) as err:
        parse_program(source)
    assert err.value.kind == "ParseError"
    assert str(err.value) == message
    assert (err.value.span.line, err.value.span.col) == (line, col)


@pytest.mark.parametrize("source, message", [
    ('(0 >= 1) "==" 1', "trailing input after formula, found '\"==\"'"),
    ('x "<" 1', "expected a comparison operator, found '\"<\"'"),
])
def test_string_literal_is_not_a_comparison_in_a_formula(source, message):
    with pytest.raises(BrtsError) as err:
        parse_formula(source)
    assert str(err.value) == message


@pytest.mark.parametrize("source, found", [
    ('state S { "" }', '""'),
    ('state S { "a\\"b\\n" }', '"a\\"b\\n"'),
    ("state S {", "end of input"),
    ("state S { // the end", "end of input"),
])
def test_parse_error_names_a_string_with_its_quotes(source, found):
    with pytest.raises(BrtsError) as err:
        parse_program(source)
    assert str(err.value) == f"expected a type, found '{found}'"
