"""The front end against the one it replaced (tests/parser_oracle.py): the
same tokens, spans and lex errors as the character-by-character scanner,
and the same ASTs, spans and errors as the parser over its tokens, except
where a string literal is concerned: the oracle reads a string literal
that spells a type, a comparison, a formula operator or `=` as that token,
and names the string it fails at without its quotes (`""` as the end of
the input), where the parser rejects the first and quotes the second."""

import functools
import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest

from brts import parser
from brts.diagnostics import BrtsError, Span
from brts.gen import synthesize_program
from brts.parser import MAX_NESTING, tokenize
from brts.printer import print_program

import parser_oracle
from parser_oracle import spanned

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"


def _perfbench_inputs():
    name = "perfbench_inputs"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "inputs.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def lexed(tokenizer, source: str):
    try:
        return tokenizer(source)
    except BrtsError as err:
        return ("error", err.kind, str(err), err.span)


def assert_same(source: str) -> None:
    assert lexed(spanned, source) == lexed(parser_oracle.tokenize, source), repr(source)


def parsed(parse, source: str):
    """What `parse` makes of `source`: the tree and its repr (a `Lin` prints
    its terms in the order the parser built them), or the error."""
    try:
        tree = parse(source)
    except BrtsError as err:
        return ("error", type(err).__name__, err.kind, str(err), err.span)
    return ("ok", tree, repr(tree))


# what the oracle reads a string literal as when its lexeme spells it
MISREAD = {*parser.PRIM_TYPES, *parser.FORMULA_OPS, "="}


def string_literal_case(source: str, want) -> bool:
    """Whether the oracle's outcome `want` may differ from the parser's
    because of a string literal: one in `source` spells what the oracle
    misreads it as, or the oracle fails at one."""
    strings = string_spans(source)
    return any(lexeme in MISREAD for lexeme in strings.values()) or (
        want[0] == "error" and want[4] in strings)


def string_spans(source: str) -> dict[Span, str]:
    """The span and lexeme of each string literal of `source`."""
    try:
        return {t.span: t.lexeme for t in spanned(source) if t.kind == "string"}
    except BrtsError:
        return {}


def assert_same_parse(source: str, *names: str) -> None:
    """The parser's outcome equals the oracle's; where a string literal may
    make them differ, it is instead a parse error located at a string
    literal of the source."""
    for name in names or ("parse_program", "parse_formula", "parse_term"):
        want = parsed(getattr(parser_oracle, name), source)
        got = parsed(getattr(parser, name), source)
        if got == want:
            continue
        assert string_literal_case(source, want), (name, source[:200], got, want)
        assert got[:3] == ("error", "BrtsError", "ParseError"), (name, source[:200], got)
        assert got[4] in string_spans(source), (name, source[:200], got)


def formula_pieces(source: str) -> list[str]:
    """Stretches of `source` that may be a term or a formula: the text
    between separators, and after a machine file's `:` or directive."""
    pieces = re.split(r"[,;{}\[\]]|\bphi\(|\bPi\(|^\w+ |:", source, flags=re.M)
    return [p.strip() for p in pieces if p.strip()]


SOURCES = sorted(CORPUS.glob("*/*.brts")) + sorted(CORPUS.glob("*/*.mca"))


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.brts")),
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_corpus_tokens_match_oracle(path):
    assert_same(path.read_text())


@functools.cache
def generated_sources() -> list[str]:
    rng = random.Random(31337)
    return [print_program(synthesize_program(rng, i)[0]) for i in range(1000)]


def test_generated_programs_tokens_match_oracle():
    for source in generated_sources():
        assert_same(source)


# every class the lexer tells apart, plus characters that sit between
# classes: numeric non-digits, non-ASCII letters and digits, escapes
SOUP = list("aZnt_'x09 \t\r\n\"\\/=<>-+*&|!~{}()[];,.:@#") + ["²", "é", "٣", "Ⅻ", "//"]


def test_random_character_soup_matches_oracle():
    rng = random.Random(2024)
    for _ in range(3000):
        assert_same("".join(rng.choice(SOUP) for _ in range(rng.randint(0, 12))))


@pytest.mark.parametrize("source, message, span", [
    ("var x = 1²;", "unexpected character '²'", Span(1, 10)),
    ("x = \"abc", "unterminated string literal", Span(1, 5)),
    ("\n  \"ab\ncd\"", "unterminated string literal", Span(2, 3)),
    ("\"ends in a backslash\\", "unterminated string literal", Span(1, 1)),
])
def test_lex_error_spans(source, message, span):
    with pytest.raises(BrtsError) as err:
        tokenize(source)
    assert (err.value.kind, str(err.value), err.value.span) == ("LexError", message, span)
    assert_same(source)


def test_identifier_edges():
    toks = tokenize("_x x' _ __ x_1' x²")
    assert [(kind, lexeme) for kind, lexeme, _, _ in toks] == [
        ("ident", "_x"), ("ident", "x'"), ("symbol", "_"), ("ident", "__"),
        ("ident", "x_1'"), ("ident", "x²"), ("eof", "")]
    assert_same("_x x' _ __ x_1' x²")


def test_tokens_are_offsets():
    assert tokenize('x  "a\\nb" // c') == [
        ("ident", "x", 0, 1), ("string", "a\nb", 3, 9), ("eof", "", 10, 10)]


def test_string_escapes_and_end_of_input_after_comment():
    toks = spanned('"a\\"b\\n\\t\\q" // done')
    assert toks[0] == ("string", 'a"b\n\tq', Span(1, 1, 1, 12))
    assert toks[1] == ("eof", "", Span(1, 14))
    assert_same('"a\\"b\\n\\t\\q" // done')


@pytest.mark.parametrize("source, span", [
    ("x // a // b", Span(1, 3)),
    ("// a // b", Span(1, 1)),
    ("x // a\n", Span(2, 1)),
    ("x // a\n// b // c", Span(2, 1)),
    ("x // a\n  ", Span(2, 3)),
    ('"//" // c', Span(1, 6)),
    ('x "a\\\n"', Span(2, 2)),
    ('x "a\\\n" // c', Span(2, 3)),
    ("", Span(1, 1)),
])
def test_eof_span(source, span):
    assert spanned(source)[-1] == ("eof", "", span)
    assert_same(source)


def test_character_classes_agree_with_str_methods():
    # the pattern relies on \w being isalnum() or "_" and \d being isdecimal()
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\w", text)) == {c for c in text if c.isalnum() or c == "_"}
    assert set(re.findall(r"\d", text)) == {c for c in text if c.isdecimal()}


def test_escaped_newline_in_a_string_moves_later_tokens_down():
    source = 'state Main {\n    void main()[] {\n        var s = "a\\\n";\n        y;\n    }\n}\n'
    y = next(t for t in spanned(source) if t.lexeme == "y")
    assert y.span == Span(5, 9, 5, 9)
    assert_same(source)


def test_escaped_newline_in_a_string_ends_its_span_at_the_closing_quote():
    source = 'state Main {\n  void main()[] {\n    var s = "a\\\nbc";\n    y;\n  }\n}\n'
    s = next(t for t in spanned(source) if t.kind == "string")
    assert (s.lexeme, s.span) == ("a\nbc", Span(3, 13, 4, 3))
    assert_same(source)


# ---------------------------------------------------------------------------
# ASTs, spans and parse errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_corpus_parses_match_oracle(path):
    source = path.read_text()
    assert_same_parse(source)
    for piece in formula_pieces(source):
        assert_same_parse(piece, "parse_formula", "parse_term")


def test_generated_programs_parse_like_oracle():
    for source in generated_sources():
        assert_same_parse(source, "parse_program")


@pytest.mark.parametrize("seed", [7, 11, 301])
def test_benchmark_programs_parse_like_oracle(seed):
    inputs = _perfbench_inputs()
    accepted, twins = inputs.random_programs(seed)
    programs = accepted + twins + (inputs.series() if seed == 7 else [])
    for p in programs:
        assert_same_parse(p.source, "parse_program")
        for piece in formula_pieces(p.source):
            assert_same_parse(piece, "parse_formula", "parse_term")


def test_random_character_soup_parses_like_oracle():
    rng = random.Random(2025)
    alphabet = SOUP + ["phi(", "state", "S", "{", "}", ">=", "exists", "true", "1", "x"]
    for _ in range(3000):
        assert_same_parse("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14))))


def test_spliced_program_fragments_parse_like_oracle():
    # corpus lines spliced at random: mostly near-misses of real programs
    lines = [l for p in sorted(CORPUS.glob("*/*.brts")) for l in p.read_text().splitlines()]
    rng = random.Random(99)
    for _ in range(600):
        assert_same_parse("\n".join(rng.choice(lines) for _ in range(rng.randint(1, 8))))


MAIN = ("state A { }\nstate S { type F : Pi(phi(n), A); }\nstate Main {\n"
        "    void main()[] {\n        var (1, _) a = new A();\n        STMT;\n    }\n}\n")


def in_main(stmt: str) -> str:
    return MAIN.replace("STMT", stmt)


# Each nesting form, as the text that nests it n deep and where it goes.
NESTINGS = {
    "negations": (lambda n: "- " * n + "0", "term"),
    "scales": (lambda n: "1 * " * n + "0", "term"),
    "term-parens": (lambda n: "(" * n + "0" + ")" * n, "term"),
    "term-parens-left-of-comparison": (lambda n: "(" * n + "0" + ")" * n + " >= 0", "formula"),
    "term-parens-right-of-comparison": (lambda n: "0 >= " + "(" * n + "0" + ")" * n, "formula"),
    "formula-parens": (lambda n: "(" * n + "0 >= 0" + ")" * n, "formula"),
    "nots": (lambda n: "~ " * n + "0 >= 0", "formula"),
    "implications": (lambda n: "0 >= 0 => " * n + "0 >= 0", "formula"),
    "exists": (lambda n: "exists a. " * n + "a >= 0", "formula"),
    "fields": (lambda n: "a" + ".k" * n, "stmt"),
    "methods": (lambda n: "a" + ".f(1)" * n, "stmt"),
    "arguments": (lambda n: "a.f(" * n + "1" + ")" * n, "stmt"),
    "constructors": (lambda n: "new A(" * n + "1" + ")" * n, "stmt"),
    "lets": (lambda n: "let x = 1 in " * n + "x", "stmt"),
    "cases": (lambda n: "case a { " * n + "1" + " }" * n, "stmt"),
    "matches": (lambda n: "match (a) { case A { " * n + "1" + " } }" * n, "stmt"),
    "defaults": (lambda n: "match (a) { default { " * n + "1" + " } }" * n, "stmt"),
    "loops": (lambda n: "while [exists. true] (false) { " * n + "1" + " }" * n, "stmt"),
    "states": (lambda n: "state S { " * n + "}" * n, "program"),
}

# the parse functions each kind of text goes through, and how it is placed
CONTEXTS = {
    "term": [("parse_term", str),
             ("parse_program", lambda t: in_main(f"var (1, F(phi({t}), A)) v = new A()"))],
    "formula": [("parse_formula", str),
                ("parse_program", lambda t: in_main(f"var (1, F(phi(n, {t}), A)) v = new A()")),
                ("parse_program", lambda t: in_main(f"var (1, F(phi({t}), A)) v = new A()"))],
    "stmt": [("parse_program", in_main)],
    "program": [("parse_program", str)],
}


@pytest.fixture
def deep_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("form", NESTINGS)
def test_nesting_at_and_past_the_bound_parses_like_oracle(form, deep_recursion):
    shape, where = NESTINGS[form]
    for name, place in CONTEXTS[where]:
        def too_deep(n: int) -> bool:
            return parsed(getattr(parser_oracle, name), place(shape(n)))[1] == "NestingTooDeep"

        # every level holds a frame, so MAX_NESTING + 1 levels are too deep;
        # find the deepest nesting the oracle takes
        lo, hi = 0, MAX_NESTING + 1
        assert too_deep(hi) and not too_deep(lo)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if too_deep(mid) else (mid, hi)
        for n in range(lo - 1, lo + 3):
            assert_same_parse(place(shape(n)), name)
