"""The one-pattern lexer against the character-by-character tokenizer it
replaced (tests/parser_oracle.py): the same tokens, spans and lex errors."""

import random
import re
import sys
from pathlib import Path

import pytest

from brts.diagnostics import BrtsError, Span
from brts.gen import synthesize_program
from brts.parser import tokenize
from brts.printer import print_program

import parser_oracle

CORPUS = Path(__file__).parent.parent / "corpus"


def lexed(tokenizer, source: str):
    try:
        return tokenizer(source)
    except BrtsError as err:
        return ("error", err.kind, str(err), err.span)


def assert_same(source: str) -> None:
    assert lexed(tokenize, source) == lexed(parser_oracle.tokenize, source), repr(source)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.brts")),
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_corpus_tokens_match_oracle(path):
    assert_same(path.read_text())


def test_generated_programs_tokens_match_oracle():
    rng = random.Random(31337)
    for i in range(1000):
        program, _ = synthesize_program(rng, i)
        assert_same(print_program(program))


def test_random_character_soup_matches_oracle():
    # every class the lexer tells apart, plus characters that sit between
    # classes: numeric non-digits, non-ASCII letters and digits, escapes
    alphabet = list("aZnt_'x09 \t\r\n\"\\/=<>-+*&|!~{}()[];,.:@#") + ["²", "é", "٣", "Ⅻ", "//"]
    rng = random.Random(2024)
    for _ in range(3000):
        assert_same("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))))


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
    assert [(t.kind, t.lexeme) for t in toks] == [
        ("ident", "_x"), ("ident", "x'"), ("symbol", "_"), ("ident", "__"),
        ("ident", "x_1'"), ("ident", "x²"), ("eof", "")]
    assert_same("_x x' _ __ x_1' x²")


def test_string_escapes_and_end_of_input_after_comment():
    toks = tokenize('"a\\"b\\n\\t\\q" // done')
    assert toks[0] == ("string", 'a"b\n\tq', Span(1, 1, 1, 12))
    assert toks[1] == ("eof", "", Span(1, 14))
    assert_same('"a\\"b\\n\\t\\q" // done')


def test_character_classes_agree_with_str_methods():
    # the pattern relies on \w being isalnum() or "_" and \d being isdecimal()
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\w", text)) == {c for c in text if c.isalnum() or c == "_"}
    assert set(re.findall(r"\d", text)) == {c for c in text if c.isdecimal()}


def test_escaped_newline_in_a_string_moves_later_tokens_down():
    source = 'state Main {\n    void main()[] {\n        var s = "a\\\n";\n        y;\n    }\n}\n'
    y = next(t for t in tokenize(source) if t.lexeme == "y")
    assert y.span == Span(5, 9, 5, 9)
    assert_same(source)


def test_escaped_newline_in_a_string_ends_its_span_at_the_closing_quote():
    source = 'state Main {\n  void main()[] {\n    var s = "a\\\nbc";\n    y;\n  }\n}\n'
    s = next(t for t in tokenize(source) if t.kind == "string")
    assert (s.lexeme, s.span) == ("a\nbc", Span(3, 13, 4, 3))
    assert_same(source)
