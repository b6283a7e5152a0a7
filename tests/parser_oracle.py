"""The tokenizer as it was before the one-pattern lexer: a character-by-
character scanner that tries each entry of SYMBOLS with str.startswith.

tests/test_parser_reference.py compares brts.parser.tokenize against it
token for token, spans and lex errors included.
"""

from __future__ import annotations

from brts.diagnostics import BrtsError, Span
from brts.parser import KEYWORDS, SYMBOLS, Token


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start = Span(line, col)
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(Token("int", source[i:j], Span(line, col, line, col + (j - i) - 1)))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_" and i + 1 < n and (source[i + 1].isalnum() or source[i + 1] == "_"):
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            if j < n and source[j] == "'":
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, Span(line, col, line, col + (j - i) - 1)))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise BrtsError("LexError", "unterminated string literal", start)
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise BrtsError("LexError", "unterminated string literal", start)
            literal = source[i:j + 1]
            if "\n" in literal:    # escaped newlines: the literal ends lower
                line += literal.count("\n")
                col = len(literal) - literal.rindex("\n")
            else:
                col += j - i + 1
            tokens.append(Token("string", "".join(buf), Span(start.line, start.col, line, col - 1)))
            i = j + 1
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("symbol", sym, Span(line, col, line, col + len(sym) - 1)))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise BrtsError("LexError", f"unexpected character {ch!r}", start)
    tokens.append(Token("eof", "", Span(line, col)))
    return tokens
