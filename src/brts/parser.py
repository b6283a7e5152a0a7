"""Concrete syntax: tokenizer and recursive-descent parser for .brts source.

The surface spellings for the mathematical notation are fixed here:
``Pi`` for the family former, ``phi(...)`` for formula literals (leading
plain terms are coordinate arguments, trailing comparisons are constraint
conjuncts), ``>>`` for transitions, ``->`` is reserved for function types,
``[exists v1, v2. F]`` for loop invariants, and ``//`` line comments.

A token is a plain tuple ``(kind, lexeme, start, end)``: `kind` is keyword,
ident, int, string, symbol or eof, `lexeme` its text (a string literal's
unescaped contents), and `start` and `end` the source offsets of its first
character and one past its last.  The parser builds a `Span` only for a
token it keeps the position of (in an AST node or an error), from a table
of the offsets at which the source's lines start, searched with `bisect`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from contextlib import contextmanager
from typing import Container, Iterator, NoReturn, Optional

from .diagnostics import BrtsError, Span
from .presburger import (
    Formula, Lin, conj, disj, eq, exists, ge, gt, implies, le, lt, ne, neg, TRUE, FALSE,
)
from . import syntax as ast

KEYWORDS = {
    "state", "case", "of", "var", "val", "void", "int", "bool", "string",
    "new", "let", "in", "match", "default", "while", "type", "exists",
    "true", "false",
}

# Stack frames that one level of nesting may take in the deepest walk over it
# (parser, checker, printer or interpreter): a prefix `-`, `k *` or `~` and
# the right side of `=>` take one, a parenthesised term, a link of a
# receiver chain and a state declared inside another two, a call or
# constructor argument and a `let ... in` body three, and a parenthesised
# formula, an `exists` body and a statement's block (a loop body, a match
# arm, a case body) four.  Deeper input is a located parse error, and the
# rest of the recursion limit is left to the frames outside the outermost
# state.
MAX_NESTING = 960


class NestingTooDeep(BrtsError):
    """Input nested past MAX_NESTING; backtracking does not retry it."""


SYMBOLS = [
    ">>", "->", "<-", "==", "!=", "<=", ">=", "&&", "||", "=>",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", ":", "=", "<", ">",
    "~", "+", "-", "*", "_",
]

Token = tuple[str, str, int, int]

# Spaces, newlines and comments are a prefix of every match, and one token
# class follows it, tried in this order; `error` matches any character no
# other class starts with, and the empty alternative matches at the end of
# the input.  An identifier starts with a letter, or with `_` followed by a
# word character; `[^\W\d_]` also admits numeric non-digits such as `²`,
# which tokenize rejects after the match.
TOKEN_RE = re.compile(r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*(?:" + "|".join([
    r"(?P<int>\d+)",
    r"(?P<word>(?:[^\W\d_]|_(?=\w))\w*'?)",
    r'(?P<string>"(?:[^"\\\n]|\\[\s\S])*")',
    "(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")",
    r"(?P<error>[\s\S])",
]) + r"|\Z)")
ESCAPE_RE = re.compile(r"\\([\s\S])")
ESCAPES = {"n": "\n", "t": "\t"}
NEWLINE_RE = re.compile("\n")

PRIM_TYPES = ("void", "int", "bool", "string")
COMPARISONS = {"==": eq, "!=": ne, "<=": le, ">=": ge, "<": lt, ">": gt}
# what may follow the left side of a comparison in a constraint
FORMULA_OPS = {*COMPARISONS, "&&", "||", "=>"}


def lex_error(source: str, offset: int, message: str) -> BrtsError:
    """A LexError at the character `offset`, located by counting lines."""
    col = offset - source.rfind("\n", 0, offset)
    return BrtsError("LexError", message, Span(source.count("\n", 0, offset) + 1, col))


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind is None:        # the end of the input
            break
        text = m[kind]
        end = m.end()
        start = end - len(text)
        if kind == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise lex_error(source, start, f"unexpected character {text[0]!r}")
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "string":
            text = text[1:-1]
            if "\\" in text:
                text = ESCAPE_RE.sub(lambda e: ESCAPES.get(e[1], e[1]), text)
        elif kind == "error":
            raise lex_error(source, start, "unterminated string literal" if text == '"'
                            else f"unexpected character {text!r}")
        append((kind, text, start, end))
    # a comment that ends the input leaves `eof` where it starts: at the
    # first `//` of the last line that follows the last token
    end = source.find("//", max(m.start(), source.rfind("\n") + 1))
    if end < 0:
        end = len(source)
    append(("eof", "", end, end))
    return tokens


class Parser:
    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.tokens = tokenize(source)
        # line-start offsets, and one int per line number for its spans to share
        self.lines = [0, *(m.end() for m in NEWLINE_RE.finditer(source))]
        self.numbers = list(range(len(self.lines) + 1))
        self.pos = 0
        self.filename = filename
        self.depth = 0          # frames held by enclosing nested expressions
        self.peak = 0           # the most frames held within the current chain

    # -- token plumbing ------------------------------------------------

    # The token list ends with `eof` and the parser never moves past it, so
    # the current position always indexes a token.

    def span(self, tok: Token) -> Span:
        """Where `tok`'s first and last characters are; a point for `eof`."""
        _, _, start, end = tok
        lines, numbers = self.lines, self.numbers
        line = bisect_right(lines, start)
        col = start - lines[line - 1] + 1
        if start == end:
            return Span(numbers[line], col)
        end_line = bisect_right(lines, end - 1, line)
        return Span(numbers[line], col, numbers[end_line], end - lines[end_line - 1])

    def at(self, lexeme: str) -> bool:
        """Whether the current token spells `lexeme`; only a string
        literal's lexeme can spell a keyword, a symbol or `phi` otherwise."""
        t = self.tokens[self.pos]
        return t[1] == lexeme and t[0] != "string"

    def accept(self, lexeme: str) -> bool:
        """Consume the current token if it spells `lexeme`."""
        if self.at(lexeme):
            self.pos += 1
            return True
        return False

    def at_any(self, lexemes: Container[str]) -> bool:
        t = self.tokens[self.pos]
        return t[1] in lexemes and t[0] != "string"

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def expect(self, lexeme: str) -> Token:
        t = self.tokens[self.pos]
        if t[1] != lexeme or t[0] == "string":
            self.fail(f"expected '{lexeme}'")
        self.pos += 1
        return t

    def ident(self) -> str:
        t = self.tokens[self.pos]
        if t[0] != "ident":
            self.fail("expected an identifier")
        self.pos += 1
        return t[1]

    def items(self, close: str) -> Iterator[None]:
        """Yield once per item of a comma-separated list that ends with
        `close`, then consume `close`."""
        while not self.at(close):
            yield
            if not self.at(close):
                self.expect(",")
        self.pos += 1

    def binders(self) -> list[str]:
        """The variables of `exists v1, v2.`, up to the dot."""
        names = []
        while self.tokens[self.pos][0] == "ident":
            names.append(self.tokens[self.pos][1])
            self.pos += 1
            self.accept(",")
        self.expect(".")
        return names

    def fail(self, message: str) -> NoReturn:
        t = self.tokens[self.pos]
        kind, got, start, end = t
        if kind == "eof":
            got = "end of input"
        elif kind == "string":
            got = self.source[start:end]     # as written, with its quotes
        raise BrtsError("ParseError", f"{message}, found '{got}'", self.span(t))

    @contextmanager
    def nested(self, frames: int) -> Iterator[None]:
        """Parse a nested expression that holds `frames` more frames."""
        if self.depth + frames > MAX_NESTING:
            raise self.too_deep()
        self.depth += frames
        self.peak = max(self.peak, self.depth)
        try:
            yield
        finally:
            self.depth -= frames

    def too_deep(self) -> NestingTooDeep:
        return NestingTooDeep("ParseError", "expression nested too deeply",
                              self.span(self.tokens[self.pos]))

    # -- program structure ---------------------------------------------

    def program(self) -> ast.Program:
        states = []
        while self.tokens[self.pos][0] != "eof":
            states.append(self.state_decl())
        return ast.Program(tuple(states), Span(1, 1))

    def state_decl(self) -> ast.StateDecl:
        start = self.span(self.expect("state"))
        name = self.ident()
        parent = None
        if self.accept("case"):
            self.expect("of")
            parent = self.ident()
        self.expect("{")
        decls: list[ast.Decl] = []
        while not self.at("}"):
            decls.append(self.member())
        self.pos += 1
        return ast.StateDecl(name, parent, tuple(decls), start)

    def member(self) -> ast.Decl:
        kind, lexeme, _, _ = self.tokens[self.pos]
        if kind == "keyword":
            if lexeme == "state":
                with self.nested(2):
                    return self.state_decl()
            if lexeme == "type":
                return self.typefam_decl()
            if lexeme == "var" or lexeme == "val":
                return self.field_decl()
        return self.method_decl()

    def typefam_decl(self) -> ast.TypeFamDecl:
        start = self.span(self.expect("type"))
        name = self.ident()
        for lexeme in (":", "Pi", "(", "phi", "("):
            self.expect(lexeme)
        coords = [self.ident()]
        while self.accept(","):
            coords.append(self.ident())
        self.expect(")")
        self.expect(",")
        bound = self.ident()
        self.expect(")")
        self.expect(";")
        return ast.TypeFamDecl(name, tuple(coords), bound, start)

    def field_decl(self) -> ast.FieldDecl:
        tok = self.advance()
        ty = self.type_()
        name = self.ident()
        init = self.expr() if self.accept("=") else None
        self.expect(";")
        return ast.FieldDecl(tok[1] == "var", ty, name, init, self.span(tok))

    def method_decl(self) -> ast.MethodDecl:
        start = self.span(self.tokens[self.pos])
        ret = self.type_()
        name = self.ident()
        self.expect("(")
        params = [self.param() for _ in self.items(")")]
        self.expect("[")
        env = [self.param() for _ in self.items("]")]
        body = None if self.accept(";") else self.block()
        return ast.MethodDecl(ret, name, tuple(params), tuple(env), body, start)

    def param(self) -> ast.Param:
        start = self.span(self.tokens[self.pos])
        pre = self.type_()
        self.expect(">>")
        post = self.type_()
        name = self.advance()
        if name[0] != "ident":
            self.fail("expected a parameter name")
        return ast.Param(name[1], ast.ChangeType(pre, post), start)

    # -- types -----------------------------------------------------------

    def type_(self) -> ast.Type:
        kind, lexeme, _, _ = self.tokens[self.pos]
        if kind == "keyword" and lexeme in PRIM_TYPES:
            self.pos += 1
            return ast.PrimType(lexeme)
        if kind == "ident":
            self.pos += 1
            if self.at("("):
                return self.instance_type(lexeme)
            return ast.StateRef(lexeme)
        if kind == "symbol":
            if lexeme == "_":
                self.pos += 1
                return ast.WildcardType()
            if lexeme == "(":
                self.pos += 1
                perm = self.permission()
                self.expect(",")
                inner = self.type_()
                self.expect(")")
                return ast.PermPair(perm, inner)
        self.fail("expected a type")

    def permission(self) -> int:
        negate = self.accept("-")
        tok = self.tokens[self.pos]
        if tok[0] != "int":
            self.fail("expected a permission (1, 2 or -1)")
        self.pos += 1
        value = -int(tok[1]) if negate else int(tok[1])
        if value not in (1, 2, -1):
            raise BrtsError("ParseError", f"invalid permission {value}", self.span(tok))
        return value

    def instance_type(self, family: str) -> ast.InstanceType:
        self.expect("(")
        args, constraint = self.formula_literal()
        self.expect(",")
        state = self.ident()
        self.expect(")")
        return ast.InstanceType(family, tuple(args), constraint, state)

    def formula_literal(self) -> tuple[list[Lin], Formula]:
        """phi(t1, .., tk, c1, .., cn): plain terms then constraint conjuncts."""
        self.expect("phi")
        self.expect("(")
        args: list[Lin] = []
        conjuncts: list[Formula] = []
        for _ in self.items(")"):
            kind, value = self.formula_element()
            if kind == "term":
                if conjuncts:
                    self.fail("coordinate arguments must precede constraints")
                args.append(value)
            else:
                conjuncts.append(value)
        constraint = conj(*conjuncts) if conjuncts else TRUE
        return args, constraint

    def formula_element(self) -> tuple[str, Lin | Formula]:
        if self.at_any(("true", "false", "~", "exists")):
            return "formula", self.formula()
        if not self.at("("):
            # one pass: the term is the left side of the first comparison
            t = self.term()
            if not self.at_any(FORMULA_OPS):
                return "term", t
            return "formula", self.formula(self.comparison(t))
        # `(` opens a term or a formula; a formula parse, which charges each
        # `(` four frames to a term's two, re-reads it to keep that bound
        save = self.pos
        try:
            t = self.term()
            if not self.at_any(FORMULA_OPS):
                return "term", t
        except BrtsError:
            pass            # `(n >= m)` is no term, but may be a formula
        self.pos = save
        return "formula", self.formula()

    # -- formulas ---------------------------------------------------------

    def formula(self, first: Optional[Formula] = None) -> Formula:
        """A formula; `first`, if given, is its first operand, already parsed."""
        f = self.formula_or(first)
        if self.accept("=>"):
            with self.nested(1):
                return implies(f, self.formula())
        return f

    def formula_or(self, first: Optional[Formula]) -> Formula:
        f = self.formula_and(first)
        while self.at_any(("||", "or")):
            self.pos += 1
            f = disj(f, self.formula_and(None))
        return f

    def formula_and(self, first: Optional[Formula]) -> Formula:
        f = self.formula_unary() if first is None else first
        while self.at_any(("&&", "and")):
            self.pos += 1
            f = conj(f, self.formula_unary())
        return f

    def formula_unary(self) -> Formula:
        kind, lexeme, _, _ = self.tokens[self.pos]
        if kind == "keyword":
            if lexeme == "exists":
                self.pos += 1
                names = self.binders()
                with self.nested(4):
                    body = self.formula()
                for v in reversed(names):
                    body = exists(v, body)
                return body
            if lexeme == "true" or lexeme == "false":
                self.pos += 1
                return TRUE if lexeme == "true" else FALSE
        elif kind == "symbol":
            if lexeme == "~":
                self.pos += 1
                with self.nested(1):
                    return neg(self.formula_unary())
            if lexeme == "(":
                save = self.pos
                self.pos += 1
                try:
                    with self.nested(4):
                        f = self.formula()
                    self.expect(")")
                    if not self.at_any(COMPARISONS):
                        return f
                    # a comparison of formulas: read `(` as opening a term
                except NestingTooDeep:
                    raise
                except BrtsError:
                    pass
                self.pos = save
        return self.comparison()

    def comparison(self, lhs: Optional[Lin] = None) -> Formula:
        """A comparison; `lhs`, if given, is its left side, already parsed."""
        t1 = self.term() if lhs is None else lhs
        kind, op, _, _ = self.tokens[self.pos]
        build = COMPARISONS.get(op) if kind == "symbol" else None
        if build is None:
            self.fail("expected a comparison operator")
        self.pos += 1
        return build(t1, self.term())

    def term(self) -> Lin:
        t = self.term_factor()
        while True:
            kind, op, _, _ = self.tokens[self.pos]
            if kind != "symbol" or op != "+" and op != "-":
                return t
            self.pos += 1
            rhs = self.term_factor()
            t = t.add(rhs) if op == "+" else t.sub(rhs)

    def term_factor(self) -> Lin:
        kind, lexeme, _, _ = self.tokens[self.pos]
        if kind == "ident":
            self.pos += 1
            return Lin.var(lexeme)
        if kind == "int":
            self.pos += 1
            value = int(lexeme)
            if self.accept("*"):
                with self.nested(1):
                    return self.term_factor().scale(value)
            return Lin.constant(value)
        if kind == "symbol":
            if lexeme == "-":
                self.pos += 1
                with self.nested(1):
                    return self.term_factor().scale(-1)
            if lexeme == "(":
                self.pos += 1
                with self.nested(2):
                    t = self.term()
                self.expect(")")
                return t
        self.fail("expected an arithmetic term")

    # -- statements and expressions ----------------------------------------

    def block(self) -> ast.Block:
        start = self.span(self.expect("{"))
        stmts = []
        while not self.at("}"):
            stmts.append(self.stmt())
            self.accept(";")
        self.pos += 1
        return ast.Block(tuple(stmts), start)

    def stmt(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind, lexeme, _, _ = tok
        if kind == "keyword":
            if lexeme == "let":
                return self.let_stmt()
            if lexeme == "var" or lexeme == "val":
                self.pos += 1
                declared = None
                after = self.tokens[min(self.pos + 1, len(self.tokens) - 1)]
                if not (self.tokens[self.pos][0] == "ident" and after[:2] == ("symbol", "=")):
                    declared = self.type_()
                name = self.ident()
                self.expect("=")
                init = self.expr()
                return ast.VarDecl(name, declared, init, lexeme == "var", self.span(tok))
            if lexeme == "while":
                return self.while_stmt()
            if lexeme == "match":
                return self.match_stmt()
            if lexeme == "case":
                self.pos += 1
                scrut = self.expr()
                with self.nested(4):
                    body = self.block()
                return ast.CaseExpr(scrut, body, self.span(tok))
        e = self.expr()
        if self.accept("<-"):
            return ast.Update(e, self.expr(), e.span)
        return e

    def let_stmt(self) -> ast.Expr:
        start = self.span(self.expect("let"))
        name = self.ident()
        fname = self.ident() if self.accept(".") else None
        self.expect("=")
        value = self.expr()
        self.expect("in")
        body = self._stmt_body()
        if fname is None:
            return ast.Let(name, value, body, start)
        return ast.FieldAssign(name, fname, value, body, start)

    def _stmt_body(self) -> ast.Expr:
        with self.nested(3):
            body = self.stmt()
        if isinstance(body, ast.VarDecl):
            raise BrtsError("ParseError",
                            "a var/val declaration needs trailing statements; "
                            "it cannot be the whole body of let .. in",
                            body.span)
        return body

    def while_stmt(self) -> ast.Expr:
        start = self.span(self.expect("while"))
        if not self.at("["):
            raise BrtsError(
                "ParseError",
                "while requires an invariant annotation: while [exists ... . F] (cond) { body }",
                self.span(self.tokens[self.pos]))
        self.pos += 1
        self.expect("exists")
        names = self.binders()
        invariant = self.formula()
        self.expect("]")
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        with self.nested(4):
            body = self.block()
        return ast.While(tuple(names), invariant, cond, body, start)

    def match_stmt(self) -> ast.Expr:
        start = self.span(self.expect("match"))
        self.expect("(")
        scrut = self.expr()
        scope = self.ident() if self.accept(":") else None
        self.expect(")")
        self.expect("{")
        arms: list[ast.MatchArm] = []
        default = None
        while not self.at("}"):
            if self.at("case"):
                aspan = self.span(self.advance())
                state = self.ident()
                with self.nested(4):
                    body = self.block()
                arms.append(ast.MatchArm(state, body, aspan))
            elif self.accept("default"):
                with self.nested(4):
                    default = self.block()
            else:
                self.fail("expected 'case' or 'default'")
            self.accept(";")
        self.pos += 1
        return ast.Match(scrut, scope, tuple(arms), default, start)

    def expr(self) -> ast.Expr:
        # a chain `a.f(x).g(y)` nests its first receiver deepest, two frames
        # a link, but its length is known only at its end; `reach` is how
        # deep the chain so far goes, counted from its last link
        outer, self.peak = self.peak, self.depth
        e = self.primary()
        reach = self.peak
        while self.at("."):
            reach += 2
            if reach > MAX_NESTING:
                raise self.too_deep()
            self.pos += 1
            name = self.tokens[self.pos]
            self.ident()
            if self.accept("("):
                self.peak = self.depth
                args = self.arguments()
                reach = max(reach, self.peak)
                e = ast.MethodCall(e, name[1], args, self.span(name))
            else:
                e = ast.FieldRef(e, name[1], self.span(name))
        self.peak = max(outer, reach)
        return e

    def arguments(self) -> tuple[ast.Expr, ...]:
        """Call or constructor arguments, up to the closing parenthesis."""
        args = []
        for _ in self.items(")"):
            with self.nested(3):
                args.append(self.expr())
        return tuple(args)

    def primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind, lexeme, _, _ = tok
        if kind == "ident":
            self.pos += 1
            return ast.VarRef(lexeme, self.span(tok))
        if kind == "int":
            self.pos += 1
            return ast.IntLit(int(lexeme), self.span(tok))
        if kind == "string":
            self.pos += 1
            return ast.StrLit(lexeme, self.span(tok))
        if kind == "keyword":
            if lexeme == "true" or lexeme == "false":
                self.pos += 1
                return ast.BoolLit(lexeme == "true", self.span(tok))
            if lexeme == "new":
                self.pos += 1
                state = self.ident()
                self.expect("(")
                if not self.at("phi"):
                    return ast.NewObj(state, None, self.arguments(), self.span(tok))
                args, constraint = self.formula_literal()
                self.expect(")")
                inst = ast.InstanceType(None, tuple(args), constraint, state)
                return ast.NewObj(state, inst, (), self.span(tok))
        elif kind == "symbol" and lexeme == "(":
            # (perm, FamilyOrState(...)) typestate literal
            self.pos += 1
            perm = self.permission()
            self.expect(",")
            ty = self.type_()
            self.expect(")")
            if isinstance(ty, ast.StateRef):
                ty = ast.InstanceType(None, (), TRUE, ty.name)
            if not isinstance(ty, ast.InstanceType):
                raise BrtsError("ParseError", "expected a typestate literal", self.span(tok))
            return ast.TypestateLit(perm, ty, self.span(tok))
        self.fail("expected an expression")


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    return Parser(source, filename).program()


def parse_formula(source: str) -> Formula:
    p = Parser(source)
    f = p.formula()
    if p.tokens[p.pos][0] != "eof":
        p.fail("trailing input after formula")
    return f


def parse_term(source: str) -> Lin:
    p = Parser(source)
    t = p.term()
    if p.tokens[p.pos][0] != "eof":
        p.fail("trailing input after term")
    return t
