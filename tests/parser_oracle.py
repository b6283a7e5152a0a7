"""The front end as it was before offset-only tokens: a character-by-
character scanner that tries each entry of SYMBOLS with str.startswith and
gives every token its Span, and the recursive-descent parser over those
tokens, which asks `at` once for each alternative it tries and parses a
constraint that opens a `phi(...)` twice, once as a term and then as a
formula.

tests/test_parser_reference.py compares brts.parser against it: tokens and
spans through `spanned`, and the ASTs, spans and errors of parse_program,
parse_formula and parse_term.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional

from brts import parser, syntax as ast
from brts.diagnostics import BrtsError, Span
from brts.parser import KEYWORDS, MAX_NESTING, SYMBOLS, NestingTooDeep
from brts.presburger import (
    Formula, Lin, conj, disj, eq, exists, ge, gt, implies, le, lt, ne, neg, TRUE, FALSE,
)


class Token(NamedTuple):
    kind: str       # keyword | ident | int | string | symbol | eof
    lexeme: str
    span: Span


def spanned(source: str) -> list[Token]:
    """brts.parser.tokenize(source) with the parser's line table turning
    each token's offsets into a Span, as `tokenize` below gives them."""
    p = parser.Parser(source)
    return [Token(tok[0], tok[1], p.span(tok)) for tok in p.tokens]


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


class Parser:
    def __init__(self, tokens: list[Token], filename: str = "<input>"):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.depth = 0          # frames held by enclosing nested expressions
        self.peak = 0           # the most frames held within the current chain

    # -- token plumbing ------------------------------------------------

    # the token list ends with `eof` and `advance` never moves past it, so
    # the current position always indexes a token
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, lexeme: str) -> bool:
        t = self.tokens[self.pos]
        return t.lexeme == lexeme and t.kind in ("keyword", "symbol")

    def at_ident(self, name: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == "ident" and (name is None or t.lexeme == name)

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, lexeme: str) -> Token:
        if not self.at(lexeme):
            self.fail(f"expected '{lexeme}'")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.peek().kind != "ident":
            self.fail("expected an identifier")
        return self.advance()

    def fail(self, message: str) -> None:
        t = self.peek()
        got = t.lexeme or "end of input"
        raise BrtsError("ParseError", f"{message}, found '{got}'", t.span)

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
                              self.peek().span)

    # -- program structure ---------------------------------------------

    def program(self) -> ast.Program:
        states = []
        while not self.peek().kind == "eof":
            if not self.at("state"):
                self.fail("expected 'state'")
            states.append(self.state_decl())
        return ast.Program(tuple(states), Span(1, 1))

    def state_decl(self) -> ast.StateDecl:
        start = self.expect("state").span
        name = self.expect_ident().lexeme
        parent = None
        if self.at("case"):
            self.advance()
            self.expect("of")
            parent = self.expect_ident().lexeme
        self.expect("{")
        decls: list[ast.Decl] = []
        while not self.at("}"):
            decls.append(self.member())
        self.expect("}")
        return ast.StateDecl(name, parent, tuple(decls), start)

    def member(self) -> ast.Decl:
        if self.at("state"):
            with self.nested(2):
                return self.state_decl()
        if self.at("type"):
            return self.typefam_decl()
        if self.at("var") or self.at("val"):
            return self.field_decl()
        return self.method_decl()

    def typefam_decl(self) -> ast.TypeFamDecl:
        start = self.expect("type").span
        name = self.expect_ident().lexeme
        self.expect(":")
        if not self.at_ident("Pi"):
            self.fail("expected 'Pi'")
        self.advance()
        self.expect("(")
        if not self.at_ident("phi"):
            self.fail("expected 'phi'")
        self.advance()
        self.expect("(")
        coords = [self.expect_ident().lexeme]
        while self.at(","):
            self.advance()
            coords.append(self.expect_ident().lexeme)
        self.expect(")")
        self.expect(",")
        bound = self.expect_ident().lexeme
        self.expect(")")
        self.expect(";")
        return ast.TypeFamDecl(name, tuple(coords), bound, start)

    def field_decl(self) -> ast.FieldDecl:
        tok = self.advance()
        mutable = tok.lexeme == "var"
        ty = self.type_()
        name = self.expect_ident().lexeme
        init = None
        if self.at("="):
            self.advance()
            init = self.expr()
        self.expect(";")
        return ast.FieldDecl(mutable, ty, name, init, tok.span)

    def method_decl(self) -> ast.MethodDecl:
        start = self.peek().span
        ret = self.type_()
        name = self.expect_ident().lexeme
        self.expect("(")
        params: list[ast.Param] = []
        while not self.at(")"):
            params.append(self.param())
            if not self.at(")"):
                self.expect(",")
        self.expect(")")
        self.expect("[")
        env: list[ast.Param] = []
        while not self.at("]"):
            env.append(self.param())
            if not self.at("]"):
                self.expect(",")
        self.expect("]")
        if self.at(";"):
            self.advance()
            body: Optional[ast.Block] = None
        else:
            body = self.block()
        return ast.MethodDecl(ret, name, tuple(params), tuple(env), body, start)

    def param(self) -> ast.Param:
        start = self.peek().span
        pre = self.type_()
        self.expect(">>")
        post = self.type_()
        name = self.advance()
        if name.kind != "ident":
            self.fail("expected a parameter name")
        return ast.Param(name.lexeme, ast.ChangeType(pre, post), start)

    # -- types -----------------------------------------------------------

    def type_(self) -> ast.Type:
        t = self.peek()
        if t.lexeme in ("void", "int", "bool", "string"):
            self.advance()
            return ast.PrimType(t.lexeme)
        if self.at("_"):
            self.advance()
            return ast.WildcardType()
        if self.at("("):
            self.advance()
            perm = self.permission()
            self.expect(",")
            inner = self.type_()
            self.expect(")")
            return ast.PermPair(perm, inner)
        if t.kind == "ident":
            name = self.advance().lexeme
            if self.at("("):
                return self.instance_type(name)
            return ast.StateRef(name)
        self.fail("expected a type")
        raise AssertionError

    def permission(self) -> int:
        negate = False
        if self.at("-"):
            self.advance()
            negate = True
        tok = self.peek()
        if tok.kind != "int":
            self.fail("expected a permission (1, 2 or -1)")
        self.advance()
        value = -int(tok.lexeme) if negate else int(tok.lexeme)
        if value not in (1, 2, -1):
            raise BrtsError("ParseError", f"invalid permission {value}", tok.span)
        return value

    def instance_type(self, family: str) -> ast.InstanceType:
        self.expect("(")
        args, constraint = self.formula_literal()
        self.expect(",")
        state = self.expect_ident().lexeme
        self.expect(")")
        return ast.InstanceType(family, tuple(args), constraint, state)

    def formula_literal(self) -> tuple[list[Lin], Formula]:
        """phi(t1, .., tk, c1, ..، cn): plain terms then constraint conjuncts."""
        if not self.at_ident("phi"):
            self.fail("expected 'phi'")
        self.advance()
        self.expect("(")
        args: list[Lin] = []
        conjuncts: list[Formula] = []
        while not self.at(")"):
            kind, value = self.formula_element()
            if kind == "term":
                if conjuncts:
                    self.fail("coordinate arguments must precede constraints")
                args.append(value)
            else:
                conjuncts.append(value)
            if not self.at(")"):
                self.expect(",")
        self.expect(")")
        constraint = conj(*conjuncts) if conjuncts else TRUE
        return args, constraint

    def formula_element(self) -> tuple[str, Lin | Formula]:
        if self.at("true") or self.at("false") or self.at("~") or self.at("exists"):
            return "formula", self.formula()
        save = self.pos
        try:
            t = self.term()
            if self.peek().lexeme not in ("==", "!=", "<=", ">=", "<", ">", "&&", "||", "=>"):
                return "term", t
        except BrtsError:
            pass            # `(n >= m)` is no term, but may be a formula
        self.pos = save
        return "formula", self.formula()

    # -- formulas ---------------------------------------------------------

    def formula(self) -> Formula:
        f = self.formula_or()
        if self.at("=>"):
            self.advance()
            with self.nested(1):
                return implies(f, self.formula())
        return f

    def formula_or(self) -> Formula:
        f = self.formula_and()
        while self.at("||") or self.at_ident("or"):
            self.advance()
            f = disj(f, self.formula_and())
        return f

    def formula_and(self) -> Formula:
        f = self.formula_unary()
        while self.at("&&") or self.at_ident("and"):
            self.advance()
            f = conj(f, self.formula_unary())
        return f

    def formula_unary(self) -> Formula:
        if self.at("~"):
            self.advance()
            with self.nested(1):
                return neg(self.formula_unary())
        if self.at("exists"):
            self.advance()
            names = []
            while self.peek().kind == "ident":
                names.append(self.advance().lexeme)
                if self.at(","):
                    self.advance()
            self.expect(".")
            with self.nested(4):
                body = self.formula()
            for v in reversed(names):
                body = exists(v, body)
            return body
        if self.at("true"):
            self.advance()
            return TRUE
        if self.at("false"):
            self.advance()
            return FALSE
        if self.at("("):
            save = self.pos
            self.advance()
            try:
                with self.nested(4):
                    f = self.formula()
                self.expect(")")
                if self.peek().lexeme in ("==", "!=", "<=", ">=", "<", ">"):
                    raise BrtsError("ParseError", "comparison of formulas", self.peek().span)
                return f
            except NestingTooDeep:
                raise
            except BrtsError:
                self.pos = save
        return self.comparison()

    def comparison(self) -> Formula:
        t1 = self.term()
        op = self.peek()
        table = {"==": eq, "!=": ne, "<=": le, ">=": ge, "<": lt, ">": gt}
        if op.lexeme not in table:
            self.fail("expected a comparison operator")
        self.advance()
        t2 = self.term()
        return table[op.lexeme](t1, t2)

    def term(self) -> Lin:
        t = self.term_factor()
        while self.at("+") or self.at("-"):
            op = self.advance().lexeme
            rhs = self.term_factor()
            t = t.add(rhs) if op == "+" else t.sub(rhs)
        return t

    def term_factor(self) -> Lin:
        if self.at("-"):
            self.advance()
            with self.nested(1):
                return self.term_factor().scale(-1)
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = int(tok.lexeme)
            if self.at("*"):
                self.advance()
                with self.nested(1):
                    return self.term_factor().scale(value)
            return Lin.constant(value)
        if tok.kind == "ident":
            self.advance()
            return Lin.var(tok.lexeme)
        if self.at("("):
            self.advance()
            with self.nested(2):
                t = self.term()
            self.expect(")")
            return t
        self.fail("expected an arithmetic term")
        raise AssertionError

    # -- statements and expressions ----------------------------------------

    def block(self) -> ast.Block:
        start = self.expect("{").span
        stmts = []
        while not self.at("}"):
            stmts.append(self.stmt())
            if self.at(";"):
                self.advance()
        self.expect("}")
        return ast.Block(tuple(stmts), start)

    def stmt(self) -> ast.Expr:
        if self.at("let"):
            return self.let_stmt()
        if self.at("var") or self.at("val"):
            tok = self.advance()
            declared = None
            after = self.tokens[min(self.pos + 1, len(self.tokens) - 1)]
            if not (self.peek().kind == "ident" and after.lexeme == "="):
                declared = self.type_()
            name = self.expect_ident().lexeme
            self.expect("=")
            init = self.expr()
            return ast.VarDecl(name, declared, init, tok.lexeme == "var", tok.span)
        if self.at("while"):
            return self.while_stmt()
        if self.at("match"):
            return self.match_stmt()
        if self.at("case"):
            start = self.advance().span
            scrut = self.expr()
            with self.nested(4):
                body = self.block()
            return ast.CaseExpr(scrut, body, start)
        e = self.expr()
        if self.at("<-"):
            self.advance()
            src = self.expr()
            return ast.Update(e, src, e.span)
        return e

    def let_stmt(self) -> ast.Expr:
        start = self.expect("let").span
        name = self.expect_ident().lexeme
        if self.at("."):
            self.advance()
            fname = self.expect_ident().lexeme
            self.expect("=")
            value = self.expr()
            self.expect("in")
            body = self._stmt_body()
            return ast.FieldAssign(name, fname, value, body, start)
        self.expect("=")
        init = self.expr()
        self.expect("in")
        body = self._stmt_body()
        return ast.Let(name, init, body, start)

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
        start = self.expect("while").span
        if not self.at("["):
            raise BrtsError(
                "ParseError",
                "while requires an invariant annotation: while [exists ... . F] (cond) { body }",
                self.peek().span)
        self.expect("[")
        self.expect("exists")
        names = []
        while self.peek().kind == "ident":
            names.append(self.advance().lexeme)
            if self.at(","):
                self.advance()
        self.expect(".")
        invariant = self.formula()
        self.expect("]")
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        with self.nested(4):
            body = self.block()
        return ast.While(tuple(names), invariant, cond, body, start)

    def match_stmt(self) -> ast.Expr:
        start = self.expect("match").span
        self.expect("(")
        scrut = self.expr()
        scope = None
        if self.at(":"):
            self.advance()
            scope = self.expect_ident().lexeme
        self.expect(")")
        self.expect("{")
        arms: list[ast.MatchArm] = []
        default = None
        while not self.at("}"):
            if self.at("case"):
                aspan = self.advance().span
                state = self.expect_ident().lexeme
                with self.nested(4):
                    body = self.block()
                arms.append(ast.MatchArm(state, body, aspan))
            elif self.at("default"):
                self.advance()
                with self.nested(4):
                    default = self.block()
            else:
                self.fail("expected 'case' or 'default'")
            if self.at(";"):
                self.advance()
        self.expect("}")
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
            self.advance()
            name = self.expect_ident()
            if self.at("("):
                self.advance()
                args = []
                self.peak = self.depth
                while not self.at(")"):
                    with self.nested(3):
                        args.append(self.expr())
                    if not self.at(")"):
                        self.expect(",")
                self.expect(")")
                reach = max(reach, self.peak)
                e = ast.MethodCall(e, name.lexeme, tuple(args), name.span)
            else:
                e = ast.FieldRef(e, name.lexeme, name.span)
        self.peak = max(outer, reach)
        return e

    def primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ast.IntLit(int(tok.lexeme), tok.span)
        if tok.kind == "string":
            self.advance()
            return ast.StrLit(tok.lexeme, tok.span)
        if self.at("true") or self.at("false"):
            self.advance()
            return ast.BoolLit(tok.lexeme == "true", tok.span)
        if self.at("new"):
            self.advance()
            state = self.expect_ident().lexeme
            self.expect("(")
            inst = None
            ctor_args: list[ast.Expr] = []
            if self.at_ident("phi"):
                args, constraint = self.formula_literal()
                inst = ast.InstanceType(None, tuple(args), constraint, state)
            else:
                while not self.at(")"):
                    with self.nested(3):
                        ctor_args.append(self.expr())
                    if not self.at(")"):
                        self.expect(",")
            self.expect(")")
            return ast.NewObj(state, inst, tuple(ctor_args), tok.span)
        if self.at("("):
            # (perm, FamilyOrState(...)) typestate literal
            self.advance()
            perm = self.permission()
            self.expect(",")
            ty = self.type_()
            self.expect(")")
            if isinstance(ty, ast.StateRef):
                ty = ast.InstanceType(None, (), TRUE, ty.name)
            if not isinstance(ty, ast.InstanceType):
                raise BrtsError("ParseError", "expected a typestate literal", tok.span)
            return ast.TypestateLit(perm, ty, tok.span)
        if tok.kind == "ident":
            self.advance()
            return ast.VarRef(tok.lexeme, tok.span)
        self.fail("expected an expression")
        raise AssertionError


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    return Parser(tokenize(source), filename).program()


def parse_formula(source: str) -> Formula:
    p = Parser(tokenize(source))
    f = p.formula()
    if p.peek().kind != "eof":
        p.fail("trailing input after formula")
    return f


def parse_term(source: str) -> Lin:
    p = Parser(tokenize(source))
    t = p.term()
    if p.peek().kind != "eof":
        p.fail("trailing input after term")
    return t
