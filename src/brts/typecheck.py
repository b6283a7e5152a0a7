"""The dependent typestate checker.

Judgments thread a constraint environment alongside the variable context:
checking an expression yields its type and grows the environment with the
facts the expression introduced.  Every constraint obligation funnels into
the linear-arithmetic solver.  With ``audit=True`` the checker also records
each subtype and equality query, frozen against its context, so the run can
be replayed through the arithmetic reduction; recording is opt-in because
freezing a type costs a projection per query.

The environment carries whether it is satisfiable (``Ctx.sat``: True, False
or None for unknown), so the unreachable-code warning asks the solver only
when an assumption may have changed the answer.

Logical variables written in annotations are scoped to their method
signature and shared between the pre and post sides.  The checker renames
them apart (``p$3`` style) per use, so user coordinate names never collide;
everything user-facing is rendered as a projection onto the family's
coordinate names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .diagnostics import NO_SPAN, BrtsError, Diagnostic, Span
from .presburger import (
    Const, Formula, Lin, Term, Var,
    conj, disj, entails, eq, evaluate, exists_many, formula_equal, free_vars,
    implies, is_satisfiable, is_valid, neg, ne, project_onto, render,
    render_term, simplify, substitute, tidy, witness, FALSE, TRUE,
)
from . import syntax as ast
from .syntax import (
    BOOL, INT, STRING, VOID,
    ChangeType, InstanceType, MethodType, PermPair, PrimType, StateRef,
    StateTable, Type, UnionType, WildcardType,
    find_method_decl, mtype, state_table,
)


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------

@dataclass
class Binding:
    type: Type
    mutable: bool = True


@dataclass
class CheckResult:
    """What checking an expression produced: its type and the grown
    constraint environment."""
    type: Type
    phi: Formula


class Ctx:
    def __init__(self, st: StateTable, checker: "Checker"):
        self.st = st
        self.checker = checker
        self.scopes: list[dict[str, Binding]] = [{}]
        self.phi: Formula = TRUE
        self.sat: Optional[bool] = True    # is phi satisfiable; None = unknown
        self.logical_vars: set[str] = set()
        # how the enclosing signature spelled its logical variables
        self.annot_names: dict[str, str] = {}

    def copy(self) -> "Ctx":
        c = Ctx(self.st, self.checker)
        c.scopes = [dict(s) for s in self.scopes]
        c.phi = self.phi
        c.sat = self.sat
        c.logical_vars = set(self.logical_vars)
        c.annot_names = dict(self.annot_names)
        return c

    def restore(self, other: "Ctx") -> None:
        self.scopes = other.scopes
        self.phi = other.phi
        self.sat = other.sat
        self.logical_vars = other.logical_vars
        self.annot_names = other.annot_names

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def lookup(self, name: str) -> Optional[Binding]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def bind(self, name: str, binding: Binding) -> None:
        self.scopes[-1][name] = binding

    def rebind(self, name: str, ty: Type) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = Binding(ty, scope[name].mutable)
                return
        self.scopes[-1][name] = Binding(ty)

    def fresh(self, base: str) -> str:
        return self.checker.fresh(base)

    def assume(self, f: Formula, span: Span = NO_SPAN,
               keeps_sat: bool = False) -> None:
        """Conjoin f.  keeps_sat: the caller knows that a satisfiable phi
        stays satisfiable with f; an unsatisfiable phi always stays so."""
        phi = simplify(conj(self.phi, f))
        if phi != self.phi:
            self.phi = phi
            if self.sat and not keeps_sat:
                self.sat = None
        self.checker.note_context(self, span)


# ---------------------------------------------------------------------------
# Obligations
# ---------------------------------------------------------------------------

@dataclass
class Obligation:
    span: Span
    rule: str
    phi: str                   # incoming environment, rendered
    goal: str                  # the constraint put to the solver, rendered
    verdict: bool
    countermodel: Optional[dict[str, int]] = None
    note: Optional[str] = None
    phi_f: Optional[Formula] = None
    goal_f: Optional[Formula] = None

    def to_json(self) -> dict:
        out = {
            "line": self.span.line,
            "col": self.span.col,
            "rule": self.rule,
            "phi": self.phi,
            "obligation": self.goal,
            "verdict": "valid" if self.verdict else "invalid",
        }
        if self.countermodel is not None:
            out["countermodel"] = self.countermodel
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class WfRel:
    ty: Type


@dataclass(frozen=True)
class SubRel:
    t1: Type
    t2: Type


@dataclass(frozen=True)
class EqRel:
    t1: Type
    t2: Type


@dataclass(frozen=True)
class TransRel:
    """A transition or function type paired with what its body established."""
    pre: Type
    body: Type
    post: Type


@dataclass(frozen=True)
class QueryRecord:
    kind: str                  # "subtype" | "equal"
    t1: Type                   # context-frozen
    t2: Type
    result: bool


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self, program: ast.Program, filename: str = "<input>",
                 strict_calls: bool = False, audit: bool = False):
        self.program = program
        self.filename = filename
        self.strict_calls = strict_calls
        self.audit = audit
        self.diagnostics: list[Diagnostic] = []
        self.obligations: list[Obligation] = []
        self.query_log: list[QueryRecord] = []
        self.st: Optional[StateTable] = None
        self._counter = 0
        self._dead_warned: set[tuple[int, int]] = set()
        self._call_stack: list[tuple[str, str]] = []

    # -- plumbing ---------------------------------------------------------

    def fresh(self, base: str) -> str:
        self._counter += 1
        return f"{base}${self._counter}"

    def error(self, kind: str, message: str, span: Span, note: str | None = None):
        raise BrtsError(kind, message, span, note)

    def warn(self, kind: str, message: str, span: Span, note: str | None = None):
        self.diagnostics.append(Diagnostic("warning", kind, message, span, note))

    def note_context(self, ctx: Ctx, span: Span) -> None:
        key = (span.line, span.col)
        if span == NO_SPAN or key in self._dead_warned:
            return
        if ctx.sat is None:
            ctx.sat = is_satisfiable(ctx.phi)
        if not ctx.sat:
            self._dead_warned.add(key)
            self.warn("ContradictoryContext",
                      "constraint environment is unsatisfiable from here on",
                      span)

    def record_query(self, kind: str, t1: Type, t2: Type, result: bool,
                     ctx: Optional[Ctx]) -> None:
        if not self.audit:
            return
        self.query_log.append(QueryRecord(kind, freeze_type(ctx, t1),
                                          freeze_type(ctx, t2), result))

    # -- top level ---------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        try:
            self.st = state_table(self.program)
        except BrtsError as err:
            self.diagnostics.append(err.diagnostic)
            return self.diagnostics
        for st_decl in self._all_states(self.program.states):
            info = self.st.states[st_decl.name]
            for fam in info.families.values():
                try:
                    check_family_formation(self.st, fam)
                except BrtsError as err:
                    self.diagnostics.append(err.diagnostic)
            for fd in info.fields.values():
                try:
                    self.check_field_decl(st_decl.name, fd)
                except BrtsError as err:
                    self.diagnostics.append(err.diagnostic)
            for md in info.methods.values():
                try:
                    self.check_method_decl(st_decl.name, md)
                except BrtsError as err:
                    self.diagnostics.append(err.diagnostic)
        return self.diagnostics

    def _all_states(self, states: Iterable[ast.StateDecl]):
        for s in states:
            yield s
            yield from self._all_states(d for d in s.decls
                                        if isinstance(d, ast.StateDecl))

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    # -- declarations --------------------------------------------------------

    def check_field_decl(self, state: str, fd: ast.FieldDecl) -> None:
        ctx = Ctx(self.st, self)
        ty = self.elaborate(ctx, fd.type, fd.span, allow_wildcard=fd.init is not None)
        if fd.init is None:
            return
        ctx.bind("this", Binding(PermPair(1, StateRef(state)), mutable=False))
        self.check_initializer(ctx, ty, fd.init, fd.span, name=fd.name)

    def check_initializer(self, ctx: Ctx, declared: Type, init: ast.Expr,
                          span: Span, name: str) -> Type:
        """var/val and field initialisers; dependent ascriptions adopt the
        declared instance the way dependent creation does."""
        got = self.infer(ctx, init)
        decl_inst = _instance_part(declared)
        got_inst = _instance_part(got)
        if decl_inst is not None and isinstance(init, ast.NewObj) and init.inst is None:
            # plain `new S()` under a dependent ascription: creation at the
            # ascribed typestate
            adopted = self.open_instance(ctx, decl_inst, span)
            if not ctx.st.is_substate(init.state, adopted.state):
                self.error("TypeMismatch",
                           f"'{name}' is declared at state '{adopted.state}' but "
                           f"initialised with 'new {init.state}()'", span)
            result = _with_instance(declared, adopted)
            self._check_perm_compat(declared, got, span)
            return result
        if isinstance(declared, PermPair) and isinstance(declared.inner, WildcardType):
            # weakest instance over the initialiser's own state
            state = _state_of(got)
            if state is None:
                self.error("TypeMismatch",
                           f"wildcard declaration of '{name}' needs an object initialiser",
                           span)
            inner = got_inst if got_inst is not None else InstanceType(None, (), TRUE, state)
            self._check_perm_compat(declared, got, span)
            return PermPair(declared.perm, inner)
        if not self.subtype(ctx, got, declared):
            self.error("TypeMismatch",
                       f"initialiser of '{name}' has type {_show(got)}, "
                       f"expected {_show(declared)}", span)
        return declared

    def _check_perm_compat(self, declared: Type, got: Type, span: Span) -> None:
        if isinstance(declared, PermPair) and isinstance(got, PermPair):
            if declared.perm != got.perm:
                self.error("PermissionViolation",
                           f"permission {got.perm} does not match declared "
                           f"permission {declared.perm}", span)

    def check_method_decl(self, state: str, md: ast.MethodDecl) -> None:
        ctx = Ctx(self.st, self)
        ret = self.elaborate(ctx, md.ret, md.span)
        ren: dict[str, str] = {}
        seeded: list[tuple[str, ChangeType, Span]] = []

        for p in list(md.params) + list(md.env):
            change = self.open_change(ctx, p.change, ren, p.span)
            self._immutable_change_check(change, p.span)
            pre = change.pre
            ctx.bind(p.name, Binding(pre, mutable=True))
            pre_i, post_i = _instance_part(pre), _instance_part(change.post)
            if pre_i is not None:
                ctx.assume(pre_i.constraint, p.span)
            if post_i is not None:
                ctx.assume(post_i.constraint, p.span)
            seeded.append((p.name, change, p.span))

        if ctx.lookup("this") is None:
            ctx.bind("this", Binding(PermPair(1, StateRef(state)), mutable=True))
        ctx.annot_names = ren

        if md.body is None:
            return

        body_type = self.infer(ctx, md.body)
        if ret != VOID and not self.subtype(ctx, body_type, ret):
            self.error("TypeMismatch",
                       f"body of '{md.name}' has type {_show(body_type)}, "
                       f"declared to return {_show(ret)}", md.span)

        for name, change, span in seeded:
            self._check_post_side(ctx, md.name, name, change, span)

    def _immutable_change_check(self, change: ChangeType, span: Span) -> None:
        pre_perm = change.pre.perm if isinstance(change.pre, PermPair) else None
        post_perm = change.post.perm if isinstance(change.post, PermPair) else None
        if pre_perm != post_perm:
            self.error("PermissionViolation",
                       "a transition cannot change the permission", span)
        if pre_perm == -1 and strip_perm(change.pre) != strip_perm(change.post):
            self.error("PermissionViolation",
                       "an immutable binding cannot change its typestate", span)

    def _check_post_side(self, ctx: Ctx, method: str, name: str,
                         change: ChangeType, span: Span) -> None:
        post = change.post
        binding = ctx.lookup(name)
        assert binding is not None
        got = binding.type
        if isinstance(post, PermPair) and isinstance(got, PermPair) and post.perm != got.perm:
            self.error("BodyBreaksPostcondition",
                       f"'{name}' ends with permission {got.perm}, "
                       f"declared {post.perm}", span)
        post_i, got_i = _instance_part(post), _instance_part(got)
        post_state, got_state = _state_of(post), _state_of(got)
        if post_state is not None:
            if got_state is None or not self.subtype(ctx, StateRef(got_state),
                                                     StateRef(post_state)):
                self.error("BodyBreaksPostcondition",
                           f"'{name}' ends in state '{got_state}', "
                           f"declared post state is '{post_state}'", span)
        if post_i is not None and post_i.args:
            if got_i is None or got_i.family != post_i.family:
                self.error("BodyBreaksPostcondition",
                           f"'{name}' loses its '{post_i.family}' typestate in the body",
                           span)
            goal = conj(*(eq(a, b) for a, b in zip(got_i.args, post_i.args)))
            ok = self.solve(ctx, "post", span, goal, method=method)
            if not ok:
                self.error(
                    "BodyBreaksPostcondition",
                    f"body of '{method}' does not establish the declared "
                    f"post typestate of '{name}'", span,
                    note=f"needs {render(simplify(goal))} given {render(ctx.phi)}")

    # -- types ----------------------------------------------------------------

    def elaborate(self, ctx: Ctx, ty: Type, span: Span,
                  allow_wildcard: bool = False) -> Type:
        """Validate a written type against the state table."""
        match ty:
            case PrimType():
                return ty
            case StateRef(name):
                if name not in ctx.st:
                    self.error("IllFormedType", f"unknown state '{name}'", span)
                return ty
            case WildcardType():
                if not allow_wildcard:
                    self.error("IllFormedType",
                               "'_' is only allowed in a declaration with an initialiser",
                               span)
                return ty
            case PermPair(perm, inner):
                return PermPair(perm, self.elaborate(ctx, inner, span, allow_wildcard))
            case ChangeType(pre, post):
                return ChangeType(self.elaborate(ctx, pre, span),
                                  self.elaborate(ctx, post, span))
            case InstanceType():
                return self.resolve_instance(ctx, ty, span)
        self.error("IllFormedType", f"cannot use {_show(ty)} here", span)

    def resolve_instance(self, ctx: Ctx, inst: InstanceType, span: Span) -> InstanceType:
        if inst.state not in ctx.st:
            self.error("IllFormedType", f"unknown state '{inst.state}'", span)
        family = inst.family
        if family is None and (inst.args or inst.constraint != TRUE):
            family = self._implicit_family(ctx, inst.state, span)
        if family is None:
            return inst
        fam = ctx.st.find_family(family)
        if fam is None:
            self.error("IllFormedType", f"unknown type family '{family}'", span)
        return instantiate_family(ctx, fam, inst.args, inst.constraint, inst.state,
                                  span)

    def _implicit_family(self, ctx: Ctx, state: str, span: Span) -> str:
        candidates = sorted(
            fam.name
            for info in ctx.st.states.values()
            for fam in info.families.values()
            if ctx.st.is_substate(state, fam.state_bound)
        )
        if not candidates:
            self.error("IllFormedFormula",
                       f"no type family covers state '{state}'", span)
        if len(candidates) > 1:
            self.error("IllFormedFormula",
                       f"ambiguous family for state '{state}': {', '.join(candidates)}",
                       span)
        return candidates[0]

    def open_instance(self, ctx: Ctx, inst: InstanceType, span: Span,
                      ren: Optional[dict[str, str]] = None,
                      assume: bool = True) -> InstanceType:
        """Bring an instance annotation into scope: rename its logical
        variables apart and, at creation sites, assume its constraint."""
        inst = self.resolve_instance(ctx, inst, span)
        ren = {} if ren is None else ren
        mentioned = set()
        for a in inst.args:
            mentioned |= Lin.of(a).variables()
        mentioned |= free_vars(inst.constraint)
        for v in sorted(mentioned):
            if v not in ren:
                ren[v] = ctx.fresh(v)
            ctx.logical_vars.add(ren[v])
        mapping = {v: Var(n) for v, n in ren.items()}
        args = tuple(_subst_term(a, mapping) for a in inst.args)
        constraint = substitute(inst.constraint, mapping)
        opened = InstanceType(inst.family, args, constraint, inst.state)
        if assume:
            ctx.assume(constraint, span)
            opened = replace(opened, constraint=TRUE)
        return opened

    def open_change(self, ctx: Ctx, change: ChangeType, ren: dict[str, str],
                    span: Span) -> ChangeType:
        pre = self.elaborate(ctx, change.pre, span)
        post = self.elaborate(ctx, change.post, span)
        pre = self._open_side(ctx, pre, ren, span)
        post = self._open_side(ctx, post, ren, span)
        return ChangeType(pre, post)

    def _open_side(self, ctx: Ctx, ty: Type, ren: dict[str, str], span: Span) -> Type:
        inst = _instance_part(ty)
        if inst is None:
            return ty
        opened = self.open_instance(ctx, inst, span, ren, assume=False)
        return _with_instance(ty, opened)

    # -- relations ------------------------------------------------------------

    def subtype(self, ctx: Ctx, t1: Type, t2: Type) -> bool:
        result = self._subtype(ctx, t1, t2)
        self.record_query("subtype", t1, t2, result, ctx)
        return result

    def _subtype(self, ctx: Ctx, t1: Type, t2: Type) -> bool:
        if t1 == t2:
            return True
        match (t1, t2):
            case (PrimType(a), PrimType(b)):
                return a == b
            case (UnionType(ms), _):
                return all(self._subtype(ctx, m, t2) for m in ms)
            case (_, UnionType(ms)):
                return all(self._subtype(ctx, t1, m) for m in ms)
            case (PermPair(a1, i1), PermPair(a2, i2)):
                return a1 == a2 and self._subtype(ctx, i1, i2)
            case (StateRef(a), StateRef(b)):
                return ctx.st.is_substate(a, b)
            case (InstanceType(), StateRef(b)):
                return ctx.st.is_substate(t1.state, b)
            case (StateRef(a), InstanceType()):
                if not ctx.st.is_substate(a, t2.state):
                    return False
                return entails(TRUE, self.inst_formula(ctx, t2))
            case (InstanceType(), InstanceType()):
                if not ctx.st.is_substate(t1.state, t2.state):
                    return False
                return entails(self.inst_formula(ctx, t1), self.inst_formula(ctx, t2))
            case (ChangeType(p1, q1), ChangeType(p2, q2)):
                return self.type_equal(ctx, p1, p2) and self.type_equal(ctx, q1, q2)
        return False

    def type_equal(self, ctx: Ctx, t1: Type, t2: Type) -> bool:
        result = self._type_equal(ctx, t1, t2)
        self.record_query("equal", t1, t2, result, ctx)
        return result

    def _type_equal(self, ctx: Ctx, t1: Type, t2: Type) -> bool:
        if t1 == t2:
            return True
        match (t1, t2):
            case (PermPair(a1, i1), PermPair(a2, i2)):
                return a1 == a2 and self._type_equal(ctx, i1, i2)
            case (InstanceType(), InstanceType()):
                if t1.state != t2.state or t1.family != t2.family:
                    return False
                return formula_equal(self.inst_formula(ctx, t1),
                                     self.inst_formula(ctx, t2))
            case (ChangeType(p1, q1), ChangeType(p2, q2)):
                return self._type_equal(ctx, p1, p2) and self._type_equal(ctx, q1, q2)
            case (UnionType(m1), UnionType(m2)):
                return len(m1) == len(m2) and all(
                    self._type_equal(ctx, a, b) for a, b in zip(m1, m2))
        return False

    def inst_formula(self, ctx: Optional[Ctx], inst: InstanceType) -> Formula:
        """Project what is known about an instance onto its family's
        coordinate names; the user-facing shape of a typestate."""
        if inst.family is None:
            return simplify(inst.constraint)
        fam = (ctx.st if ctx else self.st).find_family(inst.family)
        coords = fam.coord_vars
        facts = [ctx.phi if ctx else TRUE, inst.constraint]
        for name, arg in zip(coords, inst.args):
            facts.append(eq(Var(name), arg))
        return simplify(project_onto(conj(*facts), coords))

    # -- the solver funnel ------------------------------------------------------

    def solve(self, ctx: Ctx, rule: str, span: Span, goal: Formula,
              sig_vars: Iterable[str] = (), method: str | None = None,
              note: str | None = None) -> bool:
        """One obligation: ctx.phi must entail goal (with the signature's
        fresh variables existentially instantiated)."""
        closed = exists_many(sorted(sig_vars), goal)
        query = implies(ctx.phi, closed)
        verdict = is_valid(query)
        model = None if verdict else witness(conj(ctx.phi, neg(closed)))
        self.obligations.append(Obligation(
            span, rule, render(simplify(ctx.phi)), render(simplify(closed)),
            verdict, model, note, phi_f=ctx.phi, goal_f=closed))
        return verdict

    # -- expressions ------------------------------------------------------------

    def infer(self, ctx: Ctx, e: ast.Expr) -> Type:
        match e:
            case ast.IntLit():
                return INT
            case ast.BoolLit():
                return BOOL
            case ast.StrLit():
                return STRING
            case ast.Skip():
                return VOID
            case ast.VarRef(name, span):
                binding = ctx.lookup(name)
                if binding is None:
                    self.error("UnboundVariable", f"unbound variable '{name}'", span)
                return binding.type
            case ast.NewObj():
                return self.infer_new(ctx, e)
            case ast.TypestateLit():
                return self.infer_literal(ctx, e)
            case ast.FieldRef():
                return self.infer_fieldref(ctx, e)
            case ast.MethodCall():
                return self.infer_call(ctx, e)
            case ast.Seq(first, second):
                self.infer(ctx, first)
                return self.infer(ctx, second)
            case ast.Let():
                return self.infer_let(ctx, e)
            case ast.FieldAssign():
                return self.infer_field_assign(ctx, e)
            case ast.Update():
                return self.infer_update(ctx, e)
            case ast.Match():
                return self.infer_match(ctx, e)
            case ast.CaseExpr(scrut, body):
                self.infer(ctx, scrut)
                return self.infer(ctx, body)
            case ast.While():
                return self.infer_while(ctx, e)
        self.error("IllFormedType", f"cannot type expression {e!r}", getattr(e, "span", NO_SPAN))

    def infer_expr(self, ctx: Ctx, e: ast.Expr) -> CheckResult:
        return CheckResult(self.infer(ctx, e), ctx.phi)

    def infer_new(self, ctx: Ctx, e: ast.NewObj) -> Type:
        if e.state not in ctx.st:
            self.error("IllFormedType", f"unknown state '{e.state}'", e.span)
        for arg in e.ctor_args:
            self.infer(ctx, arg)       # accepted, evaluated, carried no further
        if e.inst is None:
            return PermPair(1, StateRef(e.state))
        opened = self.open_instance(ctx, e.inst, e.span)
        return PermPair(1, opened)

    def infer_literal(self, ctx: Ctx, e: ast.TypestateLit) -> Type:
        inst = self.resolve_instance(ctx, e.inst, e.span)
        if ctx.annot_names:
            mapping = {u: Var(f) for u, f in ctx.annot_names.items()}
            inst = replace(
                inst,
                args=tuple(_subst_term(a, mapping) for a in inst.args),
                constraint=substitute(inst.constraint, mapping))
        scope = free_vars(inst.constraint)
        for a in inst.args:
            scope |= Lin.of(a).variables()
        out_of_scope = sorted(scope - ctx.logical_vars)
        if out_of_scope:
            self.error("UnboundVariable",
                       f"logical variable '{out_of_scope[0]}' is not in scope here",
                       e.span)
        if inst.constraint != TRUE:
            ok = self.solve(ctx, "typestate-literal", e.span, inst.constraint)
            if not ok:
                self.error(
                    "PostconditionUnsatisfiable",
                    "typestate constraint does not hold here", e.span,
                    note=f"needs {render(simplify(inst.constraint))} "
                         f"given {render(simplify(ctx.phi))}")
        return PermPair(e.perm, replace(inst, constraint=TRUE))

    def infer_fieldref(self, ctx: Ctx, e: ast.FieldRef) -> Type:
        obj = self.infer(ctx, e.obj)
        state = _state_of(obj)
        if state is None:
            self.error("NotADepInstance",
                       f"field access on a non-object value of type {_show(obj)}",
                       e.span)
        for candidate in ctx.st.ancestors(state):
            info = ctx.st.states[candidate]
            if e.name in info.fields:
                return self.elaborate(ctx, info.fields[e.name].type, e.span)
        self.error("IllFormedType",
                   f"state '{state}' has no field '{e.name}'", e.span)

    def infer_let(self, ctx: Ctx, e: ast.Let) -> Type:
        if e.declared is not None:
            declared = self.elaborate(ctx, e.declared, e.span, allow_wildcard=True)
            bound = self.check_initializer(ctx, declared, e.init, e.span, e.name)
        else:
            bound = self.infer(ctx, e.init)
        ctx.push()
        ctx.bind(e.name, Binding(bound, mutable=e.mutable))
        result = self.infer(ctx, e.body)
        ctx.pop()
        return result

    def infer_field_assign(self, ctx: Ctx, e: ast.FieldAssign) -> Type:
        binding = ctx.lookup(e.target)
        if binding is None:
            self.error("UnboundVariable", f"unbound variable '{e.target}'", e.span)
        state = _state_of(binding.type)
        if state is None:
            self.error("NotADepInstance",
                       f"field assignment on non-object '{e.target}'", e.span)
        field_decl = None
        for candidate in ctx.st.ancestors(state):
            info = ctx.st.states[candidate]
            if e.name in info.fields:
                field_decl = info.fields[e.name]
                break
        if field_decl is None:
            self.error("IllFormedType",
                       f"state '{state}' has no field '{e.name}'", e.span)
        if not field_decl.mutable:
            self.error("PermissionViolation",
                       f"field '{e.name}' is a val and cannot be assigned", e.span)
        got = self.infer(ctx, e.value)
        want = self.elaborate(ctx, field_decl.type, e.span)
        if not self.subtype(ctx, got, want):
            self.error("TypeMismatch",
                       f"cannot assign {_show(got)} to field '{e.name}' of type "
                       f"{_show(want)}", e.span)
        return self.infer(ctx, e.body)

    def infer_update(self, ctx: Ctx, e: ast.Update) -> Type:
        src = self.infer(ctx, e.source)
        if not isinstance(e.target, ast.VarRef):
            self.error("IllFormedType", "update target must be a variable", e.span)
        binding = ctx.lookup(e.target.name)
        if binding is None:
            self.error("UnboundVariable", f"unbound variable '{e.target.name}'", e.span)
        if not binding.mutable:
            self.error("PermissionViolation",
                       f"'{e.target.name}' is immutable and cannot be updated", e.span)
        if isinstance(binding.type, PermPair):
            if binding.type.perm == -1:
                self.error("PermissionViolation",
                           f"'{e.target.name}' is an immutable reference", e.span)
            if isinstance(src, PermPair) and src.perm != binding.type.perm:
                self.error("PermissionViolation",
                           f"update changes permission of '{e.target.name}' "
                           f"from {binding.type.perm} to {src.perm}", e.span)
        ctx.rebind(e.target.name, src)
        return src

    def infer_match(self, ctx: Ctx, e: ast.Match) -> Type:
        scrut_type = self.infer(ctx, e.scrutinee)
        state = _state_of(scrut_type)
        if state is None:
            self.error("IllFormedType",
                       f"match on a non-object value of type {_show(scrut_type)}",
                       e.span)
        scope = e.scope
        if scope is None:
            inst = _instance_part(scrut_type)
            if inst is not None and inst.family is not None:
                scope = ctx.st.find_family(inst.family).state_bound
            else:
                scope = state
        elif scope not in ctx.st:
            self.error("IllFormedType", f"unknown state '{scope}' in match", e.span)

        scrut_name = e.scrutinee.name if isinstance(e.scrutinee, ast.VarRef) else None
        entry = ctx.copy()
        arm_phis: list[Formula] = []
        arm_types: list[Type] = []
        post_bindings: list[Ctx] = []

        arms = list(e.arms)
        if e.default is not None:
            arms.append(ast.MatchArm(scope, e.default, e.span))
        for arm in arms:
            if arm.state not in ctx.st:
                self.error("IllFormedType",
                           f"unknown state '{arm.state}' in match arm", arm.span)
            if not self.subtype(ctx, StateRef(arm.state), StateRef(scope)):
                self.error("MatchArmNotSubstate",
                           f"match arm state '{arm.state}' is not a substate of "
                           f"'{scope}'", arm.span)
            if ctx.st.is_substate(arm.state, state):
                refined = arm.state
            elif ctx.st.is_substate(state, arm.state):
                refined = state
            else:
                self.warn("ContradictoryContext",
                          f"match arm '{arm.state}' is unreachable: the scrutinee "
                          f"is at state '{state}'", arm.span)
                continue
            ctx.restore(entry.copy())
            if scrut_name is not None:
                binding = ctx.lookup(scrut_name)
                if binding is not None:
                    ctx.rebind(scrut_name, _retag(binding.type, refined))
            arm_types.append(self.infer(ctx, arm.body))
            post_bindings.append(ctx.copy())

        if not post_bindings:
            ctx.restore(entry)
            return VOID
        self._join_arms(ctx, post_bindings)

        result = arm_types[0]
        if all(self.type_equal(ctx, t, result) for t in arm_types[1:]):
            return result
        return UnionType(tuple(arm_types))

    def _join_arms(self, ctx: Ctx, arms: list[Ctx]) -> None:
        """Merge the arm contexts into ctx: bindings that diverged get fresh
        coordinates pinned per arm inside that arm's environment, so the
        disjunction of the environments carries the exact case split.  The
        join is satisfiable iff some arm is."""
        phis = [a.phi for a in arms]
        sats = [a.sat for a in arms]
        scopes: list[dict[str, Binding]] = []
        for level in range(min(len(a.scopes) for a in arms)):
            scope: dict[str, Binding] = {}
            names = [n for n in arms[0].scopes[level]
                     if all(n in a.scopes[level] for a in arms)]
            for name in names:
                bindings = [a.scopes[level][name] for a in arms]
                types = [b.type for b in bindings]
                mutable = all(b.mutable for b in bindings)
                if all(t == types[0] for t in types[1:]):
                    scope[name] = Binding(types[0], mutable)
                    continue
                joined = self._join_binding(ctx, name, types, phis, sats)
                scope[name] = Binding(joined, mutable)
            scopes.append(scope)
        ctx.scopes = scopes
        ctx.phi = simplify(disj(*phis))
        ctx.sat = True if any(sats) else None if None in sats else False
        ctx.logical_vars = set().union(*(a.logical_vars for a in arms))
        ctx.logical_vars |= free_vars(ctx.phi)

    def _join_binding(self, ctx: Ctx, name: str, types: list[Type],
                      phis: list[Formula], sats: list[Optional[bool]]) -> Type:
        perms = [t.perm if isinstance(t, PermPair) else None for t in types]
        inners = [strip_perm(t) for t in types]
        insts = [t if isinstance(t, InstanceType) else None for t in inners]
        states = [_state_of(t) for t in types]
        if len(set(perms)) != 1 or None in states:
            return UnionType(tuple(dict.fromkeys(types)))
        lca = self._common_state(states)
        if lca is None:
            return UnionType(tuple(dict.fromkeys(types)))
        if all(i is not None for i in insts) and len({i.family for i in insts}) == 1 \
                and insts[0].family is not None:
            fam = ctx.st.find_family(insts[0].family)
            fresh = [ctx.fresh(c) for c in fam.coord_vars]
            ctx.logical_vars.update(fresh)
            for k, inst in enumerate(insts):
                pins = conj(*(eq(Var(w), arg)
                              for w, arg in zip(fresh, inst.args)))
                phis[k] = simplify(conj(phis[k], pins, inst.constraint))
                # pinning fresh coordinates keeps an arm satisfiable; a
                # constraint may not
                if sats[k] and inst.constraint != TRUE:
                    sats[k] = None
            joined: Type = InstanceType(insts[0].family,
                                        tuple(Var(w) for w in fresh), TRUE, lca)
        else:
            joined = StateRef(lca)
        if perms[0] is not None:
            joined = PermPair(perms[0], joined)
        return joined

    def _common_state(self, states: list[str]) -> Optional[str]:
        for candidate in self.st.ancestors(states[0]):
            if all(self.st.is_substate(s, candidate) for s in states):
                return candidate
        return None

    def infer_while(self, ctx: Ctx, e: ast.While) -> Type:
        cond_type = self.infer(ctx, e.cond)
        if cond_type != BOOL:
            self.error("TypeMismatch",
                       f"loop condition has type {_show(cond_type)}, expected bool",
                       e.span)
        inv = exists_many(e.bound_vars, e.invariant)
        inv_vars = free_vars(inv)

        tracked = self._tracked_bindings(ctx, inv_vars, e.span)

        # entry: current knowledge about each tracked object implies the invariant
        for name, coords in tracked:
            ok = self.solve(ctx, "while-entry", e.span,
                            self._invariant_goal(ctx, name, inv, coords))
            if not ok:
                self.error("InvariantNotEstablished",
                           f"loop invariant does not hold on entry for '{name}'",
                           e.span, note=render(inv))

        head = ctx.copy()
        states_at_head = {name: _state_of(ctx.lookup(name).type) for name, _ in tracked}
        self._widen(ctx, tracked, inv)
        body_type = self.infer(ctx, e.body)

        # exit: the body must re-establish the invariant for the next round
        for name, coords in tracked:
            binding = ctx.lookup(name)
            if _state_of(binding.type) != states_at_head[name]:
                self.error("InvariantNotPreserved",
                           f"loop body moves '{name}' from state "
                           f"'{states_at_head[name]}' to '{_state_of(binding.type)}'",
                           e.span)
            ok = self.solve(ctx, "while-exit", e.span,
                            self._invariant_goal(ctx, name, inv, coords))
            if not ok:
                self.error("InvariantNotPreserved",
                           f"loop body does not preserve the invariant for '{name}'",
                           e.span, note=render(inv))
        tracked_names = {name for name, _ in tracked}
        for name, before in self._bindings_flat(head).items():
            after = ctx.lookup(name)
            if after is not None and name not in tracked_names:
                if _instance_part(before.type) is not None and after.type != before.type:
                    self.error("InvariantNotPreserved",
                               f"'{name}' changes in the loop body but the invariant "
                               f"does not mention its coordinates", e.span)

        # fall-through: all the loop guarantees is the invariant
        ctx.restore(head.copy())
        if not (isinstance(e.cond, ast.BoolLit) and e.cond.value is False):
            self._widen(ctx, tracked, inv)
        return body_type

    def _bindings_flat(self, ctx: Ctx) -> dict[str, Binding]:
        out: dict[str, Binding] = {}
        for scope in ctx.scopes:
            out.update(scope)
        return out

    def _tracked_bindings(self, ctx: Ctx, inv_vars: frozenset[str],
                          span: Span) -> list[tuple[str, tuple[str, ...]]]:
        tracked = []
        claimed: dict[str, str] = {}
        for name, binding in sorted(self._bindings_flat(ctx).items()):
            inst = _instance_part(binding.type)
            if inst is None or inst.family is None:
                continue
            coords = ctx.st.find_family(inst.family).coord_vars
            used = [c for c in coords if c in inv_vars]
            if not used:
                continue
            for c in used:
                if c in claimed:
                    self.error("IllFormedFormula",
                               f"invariant coordinate '{c}' is ambiguous: both "
                               f"'{claimed[c]}' and '{name}' carry it", span)
                claimed[c] = name
            tracked.append((name, coords))
        leftover = inv_vars - set(claimed)
        if leftover:
            self.error("IllFormedFormula",
                       f"invariant mentions unknown coordinates: "
                       f"{', '.join(sorted(leftover))}", span)
        return tracked

    def _invariant_goal(self, ctx: Ctx, name: str, inv: Formula,
                        coords: tuple[str, ...]) -> Formula:
        inst = _instance_part(ctx.lookup(name).type)
        mapping = {c: Lin.of(a) for c, a in zip(coords, inst.args)}
        return substitute(inv, {k: v.to_term() for k, v in mapping.items()})

    def _widen(self, ctx: Ctx, tracked, inv: Formula) -> None:
        """Replace each tracked object's coordinates by fresh unknowns
        constrained only by the invariant."""
        for name, coords in tracked:
            binding = ctx.lookup(name)
            inst = _instance_part(binding.type)
            fresh = {c: ctx.fresh(c) for c in coords}
            ctx.logical_vars.update(fresh.values())
            args = tuple(Var(fresh[c]) for c in coords)
            ctx.rebind(name, _with_instance(binding.type, replace(inst, args=args)))
            ctx.assume(substitute(inv, {c: Var(n) for c, n in fresh.items()}))

    # -- method calls -------------------------------------------------------------

    def infer_call(self, ctx: Ctx, e: ast.MethodCall) -> Type:
        recv_type = self.infer(ctx, e.recv)
        recv_state = _state_of(recv_type)
        if recv_state is None:
            self.error("NotADepInstance",
                       f"method call on a value of type {_show(recv_type)}; "
                       f"an object with a typestate is required", e.span)
        mt = mtype(ctx.st, e.method, recv_state)
        if len(mt.params) != len(e.args):
            self.error("ArityMismatch",
                       f"'{e.method}' takes {len(mt.params)} arguments, got "
                       f"{len(e.args)}", e.span)

        ren: dict[str, str] = {}
        pairs: list[tuple[ast.Expr, str, ChangeType]] = []
        for (pname, change), actual in zip(mt.params, e.args):
            pairs.append((actual, pname, self.open_change(ctx, change, ren, e.span)))
        for ename, change in mt.env:
            if ename == "this":
                pairs.append((e.recv, "this", self.open_change(ctx, change, ren, e.span)))
            else:
                if ctx.lookup(ename) is None:
                    self.error("UnboundVariable",
                               f"environment variable '{ename}' of '{e.method}' "
                               f"is not bound at this call", e.span)
                pairs.append((ast.VarRef(ename, e.span), ename,
                              self.open_change(ctx, change, ren, e.span)))

        sig_vars = set(ren.values())
        for actual, pname, change in pairs:
            self._check_argument(ctx, e, actual, pname, change, sig_vars)

        if self.strict_calls:
            self._strict_body_check(ctx, e, recv_state)
        return self.elaborate(ctx, mt.ret, e.span)

    def _check_argument(self, ctx: Ctx, call: ast.MethodCall, actual: ast.Expr,
                        pname: str, change: ChangeType, sig_vars: set[str]) -> None:
        got = self.infer(ctx, actual)
        pre, post = change.pre, change.post
        span = getattr(actual, "span", call.span)

        if isinstance(pre, PermPair):
            if not isinstance(got, PermPair) or got.perm != pre.perm:
                got_perm = got.perm if isinstance(got, PermPair) else None
                self.error("PermissionViolation",
                           f"'{call.method}' needs permission {pre.perm} for "
                           f"'{pname}', got {got_perm}", span)

        got_state = _state_of(got)
        pre_state = _state_of(pre)
        if pre_state is not None:
            if got_state is None or not self.subtype(ctx, StateRef(got_state),
                                                     StateRef(pre_state)):
                self.error("PreconditionViolation",
                           f"'{call.method}' requires '{pname}' in state "
                           f"'{pre_state}': state {got_state} is not {pre_state}",
                           span)

        pre_i, post_i, got_i = _instance_part(pre), _instance_part(post), _instance_part(got)
        rebind_to: Optional[Type] = None
        if pre_i is not None and pre_i.args:
            if got_i is None or got_i.family != pre_i.family:
                self.error("NotADepInstance",
                           f"'{call.method}' requires '{pname}' to carry a "
                           f"'{pre_i.family}' typestate", span)
            bindings = conj(*(eq(a, b) for a, b in zip(got_i.args, pre_i.args)))
            pre_f = pre_i.constraint
            post_f = post_i.constraint if post_i is not None else TRUE
            goal = conj(bindings, pre_f, post_f)
            ok = self.solve(ctx, "mcall", span, goal, sig_vars=sig_vars,
                            method=call.method)
            if not ok:
                self._report_call_failure(ctx, call, actual, pname, got_i, pre_i,
                                          post_i, bindings, pre_f, post_f,
                                          sig_vars, span)
            # the obligation phi => exists sig. goal holds, so with the
            # signature's variables fresh a satisfiable phi && goal stays so
            ctx.assume(goal, span,
                       keeps_sat=sig_vars.isdisjoint(free_vars(ctx.phi)))
            if self.audit:
                fam = ctx.st.find_family(pre_i.family)
                frozen_pre = InstanceType(pre_i.family,
                                          tuple(Var(c) for c in fam.coord_vars),
                                          self._side_formula(fam.coord_vars, pre_i),
                                          pre_i.state)
                self.subtype(ctx, got_i, frozen_pre)
            if post_i is not None:
                rebind_to = _with_instance(post, replace(post_i, constraint=TRUE))
        else:
            # plain-state transition: the callee cannot see the coordinates,
            # so an instance-typed argument keeps them across the state change
            post_state = _state_of(post)
            if post_state is not None:
                if got_i is not None and got_i.family is not None:
                    rebind_to = _with_instance(got if not isinstance(got, PermPair)
                                               else got,
                                               replace(got_i, state=post_state))
                else:
                    inner: Type = StateRef(post_state)
                    rebind_to = (PermPair(got.perm, inner)
                                 if isinstance(got, PermPair) else inner)
        if rebind_to is not None and isinstance(actual, ast.VarRef):
            ctx.rebind(actual.name, rebind_to)

    def _report_call_failure(self, ctx: Ctx, call, actual, pname, got_i, pre_i,
                             post_i, bindings, pre_f, post_f, sig_vars, span):
        coords = tuple()
        fam = ctx.st.find_family(pre_i.family) if pre_i.family else None
        if fam is not None:
            coords = fam.coord_vars
        pre_ok = is_valid(implies(ctx.phi, exists_many(sorted(sig_vars),
                                                       conj(bindings, pre_f))))
        here = render(tidy(self.inst_formula(ctx, got_i)))
        if not pre_ok:
            required = render(tidy(self._side_formula(coords, pre_i)))
            model = witness(conj(ctx.phi,
                                 neg(exists_many(sorted(sig_vars),
                                                 conj(bindings, pre_f)))))
            grounded = self._ground_coords(coords, got_i, model)
            self.error(
                "PreconditionViolation",
                f"precondition of '{call.method}' fails for '{pname}': "
                f"requires {required}, but here {here}"
                + (f", grounding to ({grounded})" if grounded else ""),
                span,
                note=f"obligation {render(simplify(conj(bindings, pre_f)))} "
                     f"not entailed by {render(simplify(ctx.phi))}")
        else:
            model = witness(conj(ctx.phi, bindings, pre_f))
            post_required = render(tidy(self._side_formula(coords, post_i)))
            grounded = self._ground_coords(coords, post_i, model, use_args=True)
            self.error(
                "PostconditionUnsatisfiable",
                f"call to '{call.method}' cannot establish its postcondition for "
                f"'{pname}': the post typestate grounds to ({grounded}), "
                f"violating {post_required}",
                span,
                note=f"obligation {render(simplify(post_f))} with "
                     f"{render(simplify(conj(ctx.phi, bindings, pre_f)))}")

    def _side_formula(self, coords: tuple[str, ...], inst: Optional[InstanceType]) -> Formula:
        if inst is None:
            return TRUE
        facts = [inst.constraint]
        for name, arg in zip(coords, inst.args):
            facts.append(eq(Var(name), arg))
        return simplify(project_onto(conj(*facts), coords))

    def _ground_coords(self, coords, inst, model, use_args: bool = False) -> str:
        if model is None or inst is None:
            return ""
        env = dict(model)
        pieces = []
        for name, arg in zip(coords, inst.args):
            lin = Lin.of(arg)
            for v in lin.variables():
                env.setdefault(v, 0)
            pieces.append(f"{name} = {lin.evaluate(env)}")
        return ", ".join(pieces)

    def _strict_body_check(self, ctx: Ctx, call: ast.MethodCall, recv_state: str) -> None:
        defined_in, decl = find_method_decl(ctx.st, call.method, recv_state)
        key = (defined_in, call.method)
        if decl.body is None or key in self._call_stack:
            return
        self._call_stack.append(key)
        try:
            self.check_method_decl(defined_in, decl)
        finally:
            self._call_stack.pop()


# ---------------------------------------------------------------------------
# Family formation and instantiation
# ---------------------------------------------------------------------------

def check_family_formation(st: StateTable, fam: ast.TypeFamDecl) -> None:
    if len(set(fam.coord_vars)) != len(fam.coord_vars):
        raise BrtsError("IllKindedFamily",
                        f"family '{fam.name}' repeats a coordinate name", fam.span)
    if not fam.coord_vars:
        raise BrtsError("IllKindedFamily",
                        f"family '{fam.name}' needs at least one coordinate", fam.span)
    if fam.state_bound not in st:
        raise BrtsError("IllKindedFamily",
                        f"family '{fam.name}' ranges over unknown state "
                        f"'{fam.state_bound}'", fam.span)


def instantiate_family(ctx: Ctx, fam: ast.TypeFamDecl, args: tuple[Term, ...],
                       constraint: Formula, state: str,
                       span: Span = NO_SPAN) -> InstanceType:
    if not ctx.st.is_substate(state, fam.state_bound):
        raise BrtsError("StateOutOfFamily",
                        f"state '{state}' is outside family '{fam.name}' "
                        f"(over '{fam.state_bound}')", span)
    if args and len(args) != len(fam.coord_vars):
        raise BrtsError("IllFormedFormula",
                        f"family '{fam.name}' has {len(fam.coord_vars)} coordinates, "
                        f"got {len(args)} arguments", span)
    if not args:
        args = tuple(Var(ctx.fresh(c)) for c in fam.coord_vars)
        for a in args:
            ctx.logical_vars.add(a.name)
    return InstanceType(fam.name, args, constraint, state)


# ---------------------------------------------------------------------------
# Reduction of typing relations to arithmetic
# ---------------------------------------------------------------------------

def reduce_to_paf(rel, st: StateTable) -> Formula:
    """Encode a typing relation as a formula valid exactly when the relation
    is derivable; the single funnel every relation can be replayed through."""
    match rel:
        case WfRel(ty):
            return _psi_wf(ty, st)
        case SubRel(t1, t2):
            return _psi_sub(t1, t2, st)
        case EqRel(t1, t2):
            return conj(_psi_sub(t1, t2, st), _psi_sub(t2, t1, st))
        case TransRel(pre, body, post):
            return implies(conj(_psi_wf(pre, st), _psi_wf(body, st)),
                           _psi_wf(post, st))
    raise BrtsError("UnsupportedRelation",
                    f"no arithmetic reduction for {rel!r}")


def _psi_wf(ty: Type, st: StateTable) -> Formula:
    match ty:
        case PrimType():
            v = Var("wf$")
            return exists_many(["wf$"], ne(v, Const(0)))
        case StateRef(name):
            return _psi_state(name, st)
        case PermPair(_, inner):
            return _psi_wf(inner, st)
        case InstanceType():
            coords = sorted(free_vars(ty.constraint))
            return exists_many(coords, conj(ty.constraint, _psi_state(ty.state, st)))
        case ChangeType(pre, post):
            return conj(_psi_wf(pre, st), _psi_wf(post, st))
    raise BrtsError("UnsupportedRelation", f"no formula for type {ty!r}")


def _psi_state(name: str, st: StateTable) -> Formula:
    codes = st.state_codes()
    if name not in codes:
        return FALSE
    x = Var("state$")
    return disj(*(eq(x, Const(codes[s])) for s in st.descendants(name)))


def _psi_sub(t1: Type, t2: Type, st: StateTable) -> Formula:
    match (t1, t2):
        case (PrimType(a), PrimType(b)):
            return TRUE if a == b else FALSE
        case (PermPair(a1, i1), PermPair(a2, i2)):
            return conj(TRUE if a1 == a2 else FALSE, _psi_sub(i1, i2, st))
        case (StateRef(a), StateRef(b)):
            return implies(_psi_state(a, st), _psi_state(b, st))
        case (InstanceType(), StateRef(b)):
            return implies(_psi_state(t1.state, st), _psi_state(b, st))
        case (StateRef(a), InstanceType()):
            return conj(implies(_psi_state(a, st), _psi_state(t2.state, st)),
                        implies(TRUE, t2.constraint))
        case (InstanceType(), InstanceType()):
            return conj(implies(_psi_state(t1.state, st), _psi_state(t2.state, st)),
                        implies(t1.constraint, t2.constraint))
        case (ChangeType(p1, q1), ChangeType(p2, q2)):
            return conj(_psi_sub(p1, p2, st), _psi_sub(p2, p1, st),
                        _psi_sub(q1, q2, st), _psi_sub(q2, q1, st))
        case (UnionType(ms), _):
            return conj(*(_psi_sub(m, t2, st) for m in ms))
        case (_, UnionType(ms)):
            return conj(*(_psi_sub(t1, m, st) for m in ms))
    return FALSE


def freeze_type(ctx: Optional[Ctx], ty: Type) -> Type:
    """Make a type self-contained: instance components swap their argument
    terms for the projection of everything the context knows about them."""
    match ty:
        case InstanceType():
            if ctx is None:
                return ty
            fam = ctx.st.find_family(ty.family) if ty.family else None
            checker = ctx.checker
            proj = checker.inst_formula(ctx, ty)
            coords = fam.coord_vars if fam else ()
            return InstanceType(ty.family, tuple(Var(c) for c in coords), proj,
                                ty.state)
        case PermPair(perm, inner):
            return PermPair(perm, freeze_type(ctx, inner))
        case ChangeType(pre, post):
            return ChangeType(freeze_type(ctx, pre), freeze_type(ctx, post))
        case UnionType(ms):
            return UnionType(tuple(freeze_type(ctx, m) for m in ms))
        case _:
            return ty


# ---------------------------------------------------------------------------
# Helpers over type shapes
# ---------------------------------------------------------------------------

def strip_perm(ty: Type) -> Type:
    return ty.inner if isinstance(ty, PermPair) else ty


def _instance_part(ty: Type) -> Optional[InstanceType]:
    ty = strip_perm(ty)
    return ty if isinstance(ty, InstanceType) else None


def _state_of(ty: Type) -> Optional[str]:
    ty = strip_perm(ty)
    if isinstance(ty, InstanceType):
        return ty.state
    if isinstance(ty, StateRef):
        return ty.name
    return None


def _with_instance(ty: Type, inst: InstanceType) -> Type:
    if isinstance(ty, PermPair):
        return PermPair(ty.perm, inst)
    return inst


def _retag(ty: Type, state: str) -> Type:
    inst = _instance_part(ty)
    if inst is not None:
        return _with_instance(ty, replace(inst, state=state))
    if isinstance(ty, PermPair) and isinstance(ty.inner, StateRef):
        return PermPair(ty.perm, StateRef(state))
    if isinstance(ty, StateRef):
        return StateRef(state)
    return ty


def _subst_term(t: Term, mapping: dict[str, Term]) -> Term:
    lin = Lin.of(t)
    out = Lin({}, lin.const)
    for v, c in lin.coeffs.items():
        if v in mapping:
            out = out.add(Lin.of(mapping[v]).scale(c))
        else:
            out = out.add(Lin({v: c}))
    return out.to_term()


def _show(ty: Type) -> str:
    from .printer import print_type
    return print_type(ty)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def check_program(program: ast.Program, filename: str = "<input>",
                  strict_calls: bool = False, audit: bool = False) -> Checker:
    checker = Checker(program, filename, strict_calls, audit)
    checker.run()
    return checker
