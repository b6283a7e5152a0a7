"""The dependent typestate checker.

Judgments thread one constraint environment alongside the variable
context: checking an expression yields its type and grows the environment
with the facts the expression introduced.  Every constraint obligation
funnels into the linear-arithmetic solver.  With ``audit=True`` the checker
also records each subtype and equality query, frozen against its context,
so the run can be replayed through the arithmetic reduction; recording is
opt-in because freezing a type costs a projection per query.

The environment is kept in solved form, and every verdict reads it:
obligations, instance subtyping and equality, and the audit.  ``Ctx.subst``
maps each variable that a unit equality pinned to its value, and no value
mentions a pinned variable; ``Ctx.residual`` is the rest.  An assumption is
rewritten through ``subst``, and only its own unit equalities are solved,
so a query costs what its residual costs, not what the history does.  At a
``match`` join each arm drops the variables that no longer matter and that
a unit equality pins, and the disjuncts of the arms that pin the same
values merge, so a run of joins leaves a residual that grows with the
number of cases, not with the history.  ``Ctx.phi`` is the history itself,
and it only renders: obligations, diagnostics, the ``but here`` of a
failing precondition and the countermodel of a failing obligation are
stated over it, and no verdict depends on it.

The environment carries whether it is satisfiable (``Ctx.sat``: True, False
or None for unknown), so the unreachable-code warning asks the solver only
when an assumption may have changed the residual.

Logical variables written in annotations are scoped to their method
signature and shared between the pre and post sides.  The checker renames
them apart (``p$3`` style) per use, so user coordinate names never collide;
everything user-facing is rendered as a projection onto the family's
coordinate names.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional

from .diagnostics import NO_SPAN, BrtsError, Diagnostic, Span
from .presburger import (
    Const, Formula, Lin, Or, Var,
    compact, conj, disj, entails, eq, exists_many, formula_equal, free_vars,
    implies, is_satisfiable, neg, project_onto, render, simplify,
    solved_form, substitute, tidy, witness, FALSE, TRUE,
)
from . import syntax as ast
from .record import record, replace
from .syntax import (
    BOOL, INT, STRING, VOID,
    ChangeType, InstanceType, PermPair, PrimType, StateRef,
    StateTable, Type, UnionType, WildcardType,
    find_method_decl, state_table, strip_perm,
)


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------

@record
class Binding:
    type: Type
    mutable: bool = True


class Ctx:
    def __init__(self, st: StateTable, checker: "Checker"):
        self.st = st
        self.checker = checker
        self.scopes: list[dict[str, Binding]] = [{}]
        self.phi: Formula = TRUE           # the history, for rendering
        # the solved form of phi, which every query reads: phi is equivalent
        # to residual && (v == subst[v] for each v), up to the dead variables
        # a join eliminated
        self.subst: dict[str, Lin] = {}
        self.residual: Formula = TRUE
        # the variables of residual and of subst's values; a new equality
        # solves for none of them, so subst stays idempotent and assume
        # never rewrites residual
        self.pinned: set[str] = set()
        self.sat: Optional[bool] = True    # is phi satisfiable; None = unknown
        # how the enclosing signature spelled its logical variables
        self.annot_names: dict[str, str] = {}

    def copy(self) -> "Ctx":
        c = Ctx.__new__(Ctx)
        c.restore(self)
        c.scopes = [dict(s) for s in self.scopes]
        c.subst = dict(self.subst)
        c.pinned = set(self.pinned)
        c.annot_names = dict(self.annot_names)
        return c

    def restore(self, other: "Ctx") -> None:
        """Take other's fields; the containers are shared, not copied."""
        self.__dict__.update(other.__dict__)

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

    def apply(self, f: Formula) -> Formula:
        """f with the solved variables replaced by their values."""
        mapping = {v: self.subst[v] for v in free_vars(f) if v in self.subst}
        return substitute(f, mapping) if mapping else f

    def mentions(self, names: Iterable[str]) -> bool:
        """Whether the environment may constrain any of names."""
        return any(v in self.subst or v in self.pinned for v in names)

    def assume(self, f: Formula, span: Span = NO_SPAN,
               keeps_sat: bool = False) -> None:
        """Conjoin f.  keeps_sat: the caller knows that a satisfiable phi
        stays satisfiable with f; an unsatisfiable phi always stays so.

        The solved form takes f's unit equalities over variables it does
        not mention yet into subst, and the rest of f into residual."""
        f = simplify(f)
        # phi is simplified already, so this is simplify(conj(phi, f))
        self.phi = conj(self.phi, f)
        g = self.apply(f)
        rest, values = solved_form(g, free_vars(g) - self.pinned)
        for v, t in values.items():
            self.subst[v] = t
            self.pinned |= t.variables()
        residual = conj(self.residual, rest)
        if residual != self.residual:
            self.residual = residual
            self.pinned |= free_vars(rest)
            if self.sat and not keeps_sat:
                self.sat = None
        self.checker.note_context(self, span)


# ---------------------------------------------------------------------------
# Obligations
# ---------------------------------------------------------------------------

@record
class Obligation:
    span: Span
    rule: str
    phi_f: Formula             # incoming environment
    goal_f: Formula            # the constraint put to the solver
    verdict: bool

    @property
    def phi(self) -> str:
        """The incoming environment, rendered; only `explain` and the JSON
        output read it, so a check renders nothing."""
        return render(simplify(self.phi_f))

    @property
    def goal(self) -> str:
        """The constraint put to the solver, rendered."""
        return render(simplify(self.goal_f))

    @property
    def countermodel(self) -> Optional[dict[str, int]]:
        """A model of phi && ~goal when the obligation fails, searched in the
        whole history so that it names the variables phi renders.  Only
        `explain` and the JSON output read it, so a check searches for none."""
        return None if self.verdict else witness(conj(self.phi_f, neg(self.goal_f)))

    def to_json(self) -> dict:
        out = {
            "line": self.span.line,
            "col": self.span.col,
            "rule": self.rule,
            "phi": self.phi,
            "obligation": self.goal,
            "verdict": "valid" if self.verdict else "invalid",
        }
        model = self.countermodel
        if model is not None:
            out["countermodel"] = model
        return out


@record(frozen=True)
class SubRel:
    t1: Type
    t2: Type


@record(frozen=True)
class EqRel:
    t1: Type
    t2: Type


@record(frozen=True)
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
                 audit: bool = False):
        self.program = program
        self.filename = filename
        self.audit = audit
        self.diagnostics: list[Diagnostic] = []
        self.obligations: list[Obligation] = []
        self.query_log: list[QueryRecord] = []
        self.st: Optional[StateTable] = None
        self._counter = 0
        self._dead_warned: set[tuple[int, int]] = set()

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
            ctx.sat = is_satisfiable(ctx.residual)
        if not ctx.sat:
            self._dead_warned.add(key)
            self.warn("ContradictoryContext",
                      "constraint environment is unsatisfiable from here on",
                      span)

    def record_query(self, kind: str, t1: Type, t2: Type, result: bool,
                     ctx: Ctx) -> None:
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
        for state, info in self.st.states.items():
            for fam in info.families.values():
                try:
                    check_family_formation(self.st, fam)
                except BrtsError as err:
                    self.diagnostics.append(err.diagnostic)
            for fd in info.fields.values():
                try:
                    self.check_field_decl(state, fd)
                except BrtsError as err:
                    self.diagnostics.append(err.diagnostic)
            for md in info.methods.values():
                try:
                    self.check_method_decl(state, md)
                except BrtsError as err:
                    self.diagnostics.append(err.diagnostic)
        return self.diagnostics

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
            sides = [i for i in (_instance_part(pre), _instance_part(change.post))
                     if i is not None]
            if sides:
                ctx.assume(conj(*(i.constraint for i in sides)), p.span)
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
            ok = self.solve(ctx, "post", span, goal)
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
            mentioned |= a.variables()
        mentioned |= free_vars(inst.constraint)
        for v in sorted(mentioned):
            if v not in ren:
                ren[v] = ctx.fresh(v)
        mapping = {v: Lin.var(n) for v, n in ren.items()}
        args = tuple(a.substitute(mapping) for a in inst.args)
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

    def inst_formula(self, ctx: Ctx, inst: InstanceType) -> Formula:
        """Project what the solved form knows about an instance onto its
        family's coordinate names; what subtyping and the audit compare."""
        if inst.family is None:
            return simplify(inst.constraint)
        coords = ctx.st.find_family(inst.family).coord_vars
        applied = replace(inst, args=tuple(a.substitute(ctx.subst) for a in inst.args),
                          constraint=ctx.apply(inst.constraint))
        return _project(ctx.residual, coords, applied)

    # -- the solver funnel ------------------------------------------------------

    def solve(self, ctx: Ctx, rule: str, span: Span, goal: Formula,
              sig_vars: Iterable[str] = ()) -> bool:
        """One obligation: ctx.phi must entail goal (with the signature's
        fresh variables existentially instantiated).  The solved form decides
        it: it holds exactly when residual && ~goal[subst] has no model.  The
        obligation keeps the history and the closed goal, so a failing one's
        countermodel is searched only when something reads it."""
        closed = exists_many(sorted(sig_vars), goal)
        verdict = witness(conj(ctx.residual, neg(ctx.apply(closed)))) is None
        self.obligations.append(Obligation(span, rule, ctx.phi, closed, verdict))
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
            case ast.Block():
                return self.infer_block(ctx, e)
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
        # the literal as written may name the signature's variables only
        out_of_scope = sorted(_type_vars(e.inst) - ctx.annot_names.keys())
        if out_of_scope:
            self.error("UnboundVariable",
                       f"logical variable '{out_of_scope[0]}' is not in scope here",
                       e.span)
        if ctx.annot_names:
            mapping = {u: Lin.var(f) for u, f in ctx.annot_names.items()}
            inst = replace(
                inst,
                args=tuple(a.substitute(mapping) for a in inst.args),
                constraint=substitute(inst.constraint, mapping))
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
        field_decl = ctx.st.find_field(state, e.name)
        if field_decl is None:
            self.error("IllFormedType",
                       f"state '{state}' has no field '{e.name}'", e.span)
        return self.elaborate(ctx, field_decl.type, e.span)

    def infer_block(self, ctx: Ctx, e: ast.Block) -> Type:
        """A block's declarations bind in its own scope, each over the
        statements after it."""
        ctx.push()
        result: Type = VOID
        for stmt in e.stmts:
            if isinstance(stmt, ast.VarDecl):
                if stmt.declared is not None:
                    declared = self.elaborate(ctx, stmt.declared, stmt.span,
                                              allow_wildcard=True)
                    bound = self.check_initializer(ctx, declared, stmt.init,
                                                   stmt.span, stmt.name)
                else:
                    bound = self.infer(ctx, stmt.init)
                ctx.bind(stmt.name, Binding(bound, mutable=stmt.mutable))
                result = VOID
            else:
                result = self.infer(ctx, stmt)
        ctx.pop()
        return result

    def infer_let(self, ctx: Ctx, e: ast.Let) -> Type:
        bound = self.infer(ctx, e.init)
        ctx.push()
        ctx.bind(e.name, Binding(bound, mutable=False))
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
        field_decl = ctx.st.find_field(state, e.name)
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
            arm_ctx = ctx.copy()
            if scrut_name is not None:
                binding = arm_ctx.lookup(scrut_name)
                if binding is not None:
                    arm_ctx.rebind(scrut_name, _retag(binding.type, refined))
            arm_types.append(self.infer(arm_ctx, arm.body))
            post_bindings.append(arm_ctx)

        if not post_bindings:
            return VOID
        self._join_arms(ctx, post_bindings, arm_types)

        result = arm_types[0]
        if all(self.type_equal(ctx, t, result) for t in arm_types[1:]):
            return result
        return UnionType(tuple(arm_types))

    def _join_arms(self, ctx: Ctx, arms: list[Ctx], results: list[Type]) -> None:
        """Merge the arm contexts into ctx, the entry: bindings that diverged
        get fresh coordinates pinned per arm inside that arm's environment,
        so the disjunction of the environments carries the exact case split.
        The join is satisfiable iff some arm is.

        Every arm's subst extends the entry's, which the join keeps.  Each
        arm contributes its residual, its pins and what it added to subst,
        less the variables that no longer matter: a unit equality
        eliminates such a variable by substitution before the arms are
        disjoined, and one that none pins stays, read existentially, since
        eliminating it Cooper's way at every join can cost more than the
        queries it would save.  The variables that matter are those of the
        joined bindings, of the arms' results, of the signature and of the
        kept subst values; a match is a statement, so no call has arguments
        pending here."""
        if len(arms) == 1:
            ctx.restore(arms[0])
            return
        entry_subst = ctx.subst
        # each arm is a copy of the entry that binds nothing outside its own
        # block, and rebinding keeps mutable, so the entry names every binding
        scopes: list[dict[str, Binding]] = []
        for level, entry in enumerate(ctx.scopes):
            scope: dict[str, Binding] = {}
            for name, binding in entry.items():
                types = [a.scopes[level][name].type for a in arms]
                joined = types[0] if all(t == types[0] for t in types[1:]) \
                    else self._join_binding(ctx, types, arms)
                scope[name] = Binding(joined, binding.mutable)
            scopes.append(scope)
        ctx.scopes = scopes
        ctx.phi = disj(*(a.phi for a in arms))  # each simplified, so simplified
        kept = set().union(*(t.variables() for t in entry_subst.values()))
        live = kept.union(ctx.annot_names.values())
        for ty in [b.type for scope in scopes for b in scope.values()] + results:
            live |= _type_vars(ty)
        parts = []
        for a in arms:
            added = islice(a.subst.items(), len(entry_subst), None)
            parts.append(conj(a.residual, *(eq(Var(v), t) for v, t in added if v in live)))
        merged = disj(*(solved_form(p, free_vars(p) - live)[0] for p in parts))
        if isinstance(merged, Or):
            merged = compact(merged)
        # what every arm pins goes into subst
        ctx.residual, values = solved_form(merged, free_vars(merged) - kept)
        ctx.subst = {**entry_subst, **values}
        ctx.pinned = kept.union(free_vars(ctx.residual),
                                *(t.variables() for t in values.values()))
        sats = [a.sat for a in arms]
        ctx.sat = True if any(sats) else None if None in sats else False

    def _join_binding(self, ctx: Ctx, types: list[Type], arms: list[Ctx]) -> Type:
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
            for arm, inst in zip(arms, insts):
                pins = simplify(conj(*(eq(Var(w), arg)
                                       for w, arg in zip(fresh, inst.args)),
                                     inst.constraint))
                # not through assume: its solved_form per pin costs more than
                # the join's single solved_form over the disjunction
                arm.phi = conj(arm.phi, pins)
                arm.residual = conj(arm.residual, arm.apply(pins))
                # pinning fresh coordinates keeps an arm satisfiable; a
                # constraint may not
                if arm.sat and inst.constraint != TRUE:
                    arm.sat = None
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
        ctx.restore(head)
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
        return substitute(inv, dict(zip(coords, inst.args)))

    def _widen(self, ctx: Ctx, tracked, inv: Formula) -> None:
        """Replace each tracked object's coordinates by fresh unknowns
        constrained only by the invariant."""
        for name, coords in tracked:
            binding = ctx.lookup(name)
            inst = _instance_part(binding.type)
            fresh = {c: ctx.fresh(c) for c in coords}
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
        _, decl = find_method_decl(ctx.st, e.method, recv_state)
        if len(decl.params) != len(e.args):
            self.error("ArityMismatch",
                       f"'{e.method}' takes {len(decl.params)} arguments, got "
                       f"{len(e.args)}", e.span)

        ren: dict[str, str] = {}
        pairs: list[tuple[ast.Expr, str, ChangeType]] = []
        for param, actual in zip(decl.params, e.args):
            pairs.append((actual, param.name,
                          self.open_change(ctx, param.change, ren, e.span)))
        for param in decl.env:
            ename = param.name
            if ename == "this":
                pairs.append((e.recv, "this", self.open_change(ctx, param.change, ren, e.span)))
            else:
                if ctx.lookup(ename) is None:
                    self.error("UnboundVariable",
                               f"environment variable '{ename}' of '{e.method}' "
                               f"is not bound at this call", e.span)
                pairs.append((ast.VarRef(ename, e.span), ename,
                              self.open_change(ctx, param.change, ren, e.span)))

        sig_vars = set(ren.values())
        for actual, pname, change in pairs:
            self._check_argument(ctx, e, actual, pname, change, sig_vars)

        return self.elaborate(ctx, decl.ret, e.span)

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
            ok = self.solve(ctx, "mcall", span, goal, sig_vars=sig_vars)
            if not ok:
                self._report_call_failure(ctx, call, actual, pname, got_i, pre_i,
                                          post_i, bindings, pre_f, post_f,
                                          sig_vars, span)
            # the obligation phi => exists sig. goal holds, so with the
            # signature's variables fresh a satisfiable phi && goal stays so
            ctx.assume(goal, span, keeps_sat=not ctx.mentions(sig_vars))
            if self.audit:
                fam = ctx.st.find_family(pre_i.family)
                frozen_pre = InstanceType(pre_i.family,
                                          tuple(Var(c) for c in fam.coord_vars),
                                          _project(TRUE, fam.coord_vars, pre_i),
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
                    rebind_to = _with_instance(got, replace(got_i, state=post_state))
                else:
                    inner: Type = StateRef(post_state)
                    rebind_to = (PermPair(got.perm, inner)
                                 if isinstance(got, PermPair) else inner)
        if rebind_to is not None and isinstance(actual, ast.VarRef):
            ctx.rebind(actual.name, rebind_to)

    def _report_call_failure(self, ctx: Ctx, call, actual, pname, got_i, pre_i,
                             post_i, bindings, pre_f, post_f, sig_vars, span):
        fam = ctx.st.find_family(pre_i.family) if pre_i.family else None
        coords = fam.coord_vars if fam is not None else ()
        model = witness(conj(ctx.phi, neg(exists_many(sorted(sig_vars),
                                                      conj(bindings, pre_f)))))
        pre_ok = model is None
        if not pre_ok:
            # stated over the history, the way the notes are
            here = render(tidy(_project(ctx.phi, coords, got_i)))
            required = render(tidy(_project(TRUE, coords, pre_i)))
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
            post_required = render(tidy(_project(TRUE, coords, post_i)))
            grounded = self._ground_coords(coords, post_i, model)
            self.error(
                "PostconditionUnsatisfiable",
                f"call to '{call.method}' cannot establish its postcondition for "
                f"'{pname}': the post typestate grounds to ({grounded}), "
                f"violating {post_required}",
                span,
                note=f"obligation {render(simplify(post_f))} with "
                     f"{render(simplify(conj(ctx.phi, bindings, pre_f)))}")

    def _ground_coords(self, coords, inst, model) -> str:
        if model is None or inst is None:
            return ""
        env = dict(model)
        pieces = []
        for name, arg in zip(coords, inst.args):
            for v in arg.variables():
                env.setdefault(v, 0)
            pieces.append(f"{name} = {arg.evaluate(env)}")
        return ", ".join(pieces)


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


def instantiate_family(ctx: Ctx, fam: ast.TypeFamDecl, args: tuple[Lin, ...],
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
    return InstanceType(fam.name, args, constraint, state)


# ---------------------------------------------------------------------------
# Reduction of typing relations to arithmetic
# ---------------------------------------------------------------------------

def reduce_to_paf(rel, st: StateTable) -> Formula:
    """Encode a typing relation as a formula valid exactly when the relation
    is derivable; the single funnel every relation can be replayed through."""
    match rel:
        case SubRel(t1, t2):
            return _psi_sub(t1, t2, st)
        case EqRel(t1, t2):
            return conj(_psi_sub(t1, t2, st), _psi_sub(t2, t1, st))
    raise BrtsError("UnsupportedRelation",
                    f"no arithmetic reduction for {rel!r}")


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


def freeze_type(ctx: Ctx, ty: Type) -> Type:
    """Make a type self-contained: instance components swap their argument
    terms for the projection of everything the context's solved form knows
    about them."""
    match ty:
        case InstanceType():
            fam = ctx.st.find_family(ty.family) if ty.family else None
            proj = ctx.checker.inst_formula(ctx, ty)
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

def _project(context: Formula, coords: tuple[str, ...],
             inst: Optional[InstanceType]) -> Formula:
    """What context and an instance's own constraint say about its
    arguments, projected onto the coordinate names coords."""
    if inst is None:
        return TRUE
    facts = [context, inst.constraint]
    for name, arg in zip(coords, inst.args):
        facts.append(eq(Var(name), arg))
    return simplify(project_onto(conj(*facts), coords))


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


def _type_vars(ty: Type) -> frozenset[str]:
    """The logical variables a type mentions."""
    match ty:
        case PermPair(_, inner):
            return _type_vars(inner)
        case InstanceType():
            out = free_vars(ty.constraint)
            for a in ty.args:
                out |= a.variables()
            return out
        case UnionType(ms):
            return frozenset().union(*(_type_vars(m) for m in ms))
        case ChangeType(pre, post):
            return _type_vars(pre) | _type_vars(post)
    return frozenset()


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


def _show(ty: Type) -> str:
    from .printer import print_type
    return print_type(ty)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def check_program(program: ast.Program, filename: str = "<input>",
                  audit: bool = False) -> Checker:
    checker = Checker(program, filename, audit)
    checker.run()
    return checker
