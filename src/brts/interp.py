"""Big-step evaluator over program stores.

The store is one map from variable names to values, objects included: an
object holds its own fields, so there is no separate heap.  Objects created
at a dependent typestate carry their coordinate valuation; signature-driven
transitions rewrite those coordinates at runtime, which is what the trace
tooling reads back out.

Evaluation mutates the one store it is given and returns only the value.
Two match semantics are provided: concrete mode picks the first arm whose
guard state covers the scrutinee's tag, abstract mode evaluates every arm
on its own fork of the store, joins the results into an indexed value and
joins the forks back into the store.  Loops iterate in concrete mode;
abstract mode takes the body once, standing in for the fixpoint the checked
invariant witnesses.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .diagnostics import NO_SPAN, BrtsError, Span
from .presburger import Formula, Lin, conj, eq, substitute, witness
from . import syntax as ast
from .record import record, replace
from .syntax import (
    ChangeType, InstanceType, PermPair, PrimType, StateRef, StateTable, Type,
    WildcardType, find_method_decl, state_table, strip_perm,
)


class RuntimeErr(Exception):
    def __init__(self, kind: str, message: str, span: Span = NO_SPAN):
        super().__init__(message)
        self.kind = kind
        self.span = span


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Value:
    __slots__ = ()


@record(frozen=True)
class IntV(Value):
    value: int


@record(frozen=True)
class BoolV(Value):
    value: bool


@record(frozen=True)
class StrV(Value):
    value: str


@record(frozen=True)
class UnitV(Value):
    pass


UNIT = UnitV()


@record(frozen=True)
class Loc(Value):
    """The null reference: the default value of an object-typed variable.
    `NULL`, at index 0, is the only one built; objects are `ObjV` values."""
    index: int


NULL = Loc(0)


@record(frozen=True)
class ObjV(Value):
    """An object value tagged with its current state.

    coords carries the runtime counter valuation for dependently created
    objects (None otherwise); family names the type family those counters
    instantiate.
    """
    state: str
    fields: tuple[tuple[str, Value], ...]
    coords: Optional[tuple[int, ...]] = None
    family: Optional[str] = None
    loc: int = 0

    def field_value(self, name: str) -> Optional[Value]:
        for k, v in self.fields:
            if k == name:
                return v
        return None

    def with_field(self, name: str, value: Value) -> "ObjV":
        out = tuple((k, value if k == name else v) for k, v in self.fields)
        return replace(self, fields=out)


@record(frozen=True)
class IndexedV(Value):
    """Join of the values the arms of an abstract match produced."""
    options: tuple[Value, ...]


def join_values(a: Value, b: Value) -> Value:
    if a == b:
        return a
    opts: list[Value] = []
    for v in (a, b):
        if isinstance(v, IndexedV):
            opts.extend(v.options)
        else:
            opts.append(v)
    seen: list[Value] = []
    for v in opts:
        if v not in seen:
            seen.append(v)
    return seen[0] if len(seen) == 1 else IndexedV(tuple(seen))


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

class Store:
    """Each variable's value, plus the counter that numbers new objects."""

    def __init__(self) -> None:
        self.vars: dict[str, Value] = {}
        self._next_loc = 1

    def fresh_loc(self) -> int:
        loc = self._next_loc
        self._next_loc += 1
        return loc

    def copy(self) -> "Store":
        out = Store()
        out.vars = dict(self.vars)
        out._next_loc = self._next_loc
        return out

    def bind(self, name: str, value: Value) -> None:
        self.vars[name] = value

    def saved(self, name: str) -> Optional[Value]:
        """What `restore` needs to put name's binding back."""
        return self.vars.get(name)

    def restore(self, name: str, saved: Optional[Value]) -> None:
        if saved is None:
            self.vars.pop(name, None)
        else:
            self.vars[name] = saved

    def lookup(self, name: str) -> Optional[Value]:
        return self.vars.get(name)

    def join(self, forks: list["Store"]) -> None:
        """Become the join of forks, copies of this store that evaluation
        went on in."""
        joined = dict(forks[0].vars)
        for fork in forks[1:]:
            for k, v in fork.vars.items():
                joined[k] = join_values(joined[k], v) if k in joined else v
        self.vars = joined
        self._next_loc = max(fork._next_loc for fork in forks)


def default(ty: Type) -> Value:
    """Initial value of a declared type."""
    match ty:
        case PrimType("int"):
            return IntV(0)
        case PrimType("bool"):
            return BoolV(False)
        case PrimType("string"):
            return StrV("")
        case PrimType("void"):
            return UNIT
        case StateRef() | InstanceType() | WildcardType():
            return NULL
        case PermPair(_, inner):
            return default(inner)
    raise RuntimeErr("NoDefault", f"no default value for type {ty!r}")


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

@record
class TraceEntry:
    rule: str
    span: Span
    detail: dict

    def to_json(self) -> dict:
        out = {"rule": self.rule, "line": self.span.line, "col": self.span.col}
        out.update(self.detail)
        return out


class Interp:
    def __init__(self, table: StateTable, mode: str = "concrete",
                 fuel: int = 10 ** 6, trace: bool = False):
        assert mode in ("concrete", "abstract")
        self.st = table
        self.mode = mode
        self.fuel = fuel
        self.tracing = trace
        self.trace: list[TraceEntry] = []
        # signature variables of the innermost call, for typestate literals
        self._sigma_stack: list[dict[str, int]] = [{}]
        self._signatures: dict[int, _Signature] = {}

    # -- helpers -------------------------------------------------------------

    def _spend(self, span: Span) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise RuntimeErr("FuelExhausted", "evaluation step budget exhausted", span)

    def _emit(self, rule: str, span: Span, **detail) -> None:
        if self.tracing:
            self.trace.append(TraceEntry(rule, span, detail))

    @property
    def _sigma(self) -> dict[str, int]:
        return self._sigma_stack[-1]

    def _eval_term(self, lin: Lin, span: Span) -> int:
        sigma = self._sigma
        for v in lin.coeffs:
            if v not in sigma:
                raise RuntimeErr("UnboundRuntimeName",
                                 f"logical variable '{v}' has no runtime value", span)
        return lin.evaluate(sigma)

    @staticmethod
    def _complete(sigma: dict[str, int], variables: frozenset[str],
                  facts: Formula) -> Optional[dict[str, int]]:
        """sigma with a value for each of `variables` it lacks: a model of
        facts with sigma's values put in, and 0 for a variable the facts
        leave free.  None when facts have no such model."""
        model = witness(substitute(facts, {x: Lin.constant(n) for x, n in sigma.items()}))
        if model is None:
            return None
        return {**dict.fromkeys(variables, 0), **sigma, **model}

    def _new_object(self, state: str, inst: Optional[InstanceType],
                    store: Store, span: Span) -> ObjV:
        if state not in self.st:
            raise RuntimeErr("UnknownState", f"state '{state}' is not declared", span)
        fields: list[tuple[str, Value]] = []
        for anc in reversed(self.st.ancestors(state)):
            for fd in self.st.states[anc].fields.values():
                fields.append((fd.name, default(fd.type)))
        coords = None
        family = None
        if inst is not None and inst.args:
            coords = tuple(self._eval_term(a, span) for a in inst.args)
            family = inst.family
        return ObjV(state, tuple(fields), coords, family, store.fresh_loc())

    # -- evaluation ------------------------------------------------------------

    def eval(self, store: Store, e: ast.Expr) -> Value:
        self._spend(getattr(e, "span", NO_SPAN))
        match e:
            case ast.IntLit(v):
                self._emit("const", e.span)
                return IntV(v)
            case ast.BoolLit(v):
                self._emit("const", e.span)
                return BoolV(v)
            case ast.StrLit(v):
                self._emit("const", e.span)
                return StrV(v)
            case ast.VarRef(name, span):
                value = self._lookup(store, name, span)
                self._emit("var", span, name=name)
                return value
            case ast.NewObj(state, inst, ctor_args, span):
                for a in ctor_args:
                    self.eval(store, a)
                obj = self._new_object(state, inst, store, span)
                self._emit("new", span, state=state,
                           coords=list(obj.coords) if obj.coords else None)
                return obj
            case ast.TypestateLit(_, inst, span):
                coords = tuple(self._eval_term(a, span) for a in inst.args)
                obj = ObjV(inst.state, (), coords if inst.args else None,
                           inst.family, store.fresh_loc())
                self._emit("typestate", span, state=inst.state, coords=list(coords))
                return obj
            case ast.FieldRef(obj_e, name, span):
                obj = self._deref(self.eval(store, obj_e), span)
                value = obj.field_value(name)
                if value is None:
                    raise RuntimeErr("UnboundRuntimeName",
                                     f"object has no field '{name}'", span)
                self._emit("de-ref", span, field=name)
                return value
            case ast.Block(stmts):
                return self.eval_block(store, stmts)
            case ast.Let(name, init, body, span):
                value = self.eval(store, init)
                shadowed = store.saved(name)
                store.bind(name, value)
                self._emit("let", span, name=name)
                value = self.eval(store, body)
                store.restore(name, shadowed)
                return value
            case ast.FieldAssign(target, name, value_e, body, span):
                value = self.eval(store, value_e)
                obj = self._deref(self._lookup(store, target, span), span)
                if obj.field_value(name) is None:
                    raise RuntimeErr("UnboundRuntimeName",
                                     f"object has no field '{name}'", span)
                store.bind(target, obj.with_field(name, value))
                self._emit("update-field", span, field=name)
                return self.eval(store, body)
            case ast.Update(target, source, span):
                return self.eval_update(store, target, source, span)
            case ast.MethodCall():
                return self.eval_call(store, e)
            case ast.Match():
                return self.eval_match(store, e)
            case ast.CaseExpr(scrut, body, span):
                self.eval(store, scrut)
                self._emit("case", span)
                return self.eval(store, body)
            case ast.While():
                return self.eval_while(store, e)
        raise RuntimeErr("UnboundRuntimeName", f"cannot evaluate {e!r}")

    def eval_block(self, store: Store, stmts: tuple[ast.Expr, ...],
                   scoped: bool = True) -> Value:
        """Each declaration binds over the rest of the block.  When a scoped
        block ends, its declarations go out of scope: each name is unbound,
        or bound again to what it shadowed."""
        shadowed: dict[str, Optional[Value]] = {}
        value: Value = UNIT
        for stmt in stmts:
            if isinstance(stmt, ast.VarDecl):
                self._spend(stmt.span)
                value = self.eval(store, stmt.init)
                if isinstance(stmt.init, ast.NewObj) and stmt.declared is not None:
                    value = self._adopt_declared(value, stmt.declared)
                if stmt.name not in shadowed:
                    shadowed[stmt.name] = store.saved(stmt.name)
                store.bind(stmt.name, value)
                self._emit("let", stmt.span, name=stmt.name)
                value = UNIT
            else:
                value = self.eval(store, stmt)
        if scoped:
            for name, old in shadowed.items():
                store.restore(name, old)
        return value

    def _lookup(self, store: Store, name: str, span: Span) -> Value:
        value = store.lookup(name)
        if value is None:
            raise RuntimeErr("UnboundRuntimeName",
                             f"'{name}' is not bound at runtime", span)
        return value

    def _deref(self, value: Value, span: Span) -> ObjV:
        if isinstance(value, Loc):
            raise RuntimeErr("NullDereference", "null dereference", span)
        if not isinstance(value, ObjV):
            raise RuntimeErr("UnboundRuntimeName",
                             f"expected an object, got {value!r}", span)
        return value

    def _adopt_declared(self, value: Value, declared: Type) -> Value:
        """A dependent ascription on a plain new: the coordinates come from
        the declaration."""
        inst = strip_perm(declared)
        if isinstance(inst, InstanceType) and inst.args and isinstance(value, ObjV) \
                and value.coords is None:
            # the checker opens a declaration's variables fresh, so any model
            # of its constraint will do: the enclosing call's values where
            # they satisfy it, else a model of the constraint alone
            variables = frozenset().union(*(a.coeffs.keys() for a in inst.args))
            sigma: dict[str, int] = {}
            if variables:
                outer = {x: n for x, n in self._sigma.items() if x in variables}
                sigma = (self._complete(outer, variables, inst.constraint)
                         or self._complete({}, variables, inst.constraint)
                         or dict.fromkeys(variables, 0))
            coords = tuple(a.evaluate(sigma) for a in inst.args)
            return replace(value, coords=coords, family=inst.family)
        return value

    def eval_update(self, store: Store, target: ast.Expr, source: ast.Expr,
                    span: Span) -> Value:
        src_value = self.eval(store, source)
        if not isinstance(target, ast.VarRef):
            raise RuntimeErr("UnboundRuntimeName", "update target must be a variable", span)
        old = store.lookup(target.name)
        new_value = src_value
        if isinstance(src_value, ObjV) and isinstance(old, ObjV):
            # a retag without coordinates keeps the target's counters
            coords = src_value.coords if src_value.coords is not None else old.coords
            family = src_value.family or old.family
            fields = src_value.fields if src_value.fields else old.fields
            new_value = replace(src_value, coords=coords, family=family, fields=fields)
        store.bind(target.name, new_value)
        self._emit("update", span, name=target.name,
                   coords=list(new_value.coords) if isinstance(new_value, ObjV)
                   and new_value.coords else None)
        return new_value

    # -- method calls ------------------------------------------------------------

    def eval_call(self, store: Store, e: ast.MethodCall) -> Value:
        recv_obj = self._deref(self.eval(store, e.recv), e.span)
        try:
            defined_in, decl = find_method_decl(self.st, e.method, recv_obj.state)
        except BrtsError as err:
            raise RuntimeErr("NoSuchMethod", str(err), e.span) from None

        arg_values = [self.eval(store, a) for a in e.args]

        sigma = self._instantiate(decl, arg_values, recv_obj)
        names = [p.name for p in decl.params] + ["this"]
        saved = {name: store.saved(name) for name in names}
        for p, v in zip(decl.params, arg_values):
            store.bind(p.name, v)
        store.bind("this", recv_obj)

        self._sigma_stack.append(sigma)
        try:
            if decl.body is not None:
                result = self.eval(store, decl.body)
            else:
                # trusted signature: apply the declared transition directly
                result = UNIT
                for p, v in zip(decl.params, arg_values):
                    store.bind(p.name, self._apply_post(p.change, v, e.span))
                for p in decl.env:
                    if p.name == "this":
                        store.bind("this", self._apply_post(p.change, recv_obj, e.span))
        finally:
            self._sigma_stack.pop()

        # call-by-value: updated bindings flow back to caller variables
        updated: list[Value] = []
        for p, actual in zip(decl.params, e.args):
            out_v = store.lookup(p.name)
            updated.append(out_v)
        this_out = store.lookup("this")

        for name, old in saved.items():
            store.restore(name, old)

        for actual, out_v in zip(e.args, updated):
            if isinstance(actual, ast.VarRef) and out_v is not None:
                store.bind(actual.name, out_v)
        if isinstance(e.recv, ast.VarRef) and this_out is not None:
            store.bind(e.recv.name, this_out)

        coords = None
        for v in itertools.chain(updated, [this_out]):
            if isinstance(v, ObjV) and v.coords is not None:
                coords = list(v.coords)
        self._emit("mcall", e.span, method=e.method, state=defined_in,
                   coords=coords, depth=len(self._sigma_stack) - 1)
        return result

    def _instantiate(self, decl: ast.MethodDecl, args: list[Value],
                     recv: ObjV) -> dict[str, int]:
        """Values for the signature's logical variables, read off the
        coordinates of the arguments (then the receiver) the way the checker
        reads a call: each pre-argument term equals its coordinate.  An
        equation left with one unknown whose coefficient divides the rest
        binds it, until none binds a new one; the first binding wins.  A
        variable still unknown takes its value from a model of the
        signature's equations and constraints, which a checked call
        guarantees to exist."""
        sig = self._signatures.get(id(decl))
        if sig is None:
            sig = self._signatures[id(decl)] = _signature_of(decl)
        terms, variables, constraint = sig
        equations = []
        for i, j, lin in terms:
            v = recv if i < 0 else args[i] if i < len(args) else None
            if isinstance(v, ObjV) and v.coords and j < len(v.coords):
                equations.append((lin, v.coords[j]))
        sigma: dict[str, int] = {}
        bound = True
        while bound and not variables <= sigma.keys():
            bound = False
            for lin, coord in equations:
                free, rest = [], coord - lin.const
                for x, k in lin.coeffs.items():
                    if x in sigma:
                        rest -= k * sigma[x]
                    else:
                        free.append(x)
                if len(free) == 1 and rest % lin.coeffs[free[0]] == 0:
                    sigma[free[0]] = rest // lin.coeffs[free[0]]
                    bound = True
        if variables <= sigma.keys():
            return sigma
        facts = [eq(lin, Lin.constant(coord)) for lin, coord in equations]
        return self._complete(sigma, variables, conj(constraint, *facts)) or sigma

    def _apply_post(self, change: ChangeType, value: Value, span: Span) -> Value:
        if not isinstance(value, ObjV):
            return value
        inst = strip_perm(change.post)
        if isinstance(inst, InstanceType):
            coords = value.coords
            if inst.args and value.coords is not None:
                coords = tuple(self._eval_term(a, span) for a in inst.args)
            return replace(value, state=inst.state, coords=coords,
                           family=inst.family or value.family)
        if isinstance(inst, StateRef):
            return replace(value, state=inst.name)
        return value

    # -- match -------------------------------------------------------------------

    def eval_match(self, store: Store, e: ast.Match) -> Value:
        obj = self._deref(self.eval(store, e.scrutinee), e.span)
        scrut_name = e.scrutinee.name if isinstance(e.scrutinee, ast.VarRef) else None

        if self.mode == "concrete":
            for arm in e.arms:
                if self.st.is_substate(obj.state, arm.state):
                    self._emit("match", arm.span, arm=arm.state)
                    return self.eval(store, arm.body)
            if e.default is not None:
                self._emit("match", e.span, arm="default")
                return self.eval(store, e.default)
            raise RuntimeErr("NoMatchingArm",
                             f"no arm matches state '{obj.state}'", e.span)

        # abstract mode: take every arm the hierarchy allows, join the outcomes
        results: list[Value] = []
        forks: list[Store] = []
        arms = list(e.arms)
        if e.default is not None:
            arms.append(ast.MatchArm(obj.state, e.default, e.span))
        for arm in arms:
            if not self.st.comparable(obj.state, arm.state):
                continue
            fork = store.copy()
            if scrut_name is not None:
                refined = arm.state if self.st.is_substate(arm.state, obj.state) \
                    else obj.state
                fork.bind(scrut_name, replace(obj, state=refined))
            results.append(self.eval(fork, arm.body))
            forks.append(fork)
        if not results:
            raise RuntimeErr("NoMatchingArm",
                             f"no arm matches state '{obj.state}'", e.span)
        self._emit("match", e.span, arms=len(results), mode="abstract")
        store.join(forks)
        value = results[0]
        for v in results[1:]:
            value = join_values(value, v)
        return value

    # -- while --------------------------------------------------------------------

    def eval_while(self, store: Store, e: ast.While) -> Value:
        if self.mode == "abstract":
            self.eval(store, e.cond)
            self.eval(store, e.body)
            self._emit("while", e.span, mode="abstract")
            return UNIT
        while True:
            cond = self.eval(store, e.cond)
            if not isinstance(cond, BoolV):
                raise RuntimeErr("UnboundRuntimeName",
                                 "loop condition is not a bool", e.span)
            if not cond.value:
                self._emit("while-false", e.span)
                return UNIT
            self._emit("while-true", e.span)
            self.eval(store, e.body)


# the (argument, coordinate, pre term) equations, argument -1 standing for the
# receiver; the variables of every pre and post term; and the pre and post
# constraints
_Signature = tuple[tuple[tuple[int, int, Lin], ...], frozenset[str], Formula]


def _signature_of(decl: ast.MethodDecl) -> _Signature:
    """What instantiating a method's logical variables reads."""
    changes = list(enumerate(p.change for p in decl.params))
    changes += [(-1, p.change) for p in decl.env if p.name == "this"]
    terms: list[tuple[int, int, Lin]] = []
    variables: set[str] = set()
    constraints = []
    for i, change in changes:
        pre, post = strip_perm(change.pre), strip_perm(change.post)
        if isinstance(pre, InstanceType):
            terms += [(i, j, lin) for j, lin in enumerate(pre.args)]
        for inst in (pre, post):
            if isinstance(inst, InstanceType):
                variables.update(*(lin.coeffs for lin in inst.args))
                constraints.append(inst.constraint)
    return tuple(terms), frozenset(variables), conj(*constraints)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_program(program: ast.Program, mode: str = "concrete",
                fuel: int = 10 ** 6, trace: bool = False,
                table: Optional[StateTable] = None) -> tuple[Value, Interp, Store]:
    """Evaluate the program's main method; returns its value, the
    interpreter (for the trace) and the final store."""
    st = table if table is not None else state_table(program)
    interp = Interp(st, mode=mode, fuel=fuel, trace=trace)
    store = Store()
    main_state = st.main_state
    this = interp._new_object(main_state, None, store, NO_SPAN)
    store.bind("this", this)
    decl = st.states[main_state].methods["main"]
    body = decl.body
    if body is None:
        return UNIT, interp, store
    if isinstance(body, ast.Block):
        # main's own declarations stay in the store the caller gets back
        interp._spend(body.span)
        value = interp.eval_block(store, body.stmts, scoped=False)
    else:
        value = interp.eval(store, body)
    return value, interp, store
