"""Abstract syntax for brts programs: types, expressions, declarations,
and the state table the checker and interpreter consult.

Statements and expressions share one tree; statement forms evaluate to the
unit value.  All nodes are records, immutable by convention, and carry a
source span.  Arithmetic terms are not tree nodes: the parser flattens each
one to a `Lin`.
"""

from __future__ import annotations

from typing import Optional

from .diagnostics import NO_SPAN, BrtsError, Span
from .presburger import Formula, Lin
from .record import record


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Type:
    __slots__ = ()


@record(frozen=True)
class PrimType(Type):
    name: str  # void | int | bool | string


VOID = PrimType("void")
INT = PrimType("int")
BOOL = PrimType("bool")
STRING = PrimType("string")


@record(frozen=True)
class StateRef(Type):
    name: str


@record(frozen=True)
class PermPair(Type):
    """(a, t) with a in {1 unique, 2 shared, -1 immutable}."""
    perm: int
    inner: Type


def strip_perm(ty: Type) -> Type:
    """The type under a permission pair; any other type as it is."""
    return ty.inner if isinstance(ty, PermPair) else ty


@record(frozen=True)
class InstanceType(Type):
    """A member of a declared family at concrete coordinates and state.

    args are linear terms (`Lin`) over the logical variables in scope; the
    constraint conjoins extra facts those variables must satisfy.  family is
    None for the constant instance a bare state denotes.
    """
    family: Optional[str]
    args: tuple[Lin, ...]
    constraint: Formula
    state: str


@record(frozen=True)
class WildcardType(Type):
    """Written ``_``; elaborates to the weakest instance over the target state."""


@record(frozen=True)
class ChangeType(Type):
    pre: Type
    post: Type


@record(frozen=True)
class UnionType(Type):
    """Finite union produced by match arms; collapses when members agree."""
    members: tuple[Type, ...]


# ---------------------------------------------------------------------------
# Expressions and statements
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@record(frozen=True)
class IntLit(Expr):
    value: int
    span: Span = NO_SPAN


@record(frozen=True)
class BoolLit(Expr):
    value: bool
    span: Span = NO_SPAN


@record(frozen=True)
class StrLit(Expr):
    value: str
    span: Span = NO_SPAN


@record(frozen=True)
class VarRef(Expr):
    name: str
    span: Span = NO_SPAN


@record(frozen=True)
class NewObj(Expr):
    state: str
    inst: Optional[InstanceType]     # set for dependently created objects
    ctor_args: tuple[Expr, ...] = ()
    span: Span = NO_SPAN


@record(frozen=True)
class TypestateLit(Expr):
    """A permission-and-instance literal used as an update source."""
    perm: int
    inst: InstanceType
    span: Span = NO_SPAN


@record(frozen=True)
class FieldRef(Expr):
    obj: Expr
    name: str
    span: Span = NO_SPAN


@record(frozen=True)
class MethodCall(Expr):
    recv: Expr
    method: str
    args: tuple[Expr, ...]
    span: Span = NO_SPAN


@record(frozen=True)
class Block(Expr):
    """{ s1; ...; sn }: evaluates to the last statement's value, or unit
    when empty or when it ends with a declaration."""
    stmts: tuple[Expr, ...]
    span: Span = NO_SPAN


@record(frozen=True)
class VarDecl(Expr):
    """var/val [T] x = e; its scope is the rest of the enclosing block."""
    name: str
    declared: Optional[Type]
    init: Expr
    mutable: bool = True
    span: Span = NO_SPAN


@record(frozen=True)
class Let(Expr):
    """let x = e in s: an immutable binding scoped over one statement."""
    name: str
    init: Expr
    body: Expr
    span: Span = NO_SPAN


@record(frozen=True)
class FieldAssign(Expr):
    """let x.f = e in body"""
    target: str
    name: str
    value: Expr
    body: Expr
    span: Span = NO_SPAN


@record(frozen=True)
class Update(Expr):
    """e <- e1: strong update of the target's binding."""
    target: Expr
    source: Expr
    span: Span = NO_SPAN


@record(frozen=True)
class MatchArm(Expr):
    state: str
    body: Block
    span: Span = NO_SPAN


@record(frozen=True)
class Match(Expr):
    scrutinee: Expr
    scope: Optional[str]             # the S in match (e : S), when written
    arms: tuple[MatchArm, ...]
    default: Optional[Block]
    span: Span = NO_SPAN


@record(frozen=True)
class CaseExpr(Expr):
    scrutinee: Expr
    body: Block
    span: Span = NO_SPAN


@record(frozen=True)
class While(Expr):
    bound_vars: tuple[str, ...]
    invariant: Formula
    cond: Expr
    body: Block
    span: Span = NO_SPAN


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class Decl:
    __slots__ = ()


@record(frozen=True)
class FieldDecl(Decl):
    mutable: bool                    # var vs val
    type: Type
    name: str
    init: Optional[Expr] = None
    span: Span = NO_SPAN


@record(frozen=True)
class Param:
    name: str
    change: ChangeType
    span: Span = NO_SPAN


@record(frozen=True)
class MethodDecl(Decl):
    ret: Type
    name: str
    params: tuple[Param, ...]
    env: tuple[Param, ...]           # environment transitions, incl. this
    body: Optional[Block]            # None for trusted signature-only methods
    span: Span = NO_SPAN


@record(frozen=True)
class TypeFamDecl(Decl):
    """type NAME : Pi(phi(v1, .., vk), StateBound)

    coord_vars name the family's coordinates; every instance positions its
    argument terms against them.
    """
    name: str
    coord_vars: tuple[str, ...]
    state_bound: str
    span: Span = NO_SPAN


@record(frozen=True)
class StateDecl(Decl):
    name: str
    parent: Optional[str]            # the case-of target
    decls: tuple[Decl, ...]
    span: Span = NO_SPAN


@record(frozen=True)
class Program:
    states: tuple[StateDecl, ...]
    span: Span = NO_SPAN


# ---------------------------------------------------------------------------
# State table
# ---------------------------------------------------------------------------

@record
class StateInfo:
    decl: StateDecl
    parent: Optional[str]
    fields: dict[str, FieldDecl]
    methods: dict[str, MethodDecl]
    families: dict[str, TypeFamDecl]


class StateTable:
    """Name-indexed view of every declared state with hierarchy queries."""

    def __init__(self) -> None:
        self.states: dict[str, StateInfo] = {}
        self.main_state: Optional[str] = None

    def __contains__(self, name: str) -> bool:
        return name in self.states

    def ancestors(self, name: str) -> list[str]:
        """name itself first, then its case-of chain; an undeclared name
        has none."""
        chain = [name]
        seen = {name}
        cur = self.states[name].parent if name in self.states else None
        while cur is not None and cur in self.states and cur not in seen:
            chain.append(cur)
            seen.add(cur)
            cur = self.states[cur].parent
        return chain

    def is_substate(self, sub: str, sup: str) -> bool:
        if sub not in self.states or sup not in self.states:
            return sub == sup
        return sup in self.ancestors(sub)

    def descendants(self, name: str) -> list[str]:
        return sorted(s for s in self.states if self.is_substate(s, name))

    def comparable(self, a: str, b: str) -> bool:
        return self.is_substate(a, b) or self.is_substate(b, a)

    def find_field(self, state: str, name: str) -> Optional[FieldDecl]:
        """Field name of state, or of its nearest ancestor that declares it."""
        for candidate in self.ancestors(state):
            info = self.states.get(candidate)
            if info and name in info.fields:
                return info.fields[name]
        return None

    def find_family(self, name: str) -> Optional[TypeFamDecl]:
        for info in self.states.values():
            if name in info.families:
                return info.families[name]
        return None

    def state_codes(self) -> dict[str, int]:
        return {s: i + 1 for i, s in enumerate(sorted(self.states))}


def state_table(program: Program) -> StateTable:
    """Collect every state declaration, checking names and the hierarchy."""
    table = StateTable()
    _collect_states(program.states, table)

    for name, info in table.states.items():
        if info.parent is not None and info.parent not in table.states:
            raise BrtsError("UnknownParent",
                            f"state '{name}' extends unknown state '{info.parent}'",
                            info.decl.span)
    for name in table.states:
        seen = {name}
        cur = table.states[name].parent
        while cur is not None:
            if cur in seen:
                raise BrtsError("CyclicStateHierarchy",
                                f"state hierarchy through '{name}' is cyclic",
                                table.states[name].decl.span)
            seen.add(cur)
            cur = table.states[cur].parent

    mains = sorted(name for name, info in table.states.items() if "main" in info.methods)
    if not mains:
        raise BrtsError("NoMainState", "no state declares a method named 'main'",
                        program.span)
    if len(mains) > 1:
        raise BrtsError("NoMainState",
                        f"more than one state declares 'main': {', '.join(mains)}",
                        program.span)
    table.main_state = mains[0]
    return table


def _collect_states(states: tuple[StateDecl, ...], table: StateTable) -> None:
    for st in states:
        if st.name in table.states:
            raise BrtsError("DuplicateState", f"state '{st.name}' declared twice", st.span)
        fields: dict[str, FieldDecl] = {}
        methods: dict[str, MethodDecl] = {}
        families: dict[str, TypeFamDecl] = {}
        nested: list[StateDecl] = []
        for d in st.decls:
            match d:
                case FieldDecl():
                    _claim(fields, methods, families, d.name, d.span)
                    fields[d.name] = d
                case MethodDecl():
                    _claim(fields, methods, families, d.name, d.span)
                    methods[d.name] = d
                case TypeFamDecl():
                    _claim(fields, methods, families, d.name, d.span)
                    families[d.name] = d
                case StateDecl():
                    nested.append(d)
        table.states[st.name] = StateInfo(st, st.parent, fields, methods, families)
        _collect_states(tuple(nested), table)


def _claim(fields, methods, families, name: str, span: Span) -> None:
    if name in fields or name in methods or name in families:
        raise BrtsError("DuplicateMember", f"member '{name}' declared twice", span)


def find_method_decl(table: StateTable, method: str, state: str) -> tuple[str, MethodDecl]:
    """Resolve a method against a state, walking the case-of chain: the
    state that declares it, and its declaration."""
    for candidate in table.ancestors(state):
        info = table.states.get(candidate)
        if info and method in info.methods:
            return candidate, info.methods[method]
    raise BrtsError("NoSuchMethod", f"state '{state}' has no method '{method}'")
