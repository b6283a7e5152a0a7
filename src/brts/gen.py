"""Random well-typed program synthesis for property testing.

Programs are built around one dependently tracked object: a random state
hierarchy, one coordinate family, a manager state whose methods carry
randomly drawn transition contracts, and a main that drives the object
through calls the generator has already validated against its own concrete
simulation of the coordinates.  Checking such a program should always
succeed, running it should never get stuck, and the final object's state
tag should refine the statically known one.
"""

from __future__ import annotations

import random

from .presburger import Const, Formula, Var, conj, ge, TRUE
from . import syntax as ast
from .record import record
from .syntax import ChangeType, InstanceType, PermPair, VOID


@record
class GenMethod:
    name: str
    pre_state: str
    post_state: str
    pre_lo: tuple[int, ...]      # required lower bound per coordinate
    delta: tuple[int, ...]       # coordinate advance


@record
class GenSpec:
    root: str
    children: list[str]
    family: str
    coords: tuple[str, ...]
    methods: list[GenMethod]
    initial_state: str
    initial: tuple[int, ...]


def _bound_formula(coords: tuple[str, ...], lows: tuple[int, ...],
                   offset: tuple[int, ...] | None = None) -> Formula:
    parts = []
    for i, (c, lo) in enumerate(zip(coords, lows)):
        shift = offset[i] if offset else 0
        parts.append(ge(Var(c) + shift, Const(lo)))
    return conj(*parts) if parts else TRUE


def synthesize_spec(rng: random.Random, index: int) -> GenSpec:
    root = f"Root{index}"
    children = [f"Leaf{index}_{i}" for i in range(rng.randint(1, 3))]
    coords = tuple(f"c{i}" for i in range(rng.randint(1, 2)))
    states = [root] + children
    methods = []
    for i in range(rng.randint(2, 4)):
        pre_lo = tuple(rng.randint(0, 2) for _ in coords)
        delta = tuple(rng.randint(0, 2) for _ in coords)
        methods.append(GenMethod(
            name=f"op{i}",
            pre_state=rng.choice(states),
            post_state=rng.choice(states),
            pre_lo=pre_lo,
            delta=delta,
        ))
    initial_state = rng.choice(states)
    initial = tuple(rng.randint(0, 3) for _ in coords)
    return GenSpec(root, children, f"Fam{index}", coords, methods,
                   initial_state, initial)


def _method_decl(spec: GenSpec, m: GenMethod) -> ast.MethodDecl:
    pre_inst = InstanceType(spec.family, tuple(Var(c) for c in spec.coords),
                            _bound_formula(spec.coords, m.pre_lo), m.pre_state)
    post_args = tuple(Var(c) + d for c, d in zip(spec.coords, m.delta))
    post_inst = InstanceType(spec.family, post_args,
                             _bound_formula(spec.coords, m.pre_lo, m.delta),
                             m.post_state)
    change = ChangeType(PermPair(1, pre_inst), PermPair(1, post_inst))
    body = ast.Update(ast.VarRef("w"), ast.TypestateLit(1, post_inst))
    return ast.MethodDecl(VOID, m.name, (ast.Param("w", change),), (),
                          ast.Block((body,)))


class _Driver:
    """Tracks the concrete typestate while emitting only enabled calls."""

    def __init__(self, spec: GenSpec, rng: random.Random, table_states: list[str]):
        self.spec = spec
        self.rng = rng
        self.state = spec.initial_state
        self.coords = spec.initial
        self.states = table_states
        self.fresh = 0

    def enabled(self) -> list[GenMethod]:
        out = []
        for m in self.spec.methods:
            if not self._substate(self.state, m.pre_state):
                continue
            if all(v >= lo for v, lo in zip(self.coords, m.pre_lo)):
                out.append(m)
        return out

    def _substate(self, sub: str, sup: str) -> bool:
        return sub == sup or (sup == self.spec.root and sub in self.spec.children)

    def apply(self, m: GenMethod) -> None:
        self.state = m.post_state
        self.coords = tuple(v + d for v, d in zip(self.coords, m.delta))

    def statements(self, depth: int, budget: list[int]) -> list[ast.Expr]:
        out: list[ast.Expr] = []
        for _ in range(self.rng.randint(1, 3)):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            roll = self.rng.random()
            if depth > 0 and roll < 0.2:
                out.append(self.match_stmt(depth, budget))
            elif depth > 0 and roll < 0.35:
                # a binding scopes over the rest of the block
                self.fresh += 1
                name = f"v{self.fresh}"
                init = self.rng.choice([
                    ast.IntLit(self.rng.randint(0, 9)),
                    ast.BoolLit(self.rng.choice([True, False])),
                    ast.StrLit("s"),
                ])
                out.append(ast.VarDecl(name, None, init, mutable=False))
                out.extend(self.statements(depth - 1, budget))
                break
            else:
                out.append(self.call_or_noise())
        return out

    def call_or_noise(self) -> ast.Expr:
        enabled = self.enabled()
        if enabled:
            call = self.rng.choice(enabled)
            self.apply(call)
            return ast.MethodCall(ast.VarRef("ops"), call.name, (ast.VarRef("w"),))
        return ast.IntLit(self.rng.randint(0, 9))

    def match_stmt(self, depth: int, budget: list[int]) -> ast.Expr:
        # exactly one live arm, so the checker's post-match knowledge matches
        # this concrete simulation; a dead sibling arm may tag along.
        # deadness is judged against the state at match entry, before the
        # arm body advances the simulation
        entry_state = self.state
        arms = []
        live_states = [entry_state]
        if entry_state != self.spec.root:
            live_states.append(self.spec.root)
        arm_state = self.rng.choice(live_states)
        body = ast.Block(tuple(self.statements(depth - 1, budget)))
        arms.append(ast.MatchArm(arm_state, body))
        others = [s for s in self.states if s not in (arm_state, self.spec.root)]
        if others and self.rng.random() < 0.5:
            dead = self.rng.choice(others)
            if not self._substate(entry_state, dead) and not self._substate(dead, entry_state):
                arms.insert(self.rng.randint(0, 1), ast.MatchArm(dead, ast.Block(())))
        return ast.Match(ast.VarRef("w"), self.spec.root, tuple(arms), None)


def synthesize_program(rng: random.Random, index: int = 0,
                       depth: int = 6) -> tuple[ast.Program, str]:
    """A random well-typed program plus the name of its tracked root state.

    The program's main ends with the tracked object, so its runtime tag can
    be compared against the static result type.
    """
    spec = synthesize_spec(rng, index)
    states = [ast.StateDecl(spec.root, None, ())]
    for child in spec.children:
        states.append(ast.StateDecl(child, spec.root, ()))

    fam = ast.TypeFamDecl(spec.family, spec.coords, spec.root)
    manager = ast.StateDecl(
        f"Ops{index}", None,
        tuple([fam] + [_method_decl(spec, m) for m in spec.methods]))
    states.append(manager)

    driver = _Driver(spec, rng, [spec.root] + spec.children)
    budget = [depth * 3]
    stmts = driver.statements(depth, budget)

    init_inst = InstanceType(spec.family,
                             tuple(Const(v) for v in spec.initial),
                             TRUE, spec.initial_state)
    main_body = ast.Block((
        ast.VarDecl("ops", PermPair(1, ast.WildcardType()),
                    ast.NewObj(f"Ops{index}", None)),
        ast.VarDecl("w", PermPair(1, init_inst), ast.NewObj(spec.initial_state, None)),
        *stmts,
        ast.VarRef("w"),
    ))
    states.append(ast.StateDecl(
        "Main", None,
        (ast.MethodDecl(VOID, "main", (), (), main_body),)))
    return ast.Program(tuple(states)), driver.state
