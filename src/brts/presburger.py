"""Linear integer arithmetic formulas and a decision procedure for them.

A term is a `Lin`, an integer-linear combination of named variables plus
a constant; the parser builds one directly, and `Var`, `Const` and the
operators ``+``, ``-`` and ``int *`` build one in code.  Formulas are
built from comparison atoms with conjunction, disjunction, negation and
existential quantification, and are decided by Cooper-style quantifier
elimination.  All coefficients are Python ints, so nothing overflows.

One search decides a formula and returns a model when there is one:
`is_satisfiable`, `is_valid` and `witness` all run it, so a caller that
needs a countermodel asks once and gets the verdict with it.

Before any Cooper step, the decision procedure solves a conjunction's
equalities with a unit coefficient (``x - t == 0``) by substitution, as the
first stage of Pugh's Omega test does: all of them in one pass, rewriting
only the conjuncts that mention each solved variable.

Atoms are kept in a small normal form: ``t <= 0``, ``t == 0`` and the
divisibility constraint ``d | t``.  Divisibility atoms never come from
source programs; they only arise inside quantifier elimination and stay
internal to this module (the parser has no syntax for them).
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import Callable, Container, Iterable, Iterator, Mapping, Optional

from .record import record


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Lin:
    """A linear term ``sum(c_i * v_i) + k`` with distinct variables.

    Immutable, and ``coeffs`` is never mutated, so results may share it.
    Zero coefficients are never stored, so structural equality is semantic
    equality of linear forms.  The hash is computed on first use.
    """

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: Mapping[str, int] | Iterable[tuple[str, int]] = (), const: int = 0):
        items = dict(coeffs)
        self.coeffs = {v: c for v, c in items.items() if c != 0}
        self.const = const
        self._hash: Optional[int] = None

    @classmethod
    def _make(cls, coeffs: dict[str, int], const: int) -> "Lin":
        """Adopt coeffs as they are: the caller guarantees no zero in them."""
        lin = object.__new__(cls)
        lin.coeffs = coeffs
        lin.const = const
        lin._hash = None
        return lin

    @staticmethod
    def var(name: str) -> "Lin":
        return Lin._make({name: 1}, 0)

    @staticmethod
    def constant(k: int) -> "Lin":
        return Lin._make({}, k)

    def add(self, other: "Lin") -> "Lin":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            total = coeffs.get(v, 0) + c
            if total:
                coeffs[v] = total
            else:
                del coeffs[v]
        return Lin._make(coeffs, self.const + other.const)

    def sub(self, other: "Lin") -> "Lin":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "Lin":
        if c == 0:
            return Lin._make({}, 0)
        return Lin._make({v: k * c for v, k in self.coeffs.items()}, self.const * c)

    def add_const(self, k: int) -> "Lin":
        return Lin._make(self.coeffs, self.const + k)

    def coeff(self, var: str) -> int:
        return self.coeffs.get(var, 0)

    def drop(self, var: str) -> "Lin":
        coeffs = dict(self.coeffs)
        coeffs.pop(var, None)
        return Lin._make(coeffs, self.const)

    def subst(self, var: str, value: "Lin") -> "Lin":
        c = self.coeff(var)
        if c == 0:
            return self
        return self.drop(var).add(value.scale(c))

    def substitute(self, lins: Mapping[str, "Lin"]) -> "Lin":
        """Simultaneous substitution of linear forms for variables."""
        out = Lin.constant(self.const)
        for v, c in self.coeffs.items():
            out = out.add(lins[v].scale(c) if v in lins else Lin._make({v: c}, 0))
        return out

    def __add__(self, other: "Lin | int") -> "Lin":
        return self.add_const(other) if isinstance(other, int) else self.add(other)

    def __sub__(self, other: "Lin | int") -> "Lin":
        return self.add_const(-other) if isinstance(other, int) else self.sub(other)

    def __neg__(self) -> "Lin":
        return self.scale(-1)

    def __rmul__(self, coeff: int) -> "Lin":
        return self.scale(coeff)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return sum(c * env[v] for v, c in self.coeffs.items()) + self.const

    def variables(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Lin) and self.const == other.const
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self.coeffs.items()), self.const))
        return self._hash

    def __repr__(self) -> str:
        return f"Lin({tuple(sorted(self.coeffs.items()))!r}, {self.const})"


Var = Lin.var
Const = Lin.constant


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula:
    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)


@record(frozen=True)
class TrueF(Formula):
    pass


@record(frozen=True)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()


@record(frozen=True)
class Le(Formula):
    """lin <= 0"""
    lin: Lin


@record(frozen=True)
class EqZ(Formula):
    """lin == 0"""
    lin: Lin


@record(frozen=True)
class Dvd(Formula):
    """d | lin, with d >= 1.  Internal to elimination."""
    d: int
    lin: Lin


@record(frozen=True)
class NotDvd(Formula):
    """d does not divide lin.  Internal to elimination."""
    d: int
    lin: Lin


def _cached_hash(node: Formula) -> int:
    """The hash of a node's fields, computed once per node.

    An And, Or, Not or Exists hashes its whole subtree, and `conj` and
    `disj` hash every part they get.  The instance dict holds exactly the
    record's fields, in order, as its `__init__` stored them, until the
    hash is stored beside them.
    """
    fields = node.__dict__
    h = fields.get("_hash")
    if h is None:
        h = fields["_hash"] = hash(tuple(fields.values()))
    return h


@record(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]
    __hash__ = _cached_hash


@record(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]
    __hash__ = _cached_hash


@record(frozen=True)
class Not(Formula):
    body: Formula
    __hash__ = _cached_hash


@record(frozen=True)
class Exists(Formula):
    var: str
    body: Formula
    __hash__ = _cached_hash


# -- constructors over surface comparisons ----------------------------------

def le(t1: Lin, t2: Lin) -> Formula:
    return _fold_atom(Le(t1.sub(t2)))


def ge(t1: Lin, t2: Lin) -> Formula:
    return le(t2, t1)


def lt(t1: Lin, t2: Lin) -> Formula:
    return _fold_atom(Le(t1.sub(t2).add_const(1)))


def gt(t1: Lin, t2: Lin) -> Formula:
    return lt(t2, t1)


def eq(t1: Lin, t2: Lin) -> Formula:
    return _fold_atom(EqZ(t1.sub(t2)))


def ne(t1: Lin, t2: Lin) -> Formula:
    return neg(eq(t1, t2))


def conj(*parts: Formula) -> Formula:
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, And):
            out.extend(p.parts)
        elif isinstance(p, FalseF):
            return FALSE
        elif not isinstance(p, TrueF):
            out.append(p)
    deduped = list(dict.fromkeys(out))
    if not deduped:
        return TRUE
    if len(deduped) == 1:
        return deduped[0]
    return And(tuple(deduped))


def disj(*parts: Formula) -> Formula:
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, Or):
            out.extend(p.parts)
        elif isinstance(p, TrueF):
            return TRUE
        elif not isinstance(p, FalseF):
            out.append(p)
    deduped = list(dict.fromkeys(out))
    if not deduped:
        return FALSE
    if len(deduped) == 1:
        return deduped[0]
    return Or(tuple(deduped))


def neg(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Not):
        return f.body
    return Not(f)


def implies(f1: Formula, f2: Formula) -> Formula:
    return disj(neg(f1), f2)


def exists(var: str, body: Formula) -> Formula:
    return Exists(var, body)


def exists_many(variables: Iterable[str], body: Formula) -> Formula:
    for v in reversed(list(variables)):
        body = Exists(v, body)
    return body


def _fold_atom(f: Formula) -> Formula:
    """Evaluate ground atoms and tighten by the gcd of the coefficients."""
    match f:
        case Le(lin):
            if lin.is_const:
                return TRUE if lin.const <= 0 else FALSE
            g = _coeff_gcd(lin)
            if g > 1:
                # g*l + k <= 0  <=>  l <= floor(-k / g)
                return Le(Lin._make({v: c // g for v, c in lin.coeffs.items()},
                                    -((-lin.const) // g)))
            return f
        case EqZ(lin):
            if lin.is_const:
                return TRUE if lin.const == 0 else FALSE
            g = _coeff_gcd(lin)
            if lin.const % g != 0:
                return FALSE
            if g > 1:
                lin = Lin._make({v: c // g for v, c in lin.coeffs.items()}, lin.const // g)
            # canonical sign: the first variable carries a positive coefficient
            lead = min(lin.coeffs)
            if lin.coeffs[lead] < 0:
                lin = lin.scale(-1)
            return EqZ(lin)
        case Dvd(d, lin):
            if d == 1:
                return TRUE
            if lin.is_const:
                return TRUE if lin.const % d == 0 else FALSE
            reduced = Lin({v: c % d for v, c in lin.coeffs.items()}, lin.const % d)
            if reduced.is_const:
                return TRUE if reduced.const % d == 0 else FALSE
            g = gcd(_coeff_gcd(reduced), d)
            if g > 1 and reduced.const % g == 0:
                return Dvd(d // g, Lin._make({v: c // g for v, c in reduced.coeffs.items()},
                                             reduced.const // g))
            return Dvd(d, reduced)
        case NotDvd(d, lin):
            inner = _fold_atom(Dvd(d, lin))
            if isinstance(inner, TrueF):
                return FALSE
            if isinstance(inner, FalseF):
                return TRUE
            assert isinstance(inner, Dvd)
            return NotDvd(inner.d, inner.lin)
    return f


def _coeff_gcd(lin: Lin) -> int:
    g = 0
    for c in lin.coeffs.values():
        g = gcd(g, abs(c))
    return g or 1


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def free_vars(f: Formula) -> frozenset[str]:
    match f:
        case TrueF() | FalseF():
            return frozenset()
        case Le(lin) | EqZ(lin) | Dvd(_, lin) | NotDvd(_, lin):
            return lin.variables()
        case And(parts) | Or(parts):
            out: frozenset[str] = frozenset()
            for p in parts:
                out |= free_vars(p)
            return out
        case Not(body):
            return free_vars(body)
        case Exists(v, body):
            return free_vars(body) - {v}
    raise TypeError(f"not a formula: {f!r}")


def all_vars(f: Formula) -> frozenset[str]:
    """Free and bound variable names together."""
    match f:
        case Exists(v, body):
            return all_vars(body) | {v}
        case And(parts) | Or(parts):
            out: frozenset[str] = frozenset()
            for p in parts:
                out |= all_vars(p)
            return out
        case Not(body):
            return all_vars(body)
        case _:
            return free_vars(f)


def map_atoms(f: Formula, fn) -> Formula:
    match f:
        case And(parts):
            return conj(*(map_atoms(p, fn) for p in parts))
        case Or(parts):
            return disj(*(map_atoms(p, fn) for p in parts))
        case Not(body):
            return neg(map_atoms(body, fn))
        case Exists(v, body):
            return Exists(v, map_atoms(body, fn))
        case _:
            return fn(f)


def substitute(f: Formula, mapping: Mapping[str, Lin]) -> Formula:
    """Capture-avoiding simultaneous substitution of terms for free variables."""
    range_vars: set[str] = set()
    for l in mapping.values():
        range_vars |= l.variables()
    return _subst(f, mapping, range_vars)


def _subst(f: Formula, lins: Mapping[str, Lin], range_vars: set[str]) -> Formula:
    match f:
        case TrueF() | FalseF():
            return f
        case Le(lin):
            return _fold_atom(Le(lin.substitute(lins)))
        case EqZ(lin):
            return _fold_atom(EqZ(lin.substitute(lins)))
        case Dvd(d, lin):
            return _fold_atom(Dvd(d, lin.substitute(lins)))
        case NotDvd(d, lin):
            return _fold_atom(NotDvd(d, lin.substitute(lins)))
        case And(parts):
            return conj(*(_subst(p, lins, range_vars) for p in parts))
        case Or(parts):
            return disj(*(_subst(p, lins, range_vars) for p in parts))
        case Not(body):
            return neg(_subst(body, lins, range_vars))
        case Exists(v, body):
            inner = {k: l for k, l in lins.items() if k != v}
            if not inner:
                return Exists(v, body)
            if v in range_vars:
                fresh = _fresh_like(v, all_vars(body) | range_vars | set(inner))
                body = _subst(body, {v: Lin.var(fresh)}, {fresh})
                v = fresh
            return Exists(v, _subst(body, inner, range_vars))
    raise TypeError(f"not a formula: {f!r}")


def _fresh_like(name: str, taken: set[str] | frozenset[str]) -> str:
    i = 1
    while f"{name}_{i}" in taken:
        i += 1
    return f"{name}_{i}"


# ---------------------------------------------------------------------------
# Negation normal form and simplification
# ---------------------------------------------------------------------------

def nnf(f: Formula) -> Formula:
    """Push negations to atoms.  Negated comparisons expand into positive
    atoms over the integers; negated divisibility stays as its own atom.
    Quantified subformulas are recursed into but not rewritten away, so a
    negation directly over a quantifier is left in place.
    """
    return _nnf(f, False)


def _nnf(f: Formula, negate: bool) -> Formula:
    match f:
        case TrueF():
            return FALSE if negate else TRUE
        case FalseF():
            return TRUE if negate else FALSE
        case Le(lin):
            # not (lin <= 0)  <=>  -lin + 1 <= 0
            return _fold_atom(Le(lin.scale(-1).add_const(1))) if negate else _fold_atom(Le(lin))
        case EqZ(lin):
            if negate:
                return disj(_fold_atom(Le(lin.add_const(1))),
                            _fold_atom(Le(lin.scale(-1).add_const(1))))
            return _fold_atom(EqZ(lin))
        case Dvd(d, lin):
            return _fold_atom(NotDvd(d, lin)) if negate else _fold_atom(Dvd(d, lin))
        case NotDvd(d, lin):
            return _fold_atom(Dvd(d, lin)) if negate else _fold_atom(NotDvd(d, lin))
        case And(parts):
            if negate:
                return disj(*(_nnf(p, True) for p in parts))
            return conj(*(_nnf(p, False) for p in parts))
        case Or(parts):
            if negate:
                return conj(*(_nnf(p, True) for p in parts))
            return disj(*(_nnf(p, False) for p in parts))
        case Not(body):
            return _nnf(body, not negate)
        case Exists(v, body):
            inner = Exists(v, _nnf(body, False))
            return Not(inner) if negate else inner
    raise TypeError(f"not a formula: {f!r}")


def simplify(f: Formula) -> Formula:
    """Constant folding, flattening and duplicate removal.  Semantics preserving."""
    match f:
        case And(parts):
            return conj(*(simplify(p) for p in parts))
        case Or(parts):
            return disj(*(simplify(p) for p in parts))
        case Not(body):
            return neg(simplify(body))
        case Exists(v, body):
            body = simplify(body)
            if v not in free_vars(body):
                return body
            return Exists(v, body)
        case _:
            return _fold_atom(f)


# ---------------------------------------------------------------------------
# Ground evaluation
# ---------------------------------------------------------------------------

def evaluate(f: Formula, env: Mapping[str, int]) -> bool:
    """Evaluate under a total assignment of the free variables.

    Quantifiers are not supported here; eliminate them first.
    """
    match f:
        case TrueF():
            return True
        case FalseF():
            return False
        case Le(lin):
            return lin.evaluate(env) <= 0
        case EqZ(lin):
            return lin.evaluate(env) == 0
        case Dvd(d, lin):
            return lin.evaluate(env) % d == 0
        case NotDvd(d, lin):
            return lin.evaluate(env) % d != 0
        case And(parts):
            return all(evaluate(p, env) for p in parts)
        case Or(parts):
            return any(evaluate(p, env) for p in parts)
        case Not(body):
            return not evaluate(body, env)
        case Exists(v, body):
            raise ValueError("cannot evaluate a quantified formula directly")
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Cooper's quantifier elimination
# ---------------------------------------------------------------------------

def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _rewrite_eq_on(f: Formula, var: str) -> Formula:
    """Split equalities mentioning var into two inequalities."""
    def on_atom(a: Formula) -> Formula:
        if isinstance(a, EqZ) and a.lin.coeff(var) != 0:
            return conj(_fold_atom(Le(a.lin)), _fold_atom(Le(a.lin.scale(-1))))
        return a
    return map_atoms(f, on_atom)


def _unitize(f: Formula, var: str) -> tuple[Formula, int]:
    """Multiply every atom so var appears with coefficient +1 or -1.

    Returns the rewritten formula (over a variable standing for delta*var)
    plus the delta used; a ``delta | var`` atom is conjoined when delta > 1.
    """
    delta = 1
    for a in _atoms_of(f):
        c = _atom_lin(a).coeff(var) if not isinstance(a, (TrueF, FalseF)) else 0
        if c:
            delta = _lcm(delta, abs(c))

    def scale_atom(a: Formula) -> Formula:
        if isinstance(a, (TrueF, FalseF)):
            return a
        lin = _atom_lin(a)
        c = lin.coeff(var)
        if c == 0:
            return a
        m = delta // abs(c)
        scaled = lin.scale(m)
        # delta*var is re-expressed through var with unit coefficient
        unit = scaled.drop(var).add(Lin._make({var: 1 if c > 0 else -1}, 0))
        match a:
            case Le(_):
                return Le(unit)
            case Dvd(d, _):
                return _fold_atom(Dvd(d * m, unit))
            case NotDvd(d, _):
                return _fold_atom(NotDvd(d * m, unit))
            case EqZ(_):
                return EqZ(unit)
        raise TypeError(f"unexpected atom {a!r}")

    g = map_atoms(f, scale_atom)
    if delta > 1:
        g = conj(g, Dvd(delta, Lin.var(var)))
    return g, delta


def _atoms_of(f: Formula) -> Iterator[Formula]:
    match f:
        case And(parts) | Or(parts):
            for p in parts:
                yield from _atoms_of(p)
        case Not(body):
            yield from _atoms_of(body)
        case Exists(_, body):
            yield from _atoms_of(body)
        case _:
            yield f


def _atom_lin(a: Formula) -> Lin:
    match a:
        case Le(lin) | EqZ(lin) | Dvd(_, lin) | NotDvd(_, lin):
            return lin
    raise TypeError(f"no linear part: {a!r}")


def _minus_inf(f: Formula, var: str) -> Formula:
    """Limit of f as var goes to minus infinity; divisibility atoms persist."""
    def on_atom(a: Formula) -> Formula:
        if isinstance(a, Le):
            c = a.lin.coeff(var)
            if c > 0:
                return TRUE
            if c < 0:
                return FALSE
        return a
    return map_atoms(f, on_atom)


def _subst_atom(a: Formula, var: str, value: Lin) -> Formula:
    """The atom with value put for var, folded."""
    if isinstance(a, (TrueF, FalseF)):
        return a
    lin = _atom_lin(a)
    if lin.coeff(var) == 0:
        return a
    new = lin.subst(var, value)
    match a:
        case Le(_):
            return _fold_atom(Le(new))
        case EqZ(_):
            return _fold_atom(EqZ(new))
        case Dvd(d, _):
            return _fold_atom(Dvd(d, new))
        case NotDvd(d, _):
            return _fold_atom(NotDvd(d, new))
    raise TypeError(f"unexpected atom {a!r}")


def _subst_var(f: Formula, var: str, value: Lin) -> Formula:
    return simplify(map_atoms(f, lambda a: _subst_atom(a, var, value)))


@record(frozen=True)
class _Branch:
    """One Cooper disjunct: the formula with var eliminated, plus how to
    reconstruct a concrete value of delta*var from a model of the disjunct."""
    formula: Formula
    exact: Optional[Lin]        # delta*var == this term
    residue: int                # used when exact is None: delta*var == residue (mod period)
    period: int
    bounds: tuple[Lin, ...]     # all comparison bounds, for the -infinity branch
    delta: int


def _cooper_setup(var: str, f_qf: Formula) -> tuple[Formula, int, int, list[Lin], list[Lin]]:
    """The unitized formula of a Cooper step on var, with its delta, its
    period, its lower bounds and all its comparison bounds."""
    g, delta = _unitize(_rewrite_eq_on(nnf(f_qf), var), var)
    period = 1
    lowers: list[Lin] = []
    bounds: list[Lin] = []
    for a in _atoms_of(g):
        if isinstance(a, (TrueF, FalseF)):
            continue
        lin = _atom_lin(a)
        c = lin.coeff(var)
        if c == 0:
            continue
        if isinstance(a, (Dvd, NotDvd)):
            period = _lcm(period, a.d)
        elif isinstance(a, Le):
            rest = lin.drop(var)
            if c > 0:
                bounds.append(rest.scale(-1))     # var <= -rest
            else:
                bounds.append(rest)               # var >= rest
                lowers.append(rest)
    return g, delta, period, lowers, bounds


def _cooper_branches(var: str, f_qf: Formula) -> Iterator[_Branch]:
    """The disjuncts of eliminating var from a quantifier-free conjunction.

    A top-level equality ``c*var + r == 0`` makes one exact branch, as the
    equality step of Pugh's Omega test does.  `_unitize` rewrites the
    formula over ``delta*var``, where the equality reads
    ``sign(c)*(delta*var) + m*r == 0`` for m = delta / |c|, and its solution
    is put for ``delta*var``: the branch is ``delta | -sign(c)*m*r`` and the
    rest.  Otherwise come Cooper's period branches, the minus-infinity ones
    first and then one per lower bound and residue."""
    pins = _pins(f_qf, var)
    if pins:
        g, delta = _unitize(f_qf, var)
        c = pins[0].coeff(var)
        m = delta // abs(c)
        exact = pins[0].drop(var).scale(-m if c > 0 else m)
        yield _Branch(_subst_var(g, var, exact), exact, 0, 1, (), delta)
        return
    g, delta, period, lowers, bounds = _cooper_setup(var, f_qf)
    g_inf = simplify(_minus_inf(g, var))
    for j in range(1, period + 1):
        yield _Branch(_subst_var(g_inf, var, Lin.constant(j)), None, j, period,
                      tuple(bounds), delta)
    seen: set[Lin] = set()
    for b in lowers:
        if b in seen:
            continue
        seen.add(b)
        for j in range(0, period):
            yield _Branch(_subst_var(g, var, b.add_const(j)), b.add_const(j), j,
                          period, tuple(bounds), delta)


def cooper_eliminate(var: str, f_qf: Formula) -> Formula:
    """Eliminate one existential over a quantifier-free body.

    A top-level unit equality on var has its solution put for var; any
    other conjunction is the disjunction of its `_cooper_branches`, a single
    exact one when a top-level equality pins var.
    """
    f_qf = simplify(f_qf)
    if var not in free_vars(f_qf):
        return f_qf
    if isinstance(f_qf, Or):
        return disj(*(cooper_eliminate(var, p) for p in f_qf.parts))
    rest, solved = _solve_unit_equalities(f_qf, {var})
    if solved:
        return rest
    return simplify(disj(*(b.formula for b in _cooper_branches(var, f_qf))))


def eliminate_quantifiers(f: Formula) -> Formula:
    """Equivalent quantifier-free formula; may contain divisibility atoms."""
    match f:
        case And(parts):
            return conj(*(eliminate_quantifiers(p) for p in parts))
        case Or(parts):
            return disj(*(eliminate_quantifiers(p) for p in parts))
        case Not(body):
            return simplify(neg(eliminate_quantifiers(body)))
        case Exists(v, body):
            return cooper_eliminate(v, eliminate_quantifiers(body))
        case _:
            return _fold_atom(f)


def project_onto(f: Formula, keep: Iterable[str]) -> Formula:
    """Existentially quantify away every free variable not in keep.

    Variables pinned by a top-level unit equality go first, in one
    `_solve_unit_equalities` pass per round: those eliminations are exact
    substitutions and keep the intermediate formulas small.  After them,
    the variable whose elimination makes the fewest disjuncts goes first,
    so that Cooper periods do not multiply needlessly; ties go to the
    alphabetically first variable.
    """
    keep_set = set(keep)
    qf = eliminate_quantifiers(f)
    while True:
        remaining = free_vars(qf) - keep_set
        if not remaining:
            return qf
        qf, solved = _solve_unit_equalities(qf, remaining)
        if not solved:
            pick = min(sorted(remaining), key=lambda v: _disjunct_count(qf, v))
            qf = cooper_eliminate(pick, qf)


def _pins(f: Formula, var: str) -> list[Lin]:
    """The linear parts of f's top-level equalities that mention var."""
    return [a.lin for a in _conjuncts(f) if isinstance(a, EqZ) and a.lin.coeff(var)]


def _disjunct_count(f: Formula, var: str) -> int:
    """About how many disjuncts `cooper_eliminate` makes for var in f: one
    when a top-level equality pins var, else lcm(delta, periods) times one
    more than the number of lower bounds."""
    if _pins(f, var):
        return 1
    _, _, period, lowers, _ = _cooper_setup(var, f)
    return period * (len(set(lowers)) + 1)


# ---------------------------------------------------------------------------
# Satisfiability, validity, entailment, model extraction
# ---------------------------------------------------------------------------

def _pick_var(f: Formula) -> str:
    counts: dict[str, int] = {}
    for a in _atoms_of(f):
        if isinstance(a, (TrueF, FalseF)):
            continue
        for v in _atom_lin(a).variables():
            counts[v] = counts.get(v, 0) + 1
    return min(counts, key=lambda v: (counts[v], v))


def _conjuncts(f: Formula) -> tuple[Formula, ...]:
    return f.parts if isinstance(f, And) else (f,)


def _unit_pivot(parts: Iterable[Formula],
                solvable: Optional[Container[str]]) -> Optional[tuple[str, Lin]]:
    """The first conjunct ``lin == 0`` with a unit coefficient on a variable
    in solvable (any variable when solvable is None) pins the first such
    variable of ``lin``, to the returned term."""
    for a in parts:
        if isinstance(a, EqZ):
            for v, c in a.lin.coeffs.items():
                if solvable is not None and v not in solvable:
                    continue
                if c == 1:
                    return v, a.lin.drop(v).scale(-1)
                if c == -1:
                    return v, a.lin.drop(v)
    return None


def _solve_unit_equalities(f: Formula, solvable: Optional[Container[str]] = None
                           ) -> tuple[Formula, list[tuple[str, Lin]]]:
    """Eliminate every top-level unit equality of a simplified conjunction
    that pins a variable in solvable (any variable when solvable is None).

    Each round takes the pivot `_unit_pivot` finds in the current
    conjuncts and puts its term for its variable in the conjuncts that
    mention the variable; the others stay as they are.  A rewritten
    conjunct keeps its place, a conjunction it folds to is spliced in there,
    and of two equal conjuncts the earlier one stays, so each round leaves
    the formula that substituting into the whole conjunction and
    simplifying it would.  Positions are sortable keys, and an index from
    variables to the conjuncts that mention them keeps a round's cost to
    the conjuncts it rewrites.  Rounds stop when no unit equality is left,
    or at the first conjunct that folds to false.

    Returns the remaining formula and the substitutions in the order they
    were made.  A model of the remaining formula extends to one of f by
    evaluating the substitutions in reverse.
    """
    if _unit_pivot(_conjuncts(f), solvable) is None:
        return f, []
    alive: dict[tuple[int, ...], tuple[Formula, frozenset[str]]] = {}
    key_of: dict[Formula, tuple[int, ...]] = {}
    users: dict[str, set[tuple[int, ...]]] = {}
    pivots: list[tuple[int, ...]] = []

    def remove(key: tuple[int, ...]) -> Formula:
        p, names = alive.pop(key)
        del key_of[p]
        for v in names:
            users[v].discard(key)
        return p

    def add(key: tuple[int, ...], p: Formula) -> None:
        other = key_of.get(p)
        if other is not None:
            if other < key:
                return
            remove(other)
        names = free_vars(p)
        alive[key] = (p, names)
        key_of[p] = key
        for v in names:
            users.setdefault(v, set()).add(key)
        if isinstance(p, EqZ):
            heapq.heappush(pivots, key)

    for i, p in enumerate(_conjuncts(f)):
        add((i,), p)
    solved: list[tuple[str, Lin]] = []
    while pivots:
        entry = alive.get(pivots[0])
        pivot = _unit_pivot((entry[0],), solvable) if entry else None
        if pivot is None:
            heapq.heappop(pivots)
            continue
        var, value = pivot
        solved.append(pivot)
        rewritten = [(k, remove(k)) for k in sorted(users[var])]
        del users[var]
        for key, p in rewritten:
            q = map_atoms(p, lambda a: _subst_atom(a, var, value))
            if isinstance(q, FalseF):
                return FALSE, solved
            if isinstance(q, And):
                for j, r in enumerate(q.parts):
                    add(key + (j,), r)
            elif not isinstance(q, TrueF):
                add(key, q)
    return conj(*(alive[k][0] for k in sorted(alive))), solved


def solved_form(f: Formula, solvable: Optional[Container[str]] = None
                ) -> tuple[Formula, dict[str, Lin]]:
    """`_solve_unit_equalities` with its substitutions as one idempotent
    map, in the order they were made: no value mentions a solved variable,
    and f is equivalent to the remaining formula with ``v == value`` for
    each entry."""
    rest, solved = _solve_unit_equalities(f, solvable)
    values: dict[str, Lin] = {}
    for v, t in reversed(solved):
        values[v] = t.substitute(values)
    return rest, {v: values[v] for v, _ in solved}


def compact(f: Formula) -> Formula:
    """An equivalent disjunction of conjunctions of atoms when it has fewer
    atoms than f, else f.

    Each conjunction is restated with its unit equalities solved: the
    solutions first, then what is left of the rest, so one that folds to
    false drops out and two that pin the same values merge.  Expanding a
    conjunction of disjunctions multiplies, so the expansion stops as soon
    as it has more conjunctions than f has atoms.
    """
    g = nnf(f)
    budget = sum(1 for _ in _atoms_of(g))
    expanded = _expand(g, budget)
    if expanded is None:
        return f
    cubes = []
    for cube in expanded:
        if len(cube) == 1:
            cubes.append(cube[0])
            continue
        rest, values = solved_form(conj(*cube))
        if not isinstance(rest, FalseF):
            cubes.append(conj(*(eq(Var(v), t) for v, t in values.items()), rest))
    out = disj(*cubes)
    return out if sum(1 for _ in _atoms_of(out)) < sum(1 for _ in _atoms_of(f)) else f


def _expand(f: Formula, budget: int) -> Optional[list[tuple[Formula, ...]]]:
    """The conjunctions of atoms whose disjunction is f, a formula in
    negation normal form, or None past budget of them."""
    match f:
        case Or(parts):
            out: list[tuple[Formula, ...]] = []
            for p in parts:
                sub = _expand(p, budget)
                if sub is None or len(out) + len(sub) > budget:
                    return None
                out.extend(sub)
            return out
        case And(parts):
            out = [()]
            for p in parts:
                sub = _expand(p, budget)
                if sub is None or len(out) * len(sub) > budget:
                    return None
                out = [c + d for c in out for d in sub]
            return out
        case TrueF():
            return [()]
        case FalseF():
            return []
    return [(f,)]


def _obviously_contradictory(f: Formula) -> bool:
    """Cheap syntactic check: a conjunct and its exact complement."""
    les = {a.lin for a in _conjuncts(f) if isinstance(a, Le)}
    return any(lin.scale(-1).add_const(1) in les for lin in les)


def is_satisfiable(f: Formula) -> bool:
    """True iff some integer assignment of the free variables satisfies f."""
    return _witness_qf(simplify(nnf(eliminate_quantifiers(f)))) is not None


def is_valid(f: Formula) -> bool:
    """True iff every integer assignment satisfies f."""
    return not is_satisfiable(neg(f))


def entails(f1: Formula, f2: Formula) -> bool:
    """Semantic entailment: every model of f1 is a model of f2."""
    return is_valid(implies(f1, f2))


def formula_equal(f1: Formula, f2: Formula) -> bool:
    """Mutual entailment; semantic rather than syntactic equality."""
    return entails(f1, f2) and entails(f2, f1)


def tidy(f: Formula) -> Formula:
    """Equivalence-preserving cleanup for readable output: merges paired
    inequalities back into equalities, drops conjuncts the rest of a
    conjunction already implies, and drops disjuncts the rest of a
    disjunction already covers.  Costs solver calls, so reserve it for
    rendering."""
    f = simplify(f)
    match f:
        case Or(parts):
            kept = list(dict.fromkeys(tidy(p) for p in parts))
            return disj(*_drop_covered(kept, lambda p, rest: entails(p, disj(*rest))))
        case And(parts):
            pieces = [tidy(p) for p in parts]
            merged: list[Formula] = []
            les = {p.lin: p for p in pieces if isinstance(p, Le)}
            consumed: set[Formula] = set()
            for lin, atom in les.items():
                flipped = lin.scale(-1)
                if flipped in les and atom not in consumed:
                    merged.append(_fold_atom(EqZ(lin)))
                    consumed |= {atom, les[flipped]}
            kept = list(dict.fromkeys(merged + [p for p in pieces if p not in consumed]))
            return conj(*_drop_covered(kept, lambda p, rest: entails(conj(*rest), p)))
        case Not(body):
            return neg(tidy(body))
        case _:
            return f


def _drop_covered(kept: list[Formula],
                  covered: Callable[[Formula, list[Formula]], bool]) -> list[Formula]:
    """Drop the first member for which `covered(member, the others)` holds,
    and look again from the start, until none does or one is left."""
    i = 0
    while i < len(kept) and len(kept) > 1:
        if covered(kept[i], kept[:i] + kept[i + 1:]):
            kept.pop(i)
            i = 0
        else:
            i += 1
    return kept


def witness(f: Formula) -> Optional[dict[str, int]]:
    """A satisfying assignment of the free variables, or None.

    The values come from the elimination's own substitution terms, so they
    double as a small-model bound for the formula.
    """
    qf = nnf(eliminate_quantifiers(f))
    model = _witness_qf(simplify(qf))
    if model is None:
        return None
    for v in sorted(free_vars(qf)):
        model.setdefault(v, 0)
    assert evaluate(qf, model)
    return model


def _evaluate_filling(lin: Lin, model: dict[str, int]) -> int:
    """lin's value under model, once its variables model lacks are set to 0."""
    for w in sorted(lin.coeffs):
        model.setdefault(w, 0)
    return lin.evaluate(model)


def _witness_qf(f: Formula) -> Optional[dict[str, int]]:
    """A model of a simplified quantifier-free formula in negation normal
    form (so without `Not` nodes), or None.

    Disjunctions split.  A conjunction first loses all its unit equalities
    to `_solve_unit_equalities` in one pass and is decided afresh; then it
    splits on its smallest disjunctive conjunct; a conjunction of atoms
    eliminates its least used variable with Cooper's method.  The model is
    built only on the way back from a branch that succeeds.
    """
    if isinstance(f, TrueF):
        return {}
    if isinstance(f, FalseF):
        return None
    if isinstance(f, Or):
        for p in f.parts:
            m = _witness_qf(simplify(p))
            if m is not None:
                return m
        return None
    if _obviously_contradictory(f):
        return None
    rest, solved = _solve_unit_equalities(f)
    if solved:
        m = _witness_qf(simplify(rest))
        if m is None:
            return None
        for v, value in reversed(solved):
            m[v] = _evaluate_filling(value, m)
        return m
    if isinstance(f, And):
        ors = [p for p in f.parts if isinstance(p, Or)]
        if ors:
            branch = min(ors, key=lambda p: len(p.parts))
            rest = conj(*(p for p in f.parts if p is not branch))
            for alt in branch.parts:
                m = _witness_qf(simplify(conj(rest, alt)))
                if m is not None:
                    return m
            return None
    v = _pick_var(f)
    for b in _cooper_branches(v, f):
        m = _witness_qf(b.formula)
        if m is None:
            continue
        for w in sorted(free_vars(b.formula)):
            m.setdefault(w, 0)
        if b.exact is not None:
            scaled = _evaluate_filling(b.exact, m)
        else:
            vals = [_evaluate_filling(bound, m) for bound in b.bounds]
            if vals:
                top = min(vals) - 1
                scaled = top - ((top - b.residue) % b.period)
            else:
                scaled = b.residue
        # scaled holds delta * var; the divisibility atom guarantees exactness
        assert scaled % b.delta == 0, "elimination lost the scaling constraint"
        m[v] = scaled // b.delta
        return m
    return None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_term(lin: Lin) -> str:
    pieces: list[str] = []
    for v, c in sorted(lin.coeffs.items()):
        if c == 1:
            txt = v
        elif c == -1:
            txt = f"-{v}"
        else:
            txt = f"{c} * {v}"
        if pieces and not txt.startswith("-"):
            pieces.append(f"+ {txt}")
        elif pieces:
            pieces.append(f"- {txt[1:]}")
        else:
            pieces.append(txt)
    if lin.const or not pieces:
        k = lin.const
        if pieces:
            pieces.append(f"+ {k}" if k > 0 else f"- {-k}")
        else:
            pieces.append(str(k))
    return " ".join(pieces)


def _split_sides(lin: Lin) -> tuple[Lin, Lin]:
    """Partition lin <= 0 into lhs <= rhs with nonnegative coefficients."""
    left: dict[str, int] = {}
    right: dict[str, int] = {}
    for v, c in lin.coeffs.items():
        if c > 0:
            left[v] = c
        else:
            right[v] = -c
    lk = lin.const if lin.const > 0 else 0
    rk = -lin.const if lin.const < 0 else 0
    if not left and lk == 0:
        # keep at least one variable on the left for readability
        return lin, Lin.constant(0)
    return Lin(left, lk), Lin(right, rk)


def render(f: Formula, prec: int = 0) -> str:
    """Surface notation.  Divisibility atoms render as ``d | t``; they are
    not parseable source syntax and only show up in debug output.
    """
    match f:
        case TrueF():
            return "true"
        case FalseF():
            return "false"
        case Le(lin):
            lhs, rhs = _split_sides(lin)
            return f"{render_term(lhs)} <= {render_term(rhs)}"
        case EqZ(lin):
            lhs, rhs = _split_sides(lin)
            return f"{render_term(lhs)} == {render_term(rhs)}"
        case Dvd(d, lin):
            return f"{d} | {render_term(lin)}"
        case NotDvd(d, lin):
            return f"~({d} | {render_term(lin)})"
        case Not(body):
            return f"~{render(body, 3)}"
        case And(parts):
            txt = " && ".join(render(p, 2) for p in parts)
            return f"({txt})" if prec > 1 else txt
        case Or(parts):
            txt = " || ".join(render(p, 1) for p in parts)
            return f"({txt})" if prec > 0 else txt
        case Exists(v, body):
            names = [v]
            while isinstance(body, Exists):
                names.append(body.var)
                body = body.body
            txt = f"exists {', '.join(names)}. {render(body)}"
            return f"({txt})" if prec > 0 else txt
    raise TypeError(f"not a formula: {f!r}")

