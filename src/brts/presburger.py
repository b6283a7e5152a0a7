"""Linear integer arithmetic formulas and a decision procedure for them.

Terms are integer-linear combinations of named variables.  Formulas are
built from comparison atoms with conjunction, disjunction, negation and
existential quantification, and are decided by Cooper-style quantifier
elimination.  All coefficients are Python ints, so nothing overflows.

Atoms are kept in a small normal form: ``t <= 0``, ``t == 0`` and the
divisibility constraint ``d | t``.  Divisibility atoms never come from
source programs; they only arise inside quantifier elimination and stay
internal to this module (the parser has no syntax for them).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Mapping, Optional


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Surface syntax of arithmetic terms."""

    __slots__ = ()

    def __add__(self, other: "Term | int") -> "Term":
        return Add(self, _as_term(other))

    def __sub__(self, other: "Term | int") -> "Term":
        return Add(self, Neg(_as_term(other)))

    def __neg__(self) -> "Term":
        return Neg(self)

    def __rmul__(self, coeff: int) -> "Term":
        return Scale(coeff, self)


@dataclass(frozen=True)
class Const(Term):
    value: int


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Scale(Term):
    coeff: int
    term: Term


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    term: Term


def _as_term(x: "Term | int") -> Term:
    return Const(x) if isinstance(x, int) else x


class Lin:
    """A term flattened to ``sum(c_i * v_i) + k`` with distinct variables.

    Immutable; zero coefficients are dropped eagerly so structural equality
    is semantic equality of linear forms.
    """

    __slots__ = ("coeffs", "const", "_key")

    def __init__(self, coeffs: Mapping[str, int] | Iterable[tuple[str, int]] = (), const: int = 0):
        items = dict(coeffs)
        self.coeffs = {v: c for v, c in items.items() if c != 0}
        self.const = const
        self._key = (tuple(sorted(self.coeffs.items())), const)

    @staticmethod
    def of(term: Term) -> "Lin":
        match term:
            case Const(k):
                return Lin({}, k)
            case Var(v):
                return Lin({v: 1})
            case Scale(c, t):
                return Lin.of(t).scale(c)
            case Add(a, b):
                return Lin.of(a).add(Lin.of(b))
            case Neg(t):
                return Lin.of(t).scale(-1)
        raise TypeError(f"not a term: {term!r}")

    @staticmethod
    def var(name: str) -> "Lin":
        return Lin({name: 1})

    @staticmethod
    def constant(k: int) -> "Lin":
        return Lin({}, k)

    def add(self, other: "Lin") -> "Lin":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return Lin(coeffs, self.const + other.const)

    def sub(self, other: "Lin") -> "Lin":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "Lin":
        if c == 0:
            return Lin({}, 0)
        return Lin({v: k * c for v, k in self.coeffs.items()}, self.const * c)

    def add_const(self, k: int) -> "Lin":
        return Lin(self.coeffs, self.const + k)

    def coeff(self, var: str) -> int:
        return self.coeffs.get(var, 0)

    def drop(self, var: str) -> "Lin":
        coeffs = dict(self.coeffs)
        coeffs.pop(var, None)
        return Lin(coeffs, self.const)

    def subst(self, var: str, value: "Lin") -> "Lin":
        c = self.coeff(var)
        if c == 0:
            return self
        return self.drop(var).add(value.scale(c))

    def rename(self, mapping: Mapping[str, str]) -> "Lin":
        coeffs: dict[str, int] = {}
        for v, c in self.coeffs.items():
            nv = mapping.get(v, v)
            coeffs[nv] = coeffs.get(nv, 0) + c
        return Lin(coeffs, self.const)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return sum(c * env[v] for v, c in self.coeffs.items()) + self.const

    def variables(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def to_term(self) -> Term:
        term: Optional[Term] = None
        for v, c in sorted(self.coeffs.items()):
            piece: Term = Var(v) if c == 1 else Scale(c, Var(v))
            term = piece if term is None else Add(term, piece)
        if term is None:
            return Const(self.const)
        if self.const:
            term = Add(term, Const(self.const))
        return term

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lin) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Lin({self._key[0]!r}, {self.const})"


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


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True)
class Le(Formula):
    """lin <= 0"""
    lin: Lin


@dataclass(frozen=True)
class EqZ(Formula):
    """lin == 0"""
    lin: Lin


@dataclass(frozen=True)
class Dvd(Formula):
    """d | lin, with d >= 1.  Internal to elimination."""
    d: int
    lin: Lin


@dataclass(frozen=True)
class NotDvd(Formula):
    """d does not divide lin.  Internal to elimination."""
    d: int
    lin: Lin


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


# -- constructors over surface comparisons ----------------------------------

def le(t1: Term | Lin, t2: Term | Lin) -> Formula:
    return _fold_atom(Le(_lin(t1).sub(_lin(t2))))


def ge(t1: Term | Lin, t2: Term | Lin) -> Formula:
    return le(t2, t1)


def lt(t1: Term | Lin, t2: Term | Lin) -> Formula:
    return _fold_atom(Le(_lin(t1).sub(_lin(t2)).add_const(1)))


def gt(t1: Term | Lin, t2: Term | Lin) -> Formula:
    return lt(t2, t1)


def eq(t1: Term | Lin, t2: Term | Lin) -> Formula:
    return _fold_atom(EqZ(_lin(t1).sub(_lin(t2))))


def ne(t1: Term | Lin, t2: Term | Lin) -> Formula:
    return neg(eq(t1, t2))


def conj(*parts: Formula) -> Formula:
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, And):
            out.extend(p.parts)
        elif p == FALSE:
            return FALSE
        elif p != TRUE:
            out.append(p)
    deduped = _dedupe(out)
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
        elif p == TRUE:
            return TRUE
        elif p != FALSE:
            out.append(p)
    deduped = _dedupe(out)
    if not deduped:
        return FALSE
    if len(deduped) == 1:
        return deduped[0]
    return Or(tuple(deduped))


def neg(f: Formula) -> Formula:
    if f == TRUE:
        return FALSE
    if f == FALSE:
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


def _lin(t: Term | Lin) -> Lin:
    return t if isinstance(t, Lin) else Lin.of(t)


def _dedupe(parts: list[Formula]) -> list[Formula]:
    seen: set[Formula] = set()
    out = []
    for p in parts:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _fold_atom(f: Formula) -> Formula:
    """Evaluate ground atoms and tighten by the gcd of the coefficients."""
    match f:
        case Le(lin):
            if lin.is_const:
                return TRUE if lin.const <= 0 else FALSE
            g = _coeff_gcd(lin)
            if g > 1:
                # g*l + k <= 0  <=>  l <= floor(-k / g)
                return Le(Lin({v: c // g for v, c in lin.coeffs.items()},
                              -((-lin.const) // g)))
            return f
        case EqZ(lin):
            if lin.is_const:
                return TRUE if lin.const == 0 else FALSE
            g = _coeff_gcd(lin)
            if lin.const % g != 0:
                return FALSE
            if g > 1:
                lin = Lin({v: c // g for v, c in lin.coeffs.items()}, lin.const // g)
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
                return Dvd(d // g, Lin({v: c // g for v, c in reduced.coeffs.items()},
                                       reduced.const // g))
            return Dvd(d, reduced)
        case NotDvd(d, lin):
            inner = _fold_atom(Dvd(d, lin))
            if inner == TRUE:
                return FALSE
            if inner == FALSE:
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


def substitute(f: Formula, mapping: Mapping[str, Term | Lin]) -> Formula:
    """Capture-avoiding simultaneous substitution of terms for free variables."""
    lins = {v: _lin(t) for v, t in mapping.items()}
    range_vars: set[str] = set()
    for l in lins.values():
        range_vars |= l.variables()
    return _subst(f, lins, range_vars)


def _subst(f: Formula, lins: Mapping[str, Lin], range_vars: set[str]) -> Formula:
    match f:
        case TrueF() | FalseF():
            return f
        case Le(lin):
            return _fold_atom(Le(_subst_lin(lin, lins)))
        case EqZ(lin):
            return _fold_atom(EqZ(_subst_lin(lin, lins)))
        case Dvd(d, lin):
            return _fold_atom(Dvd(d, _subst_lin(lin, lins)))
        case NotDvd(d, lin):
            return _fold_atom(NotDvd(d, _subst_lin(lin, lins)))
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


def _subst_lin(lin: Lin, lins: Mapping[str, Lin]) -> Lin:
    out = Lin({}, lin.const)
    for v, c in lin.coeffs.items():
        if v in lins:
            out = out.add(lins[v].scale(c))
        else:
            out = out.add(Lin({v: c}))
    return out


def _fresh_like(name: str, taken: set[str] | frozenset[str]) -> str:
    i = 1
    while f"{name}_{i}" in taken:
        i += 1
    return f"{name}_{i}"


# ---------------------------------------------------------------------------
# Negation normal form and normalization
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


def normalize(f: Formula) -> Formula:
    """Negation normal form with folded atoms; idempotent."""
    return simplify(nnf(f))


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
    """Scale every atom so var appears with coefficient +1 or -1.

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
        unit = scaled.drop(var).add(Lin({var: 1 if c > 0 else -1}))
        match a:
            case Le(_):
                return Le(unit)
            case Dvd(d, _):
                return _fold_atom(Dvd(d * m, unit))
            case NotDvd(d, _):
                return _fold_atom(NotDvd(d * m, unit))
            case EqZ(_):
                raise AssertionError("equalities on the variable are split beforehand")
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


def _subst_var(f: Formula, var: str, value: Lin) -> Formula:
    def on_atom(a: Formula) -> Formula:
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
    return simplify(map_atoms(f, on_atom))


@dataclass(frozen=True)
class _Branch:
    """One Cooper disjunct: the formula with var eliminated, plus how to
    reconstruct a concrete value of delta*var from a model of the disjunct."""
    formula: Formula
    exact: Optional[Lin]        # delta*var == this term
    residue: int                # used when exact is None: delta*var == residue (mod period)
    period: int
    bounds: tuple[Lin, ...]     # all comparison bounds, for the -infinity branch
    delta: int


def _cooper_branches(var: str, f_qf: Formula) -> Iterator[_Branch]:
    f1 = nnf(f_qf)
    f1 = _rewrite_eq_on(f1, var)
    g, delta = _unitize(f1, var)

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
    """Eliminate one existential over a quantifier-free body."""
    f_qf = simplify(f_qf)
    if var not in free_vars(f_qf):
        return f_qf
    if isinstance(f_qf, Or):
        return disj(*(cooper_eliminate(var, p) for p in f_qf.parts))
    # a top-level equality pinning the variable eliminates it exactly
    for a in _conjuncts(f_qf):
        if isinstance(a, EqZ):
            c = a.lin.coeff(var)
            if abs(c) == 1:
                value = a.lin.drop(var).scale(-1 if c == 1 else 1)
                return simplify(_subst_var(f_qf, var, value))
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

    Variables pinned by a top-level equality go first: those eliminations
    are exact substitutions and keep the intermediate formulas small.
    """
    keep_set = set(keep)
    qf = eliminate_quantifiers(f)
    while True:
        remaining = sorted(free_vars(qf) - keep_set)
        if not remaining:
            return qf
        pick = next((v for v in remaining if _pinned_by_equality(qf, v)),
                    remaining[0])
        qf = cooper_eliminate(pick, qf)


def _pinned_by_equality(f: Formula, var: str) -> bool:
    return any(isinstance(a, EqZ) and abs(a.lin.coeff(var)) == 1
               for a in _conjuncts(f))


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


def _solved_unit_equality(f: Formula) -> Optional[tuple[str, Lin]]:
    """A conjunct ``lin == 0`` with a unit coefficient pins its variable."""
    for a in _conjuncts(f):
        if isinstance(a, EqZ):
            for v, c in a.lin.coeffs.items():
                if c == 1:
                    return v, a.lin.drop(v).scale(-1)
                if c == -1:
                    return v, a.lin.drop(v)
    return None


def _obviously_contradictory(f: Formula) -> bool:
    """Cheap syntactic check: a conjunct and its exact complement."""
    les = {a.lin for a in _conjuncts(f) if isinstance(a, Le)}
    return any(lin.scale(-1).add_const(1) in les for lin in les)


def _sat_qf(f: Formula) -> bool:
    f = simplify(f)
    if f == TRUE:
        return True
    if f == FALSE:
        return False
    if isinstance(f, Not):
        return _sat_qf(nnf(f))
    if isinstance(f, Or):
        return any(_sat_qf(p) for p in f.parts)
    if _obviously_contradictory(f):
        return False
    solved = _solved_unit_equality(f)
    if solved is not None:
        return _sat_qf(_subst_var(f, solved[0], solved[1]))
    if isinstance(f, And):
        # distribute over the smallest disjunctive conjunct, lazily
        ors = [p for p in f.parts if isinstance(p, Or)]
        if ors:
            branch = min(ors, key=lambda p: len(p.parts))
            rest = conj(*(p for p in f.parts if p is not branch))
            return any(_sat_qf(conj(rest, alt)) for alt in branch.parts)
        nots = [p for p in f.parts if isinstance(p, Not)]
        if nots:
            return _sat_qf(conj(*(nnf(p) for p in f.parts)))
    v = _pick_var(f)
    return any(_sat_qf(b.formula) for b in _cooper_branches(v, f))


def is_satisfiable(f: Formula) -> bool:
    """True iff some integer assignment of the free variables satisfies f."""
    return _sat_qf(nnf(eliminate_quantifiers(f)))


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
            changed = True
            while changed and len(kept) > 1:
                changed = False
                for i, p in enumerate(kept):
                    rest = kept[:i] + kept[i + 1:]
                    if entails(p, disj(*rest)):
                        kept.pop(i)
                        changed = True
                        break
            return disj(*kept)
        case And(parts):
            pieces = [tidy(p) for p in parts]
            merged: list[Formula] = []
            les = {p.lin: p for p in pieces if isinstance(p, Le)}
            consumed: set[Formula] = set()
            for lin, atom in les.items():
                flipped = lin.scale(-1)
                if flipped in les and atom not in consumed:
                    partner = les[flipped]
                    merged.append(_fold_atom(EqZ(lin)))
                    consumed.add(atom)
                    consumed.add(partner)
            pieces = merged + [p for p in pieces if p not in consumed]
            kept = list(dict.fromkeys(pieces))
            changed = True
            while changed and len(kept) > 1:
                changed = False
                for i, p in enumerate(kept):
                    rest = kept[:i] + kept[i + 1:]
                    if entails(conj(*rest), p):
                        kept.pop(i)
                        changed = True
                        break
            return conj(*kept)
        case Not(body):
            return neg(tidy(body))
        case _:
            return f


def witness(f: Formula) -> Optional[dict[str, int]]:
    """A satisfying assignment of the free variables, or None.

    The values come from the elimination's own substitution terms, so they
    double as a small-model bound for the formula.
    """
    qf = nnf(eliminate_quantifiers(f))
    model = _witness_qf(simplify(qf))
    if model is None:
        return None
    for v in free_vars(qf):
        model.setdefault(v, 0)
    assert evaluate(qf, model)
    return model


def _witness_qf(f: Formula) -> Optional[dict[str, int]]:
    if f == TRUE:
        return {}
    if f == FALSE:
        return None
    if isinstance(f, Not):
        return _witness_qf(simplify(nnf(f)))
    if isinstance(f, Or):
        for p in f.parts:
            m = _witness_qf(simplify(p))
            if m is not None:
                return m
        return None
    if _obviously_contradictory(f):
        return None
    solved = _solved_unit_equality(f)
    if solved is not None:
        v, value = solved
        m = _witness_qf(simplify(_subst_var(f, v, value)))
        if m is None:
            return None
        for w in value.variables():
            m.setdefault(w, 0)
        m[v] = value.evaluate(m)
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
        if any(isinstance(p, Not) for p in f.parts):
            return _witness_qf(simplify(conj(*(nnf(p) for p in f.parts))))
    v = _pick_var(f)
    for b in _cooper_branches(v, f):
        m = _witness_qf(simplify(b.formula))
        if m is None:
            continue
        for w in free_vars(b.formula):
            m.setdefault(w, 0)
        if b.exact is not None:
            for w in b.exact.variables():
                m.setdefault(w, 0)
            scaled = b.exact.evaluate(m)
        else:
            vals = []
            for bound in b.bounds:
                for w in bound.variables():
                    m.setdefault(w, 0)
                vals.append(bound.evaluate(m))
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

def render_term(t: Term | Lin) -> str:
    lin = _lin(t)
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
        return Lin(lin.coeffs, lin.const), Lin({}, 0)
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


def debug_dump(f: Formula) -> str:
    """Structural dump including internal divisibility atoms."""
    match f:
        case TrueF():
            return "true"
        case FalseF():
            return "false"
        case Le(lin):
            return f"(<= {render_term(lin)} 0)"
        case EqZ(lin):
            return f"(== {render_term(lin)} 0)"
        case Dvd(d, lin):
            return f"(dvd {d} {render_term(lin)})"
        case NotDvd(d, lin):
            return f"(ndvd {d} {render_term(lin)})"
        case And(parts):
            return "(and " + " ".join(debug_dump(p) for p in parts) + ")"
        case Or(parts):
            return "(or " + " ".join(debug_dump(p) for p in parts) + ")"
        case Not(body):
            return f"(not {debug_dump(body)})"
        case Exists(v, body):
            return f"(exists {v} {debug_dump(body)})"
    raise TypeError(f"not a formula: {f!r}")
