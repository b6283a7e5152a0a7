"""Reference implementations of the solver's kernel, kept as oracles for
the faster code in `brts.presburger`.

`reference_is_satisfiable` and `reference_witness` remove one unit
equality per recursion: substitute it with `_subst_var`, simplify, recurse,
and on the way back evaluate the solved variable from the model below.
Everything else (Cooper branches, disjunction splitting, the contradiction
check) is the module's own code.  Slow on long equality chains and
obviously faithful, which is what an oracle is for.  A model sets the
variables the search leaves free to 0 in sorted order, as `witness` does,
so models compare key for key.

`Term` is the tree the parser once built for an arithmetic term, one node
per operator, and `reference_lin_of` flattens it by plain recursion.  The
parser now builds the `Lin` directly, so parsing `print_term(t)` must make
the additions of the recursion over `t`, in the same order.

`reference_lin_key` is the sorted key that `Lin` equality and hashing
once went through, and `reference_cooper_eliminate` is the elimination
step that split every equality on the variable into two inequalities and
branched over Cooper's period, unit-coefficient equalities aside.
`reference_project_onto` eliminates one unit-pinned variable per round,
the alphabetically first, by substituting into the whole formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from brts.presburger import (
    EqZ, FALSE, TRUE, And, Formula, Lin, Not, Or, _conjuncts, _cooper_branches,
    _disjunct_count, _obviously_contradictory, _pick_var, _rewrite_eq_on, _subst_var, conj,
    cooper_eliminate, disj, eliminate_quantifiers, evaluate, free_vars, nnf,
    simplify,
)


class Term:
    """An arithmetic term as a tree."""

    __slots__ = ()


@dataclass(frozen=True)
class TConst(Term):
    value: int


@dataclass(frozen=True)
class TVar(Term):
    name: str


@dataclass(frozen=True)
class TScale(Term):
    coeff: int
    term: Term


@dataclass(frozen=True)
class TAdd(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TNeg(Term):
    term: Term


def reference_lin_of(term: Term) -> Lin:
    match term:
        case TConst(k):
            return Lin.constant(k)
        case TVar(v):
            return Lin.var(v)
        case TScale(c, t):
            return reference_lin_of(t).scale(c)
        case TAdd(a, b):
            return reference_lin_of(a).add(reference_lin_of(b))
        case TNeg(t):
            return reference_lin_of(t).scale(-1)
    raise TypeError(f"not a term: {term!r}")


def print_term(term: Term) -> str:
    """Source text with every compound node in parentheses.  The grammar
    has no negative literals and scales only by a natural number, so a
    negative constant or factor prints as a negation."""
    match term:
        case TConst(k):
            return str(k) if k >= 0 else f"(- {-k})"
        case TVar(v):
            return v
        case TScale(c, t):
            scaled = f"({abs(c)} * {print_term(t)})"
            return scaled if c >= 0 else f"(- {scaled})"
        case TAdd(a, b):
            return f"({print_term(a)} + {print_term(b)})"
        case TNeg(t):
            return f"(- {print_term(t)})"
    raise TypeError(f"not a term: {term!r}")


def reference_lin_key(lin: Lin) -> tuple[tuple[tuple[str, int], ...], int]:
    """Two linear forms are equal, and must hash alike, exactly when these
    sorted keys are equal."""
    return tuple(sorted(lin.coeffs.items())), lin.const


def reference_cooper_eliminate(var: str, f_qf: Formula) -> Formula:
    """Eliminate one existential: substitute a top-level unit equality's
    solution, otherwise take every Cooper branch, with any equality on var
    split into two inequalities first."""
    f_qf = simplify(f_qf)
    if var not in free_vars(f_qf):
        return f_qf
    if isinstance(f_qf, Or):
        return disj(*(reference_cooper_eliminate(var, p) for p in f_qf.parts))
    for a in _conjuncts(f_qf):
        if isinstance(a, EqZ):
            c = a.lin.coeff(var)
            if abs(c) == 1:
                value = a.lin.drop(var).scale(-1 if c == 1 else 1)
                return simplify(_subst_var(f_qf, var, value))
    # with its equalities split, no equality pins var: Cooper's period branches
    split = _rewrite_eq_on(f_qf, var)
    return simplify(disj(*(b.formula for b in _cooper_branches(var, split))))


def reference_project_onto(f: Formula, keep) -> Formula:
    """Existentially quantify away every free variable not in keep: each
    round eliminates the alphabetically first variable a top-level unit
    equality pins, else the one of fewest disjuncts."""
    keep_set = set(keep)
    qf = eliminate_quantifiers(f)
    while True:
        remaining = sorted(free_vars(qf) - keep_set)
        if not remaining:
            return qf
        pinned = [v for v in remaining
                  if any(isinstance(a, EqZ) and abs(a.lin.coeff(v)) == 1
                         for a in _conjuncts(qf))]
        if pinned:
            qf = reference_cooper_eliminate(pinned[0], qf)
        else:
            pick = min(remaining, key=lambda v: _disjunct_count(qf, v))
            qf = cooper_eliminate(pick, qf)


def reference_is_satisfiable(f: Formula) -> bool:
    return reference_sat_qf(nnf(eliminate_quantifiers(f)))


def reference_witness(f: Formula) -> Optional[dict[str, int]]:
    qf = nnf(eliminate_quantifiers(f))
    model = reference_witness_qf(simplify(qf))
    if model is None:
        return None
    for v in sorted(free_vars(qf)):
        model.setdefault(v, 0)
    assert evaluate(qf, model)
    return model


def solved_unit_equality(f: Formula) -> Optional[tuple[str, Lin]]:
    """A conjunct ``lin == 0`` with a unit coefficient pins its variable."""
    for a in _conjuncts(f):
        if isinstance(a, EqZ):
            for v, c in a.lin.coeffs.items():
                if c == 1:
                    return v, a.lin.drop(v).scale(-1)
                if c == -1:
                    return v, a.lin.drop(v)
    return None


def reference_unit_rounds(f: Formula) -> tuple[Formula, list[tuple[str, Lin]]]:
    """The unit-equality rounds of `reference_sat_qf` without its other
    steps: substitute one pivot into the whole formula and simplify, until
    the formula has no conjunct to pivot on."""
    solved: list[tuple[str, Lin]] = []
    while True:
        f = simplify(f)
        pivot = solved_unit_equality(f)
        if pivot is None:
            return f, solved
        solved.append(pivot)
        f = _subst_var(f, *pivot)


def reference_sat_qf(f: Formula) -> bool:
    f = simplify(f)
    if f == TRUE:
        return True
    if f == FALSE:
        return False
    if isinstance(f, Not):
        return reference_sat_qf(nnf(f))
    if isinstance(f, Or):
        return any(reference_sat_qf(p) for p in f.parts)
    if _obviously_contradictory(f):
        return False
    solved = solved_unit_equality(f)
    if solved is not None:
        return reference_sat_qf(_subst_var(f, solved[0], solved[1]))
    if isinstance(f, And):
        ors = [p for p in f.parts if isinstance(p, Or)]
        if ors:
            branch = min(ors, key=lambda p: len(p.parts))
            rest = conj(*(p for p in f.parts if p is not branch))
            return any(reference_sat_qf(conj(rest, alt)) for alt in branch.parts)
        nots = [p for p in f.parts if isinstance(p, Not)]
        if nots:
            return reference_sat_qf(conj(*(nnf(p) for p in f.parts)))
    v = _pick_var(f)
    return any(reference_sat_qf(b.formula) for b in _cooper_branches(v, f))


def reference_witness_qf(f: Formula) -> Optional[dict[str, int]]:
    if f == TRUE:
        return {}
    if f == FALSE:
        return None
    if isinstance(f, Not):
        return reference_witness_qf(simplify(nnf(f)))
    if isinstance(f, Or):
        for p in f.parts:
            m = reference_witness_qf(simplify(p))
            if m is not None:
                return m
        return None
    if _obviously_contradictory(f):
        return None
    solved = solved_unit_equality(f)
    if solved is not None:
        v, value = solved
        m = reference_witness_qf(simplify(_subst_var(f, v, value)))
        if m is None:
            return None
        for w in sorted(value.variables()):
            m.setdefault(w, 0)
        m[v] = value.evaluate(m)
        return m
    if isinstance(f, And):
        ors = [p for p in f.parts if isinstance(p, Or)]
        if ors:
            branch = min(ors, key=lambda p: len(p.parts))
            rest = conj(*(p for p in f.parts if p is not branch))
            for alt in branch.parts:
                m = reference_witness_qf(simplify(conj(rest, alt)))
                if m is not None:
                    return m
            return None
        if any(isinstance(p, Not) for p in f.parts):
            return reference_witness_qf(simplify(conj(*(nnf(p) for p in f.parts))))
    v = _pick_var(f)
    for b in _cooper_branches(v, f):
        m = reference_witness_qf(simplify(b.formula))
        if m is None:
            continue
        for w in sorted(free_vars(b.formula)):
            m.setdefault(w, 0)
        if b.exact is not None:
            for w in sorted(b.exact.variables()):
                m.setdefault(w, 0)
            scaled = b.exact.evaluate(m)
        else:
            vals = []
            for bound in b.bounds:
                for w in sorted(bound.variables()):
                    m.setdefault(w, 0)
                vals.append(bound.evaluate(m))
            if vals:
                top = min(vals) - 1
                scaled = top - ((top - b.residue) % b.period)
            else:
                scaled = b.residue
        assert scaled % b.delta == 0, "elimination lost the scaling constraint"
        m[v] = scaled // b.delta
        return m
    return None
