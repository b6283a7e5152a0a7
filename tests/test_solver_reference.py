"""Differential tests: the solver's one-pass unit-equality elimination
against the one-equality-per-recursion reference in `solver_oracle.py`.

Answers must agree exactly: the same boolean from `is_satisfiable` and the
same `witness` model, value for value and in the same key order.
"""

import random
from pathlib import Path

import brts.presburger as presburger
import brts.typecheck as typecheck
from brts.gen import synthesize_program
from brts.parser import parse_program
from brts.presburger import (
    Const, EqZ, Exists, Lin, Var, _solve_unit_equalities, conj, disj, eq,
    is_satisfiable, le, lt, ne, nnf, simplify, witness,
)
from brts.typecheck import check_program

from solver_oracle import (
    reference_is_satisfiable, reference_unit_rounds, reference_witness,
)
from test_presburger import _random_formula

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"


def agree(f) -> tuple[bool, bool]:
    """Assert that f gets the same answers from both; return (satisfiable,
    whether a model was compared)."""
    got = is_satisfiable(f)
    assert got == reference_is_satisfiable(f), f
    if not got:
        return False, False
    body = f.body if isinstance(f, Exists) else f
    model, want = witness(body), reference_witness(body)
    assert model == want, f
    assert list(model) == list(want), f
    return True, True


def test_criterion_2_stream_matches_reference():
    rng = random.Random(90210)
    models = 0
    for i in range(3000):
        _, compared = agree(_random_formula(rng, depth=2, quantify=i % 2 == 1))
        models += compared
    assert models > 1000


# ---------------------------------------------------------------------------
# the checker's own queries
# ---------------------------------------------------------------------------

def checker_queries(monkeypatch, programs):
    """Every is_satisfiable and witness query made while checking programs."""
    sat_queries, witness_queries = [], []
    real_sat, real_witness = presburger.is_satisfiable, presburger.witness

    def recording_sat(f):
        sat_queries.append(f)
        return real_sat(f)

    def recording_witness(f):
        witness_queries.append(f)
        return real_witness(f)

    with monkeypatch.context() as m:
        # is_valid reaches is_satisfiable through the module global
        for module in (presburger, typecheck):
            m.setattr(module, "is_satisfiable", recording_sat)
            m.setattr(module, "witness", recording_witness)
        for program in programs:
            check_program(program)
    return sat_queries, witness_queries


def test_checker_queries_match_reference(monkeypatch):
    programs = [parse_program(p.read_text(), str(p))
                for p in sorted(CORPUS.glob("*/*.brts"))]
    rng = random.Random(1_000_003)
    programs += [synthesize_program(rng, i, depth=6)[0] for i in range(50)]
    sat_queries, witness_queries = checker_queries(monkeypatch, programs)
    assert len(sat_queries) > 500 and len(witness_queries) > 10
    for f in sat_queries:
        assert is_satisfiable(f) == reference_is_satisfiable(f), f
    for f in witness_queries:
        model, want = witness(f), reference_witness(f)
        assert model == want, f
        assert model is None or list(model) == list(want), f


# ---------------------------------------------------------------------------
# unit chains mixed with equalities that turn unit only after a substitution
# ---------------------------------------------------------------------------

NAMES = [f"v{i}" for i in range(7)]


def _mixed_conjunction(rng: random.Random):
    def term(k_vars: int, coeffs):
        t = Const(rng.randint(-3, 3))
        for v in rng.sample(NAMES, k_vars):
            t = t + rng.choice(coeffs) * Var(v)
        return t

    parts = []
    for _ in range(rng.randint(2, 7)):
        kind = rng.random()
        if kind < 0.35:       # unit: v == sum + k
            parts.append(eq(Var(rng.choice(NAMES)), term(rng.randint(0, 2), [1, -1, 2])))
        elif kind < 0.6:      # non-unit, such as 2*x + 3*y == k
            parts.append(eq(term(2, [2, -2, 3, -3]), Const(rng.randint(-4, 4))))
        elif kind < 0.8:
            parts.append(rng.choice([le, lt, ne])(term(rng.randint(1, 2), [1, -1, 2]),
                                                  term(1, [1, 3])))
        else:                 # a disjunction that may fold to one of its arms
            parts.append(disj(eq(Var(rng.choice(NAMES)), term(1, [1, 2])),
                              conj(le(term(1, [1]), Const(rng.randint(-2, 2))),
                                   eq(term(2, [2, 3]), Const(0)))))
    rng.shuffle(parts)
    return conj(*parts)


def test_mixed_equalities_match_reference():
    rng = random.Random(5_0505)
    outcomes = {"sat": 0, "unsat": 0, "late unit": 0}
    for _ in range(1500):
        f = _mixed_conjunction(rng)
        sat, _ = agree(f)
        outcomes["sat" if sat else "unsat"] += 1
        start = simplify(nnf(f))
        rest, solved = _solve_unit_equalities(start)
        assert (rest, solved) == reference_unit_rounds(start), f
        unit_at_start = {v for a in presburger._conjuncts(start) if isinstance(a, EqZ)
                         for v, c in a.lin.coeffs.items() if abs(c) == 1}
        outcomes["late unit"] += any(v not in unit_at_start for v, _ in solved)
    assert min(outcomes.values()) > 100, outcomes


def test_pivot_order_and_splice_position():
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    # 2x + 3y == 0 becomes unit in x once y is replaced by z - x; the
    # disjunction loses its second arm then, and the conjunction left of it
    # is spliced in at the disjunction's place
    f = simplify(conj(eq(2 * x + 3 * y, Const(0)), le(w, x),
                      disj(conj(le(z, Const(4)), le(Const(0), z)), eq(y + x, z + 7)),
                      eq(y, z - x), le(x, Const(10))))
    rest, solved = _solve_unit_equalities(f)
    assert (rest, solved) == reference_unit_rounds(f)
    assert [v for v, _ in solved] == ["y", "x"]
    assert rest == conj(le(w, 3 * z), le(z, Const(4)), le(Const(0), z), le(z, Const(3)))


def test_substitutions_come_back_in_reverse():
    a, b, c = Var("a"), Var("b"), Var("c")
    f = conj(eq(a, b + Const(1)), eq(b, c + Const(1)), le(Const(5), c))
    rest, solved = _solve_unit_equalities(simplify(f))
    assert [v for v, _ in solved] == ["a", "b"]
    assert solved[1][1] == Lin({"c": 1}, 1)
    assert witness(f) == {"c": 5, "b": 6, "a": 7}


# ---------------------------------------------------------------------------
# cost of a long chain
# ---------------------------------------------------------------------------

def _chain(n: int):
    """x0 == 0 && x1 == x0 + 1 && ... && xn == x(n-1) + 1 && xn <= n - 1"""
    xs = [Var(f"x{i}") for i in range(n + 1)]
    return conj(eq(xs[0], Const(0)),
                *(eq(xs[i], xs[i - 1] + 1) for i in range(1, n + 1)),
                le(xs[n], Const(n - 1)))


def _folds_to_decide(monkeypatch, f) -> int:
    calls = [0]
    real = presburger._fold_atom

    def counting(a):
        calls[0] += 1
        return real(a)

    with monkeypatch.context() as m:
        m.setattr(presburger, "_fold_atom", counting)
        assert is_satisfiable(f) is False
    return calls[0]


def test_unit_chain_costs_linear_folds(monkeypatch):
    small, large = _chain(50), _chain(100)
    folds_small = _folds_to_decide(monkeypatch, small)
    folds_large = _folds_to_decide(monkeypatch, large)
    assert folds_large <= 2.5 * folds_small, (folds_small, folds_large)
