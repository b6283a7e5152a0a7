"""Differential tests: the solver's kernel against the references in
`solver_oracle.py`.

The one-pass unit-equality elimination must agree with the
one-equality-per-recursion reference exactly: the same boolean from
`is_satisfiable` and the same `witness` model, value for value and in the
same key order.  `is_satisfiable` and `witness` run one search, so a
model must exist exactly when the reference says the formula is
satisfiable, and every obligation the checker decides by looking for a
countermodel must get the verdict `is_valid(phi => goal)` gives it.
`Lin` equality and hashing must agree with the sorted
key, and the exact elimination of non-unit equalities must be equivalent
to splitting them and branching.
"""

import itertools
import math
import random
from pathlib import Path

import numpy as np

import brts.presburger as presburger
import brts.typecheck as typecheck
from brts.gen import synthesize_program
from brts.parser import parse_program, parse_term
from brts.presburger import (
    Const, EqZ, Exists, Lin, TRUE, Var, _solve_unit_equalities, conj,
    cooper_eliminate, disj, eliminate_quantifiers, eq, evaluate, exists_many,
    free_vars, implies, is_satisfiable, is_valid, le, lt, ne, nnf, project_onto,
    simplify, substitute, witness,
)
from brts.typecheck import check_program

from oracle import _with_vars, bounded_equiv
from solver_oracle import (
    TAdd, TConst, TNeg, TScale, TVar, print_term, reference_cooper_eliminate,
    reference_is_satisfiable, reference_lin_key, reference_lin_of,
    reference_project_onto, reference_unit_rounds, reference_witness,
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


def criterion_2_stream():
    """The first 3000 formulas of the acceptance suite's criterion 2."""
    rng = random.Random(90210)
    return [_random_formula(rng, depth=2, quantify=i % 2 == 1) for i in range(3000)]


def test_criterion_2_stream_matches_reference():
    models = 0
    for f in criterion_2_stream():
        satisfiable, compared = agree(f)
        # one search decides and explains: a model exists exactly when the
        # formula is satisfiable
        assert (witness(f) is not None) == satisfiable, f
        models += compared
    assert models > 1000


# ---------------------------------------------------------------------------
# the checker's own queries
# ---------------------------------------------------------------------------

def checker_queries(monkeypatch, programs):
    """Every is_satisfiable and witness query made while checking programs,
    and every obligation the checks recorded."""
    sat_queries, witness_queries, obligations = [], [], []
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
            obligations += check_program(program).obligations
    return sat_queries, witness_queries, obligations


def test_checker_queries_match_reference(monkeypatch):
    programs = [parse_program(p.read_text(), str(p))
                for p in sorted(CORPUS.glob("*/*.brts"))]
    rng = random.Random(1_000_003)
    programs += [synthesize_program(rng, i, depth=6)[0] for i in range(50)]
    sat_queries, witness_queries, obligations = checker_queries(monkeypatch, programs)
    assert len(sat_queries) > 50 and len(witness_queries) > 500
    # each obligation is decided by the search for its countermodel, and
    # must get the verdict the validity of phi => goal gives it
    assert any(not ob.verdict for ob in obligations)
    for ob in obligations:
        assert ob.verdict == is_valid(implies(ob.phi_f, ob.goal_f)), ob
        assert (ob.countermodel is None) == ob.verdict, ob
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


# ---------------------------------------------------------------------------
# Lin: equality and hash without a sorted key
# ---------------------------------------------------------------------------

def test_lin_arithmetic_matches_sorted_key():
    rng = random.Random(7_2024)
    names = NAMES[:4]
    pool = [Lin({v: rng.randint(-2, 2) for v in rng.sample(names, rng.randint(0, 3))},
                rng.randint(-2, 2)) for _ in range(40)]
    for _ in range(3000):
        a, b = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(6)
        if op == 0:
            got = a.add(b)
            assert got == b.add(a) and hash(got) == hash(b.add(a))
        elif op == 1:
            got = a.sub(a.add_const(rng.randint(-2, 2)) if rng.random() < 0.3 else b)
        elif op == 2:
            got = a.scale(rng.choice([0, -1, 2, -3]))
        elif op == 3:
            got = a.drop(rng.choice(names))
        elif op == 4:
            got = a.add_const(rng.randint(-2, 2))
        else:
            got = a.subst(rng.choice(names), b)
        assert 0 not in got.coeffs.values(), got
        pool.append(got)
    keys = [reference_lin_key(lin) for lin in pool]
    for _ in range(20_000):
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        assert (pool[i] == pool[j]) == (keys[i] == keys[j]), (pool[i], pool[j])
        if keys[i] == keys[j]:
            assert hash(pool[i]) == hash(pool[j])
    # forms that differ, even only in the constant, hash apart as often as
    # their sorted keys do (hash(-1) == hash(-2), so not always)
    by_key = {k: hash(lin) for k, lin in zip(keys, pool)}
    assert len(set(by_key.values())) == len({hash(k) for k in by_key}) > 500


# ---------------------------------------------------------------------------
# cooper_eliminate: exact non-unit equalities against split-and-branch
# ---------------------------------------------------------------------------

def assert_eliminations_agree(var, body, bound):
    """The two eliminations are equivalent; return whether a top-level
    non-unit equality on var made the elimination exact."""
    got, want = cooper_eliminate(var, body), reference_cooper_eliminate(var, body)
    assert var not in free_vars(got)
    assert bounded_equiv(got, want, bound), (var, body)
    assert is_satisfiable(got) == is_satisfiable(want), (var, body)
    return any(isinstance(a, EqZ) and abs(a.lin.coeff(var)) > 1
               for a in presburger._conjuncts(simplify(body)))


def test_cooper_eliminate_matches_reference_on_stream():
    exact = 0
    for f in criterion_2_stream():
        body = eliminate_quantifiers(f.body if isinstance(f, Exists) else f)
        names = sorted(free_vars(body))
        if names:
            exact += assert_eliminations_agree(
                f.var if isinstance(f, Exists) else names[0], body, 6)
    assert exact > 30


def test_cooper_eliminate_matches_reference_on_strides():
    rng = random.Random(2_12)
    x, y, z = Var("x"), Var("y"), Var("z")
    for c in range(2, 13):
        for _ in range(25):
            parts = [eq(c * x, y + rng.randint(-3, 3)),
                     le(Const(-12), y), le(y, Const(12))]
            extra = rng.choice([
                le(x, z), lt(2 * x, z + 1), ne(x, z), eq(3 * x + z, Const(1)),
                disj(le(x, Const(0)), eq(z, 2 * x)), le(Const(-2), z + x)])
            parts.insert(rng.randrange(len(parts) + 1), extra)
            assert assert_eliminations_agree("x", conj(*parts), 12)


def test_model_search_takes_the_exact_equality_branch():
    """A top-level equality with no unit coefficient on the variable the
    search eliminates makes one exact branch, the formula that
    `cooper_eliminate` returns, and the model solves the equality."""
    x, y = Var("x"), Var("y")
    models = 0
    for c, d in itertools.product(range(2, 9), repeat=2):
        if math.gcd(c, d) > 1:
            continue
        f = simplify(conj(eq(c * x, d * y + 1), le(Const(-1), y), le(y, Const(1))))
        branch, = presburger._cooper_branches("x", f)
        assert branch.exact is not None
        assert branch.formula == cooper_eliminate("x", f)
        model = witness(f)
        assert model is None or evaluate(f, model)
        assert (model is not None) == any(c * a == d * b + 1 for a in range(-9, 10)
                                          for b in range(-1, 2))
        models += model is not None
    # both answers occur among the 28 coprime pairs
    assert models == 18


def test_simplify_is_idempotent_on_stream():
    # so results of `_subst_var`, which end in a simplify, need no second one
    for f in criterion_2_stream():
        for g in (f, nnf(f), eliminate_quantifiers(f)):
            once = simplify(g)
            assert simplify(once) == once, g


# ---------------------------------------------------------------------------
# project_onto: no hang, and the existential closure's models
# ---------------------------------------------------------------------------

def test_project_onto_stream_matches_closure():
    stream = criterion_2_stream()
    picks = sorted(set(random.Random(1586).sample(range(len(stream)), 750)) | {1586})
    box = 6
    for i in picks:
        f = stream[i]
        body = f.body if isinstance(f, Exists) else f
        names = sorted(free_vars(f))
        if not names:
            continue
        keep = names[0]
        got = project_onto(f, [keep])
        assert free_vars(got) <= {keep}, i
        closure = exists_many(names[1:], f)
        if bounded_equiv(got, closure, box):
            continue
        # The box cuts off witnesses of the closure, so compare one way
        # pointwise: a witness inside the box is a real one.
        inside, projected = _with_vars(closure, [keep], box), _with_vars(got, [keep], box)
        assert np.all(~inside | projected), i
        # Where the projection holds without a witness in the box, the
        # solver's model must satisfy the formula.
        for k in np.flatnonzero(projected & ~inside):
            value = int(k) - box
            model = witness(substitute(body, {keep: Const(value)}))
            assert model is not None, (i, value)
            point = {v: 0 for v in free_vars(body)} | model | {keep: value}
            assert evaluate(body, point), (i, value)


# ---------------------------------------------------------------------------
# parse_term: the additions of the recursion over the old term tree
# ---------------------------------------------------------------------------

def _cancelling_term(rng: random.Random, depth: int):
    """A random term whose parenthesised parts often cancel what the sum
    around them holds, so coefficients vanish and come back in new places."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([TVar(rng.choice("nmk")), TConst(rng.randint(-2, 2))])
    shape = rng.random()
    if shape < 0.5:
        t = _cancelling_term(rng, depth - 1)
        for _ in range(rng.randint(1, 4)):
            t = TAdd(t, _cancelling_term(rng, depth - 1))
        return t
    if shape < 0.7:
        inner = _cancelling_term(rng, depth - 1)
        return TAdd(inner, TNeg(inner)) if rng.random() < 0.5 else TAdd(TNeg(inner), inner)
    if shape < 0.85:
        return TNeg(_cancelling_term(rng, depth - 1))
    return TScale(rng.randint(-3, 3), _cancelling_term(rng, depth - 1))


def test_parse_term_matches_recursive_reference():
    # n + m + (-n + n): summed flat, n would drop out and come back after m
    assert list(parse_term("n + m + (- n + n)").coeffs) == ["n", "m"]
    rng = random.Random(4242)
    for _ in range(3000):
        t = _cancelling_term(rng, 4)
        got, want = parse_term(print_term(t)), reference_lin_of(t)
        assert got == want, t
        assert list(got.coeffs.items()) == list(want.coeffs.items()), t


def test_parse_term_takes_a_long_sum():
    text = "n" + "".join(" - n" if i % 2 else " + m" for i in range(2999))
    assert parse_term(text) == Lin({"n": -1498, "m": 1500})


def test_project_onto_matches_one_pin_per_round():
    # one `_solve_unit_equalities` pass per round may pick the pinned
    # variables in another order than one pin per round; the formulas stay
    # the same but for one equivalent form, pinned here so that any further
    # change to rendered projections is noticed
    stream = criterion_2_stream()
    differ, compared = [], 0
    for i in range(0, len(stream), 2):
        names = sorted(free_vars(stream[i]))
        if not names:
            continue
        got = project_onto(stream[i], names[:1])
        want = reference_project_onto(stream[i], names[:1])
        compared += 1
        if got != want:
            differ.append(i)
            assert bounded_equiv(got, want, 6), i
            assert is_satisfiable(got) == is_satisfiable(want), i
    assert compared > 1000 and differ == [1010], (compared, differ)
    # p with 3p + 2q - 4x + 8 <= 0 and q + x == 1: every parity of p
    assert project_onto(stream[1010], ["p"]) == TRUE


def test_unit_equalities_solve_only_the_allowed_variables():
    x, y, z = Var("x"), Var("y"), Var("z")
    f = simplify(conj(eq(x, y + Const(1)), eq(y, z - Const(2)), le(z, x)))
    rest, solved = _solve_unit_equalities(f, {"y"})
    assert [v for v, _ in solved] == ["y"]
    assert rest == simplify(conj(eq(x, z - Const(1)), le(z, x)))
    # cooper_eliminate takes the same step for its one variable
    assert cooper_eliminate("y", f) == rest
    assert _solve_unit_equalities(f, set()) == (f, [])
