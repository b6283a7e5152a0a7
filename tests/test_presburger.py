"""Solver tests: frozen cases cross-checked against the enumeration oracle."""

import random

import pytest

from brts.presburger import (
    Const, Dvd, EqZ, Exists, Le, Lin, Var,
    conj, disj, eliminate_quantifiers, entails, eq, evaluate, exists,
    exists_many, formula_equal, free_vars, ge, gt, implies, is_satisfiable,
    is_valid, le, lt, ne, neg, nnf, render, simplify, substitute,
    witness, FALSE, TRUE,
)
from oracle import bounded_equiv, bounded_sat

p, q, c, x, y = Var("p"), Var("q"), Var("c"), Var("x"), Var("y")


# ---------------------------------------------------------------------------
# normalization: negation normal form, then simplification
# ---------------------------------------------------------------------------

def test_normalize_negated_le():
    # not (x <= 3)  <=>  x >= 4
    f = simplify(nnf(neg(le(x, Const(3)))))
    assert formula_equal(f, ge(x, Const(4)))
    assert bounded_equiv(f, ge(x, Const(4)), 8)


def test_normalize_not_true():
    assert simplify(nnf(neg(TRUE))) == FALSE


def test_normalize_negated_conjunction():
    f = neg(conj(eq(x, y), le(x, Const(0))))
    expected = disj(ne(x, y), ge(x, Const(1)))
    assert bounded_equiv(simplify(nnf(f)), expected, 5)


def test_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        f = _random_formula(rng, depth=3)
        once = simplify(nnf(f))
        assert simplify(nnf(once)) == once
        assert bounded_equiv(f, once, 6)


# ---------------------------------------------------------------------------
# substitute
# ---------------------------------------------------------------------------

def test_substitute_produce_step():
    f = ge(p, c)
    g = substitute(f, {"p": p + 1})
    assert formula_equal(g, ge(p + 1, c))


def test_substitute_into_true():
    assert substitute(TRUE, {"x": Const(7)}) == TRUE


def test_substitute_capture_avoiding():
    # [x / y] (exists x. x == y) must rename the binder
    f = exists("x", eq(x, y))
    g = substitute(f, {"y": x})
    assert bounded_equiv(g, exists("v", eq(Var("v"), x)), 5)
    # for every x there is a witness, so the result is valid
    assert is_valid(g)


def test_substitute_free_vars_contract():
    f = conj(ge(p, c), exists("q", eq(q, p)))
    g = substitute(f, {"p": q + 2})
    assert free_vars(g) == {"q", "c"}


# ---------------------------------------------------------------------------
# eliminate_quantifiers
# ---------------------------------------------------------------------------

def test_eliminate_witnessed_interval():
    f = exists("x", conj(ge(x, Const(0)), le(x, Const(3)), eq(x, Const(2))))
    assert is_valid(eliminate_quantifiers(f))


def test_eliminate_parity():
    f = exists("x", eq(x + x, Const(5)))
    out = eliminate_quantifiers(f)
    assert not is_satisfiable(out)
    assert not bounded_sat(f, 12)


def test_eliminate_ordered_pair():
    f = exists_many(["p", "c"], conj(eq(p, Const(2)), eq(c, Const(3)), ge(p, c)))
    assert eliminate_quantifiers(f) == FALSE


def test_eliminate_equivalent_quantifier_free():
    rng = random.Random(21)
    for _ in range(200):
        f = _random_formula(rng, depth=3)
        out = eliminate_quantifiers(f)
        assert free_vars(out) <= free_vars(f)
        assert bounded_equiv(f, out, 6)


def test_eliminate_single_exists_sound_and_complete():
    # The oracle's quantifier ranges over a finite box, so compare one
    # direction pointwise and certify the other by a checked witness.
    import itertools

    import numpy as np

    from oracle import _with_vars

    rng = random.Random(22)
    for _ in range(150):
        f = _random_formula(rng, depth=2, quantify=True)
        assert isinstance(f, Exists)
        out = eliminate_quantifiers(f)
        assert free_vars(out) <= free_vars(f)
        names = sorted(free_vars(f) | free_vars(out))
        got_f = _with_vars(f, names, 5)
        got_out = _with_vars(out, names, 5)
        # any boxed witness of f is a real witness, so out may not miss it
        assert np.all(~got_f | got_out)
        # where out claims truth beyond the box, a concrete witness must exist
        vals = range(-5, 6)
        for assign in itertools.islice(
                (a for a in itertools.product(vals, repeat=len(names))), 0, None):
            env = dict(zip(names, assign))
            if not evaluate(out, env):
                continue
            grounded = substitute(f.body, {k: Const(v) for k, v in env.items()})
            m = witness(grounded)
            assert m is not None
            assert evaluate(grounded, {f.var: m.get(f.var, 0)})
            break


def test_eliminate_even_predicate():
    f = exists("v", eq(Var("v") + Var("v"), Var("n")))
    out = eliminate_quantifiers(f)
    for n in range(-6, 7):
        assert evaluate(out, {"n": n}) == (n % 2 == 0)


# ---------------------------------------------------------------------------
# is_satisfiable / is_valid
# ---------------------------------------------------------------------------

def test_sat_initial_counters():
    assert is_satisfiable(conj(eq(p, Const(0)), eq(c, Const(0)), ge(p, c)))


def test_sat_false():
    assert not is_satisfiable(FALSE)


def test_sat_empty_interval():
    assert not is_satisfiable(conj(ge(x, Const(1)), le(x, Const(0))))


def test_valid_reflexive_eq():
    assert is_valid(eq(x, x))


def test_valid_fails_on_free_counters():
    assert not is_valid(ge(p, c))


def test_valid_grounded_implication():
    f = implies(conj(eq(p, Const(2)), eq(c, Const(1))), ge(p, c))
    assert is_valid(f)


# ---------------------------------------------------------------------------
# entails / formula_equal
# ---------------------------------------------------------------------------

def test_entails_grounded():
    assert entails(conj(eq(p, Const(1)), eq(c, Const(0))), ge(p, c))


def test_entails_reflexive():
    rng = random.Random(3)
    for _ in range(50):
        f = _random_formula(rng, depth=3)
        assert entails(f, f)


def test_entails_strengthen_fails():
    assert not entails(ge(p, c), ge(p, c + 1))


def test_entails_preorder_transitive():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        f1 = _random_formula(rng, depth=2)
        f2 = _random_formula(rng, depth=2)
        f3 = _random_formula(rng, depth=2)
        if entails(f1, f2) and entails(f2, f3):
            assert entails(f1, f3)
            checked += 1


def test_formula_equal_flipped_relation():
    assert formula_equal(ge(p, c), le(c, p))


def test_formula_equal_distinguishes():
    assert not formula_equal(eq(p, Const(0)), ge(p, Const(0)))


def test_formula_equal_post_annotation_is_substitution_image():
    # the produce step: substituting p+1 for p in the guard gives the
    # annotated post constraint
    pre = ge(p, q)
    post = ge(p + 1, q)
    assert formula_equal(post, substitute(pre, {"p": p + 1}))


def test_formula_equal_equivalence_relation():
    rng = random.Random(5)
    fs = [_random_formula(rng, depth=2) for _ in range(12)]
    for f in fs:
        assert formula_equal(f, f)
    for f1 in fs[:6]:
        for f2 in fs[:6]:
            assert formula_equal(f1, f2) == formula_equal(f2, f1)


# ---------------------------------------------------------------------------
# witness extraction
# ---------------------------------------------------------------------------

def test_witness_satisfies():
    f = conj(ge(p, c + 2), le(p, Const(9)), Dvd(3, Lin.var("p")))
    m = witness(f)
    assert m is not None
    assert evaluate(f, m)


def test_witness_none_when_unsat():
    assert witness(conj(ge(x, Const(1)), le(x, Const(0)))) is None


def test_witness_random_sweep():
    rng = random.Random(13)
    found = 0
    for _ in range(300):
        f = _random_formula(rng, depth=3)
        m = witness(f)
        if m is None:
            assert not is_satisfiable(f)
        else:
            full = {v: m.get(v, 0) for v in free_vars(f)}
            assert evaluate(f, full)
            found += 1
    assert found > 50


# ---------------------------------------------------------------------------
# solver vs oracle
# ---------------------------------------------------------------------------

def test_solver_agrees_with_bounded_oracle():
    rng = random.Random(2024)
    for _ in range(400):
        f = _random_formula(rng, depth=3, quantify=rng.random() < 0.4)
        got = is_satisfiable(f)
        if got:
            # a witness over the body covers quantified variables too, so it
            # bounds the box the oracle has to search
            m = witness(f.body if isinstance(f, Exists) else f)
            assert m is not None
            bound = max([abs(v) for v in m.values()] + [4])
            assert bounded_sat(f, bound)
        else:
            assert not bounded_sat(f, 8)


def test_render_round_survives_known_forms():
    assert render(ge(p, q)) == "q <= p"
    assert render(eq(p, Const(2))) == "p == 2"
    assert "exists" in render(exists("v", eq(Var("v"), Const(0))))


# ---------------------------------------------------------------------------
# random formula generator (shared with the acceptance suite)
# ---------------------------------------------------------------------------

VARS = ["p", "q", "c", "x"]


def _random_term(rng: random.Random):
    t = Const(rng.randint(-8, 8))
    for _ in range(rng.randint(0, 2)):
        v = Var(rng.choice(VARS))
        k = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        t = t + (k * v if k != 1 else v)
    return t


def _random_atom(rng: random.Random):
    t1, t2 = _random_term(rng), _random_term(rng)
    return rng.choice([le, ge, lt, gt, eq, ne])(t1, t2)


def _random_formula(rng: random.Random, depth: int, quantify: bool = False):
    if depth == 0 or rng.random() < 0.3:
        f = _random_atom(rng)
    else:
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            f = neg(_random_formula(rng, depth - 1))
        else:
            a = _random_formula(rng, depth - 1)
            b = _random_formula(rng, depth - 1)
            f = conj(a, b) if op == "and" else disj(a, b)
    if quantify:
        f = exists(rng.choice(VARS), f)
    return f


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
