"""The checker's solved-form environment against the whole history.

The checker decides every obligation, and asks whether code is reachable,
on `Ctx.residual` with `Ctx.subst` applied, which each join prunes.  These
tests ask the same questions of the history `Ctx.phi`, which the checker
keeps for rendering, and compare the answers.  Growth tests pin what the
solved form buys: a straight line of calls, or a run of `match` joins,
costs a number of folded atoms that grows linearly with its length.
"""

import random
import time
from pathlib import Path

import pytest

import brts.presburger as presburger
from brts.gen import synthesize_program
from brts.parser import parse_program
from brts.presburger import (
    Const, Dvd, NotDvd, Var, compact, conj, disj, free_vars, is_satisfiable,
    neg, witness,
)
from brts.typecheck import Checker, EqRel, SubRel, _project, check_program, reduce_to_paf

from oracle import bounded_equiv
from test_presburger import VARS, _random_formula, _random_term
from test_typecheck import BUFFER_STATES, SQUEEZE

CORPUS = Path(__file__).parent.parent / "corpus"


def straight_line(n: int) -> str:
    """`open`, then n `produce` calls on one buffer."""
    calls = "".join("        pc.produce(buffer);\n" for _ in range(n))
    return BUFFER_STATES + f"""
state Main {{
    void main()[] {{
        var (1, _) pc = new ProducerConsumer();
        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();
        pc.open(buffer);
{calls}        buffer;
    }}
}}
"""


def overdrawn(n: int) -> str:
    """A straight line that consumes one item more than it produced."""
    return straight_line(n).replace(
        "        buffer;\n", "        pc.consume(buffer);\n" * (n + 1) + "        buffer;\n")


def match_joins(k: int) -> str:
    """k matches on a door known only at its parent state: one arm counts,
    the other does nothing, so each join disjoins two histories."""
    arms = "".join("        match (w : Door) {\n"
                   "            case Open { ops.inc(w); }\n"
                   "            case Shut { }\n"
                   "        };\n" for _ in range(k))
    return f"""
state Door {{ }}
state Open case of Door {{ }}
state Shut case of Door {{ }}
state Ops {{
    type D : Pi(phi(n), Door);
    void inc((1, D(phi(n, 0 <= n), Open)) >> (1, D(phi(n + 1, 0 <= n + 1), Open)) w)[] {{
        w <- (1, D(phi(n + 1, 0 <= n + 1), Open));
    }}
}}
state Main {{
    void main()[] {{
        var (1, _) ops = new Ops();
        var (1, D(phi(0), Door)) w = new Open();
{arms}        w;
    }}
}}
"""


def joined_door(use: str, bound: int) -> str:
    """One match join on the door of `match_joins`, then the joined door
    compared with `D(phi(k, k >= bound), Door)`: as an initialiser, as a
    method's result, or assigned to a field."""
    join = ("        var (1, _) ops = new Ops();\n"
            "        var (1, D(phi(0), Door)) w = new Open();\n"
            "        match (w : Door) { case Open { ops.inc(w); } case Shut { } };\n")
    wanted = f"(1, D(phi(k, k >= {bound}), Door))"
    main = {
        "init": f"    void main()[] {{\n{join}        var {wanted} v = w;\n    }}\n",
        "return": f"    {wanted} make()[] {{\n{join}        w;\n    }}\n"
                  "    void main()[] { }\n",
        "field": f"    void main()[] {{\n{join}        var (1, Holder) h = new Holder();\n"
                 "        let h.d = w in h;\n    }\n",
    }[use]
    head = match_joins(0).split("state Main")[0]
    return head + f"state Holder {{ var {wanted} d; }}\nstate Main {{\n{main}}}\n"


def stride(k: int) -> str:
    """Contracts of the form `k * x == n`, so the solver eliminates a
    variable of coefficient k."""
    pre = f"0 <= n, n <= {k}, {k} * y == n"
    return f"""
state Ctr {{ }}
state Ops {{
    type C : Pi(phi(n), Ctr);
    void step((1, C(phi(n, {k} * x == n), Ctr)) >> (1, C(phi(n + {k}, {k} * x + {k} == n + {k}), Ctr)) w)[] {{
        w <- (1, C(phi(n + {k}, {k} * x + {k} == n + {k}), Ctr));
    }}
    void twice((1, C(phi(n, {pre}), Ctr)) >> (1, C(phi(n + {2 * k}, {pre}), Ctr)) w)[] {{
        this.step(w);
        this.step(w);
    }}
}}
state Main {{
    void main()[] {{
        var (1, _) ops = new Ops();
        var (1, C(phi(0), Ctr)) w = new Ctr();
        ops.twice(w);
        w;
    }}
}}
"""


def squeezed() -> str:
    """A method whose environment is unsatisfiable from its parameter on."""
    anchor = "    void close((1, SB(phi(p, q, p >= q), OpenBuffer))"
    return BUFFER_STATES.replace(anchor, SQUEEZE.lstrip("\n") + anchor) + """
state Main {
    void main()[] { }
}
"""


class HistoryChecker(Checker):
    """Answers every reachability question on the whole history, and checks
    the solved form's invariants each time it is asked."""

    def note_context(self, ctx, span):
        assert not any(t.variables() & ctx.subst.keys() for t in ctx.subst.values())
        assert free_vars(ctx.residual) <= ctx.pinned
        ctx.sat = is_satisfiable(ctx.phi)
        super().note_context(ctx, span)


class HistorySubtyping(Checker):
    """Compares instances by projecting the whole history instead of the
    solved form."""

    def inst_formula(self, ctx, inst):
        if inst.family is None:
            return super().inst_formula(ctx, inst)
        return _project(ctx.phi, ctx.st.find_family(inst.family).coord_vars, inst)


def _programs():
    out = [(str(p.relative_to(CORPUS)), parse_program(p.read_text()))
           for p in sorted(CORPUS.glob("*/*.brts"))]
    series = ([(f"line{n}", straight_line(n)) for n in (1, 4, 12)]
              + [(f"overdrawn{n}", overdrawn(n)) for n in (1, 3)]
              + [(f"joins{k}", match_joins(k)) for k in (1, 3, 5)]
              + [(f"stride{k}", stride(k)) for k in (7, 101)]
              + [("squeezed", squeezed())])
    out += [(name, parse_program(src)) for name, src in series]
    rng = random.Random(1000003)
    out += [(f"gen{i}", synthesize_program(rng, i)[0]) for i in range(200)]
    return out


PROGRAMS = _programs()
DOORS = [(f"{use}{bound}", parse_program(joined_door(use, bound)))
         for use in ("init", "return", "field") for bound in (0, 1)]


def test_solved_form_answers_as_the_history_does():
    for name, program in PROGRAMS:
        checker = check_program(program, name)
        for ob in checker.obligations:
            model = witness(conj(ob.phi_f, neg(ob.goal_f)))
            assert ob.verdict == (model is None), (name, ob.span, ob.rule)
            assert ob.countermodel == model, (name, ob.span, ob.rule)
        reference = HistoryChecker(program, name)
        reference.run()
        assert ([d.render(name) for d in checker.diagnostics]
                == [d.render(name) for d in reference.diagnostics]), name


def test_instance_subtyping_answers_as_the_history_does():
    for name, program in PROGRAMS + DOORS:
        checker = check_program(program, name)
        reference = HistorySubtyping(program, name)
        reference.run()
        assert ([d.render(name) for d in checker.diagnostics]
                == [d.render(name) for d in reference.diagnostics]), name


def test_series_cover_both_verdicts_and_warnings():
    # the differential test above is only as strong as its programs
    verdicts, warnings = set(), 0
    for name, program in PROGRAMS:
        checker = check_program(program, name)
        verdicts |= {ob.verdict for ob in checker.obligations}
        warnings += sum(d.kind == "ContradictoryContext" for d in checker.diagnostics)
    assert verdicts == {True, False}
    assert warnings >= 6


@pytest.mark.parametrize("use, marker", [
    ("init", " v = w;"), ("return", " make()"), ("field", "let h.d")])
def test_instance_subtyping_reads_the_join(use, marker):
    # the joined door counts 0 or 1, so it is a D(phi(k, k >= 0)) and not
    # a D(phi(k, k >= 1)); the error sits at the statement or method
    assert check_program(parse_program(joined_door(use, 0))).ok
    source = joined_door(use, 1)
    line, text = next((i, t) for i, t in enumerate(source.splitlines(), start=1)
                      if marker in t)
    col = len(text) - len(text.lstrip()) + 1
    errors = check_program(parse_program(source)).diagnostics
    assert [(d.code, d.span.line, d.span.col) for d in errors] == [("BRTS024", line, col)]


def test_audit_replays_a_run_of_joins_quickly():
    start = time.perf_counter()
    checker = check_program(parse_program(match_joins(5)), audit=True)
    elapsed = time.perf_counter() - start
    assert checker.ok and len(checker.query_log) > 5
    for q in checker.query_log:
        rel = SubRel(q.t1, q.t2) if q.kind == "subtype" else EqRel(q.t1, q.t2)
        assert presburger.is_valid(reduce_to_paf(rel, checker.st)) == q.result, q
    assert elapsed < 2.0, elapsed


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def _folds(monkeypatch, source: str) -> int:
    calls = [0]
    real = presburger._fold_atom

    def counting(a):
        calls[0] += 1
        return real(a)

    with monkeypatch.context() as m:
        m.setattr(presburger, "_fold_atom", counting)
        checker = check_program(parse_program(source))
    assert checker.ok
    return calls[0]


def test_straight_line_costs_linear_folds(monkeypatch):
    small = _folds(monkeypatch, straight_line(40))
    large = _folds(monkeypatch, straight_line(80))
    assert large <= 2.2 * small, (small, large)


def test_each_match_join_costs_bounded_folds(monkeypatch):
    counts = [_folds(monkeypatch, match_joins(k)) for k in range(6, 10)]
    for before, after in zip(counts, counts[1:]):
        assert after <= 1.5 * before, counts


# ---------------------------------------------------------------------------
# compact
# ---------------------------------------------------------------------------

def _atoms(f) -> int:
    return sum(1 for _ in presburger._atoms_of(f))


def _pinned_cases(rng: random.Random):
    """The shape a join leaves: a conjunction over a disjunction of cases
    that each pin a variable, with other atoms over that variable."""
    v = Var(rng.choice(VARS))

    def atom():
        t = rng.choice([-2, -1, 1, 2]) * v + rng.randint(-4, 4)
        return rng.choice([presburger.le, presburger.ge, presburger.ne])(t, Const(0))

    cases = [conj(presburger.eq(v, Const(rng.randint(-3, 3))),
                  *(atom() for _ in range(rng.randint(0, 2))))
             for _ in range(rng.randint(2, 4))]
    return conj(disj(*cases), atom(), _random_formula(rng, 0))


def test_compact_is_equivalent_and_no_larger():
    rng = random.Random(16)
    extra = [Dvd(3, Var("p") + Var("q")), NotDvd(2, Var("x") + 1)]
    changed = 0
    for i in range(400):
        f = _random_formula(rng, 3) if i % 2 else _pinned_cases(rng)
        if rng.random() < 0.3:
            f = conj(f, disj(rng.choice(extra), _random_formula(rng, 1)))
        got = compact(f)
        assert bounded_equiv(f, got, 4), (f, got)
        assert _atoms(got) <= _atoms(f)
        changed += got != f
    assert changed >= 100, changed


def test_compact_merges_disjuncts_that_pin_the_same_values():
    n = Var("n")
    shifted = disj(*(presburger.eq(n, Const(c)) for c in (1, 2)))
    f = disj(conj(shifted, presburger.ge(n, Const(1))),
             presburger.eq(n, Const(1)), presburger.eq(n, Const(0)))
    assert compact(f) == disj(*(presburger.eq(n, Const(c)) for c in (1, 2, 0)))
