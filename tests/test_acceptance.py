"""Acceptance suite: one test per criterion, each printing a PASS line with
its measurement (run with -s to see them).  Tolerances are pinned here, not
configured anywhere else.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np
import pytest

from brts.cli import EXIT_OK, EXIT_TYPE, check_source, initial_instance_of
from brts.counters import (
    Counterexample, SimulationRelation, accelerate_self_loop,
    annotations_of_program, brts_to_lts, check_simulation, compose_loop,
    load_machine, mca_to_lts, parse_machine, reach_violation, replay,
    verify_simulation,
)
from brts.gen import synthesize_program
from brts.interp import ObjV, RuntimeErr, run_program
from brts.parser import parse_formula, parse_program
from brts.presburger import (
    Const, Exists, conj, evaluate, formula_equal, free_vars, ge, is_satisfiable,
    is_valid, substitute, witness,
)
from brts.printer import print_program, strip_spans
from brts.syntax import state_table
from brts.typecheck import Ctx, EqRel, SubRel, check_program, reduce_to_paf
from brts.interp import run_program

from oracle import assignments_satisfying, bounded_sat
from test_presburger import _random_formula
from test_gen import _static_state, STUCK

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


# ---------------------------------------------------------------------------
# 1. running-example reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_running_example():
    start = time.monotonic()
    fig6 = CORPUS / "prodcons/fig6.brts"
    code, checker, diags = check_source(fig6.read_text(), str(fig6.relative_to(ROOT)))
    errors = [d for d in diags if d.severity == "error"]
    assert code == EXIT_TYPE
    assert len(errors) == 1
    err = errors[0]
    src_lines = fig6.read_text().splitlines()
    arm_line = next(i for i, l in enumerate(src_lines, 1) if "case OpenBuffer" in l)
    assert err.span.line == arm_line, "rejection must sit on the OpenBuffer arm"
    assert "p = 2, c = 3" in err.message
    assert "c <= p" in err.message

    golden = (CORPUS / "prodcons/fig6.expected").read_text()
    rendered = f"exit {code}\n" + "".join(
        d.render(str(fig6.relative_to(ROOT))) + "\n" for d in diags)
    assert rendered == golden

    good = CORPUS / "prodcons/good.brts"
    code_good, _, _ = check_source(good.read_text(), str(good.relative_to(ROOT)))
    assert code_good == EXIT_OK
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, True, f"fig6 rejected at the OpenBuffer arm grounding to (2, 3), "
                    f"guarded variant accepted, golden match, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. solver oracle suite
# ---------------------------------------------------------------------------

def test_criterion_2_solver_oracle_suite():
    start = time.monotonic()
    rng = random.Random(90210)
    total, enumerated = 0, 0
    for i in range(10_000):
        quantified = i % 2 == 1
        f = _random_formula(rng, depth=2, quantify=quantified)
        got = is_satisfiable(f)
        if got:
            m = witness(f.body if isinstance(f, Exists) else f)
            assert m is not None, i
            bound = max([abs(v) for v in m.values()] + [4])
            names = sorted(free_vars(f))
            cells = (2 * bound + 1) ** max(len(names), 1)
            if cells <= 2_000_000:
                assert bounded_sat(f, bound), (i, m)
                enumerated += 1
            else:
                # the box is too wide to sweep; the witness itself is the
                # elimination-derived point, checked by direct evaluation
                body = f.body if isinstance(f, Exists) else f
                full = {v: m.get(v, 0) for v in free_vars(body)}
                assert evaluate(body, full), i
        else:
            assert not bounded_sat(f, 8), i
            enumerated += 1
        total += 1
    elapsed = time.monotonic() - start
    assert total >= 10_000
    assert enumerated / total >= 0.95
    assert elapsed < 60.0
    report(2, True, f"{total} formulas, {enumerated} fully enumerated, "
                    f"0 disagreements, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. reduction-to-arithmetic agreement
# ---------------------------------------------------------------------------

def test_criterion_3_reduction_agreement():
    disagreements = 0
    queries = 0
    for path in sorted(CORPUS.glob("*/*.brts")):
        checker = check_program(parse_program(path.read_text(), str(path)),
                                str(path), audit=True)
        for q in checker.query_log:
            rel = SubRel(q.t1, q.t2) if q.kind == "subtype" else EqRel(q.t1, q.t2)
            if is_valid(reduce_to_paf(rel, checker.st)) != q.result:
                disagreements += 1
            queries += 1
    assert queries > 50
    report(3, disagreements == 0,
           f"{queries} subtype/equality queries replayed through the "
           f"arithmetic reduction, {disagreements} disagreements")


# ---------------------------------------------------------------------------
# 4. progress and preservation at scale
# ---------------------------------------------------------------------------

def test_criterion_4_progress_preservation():
    rng = random.Random(1_000_003)
    failures = 0
    for i in range(1000):
        program, expected_tag = synthesize_program(rng, i, depth=6)
        checker = check_program(program)
        if any(d.severity == "error" for d in checker.diagnostics):
            failures += 1
            continue
        try:
            value, _, _ = run_program(program, fuel=10 ** 5, table=checker.st)
        except RuntimeErr as err:
            if err.kind in STUCK:
                failures += 1
                continue
            raise
        static_state = _static_state(checker, program)
        if not (isinstance(value, ObjV) and value.state == expected_tag
                and checker.st.is_substate(value.state, static_state)):
            failures += 1
    report(4, failures == 0,
           f"1000 synthesized programs checked, ran under fuel 1e5, and "
           f"preserved their state tags; {failures} failures")


# ---------------------------------------------------------------------------
# 5. simulation of both machines, with mutation coverage
# ---------------------------------------------------------------------------

def _br_lts(case: str, final_kind: str, final_value: str, bound=3, drop=None):
    program = parse_program((CORPUS / case / "good.brts").read_text())
    table = state_table(program)
    annotations = [a for a in annotations_of_program(table) if a.label != drop]
    initial = initial_instance_of(program)
    if final_kind == "state":
        final = lambda s, v: table.is_substate(s, final_value)
    else:
        formula = parse_formula(final_value)
        fam = table.find_family(initial.family)
        final = lambda s, v: evaluate(formula, dict(zip(fam.coord_vars, v)))
    return brts_to_lts(annotations, initial, bound, table=table, final=final)


def test_criterion_5_simulation():
    t0 = time.monotonic()
    prod_machine = mca_to_lts(load_machine(CORPUS / "prodcons/machine.mca"), 3)
    assert prod_machine.size() <= 200
    rel = check_simulation(_br_lts("prodcons", "state", "OpenBuffer"), prod_machine)
    assert isinstance(rel, SimulationRelation)
    prod_time = time.monotonic() - t0
    assert prod_time < 5.0

    t1 = time.monotonic()
    dyck_machine = mca_to_lts(load_machine(CORPUS / "dyck/machine.mca"), 3)
    rel2 = check_simulation(_br_lts("dyck", "formula", "n == m"), dyck_machine)
    assert isinstance(rel2, SimulationRelation)
    dyck_time = time.monotonic() - t1
    assert dyck_time < 5.0

    broken = 0
    for label in ("open", "produce", "consume", "close"):
        out = check_simulation(
            _br_lts("prodcons", "state", "OpenBuffer", drop=label), prod_machine)
        broken += isinstance(out, Counterexample)
    for label in ("PushL", "PushR", "PushLR"):
        out = check_simulation(
            _br_lts("dyck", "formula", "n == m", drop=label), dyck_machine)
        broken += isinstance(out, Counterexample)
    assert broken == 7
    report(5, True,
           f"both machines simulated (prodcons {prod_time:.2f}s, dyck "
           f"{dyck_time:.2f}s); all 7 annotation deletions produce counterexamples")


# ---------------------------------------------------------------------------
# 6. violation reachability
# ---------------------------------------------------------------------------

def test_criterion_6_reachability():
    bad = parse_formula("c > p")
    mutant = load_machine(CORPUS / "prodcons/mutant.mca")
    path = reach_violation(mutant, bad, bound=6)
    assert path is not None
    assert len(path) == 6
    assert path.final_valuation() == (2, 3)
    assert replay(mutant, path, bound=6)
    guarded = load_machine(CORPUS / "prodcons/machine.mca")
    assert reach_violation(guarded, bad, bound=6) is None
    report(6, True, "mutant witness has length 6 and ends at (2, 3); the "
                    "guarded machine shows none at bound 6")


# ---------------------------------------------------------------------------
# 7. the whole case-study corpus, against its golden files
# ---------------------------------------------------------------------------

def test_criterion_7_case_studies():
    start = time.monotonic()
    cases = sorted(p.name for p in CORPUS.iterdir() if p.is_dir())
    assert cases == ["anbn", "arraybounds", "dyck", "inevitability",
                     "prodcons", "train"]
    checked = 0
    for path in sorted(CORPUS.glob("*/*.brts")):
        rel = str(path.relative_to(ROOT))
        code, _, diags = check_source(path.read_text(), rel)
        rendered = f"exit {code}\n" + "".join(d.render(rel) + "\n" for d in diags)
        golden = path.with_suffix(".expected").read_text()
        assert rendered == golden, path
        if path.name.startswith("good"):
            assert code == EXIT_OK
            value, _, _ = run_program(parse_program(path.read_text()), fuel=10 ** 5)
        else:
            assert code == EXIT_TYPE
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(7, True, f"{checked} corpus programs matched their goldens and "
                    f"ran where expected, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. flat-loop acceleration against exact unrollings
# ---------------------------------------------------------------------------

def test_criterion_8_acceleration():
    machine = parse_machine("""
counters p c
state open
init open 0 0
trans open -> open : produce : p >= c && p' == p + 1 && c' == c
""", "produce_loop")
    loop = machine.transitions[0]
    accel = accelerate_self_loop(machine, loop, k_name="k")
    for k in range(4):
        grounded = substitute(accel, {"k": Const(k)})
        exact = compose_loop(machine, loop, k)
        assert formula_equal(grounded, exact), k
    report(8, True, "accelerated produce loop is equivalent to its exact "
                    "0..3-fold compositions")


# ---------------------------------------------------------------------------
# 9. round trips
# ---------------------------------------------------------------------------

def test_criterion_9_round_trip():
    for path in sorted(CORPUS.glob("*/*.brts")):
        program = parse_program(path.read_text(), str(path))
        text = print_program(program)
        assert strip_spans(parse_program(text)) == strip_spans(program), path
    rng = random.Random(31337)
    for i in range(1000):
        program, _ = synthesize_program(rng, i)
        text = print_program(program)
        assert strip_spans(parse_program(text)) == strip_spans(program), i
    report(9, True, "parse of print is the identity on all corpus files and "
                    "1000 synthesized trees")
