"""The case-study suite: every corpus program checks, runs, simulates and
model-checks exactly as its golden expectations say.

Each case directory holds the programs, the guarded machine, a faulty
mutant machine, one .expected file per program pinning the full
diagnostic output, and one .obligations.jsonl file per program pinning
what `brts check --emit-obligations` prints (rendered environments, fresh
names, verdicts and countermodels).  Regenerate goldens with
REGEN_GOLDENS=1 after a deliberate diagnostic change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from brts.cli import EXIT_OK, EXIT_PARSE, EXIT_TYPE, check_source, initial_instance_of
from brts.counters import (
    Counterexample, SimulationRelation, annotations_of_program, brts_to_lts,
    check_simulation, load_machine, mca_to_lts, reach_violation, replay,
    verify_simulation,
)
from brts.interp import ObjV, run_program
from brts.parser import parse_formula, parse_program
from brts.presburger import evaluate
from brts.syntax import InstanceType, state_table

CORPUS = Path(__file__).parent.parent / "corpus"
CASES = ["anbn", "arraybounds", "dyck", "inevitability", "prodcons", "train"]

# per-case model-checking setup: bad-state formula, intact/mutant bounds,
# expected mutant witness length and final valuation
REACH = {
    "prodcons": ("c > p", 6, 4, 6, (2, 3)),
    "dyck": ("m > n", 4, 3, 1, (0, 1)),
    "train": ("b - s > 20 || s - b > 20", 10, 22, 21, (0, 21, 0)),
    "anbn": ("f == 1 && (a > b || b > a)", 5, 4, 3, (1, 0, 1)),
    "arraybounds": ("wi > len - 1", 6, 4, 3, (2, 2, 2)),
    "inevitability": ("g == 1 && x <= 0", 6, 5, 4, (3, 0, 1)),
}

# how each case's program-side transition system marks final states
BR_FINALS = {
    "prodcons": ("state", "OpenBuffer"),
    "dyck": ("formula", "n == m"),
    "anbn": ("state", "Done"),
    "arraybounds": ("state", "Mem"),
    "inevitability": ("state", "Passed"),
    "train": ("state", "OnTime"),
}


def corpus_files(pattern: str) -> list[Path]:
    return sorted(CORPUS.glob(pattern))


def check_file(path: Path):
    rel = path.relative_to(CORPUS.parent)
    return check_source(path.read_text(), str(rel))


def rendered_diagnostics(path: Path) -> str:
    rel = str(path.relative_to(CORPUS.parent))
    code, _, diags = check_file(path)
    lines = [d.render(rel) for d in diags]
    return f"exit {code}\n" + "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# golden diagnostics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", corpus_files("*/*.brts"), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_golden_diagnostics(path: Path):
    golden = path.with_suffix(".expected")
    got = rendered_diagnostics(path)
    if os.environ.get("REGEN_GOLDENS"):
        golden.write_text(got)
    assert golden.exists(), f"missing golden file {golden}; run with REGEN_GOLDENS=1"
    assert got == golden.read_text()


def emitted_obligations(path: Path) -> str:
    """What `brts check --emit-obligations` prints on stdout for `path`."""
    _, checker, _ = check_file(path)
    obligations = checker.obligations if checker is not None else []
    return "".join(json.dumps(ob.to_json()) + "\n" for ob in obligations)


@pytest.mark.parametrize("path", corpus_files("*/*.brts"), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_golden_obligations(path: Path):
    golden = path.with_suffix(".obligations.jsonl")
    got = emitted_obligations(path)
    if os.environ.get("REGEN_GOLDENS"):
        golden.write_text(got)
    assert golden.exists(), f"missing golden file {golden}; run with REGEN_GOLDENS=1"
    assert got == golden.read_text()


def test_every_good_program_accepted():
    for path in corpus_files("*/good*.brts"):
        code, _, diags = check_file(path)
        assert code == EXIT_OK, (path, [d.message for d in diags])


def test_every_bad_program_rejected_with_named_obligation():
    for path in corpus_files("*/bad*.brts") + corpus_files("*/fig6.brts"):
        code, checker, diags = check_file(path)
        assert code == EXIT_TYPE, path
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1, path
        assert errors[0].note and "obligation" in errors[0].note, path


# ---------------------------------------------------------------------------
# running the good programs
# ---------------------------------------------------------------------------

def test_good_programs_run_to_completion():
    for path in corpus_files("*/good*.brts"):
        program = parse_program(path.read_text(), str(path))
        value, interp, _ = run_program(program, fuel=10 ** 5)
        assert interp.fuel > 0


def test_prodcons_good_run_matches_trace():
    program = parse_program((CORPUS / "prodcons/good.brts").read_text())
    _, interp, _ = run_program(program, trace=True)
    coords = [t.detail["coords"] for t in interp.trace
              if t.rule == "mcall" and t.detail.get("depth") == 0
              and t.detail.get("coords") is not None]
    assert coords == [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]]


def test_prodcons_fig6_runs_unchecked_to_violation():
    program = parse_program((CORPUS / "prodcons/fig6.brts").read_text())
    _, interp, _ = run_program(program, trace=True)
    coords = [t.detail["coords"] for t in interp.trace
              if t.rule == "mcall" and t.detail.get("depth") == 0
              and t.detail.get("coords") is not None]
    assert coords[-1] == [2, 3]


# ---------------------------------------------------------------------------
# machines: reachability and agreement with the checker
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES)
def test_guarded_machine_has_no_violation(case):
    bad, bound, _, _, _ = REACH[case]
    machine = load_machine(CORPUS / case / "machine.mca")
    assert reach_violation(machine, parse_formula(bad), bound) is None


@pytest.mark.parametrize("case", CASES)
def test_mutant_machine_reaches_violation(case):
    bad, _, bound, length, final = REACH[case]
    machine = load_machine(CORPUS / case / "mutant.mca")
    path = reach_violation(machine, parse_formula(bad), bound)
    assert path is not None
    assert len(path) == length
    assert path.final_valuation() == final
    assert replay(machine, path, bound)
    assert evaluate(parse_formula(bad), dict(zip(machine.counters, final)))


def test_machine_invariants_match_formulas():
    machine = load_machine(CORPUS / "prodcons/machine.mca")
    assert machine.invariant is not None
    from brts.presburger import formula_equal
    assert formula_equal(machine.invariant, parse_formula("p >= c"))


# ---------------------------------------------------------------------------
# simulation of each machine by its program's typestates
# ---------------------------------------------------------------------------

def br_lts_for(case: str, bound: int = 3, drop_label: str | None = None):
    program = parse_program((CORPUS / case / "good.brts").read_text())
    table = state_table(program)
    annotations = [a for a in annotations_of_program(table)
                   if a.label != drop_label]
    initial = initial_instance_of(program)
    kind, value = BR_FINALS[case]
    if kind == "state":
        final = lambda s, v: table.is_substate(s, value)
    else:
        formula = parse_formula(value)
        fam = table.find_family(initial.family)
        final = lambda s, v: evaluate(formula, dict(zip(fam.coord_vars, v)))
    return brts_to_lts(annotations, initial, bound, table=table, final=final)


@pytest.mark.parametrize("case", ["prodcons", "dyck", "anbn", "arraybounds",
                                  "inevitability"])
def test_program_typestates_simulate_machine(case):
    machine_lts = mca_to_lts(load_machine(CORPUS / case / "machine.mca"), 3)
    br = br_lts_for(case)
    rel = check_simulation(br, machine_lts)
    assert isinstance(rel, SimulationRelation), getattr(rel, "reason", None)
    assert verify_simulation(rel, br, machine_lts)


@pytest.mark.parametrize("label", ["open", "produce", "consume", "close"])
def test_prodcons_simulation_needs_every_annotation(label):
    machine_lts = mca_to_lts(load_machine(CORPUS / "prodcons/machine.mca"), 3)
    br = br_lts_for("prodcons", drop_label=label)
    result = check_simulation(br, machine_lts)
    assert isinstance(result, Counterexample)
    assert result.labels()[-1] == label


@pytest.mark.parametrize("label", ["PushL", "PushR", "PushLR"])
def test_dyck_simulation_needs_every_annotation(label):
    machine_lts = mca_to_lts(load_machine(CORPUS / "dyck/machine.mca"), 3)
    br = br_lts_for("dyck", drop_label=label)
    result = check_simulation(br, machine_lts)
    assert isinstance(result, Counterexample)
    assert result.labels()[-1] == label


# ---------------------------------------------------------------------------
# checker and model explorer agree about what goes wrong
# ---------------------------------------------------------------------------

def test_prodcons_checker_grounding_matches_machine_witness():
    _, checker, diags = check_file(CORPUS / "prodcons/fig6.brts")
    error = next(d for d in diags if d.severity == "error")
    machine = load_machine(CORPUS / "prodcons/mutant.mca")
    path = reach_violation(machine, parse_formula("c > p"), 4)
    p, c = path.final_valuation()
    assert f"p = {p}, c = {c}" in error.message


def test_dyck_checker_grounding_matches_machine_witness():
    _, checker, diags = check_file(CORPUS / "dyck/bad.brts")
    error = next(d for d in diags if d.severity == "error")
    machine = load_machine(CORPUS / "dyck/mutant.mca")
    path = reach_violation(machine, parse_formula("m > n"), 3)
    n, m = path.final_valuation()
    # the checker reports the pre-state the pop was attempted from
    assert f"n = {n}, m = {m - 1}" in error.message
