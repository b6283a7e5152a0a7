"""End-to-end exercises of the command line: exit codes, JSON output,
tracing, simulation and the obligation explainer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"


def brts(*args: str, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "brts.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_good_exits_zero():
    out = brts("check", "corpus/prodcons/good.brts")
    assert out.returncode == 0


def test_check_fig6_exits_one_with_diagnostic():
    out = brts("check", "corpus/prodcons/fig6.brts")
    assert out.returncode == 1
    assert "p = 2, c = 3" in out.stderr
    assert "BRTS014" in out.stderr


def test_check_empty_program_is_parse_level(tmp_path):
    empty = tmp_path / "empty.brts"
    empty.write_text("")
    out = brts("check", str(empty))
    assert out.returncode == 2
    assert "NoMainState" not in out.stderr  # message text, code carries the kind
    assert "BRTS006" in out.stderr


def test_check_json_validates_against_schema(tmp_path):
    import jsonschema

    out = brts("check", "--json", "corpus/prodcons/fig6.brts",
               "corpus/prodcons/good.brts")
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    schema = json.loads((ROOT / "docs/diagnostics-schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert any(d["code"] == "BRTS014" for d in payload)


def test_check_emit_obligations_jsonl():
    out = brts("check", "--emit-obligations", "corpus/dyck/bad.brts")
    assert out.returncode == 1
    lines = [json.loads(l) for l in out.stdout.splitlines() if l.strip()]
    assert lines, "expected obligation records"
    assert all({"rule", "phi", "obligation", "verdict"} <= set(l) for l in lines)
    assert any(l["verdict"] == "invalid" for l in lines)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_good_prodcons_prints_final_typestate():
    # main ends in the match whose taken arm leaves the buffer at (2, 2)
    out = brts("run", "corpus/prodcons/good.brts")
    assert out.returncode == 0
    assert out.stdout.strip() == "OpenBuffer@phi(2, 2)"


def test_run_refuses_violating_program_without_unchecked():
    out = brts("run", "corpus/prodcons/fig6.brts")
    assert out.returncode == 1


def test_run_unchecked_traces_to_2_3():
    out = brts("run", "--unchecked", "--trace", "corpus/prodcons/fig6.brts")
    assert out.returncode == 0
    entries = [json.loads(l) for l in out.stdout.splitlines()
               if l.strip().startswith("{")]
    calls = [e for e in entries if e["rule"] == "mcall" and e.get("depth") == 0
             and e.get("coords")]
    assert calls[-1]["coords"] == [2, 3]


def test_run_fuel_exhaustion_exits_four(tmp_path):
    looping = tmp_path / "loop.brts"
    looping.write_text("""
state Main {
    void main()[] {
        var bool go = true;
        while [exists. 0 <= 0] (go) { };
    }
}
""")
    out = brts("run", "--fuel", "10", str(looping))
    assert out.returncode == 4
    assert "FuelExhausted" in out.stderr


# ---------------------------------------------------------------------------
# simulate / reach
# ---------------------------------------------------------------------------

def test_simulate_prodcons_exits_zero():
    out = brts("simulate", "corpus/prodcons/machine.mca",
               "corpus/prodcons/good.brts", "--bound", "3",
               "--final-state", "OpenBuffer", "--json")
    assert out.returncode == 0, out.stderr
    blob = json.loads(out.stdout)
    assert blob["simulates"] is True
    assert blob["machine_states"] <= 200


def test_simulate_dyck_with_formula_finals():
    out = brts("simulate", "corpus/dyck/machine.mca", "corpus/dyck/good.brts",
               "--bound", "3", "--final-formula", "n == m")
    assert out.returncode == 0, out.stderr
    assert "simulation found" in out.stdout


def test_simulate_counterexample_exits_five(tmp_path):
    # a machine with an action the program never declares
    text = (CORPUS / "prodcons/machine.mca").read_text()
    text += "trans open -> open : flush : p' == p && c' == c\n"
    machine = tmp_path / "flush.mca"
    machine.write_text(text)
    out = brts("simulate", str(machine), "corpus/prodcons/good.brts",
               "--bound", "2", "--final-state", "OpenBuffer")
    assert out.returncode == 5
    assert "flush" in out.stderr


def test_reach_witness_and_none():
    out = brts("reach", "corpus/prodcons/mutant.mca", "--bad", "c > p",
               "--bound", "4", "--json")
    assert out.returncode == 4
    blob = json.loads(out.stdout)
    assert blob["witness"]["steps"][-1]["valuation"] == [2, 3]

    out2 = brts("reach", "corpus/prodcons/machine.mca", "--bad", "c > p",
                "--bound", "6")
    assert out2.returncode == 0
    assert "no violation" in out2.stdout


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def test_explain_failing_consume():
    golden = (CORPUS / "prodcons/fig6.expected").read_text()
    line_col = golden.splitlines()[1].split(":")[1:3]
    out = brts("explain", "corpus/prodcons/fig6.brts",
               "--at", f"{line_col[0]}:{line_col[1]}")
    assert out.returncode == 0
    assert "verdict: invalid" in out.stdout
    assert "rule mcall" in out.stdout
    assert "countermodel" in out.stdout


def test_explain_no_obligation_at_span():
    out = brts("explain", "corpus/prodcons/fig6.brts", "--at", "1:1")
    assert out.returncode == 1
    assert "NoObligationAtSpan" in out.stderr


def test_explain_needs_parseable_file(tmp_path):
    broken = tmp_path / "broken.brts"
    broken.write_text("state {")
    out = brts("explain", str(broken), "--at", "1:1")
    assert out.returncode == 2
    assert "must parse" in out.stderr


# ---------------------------------------------------------------------------
# fmt / export
# ---------------------------------------------------------------------------

def test_fmt_output_reparses_to_same_tree():
    from brts.parser import parse_program
    from brts.printer import strip_spans

    out = brts("fmt", "corpus/train/good.brts")
    assert out.returncode == 0
    original = parse_program((CORPUS / "train/good.brts").read_text())
    formatted = parse_program(out.stdout)
    assert strip_spans(formatted) == strip_spans(original)


def test_export_lts_dot():
    out = brts("export-lts", "corpus/dyck/machine.mca", "--bound", "2")
    assert out.returncode == 0
    assert out.stdout.startswith("digraph")
    assert "PushLR" in out.stdout


# ---------------------------------------------------------------------------
# unreadable inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("check", "{missing}"),
    ("fmt", "{missing}"),
    ("run", "{missing}"),
    ("simulate", "corpus/prodcons/machine.mca", "{missing}"),
    ("explain", "{missing}", "--at", "1:1"),
])
def test_missing_input_file_is_a_located_exit_two(tmp_path, args):
    missing = str(tmp_path / "missing.brts")
    out = brts(*(a.format(missing=missing) for a in args))
    assert out.returncode == 2
    assert out.stderr.startswith(f"{missing}: error: ")
    assert "internal error" not in out.stderr
