"""End-to-end exercises of the command line: exit codes, JSON output,
tracing, simulation and the obligation explainer."""

import json
import os
import subprocess
import sys
import time
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


def test_check_has_one_mode():
    out = brts("check", "--strict", "corpus/prodcons/good.brts")
    assert out.returncode == 2
    assert "unrecognized arguments: --strict" in out.stderr


def test_countermodels_do_not_depend_on_the_hash_seed(tmp_path):
    # a loop whose entry fails after nested matches, and a disjunction whose
    # model leaves five variables to fill: both once printed their unset
    # variables in set order, which PYTHONHASHSEED decides
    head = (CORPUS / "prodcons/good.brts").read_text().split("state Main")[0]
    program = tmp_path / "loop.brts"
    program.write_text(head + "state Main {\n    void main()[] {\n"
                       "        var (1, _) pc = new ProducerConsumer();\n"
                       "        var (1, SB(phi(0, 0), ClosedBuffer)) buffer = new ClosedBuffer();\n"
                       "        pc.open(buffer);\n"
                       "        match (buffer) {\n"
                       "            case OpenBuffer { pc.produce(buffer); match (buffer) {"
                       " case OpenBuffer { pc.produce(buffer); } default { } }; }\n"
                       "            default { }\n"
                       "        };\n"
                       "        while [exists a. p >= c + 2] (true) { };\n"
                       "    }\n}\n")
    script = ("import sys\nfrom brts import cli\nfrom brts.parser import parse_formula\n"
              "from brts.presburger import witness\n"
              "print(witness(parse_formula('x == 1 || a >= 0 && b >= 0 && c >= 0"
              " && d >= 0 && e >= 0')))\n"
              "cli.main(['check', '--emit-obligations', sys.argv[1]])\n")
    outputs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", script, str(program)],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0 and '"countermodel"' in out.stdout, out.stderr[-300:]
        outputs.add(out.stdout)
    assert len(outputs) == 1


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


def test_run_unchecked_let_name_goes_out_of_scope(tmp_path):
    program = tmp_path / "scope.brts"
    program.write_text("""state Main {
    void main()[] {
        var int x = 0;
        let y = 1 in x;
        y;
    }
}
""")
    out = brts("run", "--unchecked", str(program))
    assert out.returncode == 4
    assert f"{program}:5:9: runtime error:" in out.stderr
    assert "[UnboundRuntimeName]" in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("body, where, message", [
    pytest.param("var (1, S) s = new T();", "4:24",
                 "state 'T' is not declared [UnknownState]", id="new"),
    pytest.param("val s = new S();\n        s.go();\n        s.go();", "6:11",
                 "state 'T' has no method 'go' [NoSuchMethod]", id="call"),
])
def test_run_unchecked_undeclared_state_is_a_located_runtime_error(
        tmp_path, body, where, message):
    # `check` rejects both with BRTS020; the first call of `go` moves s to T
    program = tmp_path / "undeclared.brts"
    program.write_text("state S { void go()[(1, S) >> (1, T) this]; }\n"
                       f"state Main {{\n    void main()[] {{\n        {body}\n    }}\n}}\n")
    assert brts("check", str(program)).returncode == 1
    out = brts("run", "--unchecked", str(program))
    assert out.returncode == 4
    assert out.stderr == f"{program}:{where}: runtime error: {message}\n"


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


@pytest.mark.parametrize("quantified, enumerated", [
    ("exists k. n == 2 * k", "n == -2 || n == 0 || n == 2"),
    ("exists k. n == 2 * k + 1", "n == -1 || n == 1"),
])
def test_reach_quantified_bad_formula(quantified, enumerated):
    # within --bound 2, the quantified formula holds at the enumerated values
    got = brts("reach", "corpus/dyck/machine.mca", "--bad", quantified, "--bound", "2")
    want = brts("reach", "corpus/dyck/machine.mca", "--bad", enumerated, "--bound", "2")
    assert (got.returncode, got.stdout) == (want.returncode, want.stdout)
    assert got.returncode == 4, got.stderr


def test_reach_bound_default_ignores_the_environment(monkeypatch):
    # the mutant's shortest violation ends at (2, 3), past a bound of 2
    monkeypatch.setenv("BRTS_BOUND", "2")
    out = brts("reach", "corpus/prodcons/mutant.mca", "--bad", "c > p", "--json")
    assert out.returncode == 4, out.stdout
    assert json.loads(out.stdout)["witness"]["steps"][-1]["valuation"] == [2, 3]


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


def test_check_reports_an_unreadable_file_and_goes_on(tmp_path):
    missing = str(tmp_path / "missing.brts")
    out = brts("check", "corpus/prodcons/fig6.brts", missing, "corpus/anbn/bad.brts")
    assert out.returncode == 2
    assert [line.split(": ")[0] for line in out.stderr.splitlines()
            if not line.startswith(" ")] == [
        "corpus/prodcons/fig6.brts:36:82", missing, "corpus/anbn/bad.brts:31:20"]
    out = brts("check", "--json", "corpus/prodcons/fig6.brts", missing)
    assert out.returncode == 2
    assert [(d["file"], d["code"]) for d in json.loads(out.stdout)] == [
        ("corpus/prodcons/fig6.brts", "BRTS014")]
    assert out.stderr.startswith(f"{missing}: error: ")


def test_check_writes_one_kind_of_output():
    # JSON lines and then a JSON array on one stdout parse as neither
    out = brts("check", "--json", "--emit-obligations", "corpus/anbn/bad.brts")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "not allowed with argument" in out.stderr


@pytest.mark.parametrize("args, stream", [
    (("check", "{name}"), "stderr"),
    (("run", "{name}"), "stderr"),
    (("explain", "{name}", "--at", "36:82"), "stdout"),
    (("simulate", "corpus/prodcons/machine.mca", "{name}"), "stderr"),
])
def test_file_names_print_as_given(args, stream):
    name = "./corpus/prodcons/fig6.brts"
    out = brts(*(a.format(name=name) for a in args))
    assert getattr(out, stream).startswith(f"{name}:36:82: ")


def test_fmt_names_the_file_as_given(tmp_path):
    (tmp_path / "broken.brts").write_text("state Main {\n")
    out = brts("fmt", "./broken.brts", cwd=tmp_path)
    assert out.returncode == 2
    assert out.stderr.startswith("./broken.brts:2:1: error: ")


@pytest.mark.parametrize("args", [
    ("check", "{bad}"),
    ("fmt", "{bad}"),
    ("run", "{bad}"),
    ("explain", "{bad}", "--at", "1:1"),
    ("simulate", "corpus/prodcons/machine.mca", "{bad}"),
    ("simulate", "{bad}", "corpus/prodcons/good.brts"),
    ("reach", "{bad}", "--bad", "c > p"),
    ("export-lts", "{bad}"),
])
def test_non_utf8_input_is_a_located_exit_two(tmp_path, args):
    bad = tmp_path / "binary.brts"
    bad.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x00\x80")
    out = brts(*(a.format(bad=bad) for a in args))
    assert out.returncode == 2
    assert out.stderr.startswith(f"{bad}: error: not UTF-8 text: ")
    assert "internal error" not in out.stderr


# ---------------------------------------------------------------------------
# machine-tool errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, blamed, reason", [
    (("simulate", "corpus/prodcons/machine.mca", "corpus/prodcons/good.brts",
      "--bound", "-1"), "corpus/prodcons/machine.mca", "bound must be nonnegative"),
    (("simulate", "corpus/arraybounds/machine.mca", "corpus/arraybounds/good.brts",
      "--bound", "0"), "corpus/arraybounds/machine.mca",
     "initial valuation exceeds the bound"),
    (("reach", "corpus/prodcons/machine.mca", "--bad", "c>p", "--bound", "-1"),
     "corpus/prodcons/machine.mca", "bound must be nonnegative"),
    (("reach", "corpus/prodcons/machine.mca", "--bad", "z>0"),
     "corpus/prodcons/machine.mca",
     "bad-state formula mentions unknown counters: ['z']"),
    (("export-lts", "corpus/prodcons/machine.mca", "--bound", "-1"),
     "corpus/prodcons/machine.mca", "bound must be nonnegative"),
    (("export-lts", "corpus/arraybounds/machine.mca", "--bound", "0"),
     "corpus/arraybounds/machine.mca", "initial valuation exceeds the bound"),
])
def test_machine_tool_errors_are_located_exit_two(args, blamed, reason):
    out = brts(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"{blamed}: error: {reason}\n"


def test_simulate_without_dependent_typestate_exits_two(tmp_path):
    program = tmp_path / "plain.brts"
    program.write_text("state Main { void main()[] { } }\n")
    out = brts("simulate", "corpus/prodcons/machine.mca", str(program))
    assert out.returncode == 2
    assert out.stderr == (f"{program}: error: main declares no dependent typestate "
                          f"to start from\n")


def test_explain_malformed_position_exits_two():
    out = brts("explain", "corpus/prodcons/fig6.brts", "--at", "x")
    assert out.returncode == 2
    assert out.stderr == "error: --at expects LINE:COL\n"


# ---------------------------------------------------------------------------
# lexing, machine files and simulate options
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [("check",), ("fmt",), ("run", "--unchecked")])
def test_non_ascii_digit_is_a_lex_error(tmp_path, args):
    program = tmp_path / "superscript.brts"
    program.write_text("state Main {\n    void main()[] {\n        var x = 1²;\n"
                       "    }\n}\n", encoding="utf-8")
    out = brts(*args, str(program))
    assert out.returncode == 2
    assert out.stderr == (f"{program}:3:18: error: unexpected character "
                          f"'²' [BRTS001]\n")


@pytest.mark.parametrize("source, where, message", [
    pytest.param("state S { }\nstate S { }\nstate Main { void main()[] { } }\n",
                 "2:1", "state 'S' declared twice [BRTS003]", id="duplicate"),
    pytest.param("state S { }\nstate T case of U { }\nstate Main { void main()[] { } }\n",
                 "2:1", "state 'T' extends unknown state 'U' [BRTS004]",
                 id="unknown-parent"),
    pytest.param("state S { }\nstate T { }\n",
                 "1:1", "no state declares a method named 'main' [BRTS006]", id="no-main"),
])
@pytest.mark.parametrize("args", [("check",), ("run",), ("run", "--unchecked")],
                         ids=" ".join)
def test_state_table_errors_name_the_file(tmp_path, source, where, message, args):
    program = tmp_path / "table.brts"
    program.write_text(source)
    out = brts(*args, str(program))
    assert out.returncode == 2
    assert out.stderr == f"{program}:{where}: error: {message}\n"


@pytest.mark.parametrize("init, reason", [
    ("init", "init expects a state and the counters' initial values"),
    ("init q1 0 zero", "init values must be integers, got '0 zero'"),
    ("foo bar", "unknown directive 'foo'"),
])
@pytest.mark.parametrize("args", [
    ("reach", "{machine}", "--bad", "p > 0"),
    ("simulate", "{machine}", "corpus/prodcons/good.brts"),
    ("export-lts", "{machine}"),
])
def test_malformed_init_line_is_a_located_exit_two(tmp_path, init, reason, args):
    machine = tmp_path / "bad.mca"
    machine.write_text(f"counters p c\nstate q1\n{init}\n")
    out = brts(*(a.format(machine=machine) for a in args))
    assert out.returncode == 2
    assert out.stderr == f"{machine}: error: bad:3: {reason}\n"


@pytest.mark.parametrize("option, reason", [
    (("--final-formula", "z == 1"),
     "final formula mentions names that are not coordinates of the initial "
     "object: ['z']"),
    (("--final-state", "Nope"), "final state 'Nope' is not declared"),
    (("--final-formula", "n >= "), "expected an arithmetic term, found 'end of input'"),
])
def test_simulate_rejects_unknown_finals(option, reason):
    out = brts("simulate", "corpus/dyck/machine.mca", "corpus/dyck/good.brts",
               "--bound", "2", *option)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"corpus/dyck/good.brts: error: {reason}\n"


def test_simulate_takes_one_kind_of_finals():
    # with both, one of the two would have to be ignored
    out = brts("simulate", "corpus/dyck/machine.mca", "corpus/dyck/good.brts",
               "--final-state", "Dyck", "--final-formula", "n == m")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "not allowed with argument" in out.stderr


def test_simulate_quantified_final_formula():
    out = brts("simulate", "corpus/dyck/machine.mca", "corpus/dyck/good.brts",
               "--bound", "3", "--final-formula", "exists k. k == n && k == m")
    assert out.returncode == 0, out.stderr
    assert out.stdout == brts("simulate", "corpus/dyck/machine.mca",
                              "corpus/dyck/good.brts", "--bound", "3",
                              "--final-formula", "n == m").stdout


BUMP_PROGRAM = """
state Ctr { }
state Ops {
    type C : Pi(phi(n), Ctr);
    void bump((1, C(phi(n), Ctr)) >> (1, C(%s, Ctr)) w)[];
}
state Main {
    void main()[] {
        var (1, _) ops = new Ops();
        var (1, C(phi(0), Ctr)) w = new Ctr();
        ops.bump(w);
    }
}
"""

BUMP_MACHINE = """counters c
state s
init s 0
final s
trans s -> s : bump : c' == c + 1
"""


@pytest.mark.parametrize("post", [
    "phi(k)", "phi(k, k == n + 1 || n >= 0)", "phi(k, exists j. k == n + j && j == 1)",
])
def test_simulate_contract_with_unpinned_post_variable(tmp_path, post):
    program = tmp_path / "p.brts"
    program.write_text(BUMP_PROGRAM % post)
    machine = tmp_path / "m.mca"
    machine.write_text(BUMP_MACHINE)
    assert brts("check", str(program)).returncode == 0
    out = brts("simulate", str(machine), str(program), "--bound", "2")
    assert out.returncode in (0, 5), out.stderr
    assert "internal error" not in out.stderr


# ---------------------------------------------------------------------------
# statement blocks, scopes and long programs
# ---------------------------------------------------------------------------

def test_cli_import_leaves_out_counters():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, brts.cli; print('brts.counters' in sys.modules)"],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # records are built by brts.record; each CLI process skips both imports
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, brts.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize("body, printed", [
    # the let-bound B goes out of scope, so the A answers
    ("val a = new A(); let a = new B() in a; a.ping();", "1"),
    # an object binding shadows an int binding of the same name
    ("val a = 0; let a = new A() in a.ping();", "1"),
])
def test_run_restores_shadowed_bindings(tmp_path, body, printed):
    program = tmp_path / "shadow.brts"
    program.write_text("state A { int ping()[] { 1; } }\nstate B { }\n"
                       f"state Main {{ void main()[] {{ {body} }} }}\n")
    assert brts("check", str(program)).returncode == 0
    out = brts("run", str(program))
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{printed}\n"


def test_run_missing_method_is_a_located_runtime_error(tmp_path):
    program = tmp_path / "nomethod.brts"
    program.write_text("state B { }\nstate Main {\n    void main()[] {\n"
                       "        val b = new B();\n        b.ping();\n    }\n}\n")
    out = brts("run", "--unchecked", str(program))
    assert out.returncode == 4
    assert out.stderr == (f"{program}:5:11: runtime error: state 'B' has no method "
                          f"'ping' [NoSuchMethod]\n")


def test_fmt_keeps_the_scope_of_let_in(tmp_path):
    from brts.parser import parse_program
    from brts.printer import strip_spans

    program = tmp_path / "let.brts"
    source = "state Main {\n    void main()[] {\n        let y = 2 in y;\n        y;\n    }\n}\n"
    program.write_text(source)
    before = brts("check", str(program))
    assert before.returncode == 1
    assert before.stderr.startswith(f"{program}:4:9: error: unbound variable 'y' [BRTS011]")
    out = brts("fmt", str(program))
    assert out.returncode == 0
    assert strip_spans(parse_program(out.stdout)) == strip_spans(parse_program(source))
    program.write_text(out.stdout)
    after = brts("check", str(program))
    assert after.returncode == 1
    assert "unbound variable 'y' [BRTS011]" in after.stderr


def _produce_calls(n: int) -> str:
    """A straight-line main of n trusted `produce` calls on one buffer."""
    calls = "".join("        pc.produce(buffer);\n" for _ in range(n))
    return ("state Buffer { }\nstate OpenBuffer case of Buffer { }\n"
            "state ProducerConsumer {\n    type SB : Pi(phi(p, c), Buffer);\n"
            "    void produce((1, SB(phi(p, q), OpenBuffer)) >> "
            "(1, SB(phi(p + 1, q), OpenBuffer)) buf)[];\n}\n"
            "state Main {\n    void main()[] {\n"
            "        var (1, _) pc = new ProducerConsumer();\n"
            "        var (1, SB(phi(0, 0), OpenBuffer)) buffer = new OpenBuffer();\n"
            f"{calls}        buffer;\n    }}\n}}\n")


def test_long_straight_line_program_formats_and_runs(tmp_path):
    from brts.parser import parse_program
    from brts.printer import strip_spans

    program = tmp_path / "long.brts"
    source = _produce_calls(5000)
    program.write_text(source)
    out = brts("fmt", str(program))
    assert out.returncode == 0, out.stderr[-300:]
    assert strip_spans(parse_program(out.stdout)) == strip_spans(parse_program(source))
    out = brts("run", "--unchecked", str(program))
    assert out.returncode == 0, out.stderr[-300:]
    assert out.stdout == "OpenBuffer@phi(5000, 0)\n"


def test_check_many_statements(tmp_path):
    program = tmp_path / "ints.brts"
    program.write_text("state Main { void main()[] {\n" + "1;\n" * 3000 + "} }\n")
    out = brts("check", str(program))
    assert out.returncode == 0, out.stderr[-300:]


# ---------------------------------------------------------------------------
# deep and long expressions, parenthesised constraints
# ---------------------------------------------------------------------------

def _counter_program(coord: str = "0", constraint: str = "0 >= 0") -> str:
    """One counter object; line 11 declares it at phi(coord, constraint)
    and line 12, column 17 holds the obligation of its one call."""
    return ("state Box { }\nstate Ops {\n    type B : Pi(phi(n), Box);\n"
            "    void inc((1, B(phi(n), Box)) >> (1, B(phi(n + 1), Box)) w)[] {\n"
            "        w <- (1, B(phi(n + 1), Box));\n    }\n}\n"
            "state Main {\n    void main()[] {\n"
            "        var (1, _) ops = new Ops();\n"
            f"        var (1, B(phi({coord}, {constraint}), Box)) w = new Box();\n"
            "        ops.inc(w);\n        w;\n    }\n}\n")


COMMANDS = [("check",), ("fmt",), ("run", "--unchecked"), ("explain", "--at", "12:17")]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_nesting_bound_is_a_located_parse_error(tmp_path, command):
    from brts.parser import MAX_NESTING

    program = tmp_path / "deep.brts"
    program.write_text(_counter_program(coord="- " * MAX_NESTING + "0"))
    out = brts(command[0], str(program), *command[1:])
    assert out.returncode == 0, out.stderr[-300:]
    program.write_text(_counter_program(coord="- " * (MAX_NESTING + 1) + "0"))
    out = brts(command[0], str(program), *command[1:])
    assert out.returncode == 2, out.stderr[-300:]
    first = out.stderr.splitlines()[0]
    assert first.startswith(f"{program}:11:")
    assert first.endswith("error: expression nested too deeply [BRTS002]")


@pytest.mark.parametrize("field, wrap, inner, frames", [
    ("coord", "({})", "0", 2),
    ("coord", "1 * {}", "0", 1),
    ("constraint", "0 >= 0 && ({})", "0 >= 0", 4),
    ("constraint", "~ {}", "0 >= 0", 1),
], ids=["term-parens", "scales", "formula-parens", "negations"])
def test_nesting_bound_holds_for_every_nested_form(tmp_path, field, wrap, inner, frames):
    from brts.parser import MAX_NESTING

    program = tmp_path / "deep.brts"
    levels = MAX_NESTING // frames
    for k, code in ((levels, 0), (levels + 1, 2)):
        text = inner
        for _ in range(k):
            text = wrap.format(text)
        program.write_text(_counter_program(**{field: text}))
        out = brts("check", str(program))
        assert out.returncode == code, (k, out.stderr[-300:])


def test_long_sum_checks_formats_and_runs(tmp_path):
    program = tmp_path / "sum.brts"
    program.write_text(_counter_program(coord="0 + " * 2999 + "0",
                                        constraint="n + " * 2999 + "n >= 0"))
    assert brts("check", str(program)).returncode == 0
    out = brts("fmt", str(program))
    assert out.returncode == 0, out.stderr[-300:]
    out = brts("run", "--unchecked", str(program))
    assert out.returncode == 0, out.stderr[-300:]
    assert out.stdout == "Box@phi(1)\n"


def _nested_program(loops: int = 0, calls: int = 0, coord: int = 0) -> str:
    """`_counter_program` with `loops` nested loops after its call, around a
    declaration at a `coord`-deep coordinate and `calls` nested calls."""
    inner = (f"var (1, B(phi({'- ' * coord}0), Box)) v = new Box(); "
             + "a.id(" * calls + "1" + ")" * calls)
    nest = "while [exists. true] (false) { " * loops + inner + " }" * loops
    return (_counter_program().replace(
        "        w;\n", f"        var (1, _) a = new A();\n        {nest};\n        w;\n")
        + "state A {\n    int id(int >> int x)[] { x; }\n}\n")


# a statement's block takes four frames, a call argument three and a
# prefix `-` one; each row is at the bound, and one more level passes it
NESTINGS = {
    "loops": ((240, 0, 0), (241, 0, 0)),
    "calls": ((0, 320, 0), (0, 321, 0)),
    "mix": ((100, 100, 560), (100, 100, 561)),
}


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("nesting", NESTINGS, ids=str)
def test_statement_and_call_nesting_is_bounded(tmp_path, command, nesting):
    from brts.parser import MAX_NESTING

    at_bound, past = NESTINGS[nesting]
    assert 4 * at_bound[0] + max(3 * at_bound[1], at_bound[2]) == MAX_NESTING
    program = tmp_path / "deep.brts"
    program.write_text(_nested_program(*at_bound))
    out = brts(command[0], str(program), *command[1:])
    assert out.returncode == 0, out.stderr[-300:]
    program.write_text(_nested_program(*past))
    out = brts(command[0], str(program), *command[1:])
    assert out.returncode == 2, out.stderr[-300:]
    first = out.stderr.splitlines()[0]
    assert first.startswith(f"{program}:14:")
    assert first.endswith("error: expression nested too deeply [BRTS002]")


@pytest.mark.parametrize("shape, at_bound", [
    (lambda n: "a" + ".k" * n, 480),
    (lambda n: "a" + ".f(1)" * n, 479),     # 2 * 478 + 3 for the first argument
    (lambda n: "let x = 1 in " * n + "x", 320),
    (lambda n: "new A(" * n + "1" + ")" * n, 320),
    (lambda n: "case a { " * n + "1" + " }" * n, 240),
    (lambda n: "match (a) { case A { " * n + "1" + " } }" * n, 240),
], ids=["fields", "methods", "lets", "constructors", "cases", "matches"])
def test_every_nested_statement_and_expression_form_is_bounded(tmp_path, shape, at_bound):
    # a chain link takes two frames, a `let` body or an argument three and
    # a block four; `fmt` does not check, so the programs need not be typed
    program = tmp_path / "deep.brts"
    for levels, code in ((at_bound, 0), (at_bound + 1, 2)):
        program.write_text("state A { }\nstate Main {\n    void main()[] {\n"
                           f"        var (1, _) a = new A();\n        {shape(levels)};\n"
                           "    }\n}\n")
        out = brts("fmt", str(program))
        assert out.returncode == code, (levels, out.stderr[-300:])


def test_nested_states_are_bounded(tmp_path):
    # a state declared inside another takes two frames; the outermost none
    program = tmp_path / "deep.brts"
    for levels, code in ((481, 0), (482, 2)):
        program.write_text("state Main { void main()[] { 1; } }\n"
                           + "".join(f"state S{i} {{ " for i in range(levels))
                           + "}" * levels + "\n")
        out = brts("fmt", str(program))
        assert out.returncode == code, (levels, out.stderr[-300:])


def test_fuel_bounds_the_time_of_a_deep_coordinate(tmp_path):
    from brts.parser import MAX_NESTING

    # the deepest coordinate a loop body holds, declared at every step
    coord = "- " * (MAX_NESTING - 4) + "0"
    program = tmp_path / "spin.brts"
    program.write_text("state Box { }\nstate Ops {\n    type B : Pi(phi(n), Box);\n}\n"
                       "state Main {\n    void main()[] {\n"
                       "        while [exists. true] (true) {\n"
                       f"            var (1, B(phi({coord}), Box)) w = new Box();\n"
                       "        };\n        1;\n    }\n}\n")
    start = time.monotonic()
    out = brts("run", "--unchecked", "--fuel", "20000", str(program))
    assert time.monotonic() - start < 5.0
    assert out.returncode == 4, out.stderr[-300:]
    assert out.stderr.rstrip().endswith("[FuelExhausted]")


@pytest.mark.parametrize("constraint", ["(0 >= 0)", "(n >= 0) && n >= 0", "n >= 0 && (n >= 0)"])
def test_parenthesised_constraint_parses(tmp_path, constraint):
    program = tmp_path / "paren.brts"
    program.write_text(_counter_program(constraint=constraint))
    out = brts("check", str(program))
    assert out.returncode == 0, out.stderr


def test_string_literal_type_is_a_located_parse_error(tmp_path):
    program = tmp_path / "quoted.brts"
    program.write_text('state Main {\n    void main()[] {\n        var "int" x = 1;\n    }\n}\n')
    out = brts("check", str(program))
    assert out.returncode == 2
    assert out.stderr == (f"{program}:3:13: error: expected a type, "
                          f"found '\"int\"' [BRTS002]\n")


# ---------------------------------------------------------------------------
# a closed stdout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("check", "--emit-obligations", "corpus/prodcons/good.brts"),
    ("check", "--json", "corpus/prodcons/fig6.brts"),
    ("run", "--trace", "corpus/prodcons/good.brts"),
    ("fmt", "corpus/prodcons/good.brts"),
    ("simulate", "--json", "corpus/dyck/machine.mca", "corpus/dyck/good.brts"),
    ("export-lts", "corpus/dyck/machine.mca"),
    ("reach", "corpus/prodcons/machine.mca", "--bad", "c > p"),
    ("explain", "corpus/prodcons/fig6.brts", "--at", "36:82"),
], ids=lambda args: " ".join(args[:2]))
def test_closed_stdout_is_a_located_exit_two(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "brts.cli", *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()     # the reader is gone before the first write
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert stderr.endswith("<stdout>: error: [Errno 32] Broken pipe\n")
    assert "internal error" not in stderr and "Exception ignored" not in stderr
