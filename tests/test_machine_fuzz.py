"""Mutated corpus machines and contract programs never make the machine
subcommands fail with anything but a located message: `simulate`, `reach`
and `export-lts`, run in process through `cli.main` at small bounds, exit
0, 1, 2, 4 or 5, and an error (1 or 2) names the file it concerns first."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from brts import cli
from brts.counters import load_machine

CORPUS = Path(__file__).parent.parent / "corpus"
# (machine text, its first counter, program text) for every machine and
# mutant of a case against each program of that case that `check` accepts
PAIRS = [(mca.read_text(), load_machine(mca).counters[0], brts.read_text())
         for case in sorted(p for p in CORPUS.iterdir() if p.is_dir())
         for mca in sorted(case.glob("*.mca"))
         for brts in sorted(case.glob("good*.brts"))]

# what a mutation puts into a machine line: directives, guard syntax, names
# that are counters somewhere in the corpus and one that is not, and numbers
# from small to far past any bound
MCA_FRAGMENTS = ["counters", "state", "init", "final", "trans", "invariant", "->", ":",
                 "'", "==", "<=", ">=", "<", ">", "&&", "||", "~", "+", "-", "*", "2",
                 "-1", "0", "1", "99", "1" + "0" * 30, "p", "c", "a", "b", "s", "d", "x",
                 "x'", "exists t.", "(", ")", "true", "false", "#", ""]
# what a mutation puts into a program: argument shapes the contract compiler
# tells apart, one fresh name, and formula syntax
BRTS_FRAGMENTS = ["+ 1", "- 1", "2 *", "1", "0", "-1", "z", "n", "||", "&&", ">=", "<=",
                  "==", "<", ",", "(", ")", "exists t.", "~", "true", "false", ""]
TOKENS = re.compile(r"\w+'?|[^\w\s]+")


def mutate_tokens(rng, text: str, fragments: list[str]) -> str:
    spans = [m.span() for m in TOKENS.finditer(text)] or [(0, 0)]
    start, end = rng.choice(spans)
    action = rng.choice(["insert", "delete", "replace", "replace"])
    if action == "insert":
        end = start
    piece = "" if action == "delete" else rng.choice(fragments)
    return f"{text[:start]} {piece} {text[end:]}" if piece else text[:start] + text[end:]


def mutate_machine(rng, text: str) -> str:
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    action = rng.choice(["token", "token", "token", "delete", "duplicate", "swap"])
    if action == "token":
        lines[i] = mutate_tokens(rng, lines[i], MCA_FRAGMENTS)
    elif action == "delete":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


@st.composite
def mutated(draw):
    rng = draw(st.randoms(use_true_random=True))
    machine, counter, program = rng.choice(PAIRS)
    which = rng.choice(["machine", "program", "both"])
    for _ in range(rng.randint(1, 2)):
        if which != "program":
            machine = mutate_machine(rng, machine)
        if which != "machine":
            program = mutate_tokens(rng, program, BRTS_FRAGMENTS)
    return machine, counter, program, rng.randint(0, 3), rng.random() < 0.5


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_machines_and_programs_exit_with_located_messages(case):
    machine, counter, program, bound, json = case
    with tempfile.TemporaryDirectory() as tmp:
        mca, brts = Path(tmp) / "fuzz.mca", Path(tmp) / "fuzz.brts"
        mca.write_text(machine)
        brts.write_text(program)
        b = str(bound)
        for argv in (["export-lts", str(mca), "--bound", b],
                     ["reach", str(mca), "--bad", f"{counter} >= 2", "--bound", b],
                     ["simulate", str(mca), str(brts), "--bound", b] + ["--json"] * json):
            code, err = run_cli(argv)
            assert code in (0, 1, 2, 4, 5), (argv, code, err)
            assert "Traceback" not in err and "internal error" not in err, (argv, err)
            if code in (1, 2):
                assert err.startswith((f"{mca}:", f"{brts}:")), (argv, err)
