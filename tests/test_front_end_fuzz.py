"""Mutated corpus programs never make the front end fail with anything but a
located BrtsError: `parse_program`, `parse_formula` and `cli.check_source`
either return or raise one whose span lies inside the source.  `fmt` prints
each program that parses as one that parses to the same tree, and
`run --unchecked` ends with a value or a located error."""

import io
import re
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from brts import cli
from brts.cli import check_source
from brts.diagnostics import BrtsError
from brts.parser import KEYWORDS, MAX_NESTING, SYMBOLS, parse_formula, parse_program
from brts.printer import strip_spans

CORPUS = Path(__file__).parent.parent / "corpus"
SOURCES = [p.read_text() for p in sorted(CORPUS.glob("*/*.brts"))]

# what a mutation inserts: one of each character class the lexer tells
# apart, characters between classes, the token spellings, and parentheses
# deeper than any nesting form allows
FRAGMENTS = (list("aZ_'09 \t\r\n\"\\@#é٣") + ["²", "//", "\\\n", "phi(", "x", "-1"]
             + SYMBOLS + sorted(KEYWORDS) + ["(" * (MAX_NESTING // 2 + 1)])
WORDS = re.compile(r"\w+|//|\S")


@st.composite
def mutated(draw) -> str:
    rng = draw(st.randoms(use_true_random=True))
    source = rng.choice(SOURCES)
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            # a character
            start = rng.randint(0, len(source))
            end = start + rng.randint(0, 1)
        else:
            # a token, as a word or one other character
            words = [m.span() for m in WORDS.finditer(source)] or [(0, 0)]
            start, end = rng.choice(words)
        action = rng.choice(["insert", "delete", "replace"])
        if action == "insert":
            end = start
        text = "" if action == "delete" else rng.choice(FRAGMENTS)
        source = source[:start] + text + source[end:]
    return source


@contextmanager
def cli_recursion_limit():
    """The recursion limit counted from here, as a CLI process counts it
    from its start."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + depth)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def assert_returns_or_located(call, source: str) -> None:
    try:
        call(source)
    except BrtsError as err:
        lines = source.split("\n")
        line, col = err.span.line, err.span.col
        assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1, (
            err.kind, str(err), err.span)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_programs_fail_only_with_located_errors(source):
    with cli_recursion_limit():
        assert_returns_or_located(parse_program, source)
        assert_returns_or_located(parse_formula, source)
        assert_returns_or_located(lambda s: check_source(s, "fuzz.brts"), source)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_programs_format_and_run_unchecked(source):
    with tempfile.TemporaryDirectory() as tmp, cli_recursion_limit():
        path = Path(tmp) / "fuzz.brts"
        path.write_text(source)
        code, out, err = run_cli(["fmt", str(path)])
        if code == 0:
            assert strip_spans(parse_program(out)) == strip_spans(parse_program(source))
        else:
            assert code == 2 and err.startswith(f"{path}:"), (code, err)
        for mode in ("concrete", "abstract"):
            argv = ["run", "--unchecked", "--fuel", "2000", "--mode", mode, str(path)]
            code, _, err = run_cli(argv)
            assert code in (0, 1, 2, 4), (argv, code, err)
            assert code == 0 or err.startswith(f"{path}:"), (argv, code, err)
