"""The three workloads: each builds a list of operations (one round) with a
check of every output.

An operation is timed alone.  Its check runs outside the timed region and
compares the output with a value this benchmark computes itself (see
`inputs.py`) or with a property the output must have; goldens are the
corpus's own `.expected` files.  A check returns None when the output is
right and a short reason when it is not.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import inputs

Check = Callable[[Any], Optional[str]]

# Bounds of the machine-tools series and the corpus machines it runs on.
BOUNDS = (3, 6, 9, 12, 15)
DELETION_BOUND = 3
REACH_BAD = "c > p"


@dataclass
class Op:
    """One timed call and the check of its result.  `known_fault` names the
    failure an operation is known to hit today (a substring of its reason);
    such a failure is counted but does not make the run incorrect."""
    name: str
    run: Callable[[], Any]
    check: Check
    known_fault: Optional[str] = None
    series: Optional[tuple[str, int]] = None


class Workload:
    name = ""
    in_process = True   # False: operations run in child processes

    def __init__(self, root: Path, seed: int, traced: bool = False):
        self.root = root
        self.seed = seed
        self.traced = traced

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, ops: list[Op]) -> None:
        """Run the first operation once, so lazy set-up is not timed."""
        ops[0].run()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# check-programs
# ---------------------------------------------------------------------------

def _accepted(p: inputs.Program) -> Op:
    from brts.cli import check_source
    from brts.parser import parse_program
    from brts.interp import run_program

    def run():
        code, checker, diags = check_source(p.source, f"{p.name}.brts")
        if code != 0:
            return code, diags, None
        value, _, _ = run_program(parse_program(p.source, f"{p.name}.brts"),
                                  fuel=10 ** 5, table=checker.st)
        return code, diags, value

    def check(result) -> Optional[str]:
        code, diags, value = result
        if code != 0:
            errors = [d.render() for d in diags if d.severity == "error"]
            return f"rejected with exit {code}: {errors[:1]}"
        got = (getattr(value, "state", None), tuple(getattr(value, "coords", None) or ()))
        if got != (p.tag, tuple(p.coords)):
            return f"ran to {got}, simulated {(p.tag, p.coords)}"
        return None

    return Op(p.name, run, check, series=p.series)


def _rejected(p: inputs.Program) -> Op:
    from brts.cli import check_source

    def run():
        return check_source(p.source, f"{p.name}.brts")

    def check(result) -> Optional[str]:
        code, _, diags = result
        return _twin_problem(p, code, [(d.code, d.span.line, d.span.col, d.message)
                                       for d in diags if d.severity == "error"])

    return Op(p.name, run, check)


def _twin_problem(p: inputs.Program, code: int,
                  errors: list[tuple[str, int, int, str]]) -> Optional[str]:
    """A rejected twin fails with one BRTS013 at the appended call, naming
    the simulated coordinates."""
    if code != 1 or len(errors) != 1:
        return f"exit {code} with {len(errors)} errors, expected exit 1 with one"
    kind, line, col, message = errors[0]
    if (kind, line, col) != ("BRTS013", p.line, p.col):
        return f"{kind} at {line}:{col}, expected BRTS013 at {p.line}:{p.col}"
    if f"grounding to ({p.grounding})" not in message:
        return f"grounding differs from ({p.grounding}): {message}"
    return None


def _corpus(root: Path, rel: str) -> Op:
    from brts.cli import check_source
    source = (root / rel).read_text()
    golden = (root / rel).with_suffix(".expected").read_text()

    def run():
        return check_source(source, rel)

    def check(result) -> Optional[str]:
        code, _, diags = result
        rendered = f"exit {code}\n" + "".join(d.render(rel) + "\n" for d in diags)
        return None if rendered == golden else f"output differs from {rel[:-5]}.expected"

    return Op(rel, run, check)


def corpus_programs(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in (root / "corpus").glob("*/*.brts"))


class CheckPrograms(Workload):
    name = "check-programs"

    def ops(self) -> list[Op]:
        accepted, twins = inputs.random_programs(self.seed)
        return ([_corpus(self.root, rel) for rel in corpus_programs(self.root)]
                + [_accepted(p) for p in inputs.series()]
                + [_accepted(p) for p in accepted]
                + [_rejected(p) for p in twins])


# ---------------------------------------------------------------------------
# machine-tools
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """A corpus case study: its machine, and the program whose annotations
    must simulate it."""
    name: str
    final_state: Optional[str]      # program states at or below it are final
    final_formula: Optional[str]    # else valuations satisfying it are final
    deletions: tuple[str, ...]      # annotations whose removal breaks simulation
    states: Callable[[int], int]    # LTS states at a bound, machine and program alike


CASES = {c.name: c for c in (
    Case("prodcons", "OpenBuffer", None, ("open", "produce", "consume", "close"),
         lambda b: (b + 1) * (b + 2)),
    Case("dyck", None, "n == m", ("PushL", "PushR", "PushLR"),
         lambda b: (b + 1) * (b + 2) // 2),
)}


def _final(case: Case, table, initial):
    from brts.parser import parse_formula
    from brts.presburger import evaluate
    if case.final_state is not None:
        return lambda s, v: table.is_substate(s, case.final_state)
    formula = parse_formula(case.final_formula)
    coords = table.find_family(initial.family).coord_vars
    return lambda s, v: evaluate(formula, dict(zip(coords, v)))


def relation_problem(rel, sim, simulated) -> Optional[str]:
    """Clause check of a simulation relation: the initial pair is in it,
    finals are respected and every move of the simulated side is matched."""
    pairs = rel.pairs
    if (sim.initial, simulated.initial) not in pairs:
        return "initial pair missing from the relation"
    for p, q in pairs:
        if q in simulated.finals and p not in sim.finals:
            return f"final {q} related to non-final {p}"
        for a, q2 in simulated.moves(q):
            if not any(b == a and (p2, q2) in pairs for b, p2 in sim.moves(p)):
                return f"move {a} of {q} unmatched from {p}"
    return None


def path_problem(steps, lts) -> Optional[str]:
    """Every step of a counterexample is a move of the simulated system."""
    cur = lts.initial
    for a, nxt in steps:
        if (a, nxt) not in lts.moves(cur):
            return f"counterexample step {a} to {nxt} is not a move"
        cur = nxt
    return None


class MachineTools(Workload):
    name = "machine-tools"

    def __init__(self, root: Path, seed: int, traced: bool = False):
        super().__init__(root, seed, traced)
        from brts.cli import initial_instance_of
        from brts.counters import load_machine
        from brts.parser import parse_formula, parse_program
        from brts.presburger import evaluate
        from brts.syntax import state_table
        self.cases = {}
        for case in CASES.values():
            source = (root / "corpus" / case.name / "good.brts").read_text()
            program = parse_program(source)
            table = state_table(program)
            initial = initial_instance_of(program)
            self.cases[case.name] = {
                "source": source, "table": table, "initial": initial,
                "final": _final(case, table, initial),
                "machine": load_machine(root / "corpus" / case.name / "machine.mca"),
                "count": case.states, "labels": case.deletions,
            }
        self.mutant = load_machine(root / "corpus/prodcons/mutant.mca")
        self.guarded = load_machine(root / "corpus/prodcons/machine.mca")
        self.bad = parse_formula(REACH_BAD)
        self.bad_holds = lambda v: evaluate(self.bad, dict(zip(self.mutant.counters, v)))
        self.built: dict[tuple[str, str, int], Any] = {}

    def ops(self) -> list[Op]:
        out: list[Op] = []
        for b in BOUNDS:
            for case in self.cases:
                out += [self._mca(case, b), self._br(case, b), self._sim(case, b)]
            out += [self._reach_hit(b), self._reach_miss(b)]
        # the deletions simulate against the machine at their own bound
        for case, c in self.cases.items():
            for label in c["labels"]:
                out.append(self._deletion(case, label))
        return out

    def _mca(self, case: str, b: int) -> Op:
        from brts.counters import mca_to_lts
        c = self.cases[case]

        def run():
            lts = mca_to_lts(c["machine"], b)
            self.built[("mca", case, b)] = lts
            return lts

        def check(lts) -> Optional[str]:
            want = c["count"](b)
            return None if lts.size() == want else f"{lts.size()} states, expected {want}"

        return Op(f"mca_to_lts {case} b={b}", run, check)

    def _br(self, case: str, b: int) -> Op:
        from brts.counters import annotations_of_program, brts_to_lts
        c = self.cases[case]

        def run():
            lts = brts_to_lts(annotations_of_program(c["table"]), c["initial"], b,
                              table=c["table"], final=c["final"])
            self.built[("br", case, b)] = lts
            return lts

        def check(lts) -> Optional[str]:
            want = c["count"](b)
            return None if lts.size() == want else f"{lts.size()} states, expected {want}"

        return Op(f"brts_to_lts {case} b={b}", run, check)

    def _sim(self, case: str, b: int) -> Op:
        from brts.counters import check_simulation

        def run():
            return check_simulation(self.built[("br", case, b)], self.built[("mca", case, b)])

        def check(rel) -> Optional[str]:
            if not hasattr(rel, "pairs"):
                return f"no simulation: {getattr(rel, 'reason', rel)}"
            return relation_problem(rel, self.built[("br", case, b)],
                                    self.built[("mca", case, b)])

        return Op(f"check_simulation {case} b={b}", run, check)

    def _reach_hit(self, b: int) -> Op:
        from brts.counters import reach_violation

        def run():
            return reach_violation(self.mutant, self.bad, b)

        def check(path) -> Optional[str]:
            if path is None:
                return "no witness on the mutant"
            vals = [v for _, _, v in path.steps]
            if len(path) != 6 or path.final_valuation() != (2, 3):
                return f"witness of length {len(path)} ending at {path.final_valuation()}"
            if any(self.bad_holds(v) for v in vals[:-1]) or not self.bad_holds(vals[-1]):
                return "the bad valuation is not first reached at the last step"
            return None

        return Op(f"reach_violation mutant b={b}", run, check)

    def _reach_miss(self, b: int) -> Op:
        from brts.counters import reach_violation

        def run():
            return reach_violation(self.guarded, self.bad, b)

        return Op(f"reach_violation guarded b={b}", run,
                  lambda path: None if path is None else "witness on the guarded machine")

    def _deletion(self, case: str, label: str) -> Op:
        from brts.counters import (annotations_of_program, brts_to_lts,
                                   check_simulation, mca_to_lts)
        from brts.parser import parse_program
        from brts.syntax import state_table
        c = self.cases[case]
        machine_lts = mca_to_lts(c["machine"], DELETION_BOUND)

        def run():
            table = state_table(parse_program(c["source"]))
            kept = [a for a in annotations_of_program(table) if a.label != label]
            br = brts_to_lts(kept, c["initial"], DELETION_BOUND, table=table, final=c["final"])
            return check_simulation(br, machine_lts)

        def check(result) -> Optional[str]:
            if hasattr(result, "pairs"):
                return f"deleting {label} still simulates"
            return path_problem(result.steps, machine_lts)

        return Op(f"deletion {case} -{label}", run, check)


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

LONG = (300, 600)
TOO_LONG = 1200    # nests ast.Seq deeper than the recursion limit today


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    maxrss_kb: int


class CliMix(Workload):
    name = "cli-mix"
    in_process = False

    def __init__(self, root: Path, seed: int, traced: bool = False):
        super().__init__(root, seed, traced)
        (root / ".perfbench_tmp").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=root / ".perfbench_tmp"))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("BRTS_FUEL", None)
        self.env.pop("BRTS_BOUND", None)
        self.peak_kb = 0
        self.stats_files: list[Path] = []
        self._fmt_ok: dict[tuple[str, str], Optional[str]] = {}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            (self.root / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    def _write(self, name: str, text: str) -> str:
        path = self.tmp / name
        path.write_text(text)
        return str(path.relative_to(self.root))

    def cli(self, args: list[str]) -> CliResult:
        """Run one CLI command and wait for it; its peak RSS comes from
        wait4, so each child is measured on its own."""
        if self.traced:
            stats = self.tmp / f"stats{len(self.stats_files)}.json"
            self.stats_files.append(stats)
            cmd = [sys.executable, "perfbench/tracing.py", "--cli", str(stats)]
        else:
            cmd = [sys.executable, "-m", "brts.cli"]
        with open(self.tmp / "stdout", "w+b") as out, open(self.tmp / "stderr", "w+b") as err:
            proc = subprocess.Popen(cmd + args, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = CliResult(proc.returncode, out.read().decode(), err.read().decode(),
                               usage.ru_maxrss)
        self.peak_kb = max(self.peak_kb, result.maxrss_kb)
        return result

    def op(self, name: str, args: list[str], check: Check,
           known_fault: Optional[str] = None) -> Op:
        def checked(r: CliResult) -> Optional[str]:
            if r.code == 3:
                return f"exit 3: {r.err.strip().splitlines()[-1:]}"
            return check(r)

        return Op(name, lambda: self.cli(args), checked, known_fault)

    def _fmt_check(self, source: str) -> Check:
        def check(r: CliResult) -> Optional[str]:
            if r.code != 0:
                return f"exit {r.code}"
            key = (source, r.out)
            if key not in self._fmt_ok:
                # statements nest once each in the tree, deeper than the
                # default limit allows from inside this harness
                limit = sys.getrecursionlimit()
                sys.setrecursionlimit(max(limit, 20_000))
                from brts.parser import parse_program
                from brts.printer import strip_spans
                try:
                    same = strip_spans(parse_program(r.out)) == \
                        strip_spans(parse_program(source))
                finally:
                    sys.setrecursionlimit(limit)
                self._fmt_ok[key] = None if same else "fmt output parses to another program"
            return self._fmt_ok[key]
        return check

    def ops(self) -> list[Op]:
        root = self.root
        accepted, twins = inputs.random_programs(self.seed)
        twin = twins[-1]
        base = next(p for p in accepted if p.name == twin.name.removesuffix("_twin"))
        gen_path = self._write("gen.brts", base.source)
        twin_path = self._write("twin.brts", twin.source)
        longs = {n: inputs.long_program(n) for n in LONG + (TOO_LONG,)}
        long_paths = {n: self._write(f"long{n}.brts", p.source) for n, p in longs.items()}

        good, bad = "corpus/prodcons/good.brts", "corpus/anbn/bad.brts"
        fig6 = "corpus/prodcons/fig6.brts"

        def golden(rel: str) -> str:
            return (root / rel).with_suffix(".expected").read_text()

        def first_error_at(rel: str) -> tuple[str, str]:
            return re.match(rf"{re.escape(rel)}:(\d+):(\d+):",
                            golden(rel).splitlines()[1]).groups()

        def check_golden(rel: str) -> Check:
            def check(r: CliResult) -> Optional[str]:
                got = f"exit {r.code}\n{r.err}"
                return None if got == golden(rel) else f"differs from {rel[:-5]}.expected"
            return check

        def check_json_golden(rel: str) -> Check:
            def check(r: CliResult) -> Optional[str]:
                rendered = "".join(
                    f"{d['file']}:{d['line']}:{d['col']}: {d['severity']}: {d['message']} "
                    f"[{d['code']}]" + (f"\n    note: {d['note']}" if "note" in d else "")
                    + "\n" for d in json.loads(r.out))
                got = f"exit {r.code}\n{rendered}"
                return None if got == golden(rel) else f"differs from {rel[:-5]}.expected"
            return check

        def check_gen(r: CliResult) -> Optional[str]:
            if r.code != 0 or ": error:" in r.err:
                return f"exit {r.code}: {r.err.strip()[:200]}"
            return None

        def check_twin(r: CliResult) -> Optional[str]:
            errors = [(d["code"], d["line"], d["col"], d["message"])
                      for d in json.loads(r.out) if d["severity"] == "error"]
            return _twin_problem(twin, r.code, errors)

        def prints(expected: str) -> Check:
            def check(r: CliResult) -> Optional[str]:
                if r.code != 0 or r.out.strip() != expected:
                    return f"exit {r.code}, printed {r.out.strip()[:80]!r}, expected {expected!r}"
                return None
            return check

        def check_simulate(count: int) -> Check:
            def check(r: CliResult) -> Optional[str]:
                if r.code != 0:
                    return f"exit {r.code}"
                data = json.loads(r.out)
                if not data["simulates"] or data["machine_states"] != count \
                        or data["program_states"] != count:
                    return f"unexpected simulation result {data}"
                return None
            return check

        def check_reach(r: CliResult) -> Optional[str]:
            w = json.loads(r.out)["witness"]
            if r.code != 4 or w is None:
                return f"exit {r.code}, no witness"
            if len(w["steps"]) != 6 or w["steps"][-1]["valuation"] != [2, 3]:
                return "witness is not of length 6 ending at (2, 3)"
            return None

        def explain(rel: str) -> Op:
            line, col = first_error_at(rel)

            def check(r: CliResult) -> Optional[str]:
                first = r.out.splitlines()[:1]
                if r.code != 0 or not first or \
                        not first[0].startswith(f"{rel}:{line}:{col}: rule"):
                    return f"exit {r.code}, no obligation at {line}:{col}"
                return None if "verdict: invalid" in r.out else "the obligation is not invalid"

            return self.op(f"explain {rel}", ["explain", rel, "--at", f"{line}:{col}"], check)

        def check_dot(case: str) -> Check:
            def check(r: CliResult) -> Optional[str]:
                nodes = set(re.findall(r'^  ("[^"]+") \[shape=(?:double)?circle\];$',
                                       r.out, re.M))
                want = CASES[case].states(3)
                return None if r.code == 0 and len(nodes) == want else \
                    f"exit {r.code}, {len(nodes)} states, expected {want}"
            return check

        def check_no_witness(r: CliResult) -> Optional[str]:
            if r.code != 0 or json.loads(r.out)["witness"] is not None:
                return f"exit {r.code}, a witness on the guarded machine"
            return None

        def value(n: int) -> str:
            return longs[n].rendered_value()

        dyck = "corpus/dyck/good.brts"
        ops = [
            self.op("check prodcons", ["check", good], check_golden(good)),
            self.op("check dyck", ["check", dyck], check_golden(dyck)),
            self.op("check --json anbn", ["check", "--json", bad], check_json_golden(bad)),
            self.op("check generated", ["check", gen_path], check_gen),
            self.op("check --json twin", ["check", "--json", twin_path], check_twin),
            self.op("run generated", ["run", gen_path], prints(base.rendered_value())),
            self.op("simulate prodcons", ["simulate", "corpus/prodcons/machine.mca", good,
                                          "--final-state", "OpenBuffer", "--bound", "3",
                                          "--json"], check_simulate(CASES["prodcons"].states(3))),
            self.op("simulate dyck", ["simulate", "corpus/dyck/machine.mca", dyck,
                                      "--final-formula", "n == m", "--bound", "3", "--json"],
                    check_simulate(CASES["dyck"].states(3))),
            self.op("reach --json mutant", ["reach", "--json", "corpus/prodcons/mutant.mca",
                                            "--bad", REACH_BAD, "--bound", "6"], check_reach),
            self.op("reach --json guarded", ["reach", "--json", "corpus/prodcons/machine.mca",
                                             "--bad", REACH_BAD, "--bound", "6"],
                    check_no_witness),
            explain(fig6),
            explain(bad),
            self.op("fmt corpus", ["fmt", "corpus/train/good.brts"],
                    self._fmt_check((root / "corpus/train/good.brts").read_text())),
            self.op("export-lts dyck", ["export-lts", "corpus/dyck/machine.mca",
                                        "--bound", "3"], check_dot("dyck")),
        ]
        for n in LONG:
            ops.append(self.op(f"run --unchecked {n}", ["run", "--unchecked", long_paths[n]],
                               prints(value(n))))
            ops.append(self.op(f"fmt {n}", ["fmt", long_paths[n]],
                               self._fmt_check(longs[n].source)))
        ops.append(self.op(f"run --unchecked {TOO_LONG}",
                           ["run", "--unchecked", long_paths[TOO_LONG]],
                           prints(value(TOO_LONG)), known_fault="RecursionError"))
        ops.append(self.op(f"fmt {TOO_LONG}", ["fmt", long_paths[TOO_LONG]],
                           self._fmt_check(longs[TOO_LONG].source), known_fault="RecursionError"))
        return ops

    def warm_up(self, ops: list[Op]) -> None:
        super().warm_up(ops)
        for path in self.stats_files:
            path.unlink(missing_ok=True)
        self.stats_files.clear()

    def collect_stats(self, tracer) -> None:
        for path in self.stats_files:
            if path.exists():
                tracer.merge(json.loads(path.read_text()))
                path.unlink()
        self.stats_files.clear()


WORKLOADS = {w.name: w for w in (CheckPrograms, MachineTools, CliMix)}
