"""Command-line front end: check, run, simulate, explain, fmt.

Exit codes are part of the interface:
  0 success, 1 type errors, 2 parse errors, 3 internal error,
  4 runtime error, 5 simulation counterexample.
Defaults for --fuel and --bound come from BRTS_FUEL and BRTS_BOUND.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .counters import (
    Counterexample, MachineError, annotations_of_program, brts_to_lts,
    check_simulation, load_machine, lts_to_dot, mca_to_lts, reach_violation,
    witness_to_json,
)
from .diagnostics import BrtsError, Diagnostic
from .interp import IndexedV, BoolV, IntV, ObjV, RuntimeErr, StrV, UnitV, run_program
from .parser import parse_formula, parse_program
from .presburger import TRUE
from .printer import print_program
from . import syntax as ast
from .syntax import InstanceType, PermPair, state_table
from .typecheck import Checker, check_program

PARSE_LEVEL = {"LexError", "ParseError", "DuplicateState", "UnknownParent",
               "CyclicStateHierarchy", "NoMainState", "DuplicateMember"}

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_RUNTIME = 4
EXIT_SIMULATION = 5


def _env_int(name: str, fallback: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return fallback


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brts",
                                     description="typestate toolchain for .brts programs")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="typecheck programs")
    check.add_argument("files", nargs="+")
    check.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    check.add_argument("--emit-obligations", action="store_true",
                       help="dump every solver obligation as JSON lines")
    check.add_argument("--strict", action="store_true",
                       help="re-check method bodies at every call site")

    run = sub.add_parser("run", help="evaluate a program's main method")
    run.add_argument("file")
    run.add_argument("--mode", choices=["concrete", "abstract"], default="concrete")
    run.add_argument("--fuel", type=int, default=_env_int("BRTS_FUEL", 10 ** 6))
    run.add_argument("--trace", action="store_true", help="JSON-lines rule trace")
    run.add_argument("--unchecked", action="store_true",
                     help="skip typechecking before running")

    sim = sub.add_parser("simulate",
                         help="check that a program's typestates simulate a machine")
    sim.add_argument("machine", help=".mca machine file")
    sim.add_argument("program", help=".brts program supplying the annotations")
    sim.add_argument("--bound", type=int, default=_env_int("BRTS_BOUND", 3))
    sim.add_argument("--final-state", default=None,
                     help="program-side states at or below this one are final")
    sim.add_argument("--final-formula", default=None,
                     help="program-side valuations satisfying this formula are final")
    sim.add_argument("--json", action="store_true")

    reach = sub.add_parser("reach", help="search a machine for a bad valuation")
    reach.add_argument("machine")
    reach.add_argument("--bad", required=True, help="bad-state formula over the counters")
    reach.add_argument("--bound", type=int, default=_env_int("BRTS_BOUND", 6))
    reach.add_argument("--json", action="store_true")
    reach.add_argument("--dot", action="store_true", help="witness as DOT")

    explain = sub.add_parser("explain", help="show the obligation at a source position")
    explain.add_argument("file")
    explain.add_argument("--at", required=True, metavar="LINE:COL")

    fmt = sub.add_parser("fmt", help="pretty-print a program")
    fmt.add_argument("file")

    export = sub.add_parser("export-lts", help="bounded machine LTS as DOT")
    export.add_argument("machine")
    export.add_argument("--bound", type=int, default=_env_int("BRTS_BOUND", 3))
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def read_source(name: str) -> str | None:
    """The text of an input file, or None after reporting why it is unreadable."""
    try:
        return Path(name).read_text()
    except OSError as err:
        print(f"{name}: error: {err}", file=sys.stderr)
        return None


def cmd_check(args) -> int:
    worst = EXIT_OK
    payload = []
    for name in args.files:
        path = Path(name)
        source = read_source(name)
        if source is None:
            return EXIT_PARSE
        code, checker, diags = check_source(source, str(path), strict=args.strict)
        worst = max(worst, code)
        if args.json:
            payload.extend(d.to_json(str(path)) for d in diags)
        else:
            for d in diags:
                print(d.render(str(path)), file=sys.stderr)
        if args.emit_obligations and checker is not None:
            for ob in checker.obligations:
                print(json.dumps(ob.to_json()))
    if args.json:
        print(json.dumps(payload, indent=2))
    return worst


def check_source(source: str, filename: str,
                 strict: bool = False) -> tuple[int, Checker | None, list[Diagnostic]]:
    try:
        program = parse_program(source, filename)
    except BrtsError as err:
        return EXIT_PARSE, None, [err.diagnostic]
    checker = check_program(program, filename, strict_calls=strict)
    diags = checker.diagnostics
    errors = [d for d in diags if d.severity == "error"]
    if any(d.kind in PARSE_LEVEL for d in errors):
        return EXIT_PARSE, checker, diags
    if errors:
        return EXIT_TYPE, checker, diags
    return EXIT_OK, checker, diags


def render_value(value) -> str:
    match value:
        case IntV(v):
            return str(v)
        case BoolV(v):
            return "true" if v else "false"
        case StrV(v):
            return json.dumps(v)
        case UnitV():
            return "void"
        case ObjV():
            if value.coords is not None:
                inside = ", ".join(str(c) for c in value.coords)
                return f"{value.state}@phi({inside})"
            return value.state
        case IndexedV(options):
            return "(+ " + " | ".join(render_value(v) for v in options) + ")"
    return repr(value)


def cmd_run(args) -> int:
    path = Path(args.file)
    source = read_source(args.file)
    if source is None:
        return EXIT_PARSE
    if args.unchecked:
        try:
            program = parse_program(source, str(path))
        except BrtsError as err:
            print(err.diagnostic.render(str(path)), file=sys.stderr)
            return EXIT_PARSE
    else:
        code, checker, diags = check_source(source, str(path))
        for d in diags:
            print(d.render(str(path)), file=sys.stderr)
        if code != EXIT_OK:
            return code
        program = parse_program(source, str(path))
    try:
        value, interp, _ = run_program(program, mode=args.mode, fuel=args.fuel,
                                       trace=args.trace)
    except RuntimeErr as err:
        print(f"{path}:{err.span.line}:{err.span.col}: runtime error: {err} "
              f"[{err.kind}]", file=sys.stderr)
        return EXIT_RUNTIME
    if args.trace:
        for entry in interp.trace:
            print(json.dumps(entry.to_json()))
    print(render_value(value))
    return EXIT_OK


def initial_instance_of(program: ast.Program) -> InstanceType | None:
    """First dependently-declared object in the program's main method."""
    table = state_table(program)
    main = table.states[table.main_state].methods["main"]

    def walk(e) -> InstanceType | None:
        match e:
            case ast.Let(_, declared, _, body, _, _):
                inner = declared.inner if isinstance(declared, PermPair) else declared
                if isinstance(inner, InstanceType) and inner.args:
                    return inner
                return walk(body)
            case ast.Seq(first, second):
                return walk(first) or walk(second)
            case _:
                return None

    return walk(main.body) if main.body is not None else None


def cmd_simulate(args) -> int:
    try:
        machine = load_machine(args.machine)
    except (MachineError, OSError) as err:
        print(f"{args.machine}: error: {err}", file=sys.stderr)
        return EXIT_PARSE
    source = read_source(args.program)
    if source is None:
        return EXIT_PARSE
    code, checker, diags = check_source(source, args.program)
    if code != EXIT_OK:
        for d in diags:
            print(d.render(args.program), file=sys.stderr)
        return code
    program = parse_program(source, args.program)
    table = checker.st
    annotations = annotations_of_program(table)
    initial = initial_instance_of(program)
    if initial is None:
        print(f"{args.program}: error: main declares no dependent typestate "
              f"to start from", file=sys.stderr)
        return EXIT_INTERNAL

    if args.final_state:
        final = lambda s, v: table.is_substate(s, args.final_state)
    elif args.final_formula:
        formula = parse_formula(args.final_formula)
        fam = table.find_family(initial.family) if initial.family else None
        coords = fam.coord_vars if fam else ()
        from .presburger import evaluate
        final = lambda s, v: evaluate(formula, dict(zip(coords, v)))
    else:
        final = lambda s, v: True

    machine_lts = mca_to_lts(machine, args.bound)
    br_lts = brts_to_lts(annotations, initial, args.bound, table=table, final=final)
    result = check_simulation(br_lts, machine_lts)
    if isinstance(result, Counterexample):
        if args.json:
            print(json.dumps({
                "simulates": False,
                "reason": result.reason,
                "path": [{"action": a, "state": q.control,
                          "valuation": list(q.valuation)} for a, q in result.steps],
            }))
        else:
            trail = "; ".join(result.labels()) or "(at the initial state)"
            print(f"counterexample: {trail}", file=sys.stderr)
            print(f"  {result.reason}", file=sys.stderr)
        return EXIT_SIMULATION
    if args.json:
        print(json.dumps({"simulates": True, "relation_size": result.size(),
                          "machine_states": machine_lts.size(),
                          "program_states": br_lts.size()}))
    else:
        print(f"simulation found: {result.size()} pairs over "
              f"{br_lts.size()} program states and {machine_lts.size()} machine states")
    return EXIT_OK


def cmd_reach(args) -> int:
    try:
        machine = load_machine(args.machine)
        bad = parse_formula(args.bad)
    except (MachineError, BrtsError, OSError) as err:
        print(f"{args.machine}: error: {err}", file=sys.stderr)
        return EXIT_PARSE
    path = reach_violation(machine, bad, args.bound)
    if args.json:
        print(witness_to_json(path))
    elif path is None:
        print("no violation reachable within the bound")
    else:
        from .counters import witness_to_dot
        if args.dot:
            print(witness_to_dot(path))
        else:
            trail = "; ".join(a for a, _, _ in path.steps)
            print(f"violation after {len(path)} steps: {trail}")
            print(f"  final valuation: {path.final_valuation()}")
    return EXIT_OK if path is None else EXIT_RUNTIME


def cmd_explain(args) -> int:
    try:
        line_s, _, col_s = args.at.partition(":")
        line, col = int(line_s), int(col_s)
    except ValueError:
        print("error: --at expects LINE:COL", file=sys.stderr)
        return EXIT_INTERNAL
    path = Path(args.file)
    source = read_source(args.file)
    if source is None:
        return EXIT_PARSE
    code, checker, diags = check_source(source, str(path))
    if checker is None:
        for d in diags:
            print(d.render(str(path)), file=sys.stderr)
        print("error: the file must parse before it can be explained",
              file=sys.stderr)
        return EXIT_PARSE
    hits = [ob for ob in checker.obligations if ob.span.covers(line, col)]
    if not hits:
        spots = sorted({f"{ob.span.line}:{ob.span.col}" for ob in checker.obligations})
        print(f"{path}:{line}:{col}: error: no obligation at this position "
              f"[NoObligationAtSpan]", file=sys.stderr)
        if spots:
            print("  obligations were recorded at: " + ", ".join(spots),
                  file=sys.stderr)
        return EXIT_TYPE
    for ob in hits:
        print(f"{path}:{ob.span.line}:{ob.span.col}: rule {ob.rule}")
        print(f"  incoming: {ob.phi}")
        print(f"  obligation: {ob.goal}")
        print(f"  verdict: {'valid' if ob.verdict else 'invalid'}")
        if ob.countermodel is not None:
            inside = ", ".join(f"{k} = {v}" for k, v in sorted(ob.countermodel.items()))
            print(f"  countermodel: {inside}")
        if ob.note:
            print(f"  note: {ob.note}")
    return EXIT_OK


def cmd_fmt(args) -> int:
    path = Path(args.file)
    source = read_source(args.file)
    if source is None:
        return EXIT_PARSE
    try:
        program = parse_program(source, str(path))
    except BrtsError as err:
        print(err.diagnostic.render(str(path)), file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(print_program(program))
    return EXIT_OK


def cmd_export_lts(args) -> int:
    try:
        machine = load_machine(args.machine)
    except (MachineError, OSError) as err:
        print(f"{args.machine}: error: {err}", file=sys.stderr)
        return EXIT_PARSE
    print(lts_to_dot(mca_to_lts(machine, args.bound), title=machine.name))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "run": cmd_run,
        "simulate": cmd_simulate,
        "reach": cmd_reach,
        "explain": cmd_explain,
        "fmt": cmd_fmt,
        "export-lts": cmd_export_lts,
    }
    try:
        return handlers[args.command](args)
    except (BrtsError,) as err:
        print(err.diagnostic.render(), file=sys.stderr)
        return EXIT_PARSE if err.kind in PARSE_LEVEL else EXIT_TYPE
    except Exception as err:  # noqa: BLE001 - the CLI boundary
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
