"""Command-line front end: check, run, simulate, reach, explain, fmt,
export-lts.

Exit codes are part of the interface:
  0 success, 1 type errors, 2 parse errors, 3 internal error,
  4 runtime error, 5 simulation counterexample.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .diagnostics import BrtsError, Diagnostic
from .interp import IndexedV, BoolV, IntV, ObjV, RuntimeErr, StrV, UnitV, run_program
from .parser import parse_formula, parse_program
from .presburger import eliminate_quantifiers, evaluate, free_vars
from .printer import print_program
from . import syntax as ast
from .syntax import InstanceType, state_table, strip_perm
from .typecheck import Checker, check_program

PARSE_LEVEL = {"LexError", "ParseError", "DuplicateState", "UnknownParent",
               "CyclicStateHierarchy", "NoMainState", "DuplicateMember"}

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_RUNTIME = 4
EXIT_SIMULATION = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brts",
                                     description="typestate toolchain for .brts programs")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="typecheck programs")
    check.add_argument("files", nargs="+")
    # one stdout holds either a JSON array or JSON lines
    output = check.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="machine-readable diagnostics")
    output.add_argument("--emit-obligations", action="store_true",
                        help="dump every solver obligation as JSON lines")

    run = sub.add_parser("run", help="evaluate a program's main method")
    run.add_argument("file")
    run.add_argument("--mode", choices=["concrete", "abstract"], default="concrete")
    run.add_argument("--fuel", type=int, default=10 ** 6)
    run.add_argument("--trace", action="store_true", help="JSON-lines rule trace")
    run.add_argument("--unchecked", action="store_true",
                     help="skip typechecking before running")

    sim = sub.add_parser("simulate",
                         help="check that a program's typestates simulate a machine")
    sim.add_argument("machine", help=".mca machine file")
    sim.add_argument("program", help=".brts program supplying the annotations")
    sim.add_argument("--bound", type=int, default=3)
    finals = sim.add_mutually_exclusive_group()
    finals.add_argument("--final-state", default=None,
                        help="program-side states at or below this one are final")
    finals.add_argument("--final-formula", default=None,
                        help="program-side valuations satisfying this formula are final")
    sim.add_argument("--json", action="store_true")

    reach = sub.add_parser("reach", help="search a machine for a bad valuation")
    reach.add_argument("machine")
    reach.add_argument("--bad", required=True, help="bad-state formula over the counters")
    reach.add_argument("--bound", type=int, default=6)
    reach.add_argument("--json", action="store_true")
    reach.add_argument("--dot", action="store_true", help="witness as DOT")

    explain = sub.add_parser("explain", help="show the obligation at a source position")
    explain.add_argument("file")
    explain.add_argument("--at", required=True, metavar="LINE:COL")

    fmt = sub.add_parser("fmt", help="pretty-print a program")
    fmt.add_argument("file")

    export = sub.add_parser("export-lts", help="bounded machine LTS as DOT")
    export.add_argument("machine")
    export.add_argument("--bound", type=int, default=3)
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
    except UnicodeDecodeError as err:
        print(f"{name}: error: not UTF-8 text: {err}", file=sys.stderr)
    return None


def machine_error(name: str, err: Exception) -> int:
    """Report a machine-tool error against the file it concerns."""
    print(f"{name}: error: {err}", file=sys.stderr)
    return EXIT_PARSE


def cmd_check(args) -> int:
    worst = EXIT_OK
    payload = []
    for name in args.files:
        source = read_source(name)
        if source is None:
            worst = max(worst, EXIT_PARSE)
            continue
        code, checker, diags = check_source(source, name)
        worst = max(worst, code)
        if args.json:
            payload.extend(d.to_json(name) for d in diags)
        else:
            for d in diags:
                print(d.render(name), file=sys.stderr)
        if args.emit_obligations and checker is not None:
            for ob in checker.obligations:
                print(json.dumps(ob.to_json()))
    if args.json:
        print(json.dumps(payload, indent=2))
    return worst


def check_source(source: str, filename: str) -> tuple[int, Checker | None, list[Diagnostic]]:
    try:
        program = parse_program(source, filename)
    except BrtsError as err:
        return EXIT_PARSE, None, [err.diagnostic]
    checker = check_program(program, filename)
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
    path = args.file
    source = read_source(path)
    if source is None:
        return EXIT_PARSE
    if args.unchecked:
        try:
            program = parse_program(source, path)
            table = state_table(program)
        except BrtsError as err:
            print(err.diagnostic.render(path), file=sys.stderr)
            return EXIT_PARSE
    else:
        code, checker, diags = check_source(source, path)
        for d in diags:
            print(d.render(path), file=sys.stderr)
        if code != EXIT_OK:
            return code
        program, table = checker.program, checker.st
    try:
        value, interp, _ = run_program(program, mode=args.mode, fuel=args.fuel,
                                       trace=args.trace, table=table)
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
    if main.body is None:
        return None
    for stmt in main.body.stmts:
        if isinstance(stmt, ast.VarDecl):
            inner = strip_perm(stmt.declared)
            if isinstance(inner, InstanceType) and inner.args:
                return inner
    return None


def cmd_simulate(args) -> int:
    from .counters import (Counterexample, MachineError, annotations_of_program,
                           brts_to_lts, check_simulation, load_machine, mca_to_lts)
    try:
        machine = load_machine(args.machine)
    except (MachineError, OSError) as err:
        return machine_error(args.machine, err)
    source = read_source(args.program)
    if source is None:
        return EXIT_PARSE
    code, checker, diags = check_source(source, args.program)
    if code != EXIT_OK:
        for d in diags:
            print(d.render(args.program), file=sys.stderr)
        return code
    table = checker.st
    annotations = annotations_of_program(table)
    initial = initial_instance_of(checker.program)
    if initial is None:
        print(f"{args.program}: error: main declares no dependent typestate "
              f"to start from", file=sys.stderr)
        return EXIT_PARSE

    if args.final_state:
        if args.final_state not in table:
            print(f"{args.program}: error: final state '{args.final_state}' is not "
                  f"declared", file=sys.stderr)
            return EXIT_PARSE
        final = lambda s, v: table.is_substate(s, args.final_state)
    elif args.final_formula:
        try:
            formula = parse_formula(args.final_formula)
        except BrtsError as err:
            return machine_error(args.program, err)
        fam = table.find_family(initial.family) if initial.family else None
        coords = fam.coord_vars if fam else ()
        unknown = sorted(free_vars(formula) - set(coords))
        if unknown:
            print(f"{args.program}: error: final formula mentions names that are not "
                  f"coordinates of the initial object: {unknown}", file=sys.stderr)
            return EXIT_PARSE
        ground = eliminate_quantifiers(formula)
        final = lambda s, v: evaluate(ground, dict(zip(coords, v)))
    else:
        final = lambda s, v: True

    try:
        machine_lts = mca_to_lts(machine, args.bound)
    except MachineError as err:
        return machine_error(args.machine, err)
    try:
        br_lts = brts_to_lts(annotations, initial, args.bound, table=table, final=final)
    except MachineError as err:
        return machine_error(args.program, err)
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
    from .counters import (MachineError, load_machine, reach_violation, witness_to_dot,
                           witness_to_json)
    try:
        machine = load_machine(args.machine)
        bad = eliminate_quantifiers(parse_formula(args.bad))
        path = reach_violation(machine, bad, args.bound)
    except (MachineError, BrtsError, OSError) as err:
        return machine_error(args.machine, err)
    if args.json:
        print(witness_to_json(path))
    elif path is None:
        print("no violation reachable within the bound")
    else:
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
        return EXIT_PARSE
    path = args.file
    source = read_source(path)
    if source is None:
        return EXIT_PARSE
    code, checker, diags = check_source(source, path)
    if checker is None:
        for d in diags:
            print(d.render(path), file=sys.stderr)
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
        model = ob.countermodel
        if model is not None:
            inside = ", ".join(f"{k} = {v}" for k, v in sorted(model.items()))
            print(f"  countermodel: {inside}")
    return EXIT_OK


def cmd_fmt(args) -> int:
    source = read_source(args.file)
    if source is None:
        return EXIT_PARSE
    try:
        program = parse_program(source, args.file)
    except BrtsError as err:
        print(err.diagnostic.render(args.file), file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(print_program(program))
    return EXIT_OK


def cmd_export_lts(args) -> int:
    from .counters import MachineError, load_machine, lts_to_dot, mca_to_lts
    try:
        machine = load_machine(args.machine)
        lts = mca_to_lts(machine, args.bound)
    except (MachineError, OSError) as err:
        return machine_error(args.machine, err)
    print(lts_to_dot(lts, title=machine.name))
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
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as err:
        # the reader closed stdout; what is still buffered goes nowhere, so
        # that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"<stdout>: error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (BrtsError,) as err:
        print(err.diagnostic.render(), file=sys.stderr)
        return EXIT_PARSE if err.kind in PARSE_LEVEL else EXIT_TYPE
    except Exception as err:  # noqa: BLE001 - the CLI boundary
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
