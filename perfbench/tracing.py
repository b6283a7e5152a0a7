"""Per-layer tracing from the benchmark's own code.

`Tracer.install()` wraps the public functions of each `brts` layer wherever
a module has bound them (for example the `presburger` names imported into
`brts.typecheck`), so nothing under `src/` is edited.  Each wrapped call is
a span.  A span's time outside the solver is its duration minus the time
of the outermost solver calls below it; that is the self time of
`check_program`, whose nested spans are the solver's.  Counts come from the
same wrappers.

Run as a script, it traces one CLI invocation in a fresh interpreter and
writes the counters to a JSON file:

    python3 perfbench/tracing.py --cli STATS.json check corpus/dyck/good.brts
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name); the span name's prefix is the layer.
TARGETS = (
    ("brts.parser", "tokenize", "parser.tokenize"),
    ("brts.parser", "parse_program", "parser.parse_program"),
    ("brts.syntax", "state_table", "syntax.state_table"),
    ("brts.typecheck", "check_program", "typecheck.check_program"),
    ("brts.presburger", "is_valid", "presburger.is_valid"),
    ("brts.presburger", "is_satisfiable", "presburger.is_satisfiable"),
    ("brts.presburger", "witness", "presburger.witness"),
    ("brts.presburger", "project_onto", "presburger.project_onto"),
    ("brts.interp", "run_program", "interp.run_program"),
    ("brts.printer", "print_program", "printer.print_program"),
    ("brts.counters", "mca_to_lts", "counters.mca_to_lts"),
    ("brts.counters", "brts_to_lts", "counters.brts_to_lts"),
    ("brts.counters", "check_simulation", "counters.check_simulation"),
    ("brts.counters", "reach_violation", "counters.reach_violation"),
)
SOLVER = ("is_valid", "is_satisfiable", "witness", "project_onto")

# every per-layer metric, its unit and which way is better
LAYER_METRICS = {
    "parser.parse_s": ("s", "lower"),
    "parser.parse_calls": ("count", "lower"),
    "parser.tokens_per_s": ("tokens/s", "higher"),
    "syntax.state_table_s": ("s", "lower"),
    "typecheck.check_s": ("s", "lower"),
    "typecheck.self_s": ("s", "lower"),
    "typecheck.obligations": ("count", "lower"),
    "typecheck.audit_queries": ("count", "lower"),
    "typecheck.length_doubling": ("ratio", "lower"),
    "typecheck.join_growth": ("ratio", "lower"),
    "presburger.is_valid_calls": ("count", "lower"),
    "presburger.is_valid_s": ("s", "lower"),
    "presburger.is_satisfiable_calls": ("count", "lower"),
    "presburger.is_satisfiable_s": ("s", "lower"),
    "presburger.witness_calls": ("count", "lower"),
    "presburger.witness_s": ("s", "lower"),
    "presburger.project_onto_calls": ("count", "lower"),
    "presburger.project_onto_s": ("s", "lower"),
    "presburger.query_atoms_mean": ("atoms", "lower"),
    "presburger.query_atoms_max": ("atoms", "lower"),
    "presburger.repeat_ratio": ("ratio", "lower"),
    "presburger.coeff_growth": ("ratio", "lower"),
    "interp.run_s": ("s", "lower"),
    "interp.run_calls": ("count", "lower"),
    "printer.print_s": ("s", "lower"),
    "counters.mca_to_lts_s": ("s", "lower"),
    "counters.brts_to_lts_s": ("s", "lower"),
    "counters.check_simulation_s": ("s", "lower"),
    "counters.reach_violation_s": ("s", "lower"),
    "counters.successors_calls": ("count", "lower"),
    "counters.lts_states": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_networkx_s": ("s", "lower"),
}


def _atoms(f) -> int:
    """Number of atoms in a formula: its leaves below And/Or (`parts`) and
    Not/Exists (`body`)."""
    count = 0
    stack = [f]
    while stack:
        node = stack.pop()
        parts = getattr(node, "parts", None)
        if parts is not None:
            stack.extend(parts)
        elif hasattr(node, "body"):
            stack.append(node.body)
        else:
            count += 1
    return count


class Tracer:
    """Span totals per name, plus the counters the layer metrics need."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.outside_solver: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # one frame per open span: [name, time in the outermost solver
        # calls below it]
        self._stack: list[list] = []
        self._seen: set = set()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack
        solver = name.startswith("presburger.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed if solver else frame[1]
                self.calls[name] += 1
                self.total[name] += elapsed
                self.outside_solver[name] += elapsed - frame[1]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _solver_query(self, args) -> None:
        f = args[0]
        atoms = _atoms(f)
        self.counts["solver_queries"] += 1
        self.counts["solver_atoms"] += atoms
        self.counts["solver_atoms_max"] = max(self.counts["solver_atoms_max"], atoms)
        if f in self._seen:
            self.counts["solver_repeats"] += 1
        else:
            self._seen.add(f)

    def _hooks(self, name: str):
        if name.startswith("presburger."):
            return self._solver_query, None
        if name == "parser.tokenize":
            def after(toks):
                # formulas parsed outside a program (machine guards, CLI
                # arguments) do not count towards the parser's throughput
                if any(frame[0] == "parser.parse_program" for frame in self._stack):
                    self._add("tokens", len(toks))
            return None, after
        if name == "typecheck.check_program":
            def after(checker):
                self._add("obligations", len(checker.obligations))
                self._add("audit_queries", len(checker.query_log))
            return None, after
        if name in ("counters.mca_to_lts", "counters.brts_to_lts"):
            return None, lambda lts: self._add("lts_states", lts.size())
        return None, None

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def reset(self) -> None:
        """Forget what warm-up recorded."""
        for table in (self.calls, self.total, self.outside_solver, self.counts):
            table.clear()
        self._seen.clear()

    def new_pass(self) -> None:
        """Solver repeats are counted within one pass of the input set."""
        self._seen.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import brts.cli  # noqa: F401  - binds every layer's names
        import brts.counters
        modules = [m for n, m in list(sys.modules.items())
                   if n == "brts" or n.startswith("brts.")]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            before, after = self._hooks(name)
            wrapped = self._wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        machine = brts.counters.CounterMachine
        original_successors = machine.successors

        def successors(this, *args, **kwargs):
            self.counts["successors"] += 1
            return original_successors(this, *args, **kwargs)

        machine.successors = successors

    # -- export -------------------------------------------------------------

    def to_json(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "outside_solver": dict(self.outside_solver), "counts": dict(self.counts)}

    def merge(self, data: dict) -> None:
        for key in ("calls", "total", "outside_solver"):
            for name, value in data[key].items():
                getattr(self, key)[name] += value
        for name, value in data["counts"].items():
            if name == "solver_atoms_max":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value


def growth(times: list[float]) -> float:
    """Geometric mean of the time ratios between adjacent sizes of a series."""
    if len(times) < 2 or min(times) <= 0:
        return 0.0
    return math.exp(math.log(times[-1] / times[0]) / (len(times) - 1))


def layer_metrics(tracer: Tracer, passes: int, series: dict[str, list[float]],
                  imports: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics per pass of the input set.  `series` maps a series
    name to the median time of each of its sizes; `imports` is the measured
    (brts.cli, networkx) import time.  A layer the workload does not run
    reads 0."""
    t, c, n = tracer.total, tracer.calls, tracer.counts

    def per(x: float) -> float:
        return x / passes

    parse_s = t["parser.parse_program"]
    queries = n["solver_queries"]
    check_s = t["typecheck.check_program"]
    out = {
        "parser.parse_s": per(parse_s),
        "parser.parse_calls": per(c["parser.parse_program"]),
        "parser.tokens_per_s": n["tokens"] / parse_s if parse_s else 0.0,
        "syntax.state_table_s": per(t["syntax.state_table"]),
        "typecheck.check_s": per(check_s),
        "typecheck.self_s": per(tracer.outside_solver["typecheck.check_program"]),
        "typecheck.obligations": per(n["obligations"]),
        "typecheck.audit_queries": per(n["audit_queries"]),
        "typecheck.length_doubling": growth(series.get("length", [])),
        "typecheck.join_growth": growth(series.get("joins", [])),
        "presburger.query_atoms_mean": n["solver_atoms"] / queries if queries else 0.0,
        "presburger.query_atoms_max": n["solver_atoms_max"],
        "presburger.repeat_ratio": n["solver_repeats"] / queries if queries else 0.0,
        "presburger.coeff_growth": growth(series.get("stride", [])),
        "interp.run_s": per(t["interp.run_program"]),
        "interp.run_calls": per(c["interp.run_program"]),
        "printer.print_s": per(t["printer.print_program"]),
        "counters.successors_calls": per(n["successors"]),
        "counters.lts_states": per(n["lts_states"]),
        "cli.import_s": imports[0],
        "cli.import_networkx_s": imports[1],
    }
    for fn in SOLVER:
        out[f"presburger.{fn}_calls"] = per(c[f"presburger.{fn}"])
        out[f"presburger.{fn}_s"] = per(t[f"presburger.{fn}"])
    for fn in ("mca_to_lts", "brts_to_lts", "check_simulation", "reach_violation"):
        out[f"counters.{fn}_s"] = per(t[f"counters.{fn}"])
    return {name: out[name] for name in LAYER_METRICS}


def _cli_main(argv: list[str]) -> int:
    """Run `brts.cli` on argv under a tracer and write its counters."""
    stats_path, args = argv[0], argv[1:]
    import brts.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = brts.cli.main(args)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] != ["--cli"] or len(sys.argv) < 3:
        sys.exit("usage: tracing.py --cli STATS.json ARGS...")
    sys.exit(_cli_main(sys.argv[2:]))
