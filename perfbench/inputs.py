"""Seeded inputs for the benchmark, written as .brts source text.

Nothing here imports `brts`: the workloads must not move when the
program's own generator or printer changes.  Every program carries the
verdict the benchmark expects, computed here by simulating the tracked
object's state and coordinates concretely.

Run it to look at the inputs of one seed:

    python3 perfbench/inputs.py --seed 7 --out inputs-7
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Scaling series of the check-programs workload.  Each largest item takes a
# few seconds at the commit that introduced the benchmark.
LENGTHS = (4, 8, 16)         # straight-line `produce` calls
JOINS = (1, 2, 3, 4)         # sequential two-arm matches at the parent state
STRIDES = (7, 101, 1009)     # K in a `K * x == n` contract

# Random programs: PER_STRATUM programs for each (calls in main, coordinates,
# methods) stratum, with 0 to MAX_CALLS calls and statements nested DEPTH deep.
PER_STRATUM = 2
MAX_CALLS = 5
DEPTH = 6

PRODCONS_HEAD = """\
state Buffer { }
state OpenBuffer case of Buffer {
    void close()[(1, OpenBuffer) >> (1, ClosedBuffer) this];
}
state ClosedBuffer case of Buffer {
    void open()[(1, ClosedBuffer) >> (1, OpenBuffer) this];
}
state ProducerConsumer {
    type SB : Pi(phi(p, c), Buffer);
    void open((1, SB(phi(p, q, p >= q), ClosedBuffer)) >> (1, SB(phi(p, q, p >= q), OpenBuffer)) buf)[] {
        buf.open();
    }
    void produce((1, SB(phi(p, q, p >= q), OpenBuffer)) >> (1, SB(phi(p + 1, q, p + 1 >= q), OpenBuffer)) buf)[] {
        buf <- (1, SB(phi(p + 1, q, p + 1 >= q), OpenBuffer));
    }
    void consume((1, SB(phi(p, q, p >= q), OpenBuffer)) >> (1, SB(phi(p, q + 1, p >= q + 1), OpenBuffer)) buf)[] {
        buf <- (1, SB(phi(p, q + 1, p >= q + 1), OpenBuffer));
    }
    void close((1, SB(phi(p, q, p >= q), OpenBuffer)) >> (1, SB(phi(p, q, p >= q), ClosedBuffer)) buf)[] {
        buf.close();
    }
}
"""


@dataclass
class Program:
    """One input program and the verdict the benchmark expects for it.

    `expect` is "accept" or "reject".  An accepted program ends with its
    tracked object, so `tag` and `coords` are what running it must return.
    A rejected one fails with BRTS013 at `line`:`col`, and `grounding` is
    the rendered concrete coordinates the diagnostic must name.
    """
    name: str
    source: str
    expect: str
    tag: str | None = None
    coords: tuple[int, ...] | None = None
    line: int | None = None
    col: int | None = None
    grounding: str | None = None
    series: tuple[str, int] | None = None    # (series name, size)

    def rendered_value(self) -> str:
        """What `brts run` prints for the final object."""
        return f"{self.tag}@phi({', '.join(str(c) for c in self.coords)})"


# ---------------------------------------------------------------------------
# random well-typed programs with an optional rejected twin
# ---------------------------------------------------------------------------

@dataclass
class _Method:
    name: str
    pre_state: str
    post_state: str
    pre_lo: tuple[int, ...]
    delta: tuple[int, ...]


class _Random:
    """A random protocol around one tracked object, and a main that only
    makes calls the concrete simulation says are enabled."""

    def __init__(self, rng: random.Random, index: int, depth: int):
        self.rng = rng
        self.index = index
        self.root = f"Root{index}"
        self.children = [f"Leaf{index}_{i}" for i in range(rng.randint(1, 3))]
        self.states = [self.root] + self.children
        self.coords = tuple(f"c{i}" for i in range(rng.randint(1, 2)))
        self.methods = [
            _Method(f"op{i}", rng.choice(self.states), rng.choice(self.states),
                    tuple(rng.randint(0, 2) for _ in self.coords),
                    tuple(rng.randint(0, 2) for _ in self.coords))
            for i in range(rng.randint(2, 4))]
        self.state = rng.choice(self.states)
        self.values = tuple(rng.randint(0, 3) for _ in self.coords)
        self.initial = (self.state, self.values)
        self.fresh = 0
        self.calls = 0
        self.budget = depth * 3
        self.lines: list[str] = []
        self.body(depth, 2)

    # -- concrete simulation ------------------------------------------------

    def substate(self, sub: str, sup: str) -> bool:
        return sub == sup or (sup == self.root and sub in self.children)

    def enabled(self) -> list[_Method]:
        return [m for m in self.methods
                if self.substate(self.state, m.pre_state)
                and all(v >= lo for v, lo in zip(self.values, m.pre_lo))]

    def apply(self, m: _Method) -> None:
        self.state = m.post_state
        self.values = tuple(v + d for v, d in zip(self.values, m.delta))

    def disabled_by_coords(self) -> list[_Method]:
        """Methods the current state admits but the coordinates do not."""
        return [m for m in self.methods
                if self.substate(self.state, m.pre_state)
                and not all(v >= lo for v, lo in zip(self.values, m.pre_lo))]

    # -- emission -----------------------------------------------------------

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def body(self, depth: int, indent: int) -> None:
        for _ in range(self.rng.randint(1, 3)):
            if self.budget <= 0:
                return
            self.budget -= 1
            roll = self.rng.random()
            if depth > 0 and roll < 0.2:
                self.match(depth, indent)
            elif depth > 0 and roll < 0.35:
                # a binding scopes over the rest of its block
                self.fresh += 1
                init = self.rng.choice([str(self.rng.randint(0, 9)),
                                        self.rng.choice(["true", "false"]), '"s"'])
                self.emit(indent, f"val v{self.fresh} = {init};")
                self.body(depth - 1, indent)
                return
            else:
                self.call_or_noise(indent)

    def call_or_noise(self, indent: int) -> None:
        enabled = self.enabled()
        if enabled:
            m = self.rng.choice(enabled)
            self.apply(m)
            self.calls += 1
            self.emit(indent, f"ops.{m.name}(w);")
        else:
            self.emit(indent, f"{self.rng.randint(0, 9)};")

    def match(self, depth: int, indent: int) -> None:
        # one live arm, judged at match entry; a dead sibling may tag along
        entry = self.state
        live = [entry] + ([self.root] if entry != self.root else [])
        arm_state = self.rng.choice(live)
        start = len(self.lines)
        self.emit(indent + 1, f"case {arm_state} {{")
        self.body(depth - 1, indent + 2)
        self.emit(indent + 1, "}")
        arm = self.lines[start:]
        del self.lines[start:]
        others = [s for s in self.states if s not in (arm_state, self.root)]
        dead = None
        if others and self.rng.random() < 0.5:
            pick = self.rng.choice(others)
            if not self.substate(entry, pick) and not self.substate(pick, entry):
                dead = pick
        self.emit(indent, f"match (w : {self.root}) {{")
        dead_line = "    " * (indent + 1) + f"case {dead} {{ }}"
        if dead is not None and self.rng.randint(0, 1) == 0:
            self.lines.append(dead_line)
            dead = None
        self.lines.extend(arm)
        if dead is not None:
            self.lines.append(dead_line)
        self.emit(indent, "};")

    def method_text(self, m: _Method) -> str:
        fam = f"Fam{self.index}"
        pre_args = ", ".join(self.coords)
        pre_c = ", ".join(f"{lo} <= {c}" for c, lo in zip(self.coords, m.pre_lo))
        post = [f"{c} + {d}" if d else c for c, d in zip(self.coords, m.delta)]
        post_c = ", ".join(f"{lo} <= {p}" for p, lo in zip(post, m.pre_lo))
        post_ty = f"(1, {fam}(phi({', '.join(post)}, {post_c}), {m.post_state}))"
        return (f"    void {m.name}((1, {fam}(phi({pre_args}, {pre_c}), {m.pre_state}))"
                f" >> {post_ty} w)[] {{\n"
                f"        w <- {post_ty};\n"
                f"    }}\n")

    def source(self, extra: list[str] = ()) -> str:
        i = self.index
        state0, values0 = self.initial
        out = [f"state {self.root} {{ }}\n"]
        out += [f"state {c} case of {self.root} {{ }}\n" for c in self.children]
        out.append(f"state Ops{i} {{\n"
                   f"    type Fam{i} : Pi(phi({', '.join(self.coords)}), {self.root});\n")
        out += [self.method_text(m) for m in self.methods]
        out.append("}\n")
        out.append("state Main {\n    void main()[] {\n"
                   f"        var (1, _) ops = new Ops{i}();\n"
                   f"        var (1, Fam{i}(phi({', '.join(map(str, values0))}), {state0})) "
                   f"w = new {state0}();\n")
        out += [line + "\n" for line in self.lines + list(extra)]
        out.append("        w;\n    }\n}\n")
        return "".join(out)


def random_programs(seed: int) -> tuple[list[Program], list[Program]]:
    """Random accepted programs, stratified so that every seed yields the
    same mix of shapes, and rejected twins of some of them.

    A stratum is a triple (calls in main, coordinates, methods), the three
    properties that set most of the checker's cost.  Each of the
    (MAX_CALLS + 1) * 2 * 3 strata gets PER_STRATUM programs.  The first
    program drawn with a given number of calls and coordinates must admit a
    twin: one more call that the state allows but the coordinates do not,
    appended at the end of main."""
    rng = random.Random(seed)
    strata = {(calls, coords, methods): []
              for calls in range(MAX_CALLS + 1) for coords in (1, 2) for methods in (2, 3, 4)}
    twinned: set[tuple[int, int]] = set()
    twins: list[Program] = []
    index = 0
    while any(len(got) < PER_STRATUM for got in strata.values()):
        gen = _Random(rng, index, DEPTH)
        index += 1
        got = strata.get((gen.calls, len(gen.coords), len(gen.methods)))
        if got is None or len(got) >= PER_STRATUM:
            continue
        candidates = gen.disabled_by_coords()
        if (gen.calls, len(gen.coords)) not in twinned:
            if not candidates:
                continue
            twinned.add((gen.calls, len(gen.coords)))
            m = rng.choice(candidates)
            call = f"        ops.{m.name}(w);"
            src = gen.source([call])
            line = src.count("\n", 0, src.index(call + "\n")) + 1
            grounding = ", ".join(f"{c} = {v}" for c, v in zip(gen.coords, gen.values))
            twins.append(Program(f"rand{gen.index}_twin", src, "reject", line=line,
                                 col=call.index("(w)") + 2, grounding=grounding))
        got.append(Program(f"rand{gen.index}", gen.source(), "accept",
                           tag=gen.state, coords=gen.values))
    return [p for got in strata.values() for p in got], twins


# ---------------------------------------------------------------------------
# scaling series and straight-line programs
# ---------------------------------------------------------------------------

def _prodcons_main(decl_state: str, new_state: str, lines: list[str]) -> str:
    body = "".join(f"        {l}\n" for l in lines)
    return (PRODCONS_HEAD + "state Main {\n    void main()[] {\n"
            "        var (1, _) pc = new ProducerConsumer();\n"
            f"        var (1, SB(phi(0, 0), {decl_state})) buffer = new {new_state}();\n"
            f"{body}        buffer;\n    }}\n}}\n")


def straight_line(n: int) -> Program:
    """`open` then n `produce` calls: n + 1 call statements."""
    src = _prodcons_main("ClosedBuffer", "ClosedBuffer",
                         ["pc.open(buffer);"] + ["pc.produce(buffer);"] * n)
    return Program(f"length{n}", src, "accept", tag="OpenBuffer", coords=(n, 0),
                   series=("length", n))


def match_joins(k: int) -> Program:
    """k matches on a door known only at its parent state `Door`; the `Open`
    arm counts, the `Shut` arm does nothing, so each join keeps the parent
    state and disjoins two histories."""
    arms = "".join("        match (w : Door) {\n"
                   "            case Open { ops.inc(w); }\n"
                   "            case Shut { }\n"
                   "        };\n" for _ in range(k))
    src = f"""\
state Door {{ }}
state Open case of Door {{ }}
state Shut case of Door {{ }}
state Ops {{
    type D : Pi(phi(n), Door);
    void inc((1, D(phi(n, 0 <= n), Open)) >> (1, D(phi(n + 1, 0 <= n + 1), Open)) w)[] {{
        w <- (1, D(phi(n + 1, 0 <= n + 1), Open));
    }}
}}
state Main {{
    void main()[] {{
        var (1, _) ops = new Ops();
        var (1, D(phi(0), Door)) w = new Open();
{arms}        w;
    }}
}}
"""
    # the door starts open, so the counting arm runs every time
    return Program(f"joins{k}", src, "accept", tag="Open", coords=(k,),
                   series=("joins", k))


def stride(k: int) -> Program:
    """A counter that moves in steps of k, with `k * x == n` contracts.  The
    body of `twice` is checked against bounded multiples of k, which makes the
    solver eliminate a variable of coefficient k."""
    pre = f"0 <= n, n <= {k}, {k} * y == n"
    src = f"""\
state Ctr {{ }}
state Ops {{
    type C : Pi(phi(n), Ctr);
    void step((1, C(phi(n, {k} * x == n), Ctr)) >> (1, C(phi(n + {k}, {k} * x + {k} == n + {k}), Ctr)) w)[] {{
        w <- (1, C(phi(n + {k}, {k} * x + {k} == n + {k}), Ctr));
    }}
    void twice((1, C(phi(n, {pre}), Ctr)) >> (1, C(phi(n + {2 * k}, {pre}), Ctr)) w)[] {{
        this.step(w);
        this.step(w);
    }}
}}
state Main {{
    void main()[] {{
        var (1, _) ops = new Ops();
        var (1, C(phi(0), Ctr)) w = new Ctr();
        ops.twice(w);
        w;
    }}
}}
"""
    return Program(f"stride{k}", src, "accept", tag="Ctr", coords=(2 * k,),
                   series=("stride", k))


def series() -> list[Program]:
    return ([straight_line(n) for n in LENGTHS] + [match_joins(k) for k in JOINS]
            + [stride(k) for k in STRIDES])


def long_program(statements: int) -> Program:
    """A straight-line main of `statements` calls: one `open`, then
    `produce`.  Too long to typecheck quickly; it feeds `fmt` and
    `run --unchecked`."""
    return straight_line(statements - 1)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    accepted, twins = random_programs(args.seed)
    for p in accepted + twins + series():
        (out / f"{p.name}.brts").write_text(p.source)
        manifest.append({k: v for k, v in vars(p).items() if k != "source"})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
