"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/report.py                          # from a checkout's root
    python3 perfbench/report.py --against FIRST.json     # a second set, compared

It prints markdown:

- the scaling curves, measured in one process (median of REPEATS timings
  per size);
- the drift of the machine: one fixed `machine-tools` round repeated
  DRIFT_ROUNDS times in one process, with its fastest, median and slowest
  time;
- for every workload, the median and the spread (interquartile range over
  the median) of each end-to-end metric over ten untraced runs with the
  seeds in SEEDS, at the run length of BENCHMARK.json;
- for every workload, the per-layer metrics of one traced run with the
  first seed, and the tracing overhead: how far that run's own end-to-end
  numbers are from the untraced run of the same seed.

With `--against`, it also prints by how much each median is worse than in
an earlier report, which is how two sets of runs of the same code are
compared.  The figures are written to .perfbench_out/report.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("check-programs", "machine-tools", "cli-mix")
SEEDS = tuple(range(21, 31))
REPEATS = 3
DRIFT_ROUNDS = 15
# which way is better, for comparing two reports
HIGHER_IS_BETTER = {"ops_per_s"}


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def curves(root: Path) -> tuple[dict[str, dict[int, float]], list[float]]:
    """Seconds per size of each scaling series, and the time of each of
    DRIFT_ROUNDS identical `machine-tools` rounds, in this process."""
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import inputs
    import workloads
    from brts.cli import check_source

    out: dict[str, dict[int, float]] = {}
    for p in inputs.series():
        name, size = p.series
        out.setdefault(f"check {name}", {})[size] = timed(lambda: check_source(p.source, "x"))
    ops = workloads.MachineTools(root, 0).ops()
    # in round order, so each simulation finds the systems of its bound built
    for op in ops:
        kind, what, bound = op.name.split()
        if bound.startswith("b="):
            out.setdefault(f"{kind} {what}", {})[int(bound[2:])] = timed(op.run)
    rounds = []
    for _ in range(DRIFT_ROUNDS):
        start = time.perf_counter()
        for op in ops:
            op.run()
        rounds.append(time.perf_counter() - start)
    return out, rounds


def run_bench(root: Path, workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    traced = None
    for line in proc.stderr.splitlines():
        if line.startswith('{"traced_end_to_end"'):
            traced = json.loads(line)["traced_end_to_end"]
    return result, traced


def spread(values: list[float]) -> float:
    """Interquartile range over the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def measure_workload(root: Path, workload: str, seconds: int) -> dict:
    runs = [run_bench(root, workload, seed, seconds, 0)[0] for seed in SEEDS]
    layers, traced = run_bench(root, workload, SEEDS[0], seconds, 1)
    first = {k: v["value"] for k, v in runs[0]["metrics"].items()}
    values = {k: [r["metrics"][k]["value"] for r in runs] for k in first}
    return {
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": all(r["correct"] for r in runs) and layers["correct"],
        "end_to_end": {k: {"median": statistics.median(v), "spread": spread(v), "values": v}
                       for k, v in values.items()},
        "tracing_overhead": {k: traced[k] / first[k] - 1
                             for k in traced if k != "peak_rss_mb"},
        "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
    }


def worse_by(metric: str, now: float, before: float) -> float:
    """How much worse `now` is than `before`, as a share of `before`."""
    change = now / before - 1
    return -change if metric in HIGHER_IS_BETTER else change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path,
                    help="an earlier report.json to compare the medians with")
    args = ap.parse_args()
    root = Path.cwd()
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    earlier = json.loads(args.against.read_text()) if args.against else None
    points, rounds = curves(root)
    report = {"seconds": seconds, "seeds": list(SEEDS), "curves": points,
              "drift_rounds": rounds, "workloads": {}}

    print(f"## Scaling curves (seconds, median of {REPEATS})\n")
    for name, series in points.items():
        row = ", ".join(f"{size}: {t:.3f}" for size, t in sorted(series.items()))
        print(f"- {name}: {row}")
    print(f"\n## Drift: one machine-tools round, {DRIFT_ROUNDS} times in one process\n")
    print(f"fastest {min(rounds):.2f} s, median {statistics.median(rounds):.2f} s, "
          f"slowest {max(rounds):.2f} s (slowest / fastest {max(rounds) / min(rounds):.2f})")

    for workload in WORKLOADS:
        w = report["workloads"][workload] = measure_workload(root, workload, seconds)
        print(f"\n## {workload}\n")
        print(f"correct {w['correct']}; attempted {w['attempted']}; failed {w['failed']}\n")
        print(f"| metric | median of {len(SEEDS)} | spread | tracing overhead |"
              + (" worse than earlier |" if earlier else "")
              + "\n|---|---|---|---|" + ("---|" if earlier else ""))
        for k, m in w["end_to_end"].items():
            overhead = w["tracing_overhead"].get(k)
            row = (f"| {k} | {m['median']:.4g} | {m['spread']:.3f} | "
                   + (f"{overhead:+.1%}" if overhead is not None else "") + " |")
            if earlier:
                before = earlier["workloads"][workload]["end_to_end"][k]["median"]
                row += f" {worse_by(k, m['median'], before):+.1%} |"
            print(row)
        print("\n| per-layer metric (per pass) | value |\n|---|---|")
        for k, v in w["per_layer"].items():
            print(f"| {k} | {v:.4g} |")

    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
