"""Benchmark of the brts toolchain.

    python3 perfbench/run.py --workload check-programs --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports `brts` from `src/`.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones of a traced
run, and the traced run's own end-to-end numbers go to standard error, so
the tracing overhead can be read off against an untraced run.

The process that prints the result imports nothing of `brts`.  It starts
worker processes one at a time: one that sets up and then measures, with
`SETUP_SAMPLES - 1` that only set up split before and after it.  Set-up
time is taken from each worker's start until it reports ready, and the
median is reported.  The
measuring worker repeats the workload's whole round of operations until
`--seconds` have passed and it holds at least `MIN_OPS` operations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
MIN_OPS = 100      # so that the 90th percentile has ten samples beyond it
IMPORT_SAMPLES = 5
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="brts benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["check-programs", "machine-tools", "cli-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--worker", choices=["setup", "measure"], help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement (worker side)
# ---------------------------------------------------------------------------

class Outcome:
    """Every operation's time and every failure of one measured run."""

    def __init__(self) -> None:
        self.latencies: list[tuple[int, float]] = []   # (op index, seconds)
        self.failures: list[tuple[object, str]] = []   # (op, reason)
        self.rounds = 0

    @property
    def correct(self) -> bool:
        """Only failures that are known faults of the program are allowed."""
        return all(op.known_fault and op.known_fault in reason
                   for op, reason in self.failures)

    def summary(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": len(self.latencies),
                "failed": len(self.failures), "metrics": metrics}


def measure(ops, seconds: float, tracer=None, min_ops: int = MIN_OPS) -> Outcome:
    """Repeat whole rounds of `ops` until `seconds` passed and `min_ops` ran."""
    outcome = Outcome()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.new_pass()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result = op.run()
                reason = None
            except Exception as err:  # noqa: BLE001 - a crash is a failed operation
                reason = f"raised {err!r}"
            elapsed = time.perf_counter() - t0
            if reason is None:
                try:
                    reason = op.check(result)
                except Exception as err:  # noqa: BLE001 - unreadable output
                    reason = f"check raised {err!r}"
            outcome.latencies.append((i, elapsed))
            if reason is not None:
                outcome.failures.append((op, reason))
        outcome.rounds += 1
        if time.perf_counter() - start >= seconds and len(outcome.latencies) >= min_ops:
            return outcome


def end_to_end(outcome: Outcome, peak_kb: int) -> dict[str, float]:
    times = [t for _, t in outcome.latencies]
    done = len(times) - len(outcome.failures)
    return {
        "ops_per_s": done / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_p90_s": statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": peak_kb / 1024,
    }


def series_medians(ops, outcome: Outcome) -> dict[str, list[float]]:
    """Median time of each size of each scaling series, sizes ascending."""
    per: dict[tuple[str, int], list[float]] = {}
    for i, t in outcome.latencies:
        if ops[i].series is not None:
            per.setdefault(ops[i].series, []).append(t)
    out: dict[str, list[float]] = {}
    for (name, _), ts in sorted(per.items()):
        out.setdefault(name, []).append(statistics.median(ts))
    return out


def import_times(root: Path) -> tuple[float, float]:
    """Median cumulative import time of `brts.cli` and of `networkx` in a
    fresh interpreter, from `python -X importtime`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cli, nx = [], []
    for _ in range(IMPORT_SAMPLES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import brts.cli"],
                             capture_output=True, text=True, cwd=root, env=env,
                             check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        cli.append(cumulative.get("brts.cli", 0.0))
        nx.append(cumulative.get("networkx", 0.0))
    return statistics.median(cli), statistics.median(nx)


def worker(args: argparse.Namespace, root: Path) -> int:
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None and cls.in_process:
        tracer.install()
    wl = cls(root, args.seed, traced=bool(args.trace))
    try:
        ops = wl.ops()
        wl.warm_up(ops)
        print("ready", flush=True)
        if args.worker == "setup":
            return 0
        if tracer is not None:
            tracer.reset()
        outcome = measure(ops, args.seconds, tracer)
        peak_kb = wl.peak_kb if not cls.in_process else \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e2e = end_to_end(outcome, peak_kb)
        for op, reason in outcome.failures[:len(ops)]:
            if not (op.known_fault and op.known_fault in reason):
                print(f"wrong: {op.name}: {reason}", file=sys.stderr)
        if tracer is None:
            print(json.dumps(outcome.summary(e2e)), flush=True)
            return 0
        if not cls.in_process:
            wl.collect_stats(tracer)
        layers = layer_metrics(tracer, outcome.rounds, series_medians(ops, outcome),
                               import_times(root))
        print(json.dumps({"traced_end_to_end": e2e, "rounds": outcome.rounds}),
              file=sys.stderr)
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layers.items()}
        print(json.dumps(outcome.summary(metrics)), flush=True)
        return 0
    finally:
        wl.close()


# ---------------------------------------------------------------------------
# the reporting process
# ---------------------------------------------------------------------------

def spawn(args: argparse.Namespace, role: str, root: Path):
    """Start a worker; return it and the seconds until it reported ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.stdout.close()
        proc.wait()
        raise RuntimeError(f"{role} worker exited with {proc.returncode} before it was ready")
    return proc, ready


def finish(proc) -> str:
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "brts").is_dir() or not (root / "corpus").is_dir():
        print("error: run from the root of a brts checkout (src/brts and corpus/ "
              "are missing here)", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args, root)
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    procs = []

    def setup_only() -> float:
        proc, ready = spawn(args, "setup", root)
        procs.append(proc)
        finish(proc)
        return ready

    try:
        # the set-up samples sit on both sides of the measurement, so that a
        # slow or fast spell of the machine does not hold all of them
        setups = [setup_only() for _ in range(extra // 2)]
        proc, ready = spawn(args, "measure", root)
        procs.append(proc)
        setups.append(ready)
        result = json.loads(finish(proc).strip().splitlines()[-1])
        setups += [setup_only() for _ in range(extra - extra // 2)]
    except (RuntimeError, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not args.trace:
        metrics = {"setup_s": statistics.median(setups), **result["metrics"]}
        result["metrics"] = {k: {"value": metrics[k], "unit": END_TO_END[k]}
                             for k in END_TO_END}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
