"""Self-test of the harness's output checks.

    python3 perfbench/selftest.py      # from the root of a checkout

It runs three operations through the same measuring loop the benchmark
uses: a generated program with its right expectation, the same program
with a deliberately wrong expected final coordinate, and an operation that
crashes with a known fault.  The wrong expectation must be reported as a
failed operation that makes the run incorrect; the known fault must be
counted as failed without doing so.  Exit code 0 means both held.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    import inputs
    import workloads
    from run import measure

    program = inputs.straight_line(3)
    wrong = replace(program, name="wrong-expectation",
                    coords=(program.coords[0] + 1,) + program.coords[1:])

    def crash():
        raise RecursionError("maximum recursion depth exceeded")

    right_op = workloads._accepted(program)
    wrong_op = workloads._accepted(wrong)
    known_op = workloads.Op("known fault", crash, lambda _: None, known_fault="RecursionError")

    with_wrong = measure([right_op, wrong_op, known_op], seconds=0, min_ops=3)
    without = measure([right_op, known_op], seconds=0, min_ops=2)
    for op, reason in with_wrong.failures:
        print(f"failed: {op.name}: {reason}")
    ok = (with_wrong.summary({}) == {"correct": False, "attempted": 3, "failed": 2, "metrics": {}}
          and [op for op, _ in with_wrong.failures] == [wrong_op, known_op]
          and without.summary({}) == {"correct": True, "attempted": 2, "failed": 1, "metrics": {}})
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
