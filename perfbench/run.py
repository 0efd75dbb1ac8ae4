"""pncalc job benchmark: seeded CLI batch jobs in a closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0

Each job is one in-process call of `pncalc.cli.main` on INI and cmat inputs
generated from --seed; the next job starts when the previous one returns.
--seconds sets how many fixed blocks of jobs the run executes (see
workloads.BLOCK_SECONDS).  With --trace 0 the run prints the end-to-end
metrics; with --trace 1 every job runs once untraced and once traced, and
the run prints the per-layer metrics from the traced runs plus the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# One BLAS thread, within the cap of nproc.  On a 2-vCPU machine two OpenBLAS
# threads made the median small-matrix job about 1.7x slower and its
# run-to-run spread several times wider: every small call pays a hand-off.
BLAS_THREADS = "1"


def _loop_seconds(cpu: int) -> float:
    """Median time of a short pure-Python loop on one CPU."""
    os.sched_setaffinity(0, {cpu})
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def pin_to_quickest_cpu() -> int:
    """Pin this process to the quickest CPU it may use (at most 8 are tried).

    The vCPUs of a shared VM can run at different speeds: on a 2-vCPU
    machine the two differed by up to 35% for minutes at a time, and an
    unpinned run landed on either, which split run results into two groups.
    """
    cpus = sorted(os.sched_getaffinity(0))[:8]
    best = min(cpus, key=_loop_seconds)
    os.sched_setaffinity(0, {best})
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "pncalc", "cli.py")):
        print(f"error: no pncalc sources under {SRC}; run from a pncalc checkout",
              file=sys.stderr)
        return 2
    cpu = pin_to_quickest_cpu()
    # the thread count must be in the environment before numpy loads OpenBLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         ROOT, cpu)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
