"""Median time and minor page faults of each operation of one benchmark
workload, run in this process.

    python3 tools/op_faults.py --workload small-systems [--seed 7] [--rounds 5]

Run from the root of a checkout: admiss is imported from its ``src/`` and
the workloads from ``benches/workloads.py``, which is only read; nothing is
written under ``benches/``.  As ``benches/run.py`` does, the script imports
every admiss submodule, builds the workload from the seed and runs its
warm-up operation, then runs every operation once per round.  Each operation
is timed with ``time.perf_counter`` and its minor page faults are read from
``resource.getrusage`` before and after it.  An operation that raises counts
as a run (three small-systems operations fail on purpose).  One BLAS thread
is used, as in the benchmark, so the faults of thread stacks do not mix in.

The script prints, per operation, the median time over the rounds, the
minor faults of the first round and the median minor faults of the later
rounds, then the minor faults of each whole round.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="small-systems",
                        choices=("heat-lp", "kernel-sums", "small-systems"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    # one BLAS thread, set before numpy loads; no bytecode cache under benches/
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benches")]
    import admiss

    for module in pkgutil.iter_modules(admiss.__path__):
        importlib.import_module(f"admiss.{module.name}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup.run()
    times = [[] for _ in workload.ops]
    faults = [[] for _ in workload.ops]
    per_round = []
    for _ in range(args.rounds):
        round_start = minor_faults()
        for op, op_times, op_faults in zip(workload.ops, times, faults):
            before, t0 = minor_faults(), time.perf_counter()
            try:
                op.run()
            except Exception:  # the workload's known faults; counted as a run
                pass
            op_times.append(time.perf_counter() - t0)
            op_faults.append(minor_faults() - before)
        per_round.append(minor_faults() - round_start)

    print(f"workload {args.workload}  seed {args.seed}  rounds {args.rounds}")
    print(f"{'median ms':>10} {'faults, round 1':>16} {'later (median)':>15}  operation")
    for op, op_times, op_faults in zip(workload.ops, times, faults):
        later = f"{statistics.median(op_faults[1:]):g}" if args.rounds > 1 else "-"
        print(f"{statistics.median(op_times) * 1000:10.3f} {op_faults[0]:16d} {later:>15}  "
              f"{op.name}")
    print("minor faults per round: " + " ".join(str(n) for n in per_round))
    return 0


if __name__ == "__main__":
    sys.exit(main())
