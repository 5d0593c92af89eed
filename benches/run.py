"""Benchmark for admiss: one workload per process, or all three.

    python3 benches/run.py --workload heat-lp --seed 1 --seconds 30 --trace 0
    python3 benches/run.py --workload all --seed 1      # each in a fresh process

Run from the root of a checkout; the program is imported from its ``src/``.
A run sets up its workload, times whole rounds of the workload's operations
until ``--seconds`` have passed (by default ``run_seconds`` in BENCHMARK.json),
then checks every output.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md beside this file.
"""

import os
import sys
import time

_START = time.perf_counter()

# Pinned before the interpreter starts: one BLAS/OpenMP thread, one sweep
# worker, and a fixed string-hash seed (with random hash seeds the peak RSS
# of heat-lp moves by about 2 % from process to process).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "ADMISS_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5  # cold set-ups: this process and four more
WORKLOAD_NAMES = ("heat-lp", "kernel-sums", "small-systems")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def import_admiss():
    """Import admiss from this checkout's sources, never an installed copy."""
    package = SRC / "admiss"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no admiss sources under {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import admiss

    for module in pkgutil.iter_modules(admiss.__path__):
        importlib.import_module(f"admiss.{module.name}")
    if Path(admiss.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported admiss from {admiss.__file__}, not {package}")


def tail_percentile(latencies):
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(latencies)
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            return pct, statistics.quantiles(latencies, n=1000, method="inclusive")[
                round(pct * 10) - 1]
    return None


def _checked(name, check, output):
    """A check's problems; a check that cannot read the output is one."""
    try:
        return check(output)
    except Exception as exc:  # e.g. a missing report or key
        return [f"{name}: check raised {type(exc).__name__}: {exc}"]


def set_up(name, seed):
    """Import admiss, build the workload and run its warm-up operation; the
    workload and the time since the first line of this file."""
    import_admiss()
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    workload.warmup.run()
    return workload, time.perf_counter() - _START


def cold_set_up(name, seed):
    """``set_up`` in a fresh process: its time from that process's start."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"error: set-up of {name} exited with code {proc.returncode}")
    return float(proc.stdout.split()[-1])


def run_workload(name, seed, seconds, trace):
    workload, own_setup = set_up(name, seed)
    import spans

    # setup_s is the median of SETUP_SAMPLES cold set-ups, each from the
    # start of its own process: a single one moves with the host's speed
    setups = [own_setup]
    if not trace:
        setups += [cold_set_up(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(setups)

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    rounds, latencies, outcomes = [], [], []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        round_start = time.perf_counter()
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:  # counted as failed, judged in the checks
                output, error = None, f"{type(exc).__name__}: {exc}"  # drops the frames
            latencies.append(time.perf_counter() - t0)
            outcomes.append((op, output, error))
            if tracer and op.cli and error is None:
                tracer.count("cli.output_bytes", len(output[1].encode()))
        rounds.append(time.perf_counter() - round_start)
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems, first_outputs = 0, [], {}
    for op, output, error in outcomes:
        if error is not None:
            failed += 1
            if not (op.known_fault and op.known_fault in error):
                problems.append(f"{op.name}: {error}")
            continue
        first_outputs.setdefault(op, output)
        found = _checked(op.name, op.check, output)
        if found and op.known_fault and all(op.known_fault in f for f in found):
            failed += 1  # the named fault, in the output instead of an exception
        else:
            problems.extend(found)
    if workload.extra_check:
        problems.extend(_checked("extra check", workload.extra_check, first_outputs))

    run_s = statistics.median(rounds)
    op_p50_ms = statistics.median(latencies) * 1000
    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  "
          f"operations {len(outcomes)} ({len(workload.ops)} per round)  "
          f"attempted {len(outcomes)}  failed {failed}  trace {int(bool(trace))}")
    print("pinned " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    print(f"  setup_s      {setup_s:.4f} s  (median of cold set-ups "
          + " ".join(f"{t:.4f}" for t in setups) + f"; this process {own_setup:.4f} s)")
    print(f"  run_s        {run_s:.4f} s  (median round of {len(rounds)}: "
          + " ".join(f"{r:.3f}" for r in rounds) + ")")
    print(f"  op_p50_ms    {op_p50_ms:.3f} ms  (n={len(latencies)})")
    tail = tail_percentile(latencies)
    if tail:
        print(f"  op_p{tail[0]:g}_ms {tail[1] * 1000:.3f} ms  (reference only)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    by_name = {}
    for (op, _, _), seconds in zip(outcomes, latencies):
        by_name.setdefault(op.name, []).append(seconds * 1000)
    for op_name, values in by_name.items():
        print(f"    op {statistics.median(values):9.3f} ms  "
              f"[{min(values):.3f}, {max(values):.3f}]  {op_name}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print(f"checks: {'passed' if not problems else f'{len(problems)} problems'} "
          f"({len(outcomes) - failed} operations that did not fail)")

    if tracer:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        layer = tracer.metrics(len(rounds))
        print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}; "
              f"per-layer figures are per round")
        for key, value in layer.items():
            print(f"  {key:<46} {value:.6g} {spans.PER_LAYER[key]}")
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k]} for k, v in layer.items()}
    else:
        values = {"setup_s": setup_s, "run_s": run_s, "op_p50_ms": op_p50_ms,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": not problems, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def run_all(seed, seconds, trace):
    """Each workload in a fresh process; one table for all of them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    counts = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        counts[name] = (result["attempted"], result["failed"])
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    if not trace:
        print(f"\n{'workload':<14} {'attempted':>9} {'failed':>6}  "
              + "  ".join(f"{k} ({u})" for k, u in END_TO_END_UNITS.items()))
        for name in WORKLOAD_NAMES:
            m = combined["metrics"]
            print(f"{name:<14} {counts[name][0]:>9} {counts[name][1]:>6}  " + "  ".join(
                f"{m[f'{name}.{k}']['value']:.4f}" for k in END_TO_END_UNITS))
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        print(f"{set_up(args.workload, args.seed)[1]!r}")
        return 0
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
