"""A/A comparison: two sets of benchmark runs of the same code.

    python3 benches/aa.py

Runs ``benches/run.py`` for every workload in BENCHMARK.json, ten seeds per
set, two sets (set k uses seeds 1000 k + 1 .. 1000 k + 10), each run in its
own process for ``run_seconds``.  For every workload and end-to-end metric it
prints each set's median, quartiles and spread (interquartile distance over
the median), and whether the sets agree within the bounds in BENCHMARK.json:
every spread within the bound, the second median no worse than the first by
more than the bound, every run correct and the same share of failed
operations in every run.  Spreads above a third of the bound are flagged as
wide: they leave little margin.  Exits with 1 when the sets do not agree.
Raw results are written to benches/out/aa-<time>.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"aa-{time.strftime('%Y%m%d-%H%M%S')}.json"
    results = {w["name"]: [[] for _ in range(SETS)] for w in spec["workloads"]}
    for k in range(SETS):
        for workload, sets in results.items():
            for i in range(RUNS):
                seed = 1000 * k + i + 1
                result = run_once(workload, seed, spec["run_seconds"])
                sets[k].append(dict(result, seed=seed))
                out_path.write_text(json.dumps(results, indent=1))
                print(f"set {k + 1} {workload} seed {seed}: correct {result['correct']} "
                      f"attempted {result['attempted']} failed {result['failed']}  "
                      + "  ".join(f"{n} {m['value']:.4f}" for n, m in result["metrics"].items()),
                      flush=True)

    agree = True
    print(f"\n{'workload':<14} {'metric':<12} {'bound':>5}  "
          + "  ".join(f"set {k + 1}: median [q1, q3] spread" for k in range(SETS)) + "  shift")
    for workload, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        agree &= len(shares) == 1 and correct
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            sign = 1 if metric["better"] == "lower" else -1
            shift = sign * (stats[1]["median"] / stats[0]["median"] - 1)
            ok = shift <= bound and all(s["spread"] <= bound for s in stats)
            wide = any(s["spread"] > bound / 3 for s in stats)
            agree &= ok
            print(f"{workload:<14} {name:<12} {bound:>5}  "
                  + "  ".join(f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] "
                              f"{s['spread']:.2%}" for s in stats)
                  + f"  {shift:+.2%}" + ("" if ok else "  OUTSIDE BOUND")
                  + ("  wide" if wide else ""))
        print(f"{workload:<14} failed share {sorted(shares)}, all correct {correct}")
    print(f"\nagree within bounds: {agree}\nraw results: {out_path.relative_to(ROOT)}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
