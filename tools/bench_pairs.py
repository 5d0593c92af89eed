"""Alternating parent/change pairs of the benchmark, written as one record.

    python3 tools/bench_pairs.py --parent <rev> [--change HEAD] --out BENCH_<n>.json

Each side is extracted with ``git archive`` into its own clean directory.
Pair i runs ``python3 benches/run.py --workload W --seed S --trace 0`` once on
each side with the same seed, the parent first in even pairs and the change
first in odd ones.  The record keeps every run, the median and quartiles of
each end-to-end metric per side, the pairs the change wins (reads lower) or
ties, the change of the medians, and the parent's interquartile range.  With
``TRACED_PAIRS`` more ``--trace 1`` pairs of every workload it also keeps the
median of every per-layer metric per side.  Runs take ``benches/run.py``'s own
length, ``run_seconds`` in ``BENCHMARK.json``.  Lower is better for every
metric.  The two trees go to a temporary directory under ``TMPDIR`` that is
removed when the script ends.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel-sums", "heat-lp", "small-systems")
SEED_BASE = {"kernel-sums": 101, "heat-lp": 201, "small-systems": 301}
PAIRS = 10
# pairs and seeds of the traced runs that record every workload's per-layer metrics
TRACED_PAIRS = 5
TRACED_SEED_BASE = 401


def extract(rev: str, into: Path) -> Path:
    """The committed tree of ``rev``, extracted into a fresh directory."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """The last-line JSON object of one benchmark run in ``tree``."""
    argv = [sys.executable, "benches/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def pairs(trees: dict, workload: str, seeds: list[int], trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(trees[side], workload, seed, trace))
            metrics = runs[side][-1]["metrics"]
            shown = metrics.get("run_s", {}).get("value", "")
            print(f"{workload} seed {seed} {side}: run_s {shown}", file=sys.stderr, flush=True)
    return runs


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def end_to_end(runs: dict[str, list[dict]], bounds: dict) -> dict:
    out = {}
    for name, spec in bounds.items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p, c = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": spec["unit"],
            "bound": spec["bound"],
            "parent": p,
            "change": c,
            "wins": sum(b < a for a, b in zip(parent, change)),
            "ties": sum(b == a for a, b in zip(parent, change)),
            "median_change": c["median"] / p["median"] - 1,
            "parent_iqr": p["q3"] - p["q1"],
            "parent_runs": parent,
            "change_runs": change,
        }
    return out


def per_layer(runs: dict[str, list[dict]]) -> dict:
    """Median of every per-layer metric per side; None on a side that lacks it."""
    names = sorted({name for side in runs for r in runs[side] for name in r["metrics"]})

    def median(side: str, name: str) -> float | None:
        values = [r["metrics"][name]["value"] for r in runs[side] if name in r["metrics"]]
        return float(np.median(values)) if values else None

    return {name: {f"{side}_median": median(side, name) for side in ("parent", "change")}
            for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--out", required=True, help="record to write, e.g. BENCH_8.json")
    args = parser.parse_args()
    revs = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        trees = {side: extract(rev, Path(workdir) / side) for side, rev in revs.items()}
        write_record(trees, revs, Path(args.out))
    return 0


def write_record(trees: dict, revs: dict, out: Path) -> None:
    """Run every pair and write the record to ``out`` after each workload."""
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def describe(rev: str) -> str:
        return subprocess.run(["git", "log", "-1", "--format=%h %s", rev], cwd=ROOT,
                              check=True, capture_output=True, text=True).stdout.strip()

    record = {
        "description": (
            "Alternating parent/change pairs of `python3 benches/run.py --workload W --seed S "
            f"--trace T` (run length {spec['run_seconds']:g} s), each side run from its own "
            "clean copy of the sources made by `git archive`; pair i uses one seed for both "
            "sides and alternates which side runs first. `wins` counts pairs where the change "
            "reads lower (better) than the parent, `ties` equal readings; `median_change` is "
            "change median / parent median - 1. Lower is better for every metric. Written by "
            "`tools/bench_pairs.py`."),
        "parent": describe(revs["parent"]),
        "change": describe(revs["change"]),
        "machine": {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
            "note": "shared host; other containers run on the same machine",
        },
        "workloads": {},
    }
    for workload in WORKLOADS:
        seeds = [SEED_BASE[workload] + i for i in range(PAIRS)]
        runs = pairs(trees, workload, seeds, 0)
        entry = {
            "pairs": PAIRS,
            "seeds": seeds,
            "failed_over_attempted": {side: [[r["failed"], r["attempted"]] for r in runs[side]]
                                      for side in runs},
            "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
            "end_to_end": end_to_end(runs, bounds),
        }
        traced_seeds = [TRACED_SEED_BASE + i for i in range(TRACED_PAIRS)]
        entry["traced_per_layer"] = {
            "pairs": TRACED_PAIRS,
            "seeds": traced_seeds,
            "note": "per round of the timed pass; peak_alloc_mb is a maximum over calls",
            "metrics": per_layer(pairs(trees, workload, traced_seeds, 1)),
        }
        record["workloads"][workload] = entry
        out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
