"""Command-line front end: ``admiss check``, ``admiss sweep``, ``admiss oracle``.

Exit codes: 0 bounded-evidence consensus, 2 unbounded-evidence, 3 inconclusive
or mixed, 1 usage or parse error.  Every run writes (or prints) a manifest
echoing all inputs, digests, grids, and seeds, so reruns are byte-identical
apart from the wall-clock field.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from importlib.metadata import PackageNotFoundError, version

from admiss.criteria import (
    DEFAULT_N_RANGE,
    c1_zen_carleson,
    c2_power_square,
    c4_strip_summability,
    c5_sobolev_square,
    c6_sobolev_balayage,
    c7_halfsquare,
    c8_shifted_carleson,
    dispatch,
    r1_resolvent,
    r7_fractional_resolvent,
)
from admiss.laplace_oracle import (
    TestFunction,
    empirical_ratio,
    isometry_check,
    kernel_condition_sweep,
)
from admiss.report import BOUNDED, INCONCLUSIVE, UNBOUNDED, CriterionReport
from admiss.spaces import InputSpace, load_space
from admiss.system_model import DiagonalSystem, load_system, spectral_measure
from admiss.zen_weight import load_radial_measure

EXIT_BOUNDED = 0
EXIT_USAGE = 1
EXIT_UNBOUNDED = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    BOUNDED: EXIT_BOUNDED,
    UNBOUNDED: EXIT_UNBOUNDED,
}


def _tool_version() -> str:
    try:
        return version("admiss")
    except PackageNotFoundError:
        return "unknown"


def _sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json_arg(arg: str) -> tuple[dict, dict]:
    """Inline JSON or a path to a JSON file; returns (config, manifest entry)."""
    stripped = arg.strip()
    if stripped.startswith("{"):
        config = json.loads(stripped)
        digest = hashlib.sha256(stripped.encode()).hexdigest()
        return config, {"inline": True, "sha256": digest}
    with open(arg) as fh:
        config = json.load(fh)
    return config, {"path": arg, "sha256": _sha256_of(arg)}


def _parse_grid(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    n_min, n_max = int(lo), int(hi)
    if n_min > n_max:
        raise ValueError(f"empty grid range {text!r}")
    return n_min, n_max


def _thread_count() -> int:
    raw = os.environ.get("ADMISS_THREADS")
    if raw is None:
        return min(8, os.cpu_count() or 1)
    count = int(raw)
    if count < 1:
        raise ValueError("ADMISS_THREADS must be a positive integer")
    return count


def _run_single_criterion(name: str, system: DiagonalSystem, space: InputSpace,
                          n_range) -> list[CriterionReport]:
    mu = spectral_measure(system)
    if name == "C1":
        return [c1_zen_carleson(mu, _require(space, "weightedL2").measure, n_range)]
    if name == "R1":
        return [r1_resolvent(system, _require(space, "weightedL2").measure)]
    if name in ("C2", "C3"):
        sp = _require(space, "Lp")
        return [c2_power_square(mu, sp.p, system.q, symmetric_only=name == "C3",
                                n_range=n_range)]
    if name == "C4":
        sp = _require(space, "Lp")
        return [c4_strip_summability(mu, sp.p, system.q, n_range=n_range)]
    if name == "C5":
        sp = _require(space, "sobolev")
        return [c5_sobolev_square(mu, sp.p, system.q, sp.beta, n_range=n_range)]
    if name == "C6":
        sp = _require(space, "sobolev")
        return [c6_sobolev_balayage(mu, sp.p, system.q, sp.beta)]
    if name == "C7":
        return [c7_halfsquare(mu, _require(space, "powerL2").alpha, n_range=n_range)]
    if name == "R7":
        return [r7_fractional_resolvent(system, _require(space, "powerL2").alpha)]
    if name == "C8":
        return [c8_shifted_carleson(mu, _require(space, "sobolev").beta, n_range=n_range)]
    raise ValueError(f"unknown criterion {name!r}")


def _require(space: InputSpace, kind: str) -> InputSpace:
    if space.kind != kind:
        raise ValueError(f"criterion applies to {kind} spaces, got {space.kind}")
    return space


def _combined_verdict(reports: list[CriterionReport]) -> str:
    for r in reports:
        if r.criterion == "summary":
            return r.verdict
    verdicts = {r.verdict for r in reports}
    if UNBOUNDED in verdicts:
        return UNBOUNDED
    if verdicts == {BOUNDED}:
        return BOUNDED
    return INCONCLUSIVE


def _manifest(args, inputs: dict, reports: list[CriterionReport], extra: dict | None = None) -> dict:
    out = {
        "tool_version": _tool_version(),
        "command": args.command,
        "inputs": inputs,
        "grid": list(getattr(args, "grid", DEFAULT_N_RANGE)),
        "seed": getattr(args, "seed", None),
        "modes": getattr(args, "modes", None),
        "wall_clock": time.time(),
        "reports": [r.to_json() for r in reports],
    }
    if extra:
        out.update(extra)
    return out


def _format_constant(c: float) -> str:
    if c is None or (isinstance(c, float) and math.isnan(c)):
        return "-"
    if math.isinf(c):
        return "inf"
    return f"{c:.6g}"


def _render_table(reports: list[CriterionReport]) -> str:
    rows = [("criterion", "constant", "witness", "verdict")]
    for r in reports:
        witness = json.dumps(r.to_json()["witness"], sort_keys=True) if r.witness else "-"
        rows.append((r.criterion, _format_constant(r.constant), witness, r.verdict))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def _to_json(manifest: dict) -> str:
    """Strict JSON: a non-finite float raises instead of printing NaN/Infinity."""
    return json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False)


def _emit(manifest: dict, reports: list[CriterionReport], fmt: str, out_path: str | None) -> None:
    payload = _to_json(manifest)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
    if fmt == "json":
        print(payload)
    elif fmt == "table":
        print(_render_table(reports))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["criterion", "constant", "verdict"])
        for r in reports:
            writer.writerow([r.criterion, _format_constant(r.constant), r.verdict])
        print(buf.getvalue(), end="")


def _load_system_arg(args) -> tuple[DiagonalSystem, dict]:
    config, entry = _load_json_arg(args.system)
    system = load_system(config)
    if args.modes is not None:
        system = system.with_modes(args.modes)
    return system, entry


def cmd_check(args) -> int:
    system, system_entry = _load_system_arg(args)
    space_config, space_entry = _load_json_arg(args.space)
    space = load_space(space_config)
    if args.criterion == "auto":
        reports = dispatch(system, space, n_range=args.grid)
    else:
        reports = _run_single_criterion(args.criterion, system, space, args.grid)
    manifest = _manifest(args, {"system": system_entry, "space": space_entry}, reports,
                         {"criterion": args.criterion})
    _emit(manifest, reports, args.format, args.out)
    verdict = _combined_verdict(reports)
    return _VERDICT_EXIT.get(verdict, EXIT_INCONCLUSIVE)


def _sweep_row(system, space_config, param, value, criterion, grid):
    config = dict(space_config)
    config[param] = value
    try:
        space = load_space(config)
        if criterion == "auto":
            reports = dispatch(system, space, n_range=grid)
        else:
            reports = _run_single_criterion(criterion, system, space, grid)
    except (ValueError, KeyError) as exc:
        return [(value, "error", "-", f"error: {exc}")], []
    rows = [(value, r.criterion, _format_constant(r.constant), r.verdict)
            for r in reports if r.criterion not in ("summary", "none")]
    if not rows:
        rows = [(value, "none", "-", _combined_verdict(reports))]
    return rows, [r.to_json() for r in reports]


def cmd_sweep(args) -> int:
    system, system_entry = _load_system_arg(args)
    space_config, space_entry = _load_json_arg(args.space)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("empty sweep range")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"sweep values must be finite, got {args.values!r}")
    with concurrent.futures.ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        results = list(pool.map(
            lambda v: _sweep_row(system, space_config, args.param, v, args.criterion, args.grid),
            values))

    rows = [row for row_group, _ in results for row in row_group]
    all_reports = {str(v): reps for v, (_, reps) in zip(values, results)}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["param", "criterion", "constant", "verdict"])
    for row in rows:
        writer.writerow(row)
    csv_text = buf.getvalue()

    manifest = {
        "tool_version": _tool_version(),
        "command": "sweep",
        "inputs": {"system": system_entry, "space": space_entry},
        "param": args.param,
        "values": values,
        "criterion": args.criterion,
        "grid": list(args.grid),
        "seed": args.seed,
        "modes": args.modes,
        "wall_clock": time.time(),
        "reports": all_reports,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        manifest_path = args.out + ".manifest.json"
        with open(manifest_path, "w") as fh:
            fh.write(_to_json(manifest) + "\n")
    if args.format == "json":
        print(_to_json(manifest))
    else:
        print(csv_text, end="")

    verdicts = {row[3] for row in rows}
    if any(v.startswith("error") for v in verdicts):
        return EXIT_INCONCLUSIVE
    if UNBOUNDED in verdicts and BOUNDED in verdicts:
        return EXIT_INCONCLUSIVE
    if verdicts == {BOUNDED}:
        return EXIT_BOUNDED
    if UNBOUNDED in verdicts:
        return EXIT_UNBOUNDED
    return EXIT_INCONCLUSIVE


def cmd_oracle(args) -> int:
    system, system_entry = _load_system_arg(args)
    inputs: dict = {"system": system_entry}
    reports: list[CriterionReport] = []

    if args.isometry:
        zen = load_radial_measure(args.isometry)
        worst = max(isometry_check(zen, TestFunction.poly_exp(n, 1.0))
                    for n in range(2, 7))
        reports.append(CriterionReport(
            "isometry", worst, {}, "pass" if worst < 1e-6 else "fail",
            {"preset": args.isometry, "dictionary": "poly_exp N=2..6, lam=1"}))
        print(f"isometry self-test ({args.isometry}): max relative error {worst:.3e}")
        manifest = _manifest(args, inputs, reports, {"mode": "isometry"})
        _emit_manifest_only(manifest, args.out)
        return EXIT_BOUNDED if worst < 1e-6 else EXIT_INCONCLUSIVE

    space_config, space_entry = _load_json_arg(args.space)
    inputs["space"] = space_entry
    space = load_space(space_config)
    lower = empirical_ratio(system, space, args.mix_size, args.seed)
    sweep_report = kernel_condition_sweep(system, space)
    reports = [
        CriterionReport("empirical-lower-bound", lower, {}, "lower-bound",
                        {"family_size": args.mix_size, "seed": args.seed}),
        sweep_report,
    ]
    manifest = _manifest(args, inputs, reports, {"mix_size": args.mix_size})
    _emit(manifest, reports, args.format, args.out)
    return EXIT_BOUNDED


def _emit_manifest_only(manifest: dict, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(_to_json(manifest) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admiss",
        description="Admissibility and controllability tests for diagonal semigroup systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space_required=True):
        p.add_argument("--system", required=True, help="system JSON file or inline JSON")
        p.add_argument("--space", required=space_required, help="space JSON file or inline JSON")
        p.add_argument("--criterion", default="auto",
                       choices=["auto", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
                                "R1", "R7"])
        p.add_argument("--grid", type=_parse_grid, default=DEFAULT_N_RANGE,
                       metavar="N_MIN:N_MAX")
        p.add_argument("--modes", type=int, default=None,
                       help="override the mode truncation K")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the manifest (or CSV) here")
        p.add_argument("--format", default="table", choices=["json", "table", "csv"])

    p_check = sub.add_parser("check", help="evaluate admissibility criteria")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="sweep a space parameter")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="space config key to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="embedding lower bounds and self-tests")
    common(p_oracle, space_required=False)
    p_oracle.add_argument("--mix-size", type=int, default=16, metavar="M")
    p_oracle.add_argument("--isometry", default=None, metavar="PRESET",
                          help="run the quadrature isometry self-test for a weight preset")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
