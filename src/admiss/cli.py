"""Command-line front end: ``admiss check``, ``admiss sweep``, ``admiss oracle``.

Exit codes: 0 bounded-evidence consensus, 2 unbounded-evidence, 3 inconclusive
or mixed, 1 usage or parse error.  Every command honours ``--format`` and
``--out``, and every run writes (or prints) a manifest echoing all inputs,
digests, the grid and the seed (``null`` where the command takes no such
option), so reruns are byte-identical apart from the wall-clock field.
``sweep`` evaluates its values in order on the calling thread.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time

from admiss.criteria import (
    DEFAULT_N_RANGE,
    N_RANGE_BOUNDS,
    REGISTRY,
    dispatch,
    run_criterion,
)
from admiss.report import BOUNDED, UNBOUNDED, CriterionReport
from admiss.spaces import InputSpace, load_space
from admiss.system_model import DiagonalSystem, load_system
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
    # imported here: importlib.metadata costs every command about 16 ms
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("admiss")
    except PackageNotFoundError:
        return "unknown"


def _load_json_arg(arg: str) -> tuple[dict, dict]:
    """Inline JSON or a path to a JSON file; returns (config, manifest entry)."""
    stripped = arg.strip()
    if stripped.startswith("{"):
        config = json.loads(stripped)
        digest = hashlib.sha256(stripped.encode()).hexdigest()
        return config, {"inline": True, "sha256": digest}
    with open(arg, "rb") as fh:
        data = fh.read()  # one read: the digest is of the bytes parsed
    config = json.loads(data)
    if not isinstance(config, dict):
        raise ValueError(f"{arg} must hold a JSON object")
    return config, {"path": arg, "sha256": hashlib.sha256(data).hexdigest()}


def _parse_grid(text: str) -> tuple[int, int]:
    """``N_MIN:N_MAX``; argparse shows an ``ArgumentTypeError``'s message,
    where a ``ValueError`` only reads "invalid value"."""
    lo, _, hi = text.partition(":")
    try:
        n_min, n_max = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N_MIN:N_MAX, got {text!r}") from None
    if n_min > n_max:
        raise argparse.ArgumentTypeError(f"empty grid range {text!r}")
    if n_min < N_RANGE_BOUNDS[0] or n_max > N_RANGE_BOUNDS[1]:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} outside [{N_RANGE_BOUNDS[0]}, {N_RANGE_BOUNDS[1]}], where 2^n overflows")
    return n_min, n_max


def _evaluate(system: DiagonalSystem, space: InputSpace, criterion: str,
              grid) -> list[CriterionReport]:
    """Every applicable criterion and the summary (``auto``), or the one named."""
    if criterion == "auto":
        return dispatch(system, space, n_range=grid)
    return [run_criterion(criterion, system, space, grid)]


def _manifest(args, inputs: dict, reports: list[CriterionReport], extra: dict) -> dict:
    return {
        "tool_version": _tool_version(),
        "command": args.command,
        "inputs": inputs,
        "grid": getattr(args, "grid", None),
        "seed": getattr(args, "seed", None),
        "modes": getattr(args, "modes", None),
        "wall_clock": time.time(),
        "reports": [r.to_json() for r in reports],
        **extra,
    }


def _format_constant(c: float) -> str:
    if math.isnan(c):
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


def _write(path: str | None, text: str) -> None:
    """The one ``--out`` write; no path, no file."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _emit(manifest: dict, reports: list[CriterionReport], fmt: str, out_path: str | None) -> None:
    payload = _to_json(manifest)
    _write(out_path, payload + "\n")
    if fmt == "json":
        print(payload)
    elif fmt == "table":
        print(_render_table(reports))
    elif fmt == "csv":
        rows = [(r.criterion, _format_constant(r.constant), r.verdict) for r in reports]
        print(_csv([("criterion", "constant", "verdict"), *rows]), end="")


def _load_system_arg(args) -> tuple[DiagonalSystem, dict]:
    config, entry = _load_json_arg(args.system)
    return load_system(config, args.modes), entry


def cmd_check(args) -> int:
    system, system_entry = _load_system_arg(args)
    space_config, space_entry = _load_json_arg(args.space)
    space = load_space(space_config)
    reports = _evaluate(system, space, args.criterion, args.grid)
    manifest = _manifest(args, {"system": system_entry, "space": space_entry}, reports,
                         {"criterion": args.criterion})
    _emit(manifest, reports, args.format, args.out)
    # the last report is dispatch's summary or the single criterion's own
    return _VERDICT_EXIT.get(reports[-1].verdict, EXIT_INCONCLUSIVE)


def _sweep_row(system, space_config, param, value, criterion, grid):
    config = dict(space_config)
    config[param] = value
    try:
        reports = _evaluate(system, load_space(config), criterion, grid)
    except (ValueError, KeyError) as exc:
        return [(value, "error", "-", f"error: {exc}")], []
    rows = [(value, r.criterion, _format_constant(r.constant), r.verdict)
            for r in reports if r.criterion not in ("summary", "none")]
    if not rows:
        rows = [(value, "none", "-", reports[-1].verdict)]
    return rows, [r.to_json() for r in reports]


def cmd_sweep(args) -> int:
    system, system_entry = _load_system_arg(args)
    space_config, space_entry = _load_json_arg(args.space)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("empty sweep range")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"sweep values must be finite, got {args.values!r}")
    results = [_sweep_row(system, space_config, args.param, v, args.criterion, args.grid)
               for v in values]

    rows = [row for row_group, _ in results for row in row_group]
    all_reports = {str(v): reps for v, (_, reps) in zip(values, results)}
    csv_text = _csv([("param", "criterion", "constant", "verdict"), *rows])

    manifest = _manifest(args, {"system": system_entry, "space": space_entry}, [],
                         {"param": args.param, "values": values, "criterion": args.criterion,
                          "reports": all_reports})
    if args.out:
        _write(args.out, csv_text)
        _write(args.out + ".manifest.json", _to_json(manifest) + "\n")
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
    # imported here: check and sweep never need the oracle's 11 ms import
    from admiss.laplace_oracle import (
        TestFunction,
        _isometry,
        empirical_ratio,
        kernel_condition_sweep,
    )

    system, system_entry = _load_system_arg(args)
    inputs: dict = {"system": system_entry}
    if args.isometry:
        zen = load_radial_measure(args.isometry)
        # (mismatch, relative error bound) of the worst member
        worst, abserr = max(_isometry(zen, TestFunction.poly_exp(n, 1.0)) for n in range(2, 7))
        reports = [CriterionReport(
            "isometry", worst, {}, "pass" if worst < 1e-6 else "fail",
            {"preset": args.isometry, "dictionary": "poly_exp N=2..6, lam=1",
             "relative_abserr": abserr})]
        extra = {"mode": "isometry"}
    elif args.space is None:
        raise ValueError("oracle needs --space or --isometry")
    else:
        space_config, inputs["space"] = _load_json_arg(args.space)
        space = load_space(space_config)
        diagnostics = {"family_size": args.mix_size, "seed": args.seed}
        lower = empirical_ratio(system, space, args.mix_size, args.seed, diagnostics)
        if not diagnostics["members_used"]:
            diagnostics["note"] = "no dictionary member has a finite norm: 0 bounds nothing"
        reports = [CriterionReport("empirical-lower-bound", lower, {}, "lower-bound", diagnostics),
                   kernel_condition_sweep(system, space)]
        extra = {"mix_size": args.mix_size}
    _emit(_manifest(args, inputs, reports, extra), reports, args.format, args.out)
    # a failed isometry self-test is the only oracle outcome that is not exit 0
    return EXIT_INCONCLUSIVE if reports[0].verdict == "fail" else EXIT_BOUNDED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admiss",
        description="Admissibility and controllability tests for diagonal semigroup systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle=False, formats=("json", "table", "csv")):
        p.add_argument("--system", required=True, help="system JSON file or inline JSON")
        p.add_argument("--space", required=not oracle, help="space JSON file or inline JSON")
        if not oracle:
            p.add_argument("--criterion", default="auto", choices=["auto", *REGISTRY])
            p.add_argument("--grid", type=_parse_grid, default=DEFAULT_N_RANGE,
                           metavar="N_MIN:N_MAX")
        p.add_argument("--modes", type=int, default=None,
                       help="override the mode truncation K")
        p.add_argument("--out", default=None, help="write the manifest (or CSV) here")
        # the second format is the default: table, or csv for sweep
        p.add_argument("--format", default=formats[1], choices=formats)

    p_check = sub.add_parser("check", help="evaluate admissibility criteria")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="sweep a space parameter")
    common(p_sweep, formats=("json", "csv"))
    p_sweep.add_argument("--param", required=True, help="space config key to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="embedding lower bounds and self-tests")
    common(p_oracle, oracle=True)
    p_oracle.add_argument("--mix-size", type=int, default=16, metavar="M")
    p_oracle.add_argument("--seed", type=int, default=0,
                          help="seed of the random --mix-size family")
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
