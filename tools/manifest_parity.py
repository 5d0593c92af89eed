"""Compare the manifests of fixed ``admiss check``, ``sweep`` and ``oracle``
runs between two checkouts.

    python3 tools/manifest_parity.py <checkout A> <checkout B>

The runs of ``ARGVS`` are heat1d ``check`` and ``sweep`` at K = 10^3,
2 10^5 and 10^6 (L^p, Sobolev, powerL2 and weightedL2 spaces; grids -10:45
and -20:40), the kernel-sums benchmark's ``check`` runs (weightedL2 hardy
and bergman:0.5 at K = 5 10^3, powerL2 alpha = 0.25 and 0.5 at K = 10^5),
``oracle`` runs at K = 10^4 (L^p p = 1.5 and 3, powerL2 alpha = 0.5,
weightedL2 hardy and bergman:0.5, Sobolev p = 2 and 3 at beta = 0.25),
heat1d runs whose ``--modes`` replaces the config's K = 10^6 (``check`` and
the L^p ``sweep`` over p at ``--modes 200000``, L^p p = 1.5 ``oracle`` at
``--modes 10000``), heat1d runs at K = 10^3 that seed quadratures
(``oracle --isometry`` for the ``ISOMETRY_PRESETS``, whose Zen norms break at
the poles' seeds, and a Sobolev p = 3 ``check``, whose C6 seeds the balayage
of a real measure), and ``check`` runs of two complex-stored spectra given
inline (``COMPLEX_SYSTEMS``) over spaces that run C1-C8, R1 and R7
(``COMPLEX_SPACES``), and ``check`` runs whose staggered squares rank their
bin keys (``RANKED_SYSTEMS``: bins too wide to count densely, and keys
y/|I| that overflow) over L^p p = 2 and weightedL2 hardy (C2 and C1).
Each is made with ``--format json`` in one fresh interpreter per checkout
that imports that checkout's ``src/``.  Its stdout is the run's manifest;
``wall_clock``, the one field that differs between reruns, is dropped.  The
interpreter also records whether the run called ``halfplane.kernel_sums`` on
a real-stored measure, the one call whose sums may round differently
between checkouts.

The script prints one line per run whose manifest or exit code differs,
marked ``FLIP`` when an exit code or a verdict differs, with the paths of
the keys that only the second manifest has (added) or only the first
(removed); then the count of identical manifests, of manifests identical
apart from added keys, of flips, and the largest relative difference between
two floats at the same place in two manifests.  Values are compared over the
keys both manifests have.  It exits 1 on any flip; on any removed key; on
any difference in a value of a run that called no real-measure kernel sum in
either checkout (those must be identical); and, in the other runs, on a
float more than ``FLOAT_RTOL`` apart or on any other value that differs (a
witness, a string, a list's length).  Else it exits 0, so a run that only
gains a key passes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HEAT_MODES = (1000, 200_000, 1_000_000)
GRIDS = ("-10:45", "-20:40")
CHECK_SPACES = (
    {"kind": "Lp", "p": 1.5},
    {"kind": "Lp", "p": 2},
    {"kind": "Lp", "p": 3},
    {"kind": "sobolev", "p": 2, "beta": 0.5},
    {"kind": "powerL2", "alpha": 0.5},
    {"kind": "weightedL2", "measure": "hardy"},
)
# (space, swept field, values); the p values cross the heat threshold 4/3
SWEEPS = (
    ({"kind": "Lp", "p": 2}, "p", "1.2,1.3,1.3333333333333333,1.4,1.5,2,3,4"),
    ({"kind": "sobolev", "p": 2, "beta": 0.5}, "beta", "0.25,0.5,1,2"),
)
# (modes, space) of the kernel-sums benchmark's ``check`` runs, on its grid
KERNEL_CHECKS = (
    (5_000, {"kind": "weightedL2", "measure": "hardy"}),
    (5_000, {"kind": "weightedL2", "measure": "bergman:0.5"}),
    (100_000, {"kind": "powerL2", "alpha": 0.25}),
    (100_000, {"kind": "powerL2", "alpha": 0.5}),
)
ORACLE_MODES = 10_000
# the config's K of the ``--modes`` runs, and the K that ``--modes`` gives
# ``check``/``sweep`` and ``oracle``
CONFIG_MODES, CHECK_OVERRIDE, ORACLE_OVERRIDE = 1_000_000, 200_000, ORACLE_MODES
ORACLE_SPACES = (
    {"kind": "Lp", "p": 1.5},
    {"kind": "Lp", "p": 3},
    {"kind": "powerL2", "alpha": 0.5},
    {"kind": "weightedL2", "measure": "hardy"},
    # every branch of the oracle's norm dispatch; at beta >= 1/2 no exponential
    # member has a finite Sobolev norm, so the mixtures would not run
    {"kind": "sobolev", "p": 2, "beta": 0.25},
    {"kind": "sobolev", "p": 3, "beta": 0.25},
    {"kind": "weightedL2", "measure": "bergman:0.5"},
)
# the isometry self-tests' weight presets, and a space whose C6 runs on
# heat1d's real measure
ISOMETRY_PRESETS = ("hardy", "bergman:1")
REAL_BALAYAGE_SPACE = {"kind": "sobolev", "p": 3, "beta": 0.5}
COMPLEX_SPACES = (
    {"kind": "Lp", "p": 1.5},
    {"kind": "Lp", "p": 2},
    {"kind": "Lp", "p": 3},
    {"kind": "weightedL2", "measure": "hardy"},
    {"kind": "powerL2", "alpha": 0.5},
    {"kind": "sobolev", "p": 2, "beta": 0.5},
    {"kind": "sobolev", "p": 3, "beta": 0.5},
)
# unit coefficients, q = 2, eigenvalues (re, im): one whose staggered bins
# span far more keys than atoms (Im lambda = +-1e6), and one whose keys
# y/|I| overflow to +-inf
RANKED_SYSTEMS = tuple({"eigenvalues": eigenvalues, "coeffs": [[1, 0]] * len(eigenvalues), "q": 2}
                       for eigenvalues in ([[-0.1, -1e6], [-0.2, 1e6], [-0.3, 0]],
                                           [[-1e-7, -1e303], [-1e-7, -1.5e303]]))
RANKED_SPACES = ({"kind": "Lp", "p": 2}, {"kind": "weightedL2", "measure": "hardy"})
# largest relative difference of two floats at the same place that passes,
# in a run that called a real-measure kernel sum
FLOAT_RTOL = 1e-13


def _argvs() -> list[list[str]]:
    argvs = []
    for modes in HEAT_MODES:
        system = json.dumps({"generator": "heat1d", "modes": modes})
        for grid in GRIDS:
            common = ["--system", system, f"--grid={grid}", "--format", "json"]
            argvs += [["check", *common, "--space", json.dumps(space)] for space in CHECK_SPACES]
            argvs += [["sweep", *common, "--space", json.dumps(space), "--param", param,
                       "--values", values] for space, param, values in SWEEPS]
    for modes, space in KERNEL_CHECKS:
        argvs.append(["check", "--system", json.dumps({"generator": "heat1d", "modes": modes}),
                      "--grid=-20:40", "--format", "json", "--space", json.dumps(space)])
    system = json.dumps({"generator": "heat1d", "modes": ORACLE_MODES})
    argvs += [["oracle", "--system", system, "--space", json.dumps(space), "--mix-size", "64",
               "--format", "json"] for space in ORACLE_SPACES]
    system = json.dumps({"generator": "heat1d", "modes": CONFIG_MODES})
    lp = json.dumps({"kind": "Lp", "p": 1.5})
    override = ["--system", system, "--format", "json", "--modes"]
    argvs += [["check", *override, str(CHECK_OVERRIDE), "--space", lp],
              ["sweep", *override, str(CHECK_OVERRIDE), "--space", json.dumps(SWEEPS[0][0]),
               "--param", SWEEPS[0][1], "--values", SWEEPS[0][2]],
              ["oracle", *override, str(ORACLE_OVERRIDE), "--space", lp, "--mix-size", "64"]]
    system = json.dumps({"generator": "heat1d", "modes": HEAT_MODES[0]})
    argvs += [["oracle", "--system", system, "--isometry", preset, "--format", "json"]
              for preset in ISOMETRY_PRESETS]
    argvs.append(["check", "--system", system, "--format", "json", "--space",
                  json.dumps(REAL_BALAYAGE_SPACE)])
    argvs += [["check", "--system", json.dumps(system), "--format", "json", "--space",
               json.dumps(space)] for system in COMPLEX_SYSTEMS for space in COMPLEX_SPACES]
    argvs += [["check", "--system", json.dumps(system), "--format", "json", "--space",
               json.dumps(space)] for system in RANKED_SYSTEMS for space in RANKED_SPACES]
    return argvs


def _complex_systems() -> list[dict]:
    """q = 2 systems whose measures are stored complex: 60 modes in the
    sector of half-angle pi/6 drawn as the acceptance tests draw theirs, and
    the Carleson-separated lambda_n = -2^n e^(i theta_n), n = 1..40, theta_n
    uniform in +-pi/4, |b_n|^2 = Re(-lambda_n) (the benchmark's
    ``separated_spectrum(40, 0)``)."""
    rng = np.random.default_rng(60)
    radius = 10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0), 60)
    z = radius * np.exp(1j * rng.uniform(-0.95, 0.95, 60) * (math.pi / 6))
    b = rng.uniform(0.5, 2.0, 60) * np.exp(1j * rng.uniform(0, 2 * math.pi, 60))
    rng = np.random.default_rng([7, 0])
    w = 2.0 ** np.arange(1, 41) * np.exp(1j * rng.uniform(-math.pi / 4, math.pi / 4, 40))
    c = np.sqrt(w.real) * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
    return [{"eigenvalues": [[v.real, v.imag] for v in (-atoms).tolist()],
             "coeffs": [[v.real, v.imag] for v in coeffs.tolist()], "q": 2}
            for atoms, coeffs in ((z, b), (w, c))]


COMPLEX_SYSTEMS = _complex_systems()
ARGVS = _argvs()

# run in each checkout's interpreter: every argv's (exit code, stdout,
# whether it called ``kernel_sums`` on a real-stored measure); the modules
# that import ``kernel_sums`` by name are pointed at the recording wrapper
_RUNNER = """
import contextlib, importlib, io, json, pkgutil, sys
import admiss
from admiss import halfplane
from admiss.cli import main
for info in pkgutil.iter_modules(admiss.__path__):  # cli imports some only when called
    importlib.import_module("admiss." + info.name)
summed, real = halfplane.kernel_sums, []
def kernel_sums(points, m, power):
    real.append(m.y is None)
    return summed(points, m, power)
for module in list(sys.modules.values()):
    if module.__name__.startswith("admiss") and getattr(module, "kernel_sums", None) is summed:
        module.kernel_sums = kernel_sums
results = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    real.clear()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue(), any(real)])
sys.stdout.write(json.dumps(results))
"""


def run_all(checkout: Path) -> list[tuple[int, dict, bool]]:
    """(exit code, manifest without ``wall_clock``, real-measure kernel sum
    called) of every argv in ``checkout``."""
    done = subprocess.run([sys.executable, "-c", _RUNNER], input=json.dumps(ARGVS),
                          env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                          cwd=checkout, check=True, capture_output=True, text=True)
    results = []
    for code, stdout, real in json.loads(done.stdout):
        manifest = json.loads(stdout)
        manifest.pop("wall_clock")
        results.append((code, manifest, real))
    return results


def drift(a, b) -> float:
    """Largest relative difference of two finite floats at the same place in
    both trees; inf where anything else differs."""
    if a == b:
        return 0.0
    if isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b):
        return abs(a - b) / max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max(drift(a[key], b[key]) for key in a)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max(map(drift, a, b))
    return math.inf


def field_pairs(a, b, name):
    """(a, b) of every field called ``name`` found at the same place in both trees."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            if key == name:
                yield a[key], b[key]
            else:
                yield from field_pairs(a[key], b[key], name)
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            yield from field_pairs(x, y, name)


def key_changes(a, b, path: str = "") -> tuple[list[str], list[str]]:
    """Paths of the keys that only b has (added) and that only a has
    (removed), in the dicts at the same place in both trees."""
    added, removed = [], []
    if isinstance(a, dict) and isinstance(b, dict):
        def at(key):
            return f"{path}.{key}" if path else key

        added += [at(key) for key in sorted(b.keys() - a.keys())]
        removed += [at(key) for key in sorted(a.keys() - b.keys())]
        pairs = [(at(key), a[key], b[key]) for key in sorted(a.keys() & b.keys())]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    else:
        pairs = []
    for where, x, y in pairs:
        more_added, more_removed = key_changes(x, y, where)
        added += more_added
        removed += more_removed
    return added, removed


def shared(a, b):
    """(a, b) without the keys that only one of them has, at every depth."""
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = {key: shared(a[key], b[key]) for key in a if key in b}
        return ({key: x for key, (x, _) in pairs.items()},
                {key: y for key, (_, y) in pairs.items()})
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [shared(x, y) for x, y in zip(a, b)]
        return [x for x, _ in pairs], [y for _, y in pairs]
    return a, b


def compare(argvs, first, second) -> tuple[list[str], int]:
    """The lines to print and the exit code for two checkouts' (exit code,
    manifest, real-measure kernel sum called) of every argv.

    A manifest that only gains keys, with every other value identical, reads
    "identical apart from added keys" and passes; a removed key fails, as a
    changed value does.
    """
    lines = []
    identical, gained, flips, failed, worst = 0, 0, 0, 0, 0.0
    for argv, (code_a, man_a, real_a), (code_b, man_b, real_b) in zip(argvs, first, second):
        if code_a == code_b and json.dumps(man_a, sort_keys=True) == json.dumps(man_b,
                                                                                sort_keys=True):
            identical += 1
            continue
        added, removed = key_changes(man_a, man_b)
        common_a, common_b = shared(man_a, man_b)
        same_values = (json.dumps(common_a, sort_keys=True)
                       == json.dumps(common_b, sort_keys=True))
        moved = 0.0 if same_values else drift(common_a, common_b)
        if moved < math.inf:
            worst = max(worst, moved)
        flip = code_a != code_b or any(a != b for a, b in field_pairs(man_a, man_b, "verdict"))
        flips += flip
        kernel = real_a or real_b
        fails = flip or bool(removed) or (moved > FLOAT_RTOL if kernel else not same_values)
        failed += fails
        only_added = not (fails or removed) and same_values and code_a == code_b
        gained += only_added
        kind = ("FLIP" if flip else "differs" if fails else
                "identical apart from added keys" if only_added else "drifts")
        keys = "".join(f"; {label} keys {', '.join(paths)}"
                       for label, paths in (("added", added), ("removed", removed)) if paths)
        lines.append(f"{kind} (exit {code_a} vs {code_b}, relative {moved:.3g}"
                     f"{'' if kernel else ', no real-measure kernel sum'}{keys}): "
                     f"admiss {' '.join(argv)}")
    lines.append(f"{identical} of {len(argvs)} manifests identical apart from wall_clock; "
                 f"{gained} identical apart from added keys; "
                 f"{flips} with an exit code or verdict flip; {failed} failing; "
                 f"largest relative float difference {worst:.3g}")
    return lines, 1 if failed else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (run_all(Path(arg).resolve()) for arg in sys.argv[1:])
    lines, code = compare(ARGVS, first, second)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
