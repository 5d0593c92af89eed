"""Compare the manifests of fixed ``admiss check`` and ``admiss sweep`` runs
between two checkouts.

    python3 tools/manifest_parity.py <checkout A> <checkout B>

Every run of ``ARGVS`` (heat1d at K = 10^3, 2 10^5 and 10^6; L^p, Sobolev,
powerL2 and weightedL2 spaces; grids -10:45 and -20:40) is made with
``--format json`` in one fresh interpreter per checkout that imports that
checkout's ``src/``.  Its stdout is the run's manifest; ``wall_clock``, the
one field that differs between reruns, is dropped before the manifests are
compared as text.  The script prints one line per run that differs or
exits differently, then the count of identical manifests and the largest
relative difference between two constants at the same place in both
manifests.  It exits 0 when every manifest is identical, else 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _argvs() -> list[list[str]]:
    argvs = []
    for modes in HEAT_MODES:
        system = json.dumps({"generator": "heat1d", "modes": modes})
        for grid in GRIDS:
            common = ["--system", system, f"--grid={grid}", "--format", "json"]
            argvs += [["check", *common, "--space", json.dumps(space)] for space in CHECK_SPACES]
            argvs += [["sweep", *common, "--space", json.dumps(space), "--param", param,
                       "--values", values] for space, param, values in SWEEPS]
    return argvs


ARGVS = _argvs()

# run in each checkout's interpreter: every argv's (exit code, stdout)
_RUNNER = """
import contextlib, io, json, sys
from admiss.cli import main
results = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
sys.stdout.write(json.dumps(results))
"""


def run_all(checkout: Path) -> list[tuple[int, dict]]:
    """(exit code, manifest without ``wall_clock``) of every argv in ``checkout``."""
    done = subprocess.run([sys.executable, "-c", _RUNNER], input=json.dumps(ARGVS),
                          env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                          cwd=checkout, check=True, capture_output=True, text=True)
    results = []
    for code, stdout in json.loads(done.stdout):
        manifest = json.loads(stdout)
        manifest.pop("wall_clock")
        results.append((code, manifest))
    return results


def constant_pairs(a, b):
    """(a, b) of every ``constant`` field found at the same place in both trees."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            if key == "constant" and isinstance(a[key], float) and isinstance(b[key], float):
                yield a[key], b[key]
            else:
                yield from constant_pairs(a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            yield from constant_pairs(x, y)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (run_all(Path(arg).resolve()) for arg in sys.argv[1:])
    identical, worst = 0, 0.0
    for argv, (code_a, man_a), (code_b, man_b) in zip(ARGVS, first, second):
        same = code_a == code_b and json.dumps(man_a, sort_keys=True) == json.dumps(
            man_b, sort_keys=True)
        identical += same
        for a, b in constant_pairs(man_a, man_b):
            if a != b:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        if not same:
            print(f"differs (exit {code_a} vs {code_b}): admiss {' '.join(argv)}")
    print(f"{identical} of {len(ARGVS)} manifests identical apart from wall_clock; "
          f"largest relative constant difference {worst:.3g}")
    return 0 if identical == len(ARGVS) else 1


if __name__ == "__main__":
    sys.exit(main())
