"""The package runs on numpy alone: scipy is a test dependency only.

A fresh interpreter imports admiss and every submodule and answers one CLI
``check``; no scipy module may be loaded by then.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from admiss import halfplane

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import contextlib, importlib, io, json, pkgutil, sys
import admiss
for module in pkgutil.iter_modules(admiss.__path__):
    importlib.import_module(f"admiss.{module.name}")
from admiss.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["check", "--system", '{"generator": "heat1d", "modes": 100}',
                 "--space", '{"kind": "Lp", "p": 1.5}'])
print(json.dumps({"code": code, "file": admiss.__file__,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_import_and_cli_check_load_no_scipy():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert Path(result["file"]).resolve().parent == (SRC / "admiss").resolve()
    assert result["code"] == 0
    assert result["scipy"] == []
    # the benchmark's span tracer wraps this name, which is bound on first use
    assert callable(halfplane.quad)
