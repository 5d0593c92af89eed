"""``tools/manifest_parity.py`` tells added and removed keys from changed
values: a manifest that only gains a key passes, one whose value changed
or whose verdict flipped fails."""

import copy
import importlib.util
from pathlib import Path

PARITY_PATH = Path(__file__).resolve().parent.parent / "tools" / "manifest_parity.py"

BASE = {
    "tool_version": "unknown",
    "reports": [{"criterion": "C3", "constant": 1.5, "verdict": "bounded-evidence",
                 "diagnostics": {"levels": [1.0, 1.5]}}],
}


def _load_parity():
    spec = importlib.util.spec_from_file_location("manifest_parity", PARITY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _variant(edit):
    manifest = copy.deepcopy(BASE)
    edit(manifest)
    return manifest


def test_added_key_passes_and_a_changed_value_or_removed_key_fails():
    parity = _load_parity()
    gained = _variant(lambda m: m["reports"][0]["diagnostics"].update(members_used=3))
    changed = _variant(lambda m: m["reports"][0].update(constant=1.25))
    lost = _variant(lambda m: m.pop("tool_version"))
    flipped = _variant(lambda m: m["reports"][0].update(verdict="unbounded-evidence"))
    argv = ["check", "--system", "{}"]

    lines, code = parity.compare([argv, argv], [(0, BASE, False)] * 2,
                                 [(0, BASE, False), (0, gained, False)])
    assert code == 0
    assert lines[0] == ("identical apart from added keys (exit 0 vs 0, relative 0, no "
                        "real-measure kernel sum; added keys "
                        "reports[0].diagnostics.members_used): admiss check --system {}")
    assert lines[-1].startswith("1 of 2 manifests identical apart from wall_clock; "
                                "1 identical apart from added keys; 0 with an exit code or "
                                "verdict flip; 0 failing")

    for other, kind in ((changed, "differs"), (lost, "differs"), (flipped, "FLIP")):
        for real in (False, True):
            lines, code = parity.compare([argv], [(0, BASE, real)], [(0, other, real)])
            assert code == 1 and lines[0].startswith(kind), (other, real, lines)
    # a gained key beside a changed value still fails, and names the key
    both = _variant(lambda m: m["reports"][0].update(constant=1.25, members_used=3))
    lines, code = parity.compare([argv], [(0, BASE, False)], [(0, both, False)])
    assert code == 1 and "added keys reports[0].members_used" in lines[0]
    # an exit code that differs is a flip, though the manifests agree
    lines, code = parity.compare([argv], [(0, BASE, False)], [(2, gained, False)])
    assert code == 1 and lines[0].startswith("FLIP")
    assert parity.key_changes(BASE, lost) == ([], ["tool_version"])
