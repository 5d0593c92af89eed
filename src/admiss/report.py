"""Criterion reports and the shared three-valued verdict heuristic.

A finite computation cannot certify boundedness over all intervals, so every
criterion evaluates its constant on a ladder of nested grid (or truncation)
extensions and reports one of three verdicts:

* ``unbounded-evidence``: the running constant grows monotonically across at
  least three successive ladder extensions, by a factor >= 1.2 each;
* ``bounded-evidence``: the constant is identical (to relative 1e-9) across
  the last two extensions;
* ``inconclusive`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CriterionReport",
    "ladder_verdict",
    "ladder_cuts",
    "GROWTH_FACTOR",
    "RUN_LENGTH",
    "BOUNDED",
    "UNBOUNDED",
    "INCONCLUSIVE",
]

GROWTH_FACTOR = 1.2
RUN_LENGTH = 3
STABLE_RTOL = 1e-9
BOUNDED = "bounded-evidence"
UNBOUNDED = "unbounded-evidence"
INCONCLUSIVE = "inconclusive"


@dataclass
class CriterionReport:
    """Outcome of one criterion evaluation."""

    criterion: str
    constant: float
    witness: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "constant": _jsonable(self.constant),
            "witness": _jsonable(self.witness),
            "verdict": self.verdict,
            "diagnostics": _jsonable(self.diagnostics),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isinf(v) or math.isnan(v) else v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def ladder_cuts(n_min: int, n_max: int, levels: int = 8) -> list[int]:
    """Nested upper cutoffs n_min + ceil(k * range / levels), k = 1..levels."""
    span = n_max - n_min
    cuts = sorted({n_min + math.ceil(k * span / levels) for k in range(1, levels + 1)})
    return cuts


def ladder_verdict(level_constants, growth_factor: float = GROWTH_FACTOR,
                   run_length: int = RUN_LENGTH, stable_rtol: float = STABLE_RTOL) -> str:
    """Verdict from the constants observed on nested grid extensions.

    ``level_constants`` must be the running constants over nested grids, so
    the sequence is nondecreasing for sup-type criteria.  A step from zero to
    a positive value breaks a growth run rather than counting as growth.
    """
    levels = [float(c) for c in level_constants]
    if len(levels) < 2:
        return INCONCLUSIVE
    if any(math.isinf(c) for c in levels):
        return UNBOUNDED
    run = 0
    for prev, cur in zip(levels, levels[1:]):
        if prev > 0 and cur > prev and cur / prev >= growth_factor:
            run += 1
            if run >= run_length:
                return UNBOUNDED
        else:
            run = 0
    last, penult = levels[-1], levels[-2]
    scale = max(abs(last), abs(penult))
    if scale == 0 or abs(last - penult) <= stable_rtol * scale:
        return BOUNDED
    return INCONCLUSIVE
