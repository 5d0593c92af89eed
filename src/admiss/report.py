"""Criterion reports and the shared three-valued verdict heuristic.

A finite computation cannot certify boundedness over all intervals, so every
criterion evaluates its constant on a ladder of nested grid extensions and
reports one of three verdicts (``ladder_verdict``):

* ``unbounded-evidence``: the running constant grows monotonically across at
  least three successive ladder extensions, by a factor >= 1.2 each;
* ``bounded-evidence``: the constant is identical (to relative 1e-9) across
  the last two extensions;
* ``inconclusive`` otherwise.

There are two ladder shapes.  ``dyadic_levels`` cuts a sequence over dyadic
levels n at ``ladder_cuts``: running sups for the square criteria (C1-C3,
C5, C7, C8, controllability), running ell^s norms for C4 and the oracle's
dyadic kernel sequence.  ``nested_log_sup`` takes sups over nested log-span
windows of ``spectral_grid``: R1, R7 and the oracle's kernel sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CriterionReport",
    "ladder_report",
    "ladder_verdict",
    "ladder_cuts",
    "dyadic_levels",
    "log_space",
    "spectral_grid",
    "nested_log_sup",
    "GROWTH_FACTOR",
    "RUN_LENGTH",
    "BOUNDED",
    "UNBOUNDED",
    "INCONCLUSIVE",
    "NO_CHARACTERIZATION",
]

GROWTH_FACTOR = 1.2
RUN_LENGTH = 3
STABLE_RTOL = 1e-9
LADDER_LEVELS = 8
LOG_LEVELS = 4
BOUNDED = "bounded-evidence"
UNBOUNDED = "unbounded-evidence"
INCONCLUSIVE = "inconclusive"
NO_CHARACTERIZATION = "no characterization known"  # no registered theorem applies


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


def ladder_cuts(n_min: int, n_max: int) -> list[int]:
    """Nested upper cutoffs n_min + ceil(k * range / LADDER_LEVELS), k = 1..LADDER_LEVELS."""
    span = n_max - n_min
    return sorted({n_min + math.ceil(k * span / LADDER_LEVELS)
                   for k in range(1, LADDER_LEVELS + 1)})


def dyadic_levels(values, n_min: int, s: float | None = None) -> list[float]:
    """Running sup (``s`` None) or running ell^s norm at the ``ladder_cuts`` of
    a sequence indexed by n = n_min, n_min + 1, ..."""
    values = np.asarray(values)
    cuts = ladder_cuts(n_min, n_min + values.size - 1)
    if s is None:
        return [float(values[: cut - n_min + 1].max()) for cut in cuts]
    return [float((values[: cut - n_min + 1] ** s).sum() ** (1 / s)) for cut in cuts]


def log_space(lo: float, hi: float, per_decade: int) -> np.ndarray:
    """Geometric grid from lo to hi with at least per_decade points per
    decade (two points at least)."""
    count = max(2, int(math.ceil(math.log10(hi / lo) * per_decade)) + 1)
    return np.exp(np.linspace(math.log(lo), math.log(hi), count))


def spectral_grid(x: np.ndarray, per_decade: int) -> np.ndarray:
    """``log_space`` from min x / 100 to 100 max x over spectral abscissae x."""
    return log_space(x.min() / 100, x.max() * 100, per_decade)


def nested_log_sup(positions: np.ndarray, values: np.ndarray
                   ) -> tuple[list[float], float, int]:
    """Running sup of values over LOG_LEVELS nested log-span windows of the
    positions, expanding from the centre: (ladder levels, overall sup, index
    of the sup)."""
    logs = np.log(positions)
    center = (logs.min() + logs.max()) / 2
    half = (logs.max() - logs.min()) / 2 or 1.0
    out = []
    for j in range(1, LOG_LEVELS + 1):
        mask = np.abs(logs - center) <= half * j / LOG_LEVELS
        out.append(float(values[mask].max()) if mask.any() else 0.0)
    best = int(np.argmax(values))
    return out, float(values[best]), best


def ladder_verdict(level_constants, stable_rtol: float = STABLE_RTOL) -> str:
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
        if prev > 0 and cur > prev and cur / prev >= GROWTH_FACTOR:
            run += 1
            if run >= RUN_LENGTH:
                return UNBOUNDED
        else:
            run = 0
    last, penult = levels[-1], levels[-2]
    scale = max(abs(last), abs(penult))
    if scale == 0 or abs(last - penult) <= stable_rtol * scale:
        return BOUNDED
    return INCONCLUSIVE


def ladder_report(name: str, constant: float, witness: dict, levels: list[float],
                  stable_rtol: float = STABLE_RTOL, **diagnostics) -> CriterionReport:
    """A report whose verdict is read from its ladder levels, kept in its diagnostics."""
    return CriterionReport(name, constant, witness, ladder_verdict(levels, stable_rtol),
                           {"levels": levels, **diagnostics})
