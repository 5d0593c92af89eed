"""Admissibility criteria C1-C8 and the resolvent forms R1, R7.

Every criterion evaluates a supremum (or sequence norm) over a finite dyadic
family, reports the constant, a witness, and a three-valued verdict produced
by the shared grid-extension ladder (see ``admiss.report``).  Exponent ranges
are enforced strictly: a criterion refuses inputs outside the hypotheses of
the theorem it implements rather than extrapolating.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from admiss.halfplane import balayage_norm, dyadic_index, kernel_sums, strip_masses
from admiss.report import (
    BOUNDED,
    INCONCLUSIVE,
    NO_CHARACTERIZATION,
    UNBOUNDED,
    CriterionReport,
    dyadic_levels,
    ladder_report,
    nested_log_sup,
    spectral_grid,
)
from admiss.spaces import InputSpace, dual_space
from admiss.system_model import (
    AtomicMeasure,
    DiagonalSystem,
    dual_system,
    max_sector_angle,
    spectral_measure,
)
from admiss.zen_weight import RadialMeasure, nu_square_mass, weight

__all__ = [
    "c1_zen_carleson",
    "r1_resolvent",
    "resolvent_ratio",
    "fractional_resolvent_ratio",
    "c2_power_square",
    "c4_strip_summability",
    "c5_sobolev_square",
    "c6_sobolev_balayage",
    "c7_halfsquare",
    "r7_fractional_resolvent",
    "c8_shifted_carleson",
    "Criterion",
    "REGISTRY",
    "run_criterion",
    "dispatch",
    "observation_dispatch",
    "DEFAULT_N_RANGE",
    "N_RANGE_BOUNDS",
]

DEFAULT_N_RANGE = (-20, 40)
# the dyadic lengths 2^n of a grid stay finite, normal floats
N_RANGE_BOUNDS = (-1022, 1023)
R1_POINTS_PER_DECADE = 8
R7_POINTS_PER_DECADE = 10


def _square_family_sup(m: AtomicMeasure, denom_of_length, n_range, symmetric: bool,
                       part: str = "full") -> tuple[list[float], float, dict, list[float]]:
    """Sup of mu(region)/denom(|I|) over the dyadic square family.

    Symmetric families test the single centred interval per dyadic length;
    otherwise two staggered phases of dyadic translates are tested (any
    interval is then contained in a tested one of at most 4x its length).
    Membership is half-open: 0 <= x < |I| (|I|/2 <= x for the right half, a
    symmetric family only) and y_lo <= y < y_hi.  Every length is a power of
    two, so an atom's level is read exactly from the binary exponent of its
    coordinates (``dyadic_index``), never by a search.  Returns (ladder
    levels, constant, witness, per-n best ratios).  A range outside
    ``N_RANGE_BOUNDS`` raises ValueError: above it 2^n overflows, below it
    a square shrinks to length 0.
    """
    n_min, n_max = n_range
    if n_min < N_RANGE_BOUNDS[0] or n_max > N_RANGE_BOUNDS[1]:
        raise ValueError(f"n_range {tuple(n_range)} outside [{N_RANGE_BOUNDS[0]}, "
                         f"{N_RANGE_BOUNDS[1]}], where 2^n overflows or underflows")
    ns = range(n_min, n_max + 1)
    lengths = [2.0**n for n in ns]
    denoms = [denom_of_length(length) for length in lengths]
    if symmetric:
        per_n, witnesses = _symmetric_level_sups(m, ns, lengths, denoms, part)
    elif part == "full":
        per_n, witnesses = _staggered_level_sups(m, ns, lengths, denoms)
    else:
        raise ValueError(f"staggered square families test full squares only, got {part!r}")
    best = int(np.argmax(per_n))
    return dyadic_levels(per_n, n_min), float(per_n[best]), witnesses[best] or {}, per_n


def _square_report(name: str, m: AtomicMeasure, denom_of_length, n_range, symmetric: bool,
                   part: str = "full", **diagnostics) -> CriterionReport:
    """``_square_family_sup`` read on its dyadic ladder."""
    levels, constant, witness, _ = _square_family_sup(m, denom_of_length, n_range, symmetric,
                                                      part)
    return ladder_report(name, constant, witness, levels, n_range=list(n_range), **diagnostics)


def _symmetric_level_sups(m: AtomicMeasure, ns, lengths: list[float], denoms, part: str):
    """Ratio and witness per dyadic length for the centred square (or its
    right half).

    Each atom is placed once at the index of the level it belongs to: the
    first n with x < 2^n, and the first with -y <= 2^(n-1) and y < 2^(n-1),
    each read from a binary exponent by ``dyadic_index``.  The full squares
    are nested, so an atom lies in every square from its entry level on (a
    cumulative sum); the right halves are disjoint in x, so an atom lies in
    at most one.  On a real measure every atom enters the centred intervals
    at the lowest level, so only x is read.
    """
    n_min, count = ns.start, len(ns)
    x, y = m.x, m.y
    x_level = dyadic_index(x, n_min, count, strict=True)
    if y is not None:
        y_entry = np.maximum(dyadic_index(-y, n_min - 1, count, strict=False),
                             dyadic_index(y, n_min - 1, count, strict=True))
    if part == "right_half":
        # x < |I| at x_level, and |I|/2 <= x there: x_level > 0 means
        # x >= 2^n_min, so only the lowest level needs the test
        inside = x >= lengths[0] / 2
        if y is not None:
            inside &= y_entry <= x_level
        level = np.where(inside, x_level, count)
    else:
        level = x_level if y is None else np.maximum(x_level, y_entry, out=x_level)
    masses = np.bincount(level, weights=m.masses, minlength=count + 1)[:-1]
    if part != "right_half":
        masses = np.cumsum(masses)
    per_n, witnesses = [], []
    for n, length, denom, mass in zip(ns, lengths, denoms, masses.tolist()):
        positive = mass > 0
        per_n.append((math.inf if denom == 0 else mass / denom) if positive else 0.0)
        witnesses.append({"n": n, "interval": [-length / 2, length / 2]} if positive else None)
    return per_n, witnesses


def _staggered_level_sups(m: AtomicMeasure, ns, lengths: list[float], denoms):
    """Best ratio and witness per dyadic length over two staggered phases of
    dyadic translates.

    Atoms are sorted by x once, so the atoms with x < |I| are a prefix of that
    order (found by ``searchsorted``).  A measure already sorted by x, as a
    heat spectrum is, is read in place: a stable sort would leave it as it
    is.  The phase bins floor(y/|I| - phase) are monotone in y: when the
    lowest and the highest y of a prefix (running min and max) share a bin,
    every atom of the prefix lies in it, and its mass is the prefix sum,
    which adds the same masses in the same order as ``bincount`` would.
    Only the other levels bin their atoms (``_heaviest_bin``).  On a real
    measure every prefix lies in bin 0 of phase 0 and bin -1 of phase 1/2,
    so no y is read.
    """
    if (m.x[1:] >= m.x[:-1]).all():
        order, xs, ms = slice(None), m.x, m.masses
    else:
        order = np.argsort(m.x, kind="stable")
        xs = m.x[order]
        ms = m.masses[order]
    hi = np.searchsorted(xs, lengths, side="left")
    filled = np.flatnonzero(hi)  # the levels with atoms
    tops = hi[filled] - 1  # the last atom of each of their prefixes
    totals = np.cumsum(ms)[tops].tolist()
    # per phase and filled level: the one bin of all its atoms, or None
    if m.y is None:
        ys = None
        one_bin = {0.0: [0] * filled.size, 0.5: [-1] * filled.size}
    else:
        ys = m.y[order]
        scale = np.array(lengths)[filled]
        y_low = np.minimum.accumulate(ys)[tops] / scale
        y_high = np.maximum.accumulate(ys)[tops] / scale
        one_bin = {}
        for phase in (0.0, 0.5):
            low, high = np.floor(y_low - phase), np.floor(y_high - phase)
            one_bin[phase] = [k if same else None for k, same in
                              zip(low.astype(np.int64).tolist(), (low == high).tolist())]
    per_n, witnesses = [0.0] * len(lengths), [None] * len(lengths)
    for i, j in enumerate(filled.tolist()):
        n, length, denom, b = ns[j], lengths[j], denoms[j], hi[j]
        for phase in (0.0, 0.5):
            k_bin, mass = one_bin[phase][i], totals[i]
            if k_bin is None:
                bins = np.floor(ys[:b] / length - phase).astype(np.int64)
                k_bin, mass = _heaviest_bin(bins, ms[:b])
            if mass > 0:
                ratio = math.inf if denom == 0 else mass / denom
                if ratio > per_n[j]:
                    per_n[j] = ratio
                    lo_y = (k_bin + phase) * length
                    witnesses[j] = {"n": n, "interval": [lo_y, lo_y + length]}
    return per_n, witnesses


def _heaviest_bin(bins: np.ndarray, weights: np.ndarray) -> tuple[int, float]:
    """(bin, total weight) of the heaviest bin, the lowest bin on ties."""
    b_min = int(bins.min())
    span = int(bins.max()) - b_min + 1
    if span <= 4 * bins.size + 64:
        sums = np.bincount(bins - b_min, weights=weights, minlength=span)
        k = int(np.argmax(sums))
        return b_min + k, float(sums[k])
    uniq, inv = np.unique(bins, return_inverse=True)
    sums = np.bincount(inv, weights=weights)
    k = int(np.argmax(sums))
    return int(uniq[k]), float(sums[k])


def c1_zen_carleson(m: AtomicMeasure, zen: RadialMeasure,
                    n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Zen Carleson criterion: sup of mu(Q_I) / nu(Q_I) over dyadic squares."""
    weight(zen)  # validates the doubling condition
    return _square_report("C1", m, lambda length: nu_square_mass(zen, length), n_range,
                          symmetric=False)


def r1_resolvent(sys: DiagonalSystem, zen: RadialMeasure,
                 resolvent_power: int | None = None) -> CriterionReport:
    """Resolvent criterion for weighted L^2 admissibility (Hilbert case):
    sup over lambda of sum_k |lambda - lambda_k|^(-2N) |b_k|^2 divided by the
    kernel moment of the weight."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R1 is stated for q = 2")
    wf = weight(zen)
    n_res = wf.resolvent_power() if resolvent_power is None else resolvent_power
    if n_res < 1 or math.isinf(wf.poly_exp_moment(2 * n_res - 2, 1.0)):
        raise ValueError("kernel moment diverges for this weight: increase N")

    mu = spectral_measure(sys)
    re_grid = spectral_grid(mu.x, R1_POINTS_PER_DECADE)
    im_mag = np.concatenate(([0.0], re_grid[:: max(1, len(re_grid) // 12)]))
    im_grid = np.unique(np.concatenate((-im_mag, im_mag)))
    lam_re = np.repeat(re_grid, im_grid.size)
    lam = lam_re + 1j * np.tile(im_grid, re_grid.size)

    num = kernel_sums(lam, mu, -n_res)
    den = np.array([wf.poly_exp_moment(2 * n_res - 2, 2 * r) for r in re_grid])
    den = np.repeat(den, im_grid.size)
    ratios = num / den
    levels, constant, witness = nested_log_sup(lam_re, ratios)
    return ladder_report(
        "R1", constant, {"lambda": [float(lam[witness].real), float(lam[witness].imag)]},
        levels, resolvent_power=n_res)


def resolvent_ratio(sys: DiagonalSystem, zen: RadialMeasure, lam: complex,
                    resolvent_power: int = 1) -> float:
    """Pointwise value of the R1 quotient at one lambda, Re lambda > 0."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R1 is stated for q = 2")
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("lambda must lie in the open right half-plane")
    wf = weight(zen)
    num = float(kernel_sums(lam, spectral_measure(sys), -resolvent_power)[0])
    den = wf.poly_exp_moment(2 * resolvent_power - 2, 2 * lam.real)
    if math.isinf(den):
        raise ValueError("kernel moment diverges for this weight: increase N")
    return num / den


def fractional_resolvent_ratio(sys: DiagonalSystem, alpha: float, lam: float) -> float:
    """Pointwise value of the R7 quotient at one positive lambda."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R7 is stated for q = 2")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    num = math.sqrt(float(kernel_sums(lam, spectral_measure(sys), alpha - 1)[0]))
    return num / lam ** ((alpha - 1) / 2)


def c2_power_square(m: AtomicMeasure, p: float, q: float, symmetric_only: bool,
                    n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Power Carleson-square criterion: sup of mu(Q_I) / |I|^(q/p').

    All staggered intervals for p <= 2 <= p' <= q; symmetric intervals only in
    the sectorial regime 1 < p <= q (the caller is responsible for the sector
    hypothesis there).
    """
    if p <= 1:
        raise ValueError("hypothesis violated: p > 1 required (p' must be finite)")
    p_conj = p / (p - 1)
    if symmetric_only:
        if not p <= q:
            raise ValueError("hypothesis violated: sectorial square criterion needs p <= q")
    else:
        if not (p <= 2 and p_conj <= q):
            raise ValueError("hypothesis violated: all-interval criterion needs p <= 2 and p' <= q")
    exponent = q / p_conj
    return _square_report("C3" if symmetric_only else "C2", m, lambda length: length**exponent,
                          n_range, symmetric_only, exponent=exponent)


def c4_strip_summability(m: AtomicMeasure, p: float, q: float,
                         n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Dyadic-strip criterion for q < p: the ell^(p/(p-q)) norm of
    2^(-n q/p') mu(S_n).  The resolvent sequence of the same question is
    ``halfplane.dyadic_kernel_sequence``, which ``admiss oracle`` reports."""
    if not 1 <= q < p:
        raise ValueError("hypothesis violated: strip criterion needs 1 <= q < p")
    n_min, n_max = n_range
    p_conj = p / (p - 1)
    s = p / (p - q)
    masses = np.array([v for _, v in strip_masses(m, n_min, n_max)])
    ns = np.arange(n_min, n_max + 1)
    # only strips with mass: at the low end of the grid 2^(-n q/p') alone
    # overflows, and inf * 0 would be NaN
    terms = np.zeros(masses.size)
    filled = masses > 0
    terms[filled] = 2.0 ** (-ns[filled] * q / p_conj) * masses[filled]
    levels = dyadic_levels(terms, n_min, s)
    peak = int(np.argmax(terms))
    return ladder_report("C4", levels[-1], {"n": int(ns[peak])}, levels, stable_rtol=1e-6,
                         sequence_exponent=s, n_range=list(n_range))


def _sobolev_factors(m: AtomicMeasure, q: float, beta: float) -> np.ndarray | None:
    """Mass multipliers 1 + |z|^(-q beta); None when an atom at the origin
    makes the factor infinite."""
    mags = m.x if m.y is None else np.abs(m.locations)  # |z| = x on the axis
    if mags.size and mags.min() == 0:
        if ((mags == 0) & (m.masses > 0)).any():
            return None
        mags = np.where(mags > 0, mags, 1.0)
    with np.errstate(divide="ignore"):
        factors = mags ** (-q * beta)
    factors += 1.0
    return factors


def c5_sobolev_square(m: AtomicMeasure, p: float, q: float, beta: float,
                      n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Sobolev square criterion (p <= q): the power square test applied to the
    (1 + |z|^(-q beta))-weighted measure on symmetric intervals."""
    if not q >= p > 1:
        raise ValueError("hypothesis violated: Sobolev square criterion needs q >= p > 1")
    if beta <= 0:
        raise ValueError("smoothness beta must be positive")
    factors = _sobolev_factors(m, q, beta)
    if factors is None:
        return CriterionReport("C5", math.inf, {"z": [0.0, 0.0]}, UNBOUNDED,
                               {"note": "atom at the origin has infinite Sobolev factor"})
    exponent = q / (p / (p - 1))
    return _square_report("C5", m.transformed(factors), lambda length: length**exponent,
                          n_range, symmetric=True, exponent=exponent, beta=beta)


def c6_sobolev_balayage(m: AtomicMeasure, p: float, q: float, beta: float) -> CriterionReport:
    """Sufficient balayage test for Sobolev inputs with q < p: finite
    L^(p/(p-q)) balayage norm of the weighted measure certifies boundedness;
    an infinite norm is inconclusive (the condition is one-sided), and so is
    a norm whose quadrature stopped at its panel cap unconverged."""
    if not 1 <= q < p:
        raise ValueError("hypothesis violated: balayage test needs 1 <= q < p")
    factors = _sobolev_factors(m, q, beta)
    if factors is None:
        return CriterionReport("C6", math.inf, {"z": [0.0, 0.0]}, INCONCLUSIVE,
                               {"note": "atom at the origin has infinite Sobolev factor"})
    s = p / (p - q)
    value, diag = balayage_norm(m.transformed(factors), s)
    verdict = BOUNDED if math.isfinite(value) and diag["converged"] else INCONCLUSIVE
    return CriterionReport("C6", value, {}, verdict,
                           {"balayage_diagnostics": diag, "beta": beta, "exponent": s,
                            "one_sided": "sufficient only; infinite norm is inconclusive"})


def c7_halfsquare(m: AtomicMeasure, alpha: float, n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Half-square criterion for the power scale: sup of mu(T_I) / |I|^(1-alpha)
    over symmetric dyadic intervals (alpha = 0 is the admitted limiting case)."""
    if not 0 <= alpha < 1:
        raise ValueError("power exponent must lie in [0, 1)")
    return _square_report("C7", m, lambda length: length ** (1 - alpha), n_range,
                          symmetric=True, part="right_half", alpha=alpha)


def r7_fractional_resolvent(sys: DiagonalSystem, alpha: float) -> CriterionReport:
    """Fractional resolvent criterion on the positive axis:
    sup of (sum |b_k|^2 |lam - lambda_k|^(2 alpha - 2))^(1/2) / lam^((alpha-1)/2)."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R7 is stated for q = 2")
    if not 0 <= alpha < 1:
        raise ValueError("power exponent must lie in [0, 1)")
    mu = spectral_measure(sys)
    grid = spectral_grid(mu.x, R7_POINTS_PER_DECADE)
    num = np.sqrt(kernel_sums(grid, mu, alpha - 1))
    ratios = num / grid ** ((alpha - 1) / 2)
    levels, constant, witness = nested_log_sup(grid, ratios)
    return ladder_report("R7", constant, {"lambda": float(grid[witness])}, levels, alpha=alpha)


def c8_shifted_carleson(m: AtomicMeasure, beta: float,
                        n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Smoothed Carleson criterion: the plain Carleson test applied to the
    |1+z|^(-2 beta)-weighted measure (beta = 0 degenerates to the plain test)."""
    if beta < 0:
        raise ValueError("smoothness beta must be nonnegative")
    factors = 1.0 + m.locations
    if m.y is not None:
        factors = np.abs(factors)  # |1 + x| = 1 + x on the axis, x >= 0
    factors **= -2 * beta
    return _square_report("C8", m.transformed(factors), lambda length: length, n_range,
                          symmetric=False, beta=beta)


class Criterion(NamedTuple):
    """One theorem: the space kind it answers, its hypotheses in words and as
    a predicate of (space, q, sectorial), and a runner of
    (system, mu, space, n_range)."""

    kind: str
    hypothesis: str
    applies: Callable[[InputSpace, float, bool], bool]
    run: Callable[[DiagonalSystem, AtomicMeasure, InputSpace, tuple], CriterionReport]


# In dispatch order.  The runners look the criteria up by their names in this
# module at call time, so a wrapper bound to those names (a tracer, a
# profiler) also wraps the registry's calls.
REGISTRY: dict[str, Criterion] = {
    "C2": Criterion(
        "Lp", "p <= 2 and p' <= q",
        lambda sp, q, sectorial: sp.p <= 2 and sp.p / (sp.p - 1) <= q,
        lambda sys, mu, sp, n: c2_power_square(mu, sp.p, sys.q, symmetric_only=False, n_range=n)),
    "C3": Criterion(
        "Lp", "a sectorial measure and 1 < p <= q",
        lambda sp, q, sectorial: sectorial and 1 < sp.p <= q,
        lambda sys, mu, sp, n: c2_power_square(mu, sp.p, sys.q, symmetric_only=True, n_range=n)),
    "C4": Criterion(
        "Lp", "a sectorial measure and q < p",
        lambda sp, q, sectorial: sectorial and q < sp.p,
        lambda sys, mu, sp, n: c4_strip_summability(mu, sp.p, sys.q, n_range=n)),
    "C1": Criterion(
        "weightedL2", "a doubling radial measure (checked by the criterion)",
        lambda sp, q, sectorial: True,
        lambda sys, mu, sp, n: c1_zen_carleson(mu, sp.measure, n_range=n)),
    "R1": Criterion(
        "weightedL2", "q = 2",
        lambda sp, q, sectorial: q == 2,
        lambda sys, mu, sp, n: r1_resolvent(sys, sp.measure)),
    "C7": Criterion(
        "powerL2", "a sectorial measure and q = 2",
        lambda sp, q, sectorial: sectorial and q == 2,
        lambda sys, mu, sp, n: c7_halfsquare(mu, sp.alpha, n_range=n)),
    "R7": Criterion(
        "powerL2", "a sectorial measure and q = 2",
        lambda sp, q, sectorial: sectorial and q == 2,
        lambda sys, mu, sp, n: r7_fractional_resolvent(sys, sp.alpha)),
    "C5": Criterion(
        "sobolev", "a sectorial measure and 1 < p <= q",
        lambda sp, q, sectorial: sectorial and 1 < sp.p <= q,
        lambda sys, mu, sp, n: c5_sobolev_square(mu, sp.p, sys.q, sp.beta, n_range=n)),
    "C6": Criterion(
        "sobolev", "a sectorial measure and q < p",
        lambda sp, q, sectorial: sectorial and q < sp.p,
        lambda sys, mu, sp, n: c6_sobolev_balayage(mu, sp.p, sys.q, sp.beta)),
    "C8": Criterion(
        "sobolev", "p = q = 2",
        lambda sp, q, sectorial: sp.p == 2 and q == 2,
        lambda sys, mu, sp, n: c8_shifted_carleson(mu, sp.beta, n_range=n)),
}

# Reason recorded when no registered criterion applies to a space of this kind
# (a weightedL2 space always has C1).
_NO_CHARACTERIZATION = {
    "Lp": "no known full characterization for this exponent configuration",
    "powerL2": "power-scale criteria need a sectorial measure and q = 2",
    "sobolev": "Sobolev criteria need a sectorial measure (or p = q = 2)",
}


def _measure_and_sector(sys: DiagonalSystem) -> tuple[AtomicMeasure, bool]:
    """The spectral measure and the sector gate: max |arg z| over its
    positive-mass atoms is below pi/2."""
    mu = spectral_measure(sys)
    return mu, max_sector_angle(mu) < math.pi / 2


def run_criterion(name: str, sys: DiagonalSystem, space: InputSpace,
                  n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Run the registered criterion ``name``; a space of another kind, or a
    system and space outside its hypotheses, raises ValueError."""
    entry = REGISTRY[name]
    if space.kind != entry.kind:
        raise ValueError(f"criterion {name} applies to {entry.kind} spaces, got {space.kind}")
    mu, sectorial = _measure_and_sector(sys)
    if not entry.applies(space, sys.q, sectorial):
        raise ValueError(
            f"hypothesis violated: {name} needs {entry.hypothesis}, got q = {sys.q:g} "
            f"and {space.describe()} on a {'' if sectorial else 'non-'}sectorial measure")
    return entry.run(sys, mu, space, n_range)


def dispatch(sys: DiagonalSystem, space: InputSpace,
             n_range=DEFAULT_N_RANGE) -> list[CriterionReport]:
    """Run every criterion of ``REGISTRY`` whose space kind and hypotheses
    match the system and space, in registry order, and flag cross-criterion
    disagreements in the diagnostics of a trailing summary report.

    The sector gate tests max |arg z| < pi/2 over the positive-mass atoms of
    the spectral measure, as computed in floating point.  Every finite system
    passes it in exact arithmetic (Re lambda_k < 0); it fails only where
    rounding puts an atom's angle at pi/2 (|Im lambda_k| / |Re lambda_k|
    beyond about 1e16), so it does not test the uniform sector the
    analytic-semigroup theorems assume for the whole spectrum.
    """
    if space.kind not in {c.kind for c in REGISTRY.values()}:
        raise ValueError(f"unknown space kind {space.kind!r}")
    mu, sectorial = _measure_and_sector(sys)
    reports = [c.run(sys, mu, space, n_range) for c in REGISTRY.values()
               if c.kind == space.kind and c.applies(space, sys.q, sectorial)]
    if not reports:
        reason = _NO_CHARACTERIZATION[space.kind]
        if space.kind == "Lp" and not sectorial:
            reason += " without sectorial support"
        reports.append(CriterionReport("none", math.nan, {}, NO_CHARACTERIZATION,
                                       {"space": space.describe(), "reason": reason}))
    reports.append(_summary(reports))
    return reports


def _summary(reports: list[CriterionReport]) -> CriterionReport:
    verdicts = {r.verdict for r in reports if r.criterion != "none"}
    if not verdicts:
        combined = NO_CHARACTERIZATION
    elif UNBOUNDED in verdicts:
        combined = UNBOUNDED
    elif verdicts == {BOUNDED}:
        combined = BOUNDED
    else:
        combined = INCONCLUSIVE
    disagreement = BOUNDED in verdicts and UNBOUNDED in verdicts
    return CriterionReport(
        "summary", math.nan, {}, combined,
        {"criteria": [r.criterion for r in reports],
         "disagreement": disagreement},
    )


def observation_dispatch(sys: DiagonalSystem, obs_coeffs, space: InputSpace,
                         n_range=DEFAULT_N_RANGE) -> list[CriterionReport]:
    """Observation admissibility answered by the control-side engine on the
    dual data: dual exponent q' = q/(q-1), coefficients c_k, dual space."""
    return dispatch(dual_system(sys, obs_coeffs), dual_space(space), n_range=n_range)
