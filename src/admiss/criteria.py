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

from admiss.halfplane import (
    _BLOCK_ENTRIES,
    balayage_norm,
    dyadic_index,
    kernel_sums,
    level_masses,
    strip_masses,
)
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
    two, compared exactly: x by ``searchsorted`` edges or binary exponents
    (``level_masses``, or a search of the x-order), y by binary exponents.
    On a real measure every atom with x < |I| lies in the phase-0 staggered
    square over y in [0, |I|), so that family reads the centred family's
    level masses.  Returns (ladder levels, constant, witness, per-n best
    ratios).  A range outside ``N_RANGE_BOUNDS`` raises ValueError: above it
    2^n overflows, below it a square shrinks to length 0.

    The witness is the first best level's square: [-|I|/2, |I|/2) for a
    symmetric family if that level holds mass, [0, |I|) for a real
    staggered family if its ratio beats 0, else none.  The level pass adds
    masses in another order than a scan of the atoms as stored, so ratios
    that tie exactly may round either way: when the best ratio beats 0 and
    several levels lie within the rounding of two sums of nonnegative masses
    and a division, (atoms + 2) 2^-51 relative, or the family is staggered
    on a complex-stored measure (whose two phases may tie too), those levels
    are scanned (``_scanned_level``) and the first best names the witness.
    """
    n_min, n_max = n_range
    if n_min < N_RANGE_BOUNDS[0] or n_max > N_RANGE_BOUNDS[1]:
        raise ValueError(f"n_range {tuple(n_range)} outside [{N_RANGE_BOUNDS[0]}, "
                         f"{N_RANGE_BOUNDS[1]}], where 2^n overflows or underflows")
    ns = range(n_min, n_max + 1)
    lengths = [2.0**n for n in ns]
    denoms = [denom_of_length(length) for length in lengths]
    if not symmetric and part != "full":
        raise ValueError(f"staggered square families test full squares only, got {part!r}")
    staggered_complex = not (symmetric or m.y is None)
    if staggered_complex:
        masses = _staggered_level_masses(m, lengths)
    else:
        masses = _symmetric_level_masses(m, ns, part, not symmetric)
    per_n = [(math.inf if denom == 0 else mass / denom) if mass > 0 else 0.0
             for mass, denom in zip(masses, denoms)]
    best = max(per_n)
    first = per_n.index(best)
    y_from, length = (-0.5 if symmetric else 0.0), lengths[first]
    witness = ({"n": ns[first], "interval": [y_from * length, (y_from + 1) * length]}
               if (masses[first] if symmetric else best) > 0 else None)
    tie = best * (1 - (len(m) + 2) * 2.0**-51)
    near = [i for i, r in enumerate(per_n) if r >= tie]
    if best > 0 and (len(near) > 1 or staggered_complex):
        scans = [_scanned_level(m, ns[i], lengths[i], denoms[i], symmetric, part) for i in near]
        witness = max(scans, key=lambda scan: scan[0])[1]  # the first of equal maxima
    return dyadic_levels(per_n, n_min), float(best), witness or {}, per_n


def _square_report(name: str, m: AtomicMeasure, denom_of_length, n_range, symmetric: bool,
                   part: str = "full", **diagnostics) -> CriterionReport:
    """``_square_family_sup`` read on its dyadic ladder."""
    levels, constant, witness, _ = _square_family_sup(m, denom_of_length, n_range, symmetric,
                                                      part)
    return ladder_report(name, constant, witness, levels, n_range=list(n_range), **diagnostics)


def _symmetric_level_masses(m: AtomicMeasure, ns, part: str,
                            staggered: bool = False) -> list[float]:
    """Mass per dyadic length in the centred square (or its right half), or
    in the staggered square [0, |I|) of a real measure.

    On a real measure only x is read: the masses with x < 2^n (full) or
    2^(n-1) <= x < 2^n (right half) are the levels of ``level_masses``.  The
    staggered family reads them in the x-order, sorting as its complex path
    does, so no storage order changes its sums.  A complex atom is placed at
    the level it enters: the first n with x < 2^n, -y <= 2^(n-1) and
    y < 2^(n-1), read from binary exponents (``dyadic_index``).  The full
    squares are nested, so their masses are cumulative sums; the right
    halves are disjoint.
    """
    n_min, count = ns.start, len(ns)
    if m.y is None:
        if part == "right_half":
            masses = level_masses(m, n_min - 1, count + 1, strict=True)[1:-1]
        else:
            masses = level_masses(m, n_min, count, strict=True, in_x_order=staggered)[:-1]
    else:
        x_level = dyadic_index(m.x, n_min, count, strict=True)
        y_entry = np.maximum(dyadic_index(-m.y, n_min - 1, count, strict=False),
                             dyadic_index(m.y, n_min - 1, count, strict=True))
        if part == "right_half":
            # x < |I| at x_level, and |I|/2 <= x there: x_level > 0 means
            # x >= 2^n_min, so only the lowest level needs the test
            level = np.where((m.x >= 2.0 ** (n_min - 1)) & (y_entry <= x_level), x_level, count)
        else:
            level = np.maximum(x_level, y_entry, out=x_level)
        masses = np.bincount(level, weights=m.masses, minlength=count + 1)[:-1]
    if part != "right_half":
        masses = np.cumsum(masses)
    return masses.tolist()


def _staggered_level_masses(m: AtomicMeasure, lengths: list[float]) -> list[float]:
    """Heaviest bin's mass per dyadic length over two staggered phases of
    dyadic translates, on a complex measure.

    The atoms with x < |I| are a prefix of the measure's x-order
    (``AtomicMeasure.x_order``), cut by ``searchsorted``.  The phase bins
    floor(y/|I| - phase) are monotone in y: when the lowest and the highest
    y of a prefix (running min and max) share a bin, every atom of the
    prefix lies in it, and its mass is the prefix sum, which adds the same
    masses in the same order as ``bincount`` would.  Only the other (level,
    phase) segments bin their atoms (``_heaviest_bins``), in runs of
    segments that start within _BLOCK_ENTRIES atoms of each other, so memory
    stays O(atoms + _BLOCK_ENTRIES) for any number of levels.
    """
    xs, ms, order = m.x_order
    ys = m.y[order]
    hi = np.searchsorted(xs, lengths, side="left")
    filled = np.flatnonzero(hi)  # the levels with atoms
    tops = hi[filled] - 1  # the last atom of each of their prefixes
    # per phase (rows) and filled level: whether all its atoms share one bin
    scale = np.array(lengths)[filled]
    phases = np.array([[0.0], [0.5]])
    lows, highs = np.minimum.accumulate(ys)[tops], np.maximum.accumulate(ys)[tops]
    with np.errstate(over="ignore"):  # overflowing keys: see _heaviest_bins
        y_low, y_high = lows / scale, highs / scale
    one_bin = ((np.floor(y_low - phases) == np.floor(y_high - phases)) & np.isfinite(y_low)
               | (lows == highs))
    best = np.where(one_bin, np.cumsum(ms)[tops], 0.0)
    phase_of, level_of = np.nonzero(~one_bin)
    sizes = hi[filled][level_of]
    runs = (np.cumsum(sizes) - sizes) // _BLOCK_ENTRIES
    for run in np.split(np.arange(sizes.size), np.flatnonzero(np.diff(runs)) + 1):
        if run.size:
            best[phase_of[run], level_of[run]] = _heaviest_bins(
                ys, ms, sizes[run], scale[level_of[run]], phases[phase_of[run], 0])[0]
    masses = [0.0] * len(lengths)
    for j, mass, mass_half in zip(filled.tolist(), *best.tolist()):
        masses[j] = max(max(0.0, mass), mass_half)
    return masses


def _heaviest_bins(ys: np.ndarray, ms: np.ndarray, sizes: np.ndarray, lengths: np.ndarray,
                   phases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, lower ends, upper ends) of each segment's heaviest staggered bin.

    Segment i bins the first sizes[i] >= 1 atoms of ys, weighted by ms, at
    |I| = lengths[i] and phase = phases[i]: key k = floor(y/|I| - phase), bin
    [(k + phase)|I|, (k + phase + 1)|I|), the lowest bin on ties.  Where y/|I|
    overflows, |y| > 2^1024 |I|, distinct heights lie far more than |I| apart:
    such an atom shares a bin only with atoms of its own height, that bin lies
    below (y < 0) or above every bin of a finite key, and its ends y and
    y + |I| round to y.

    A dense segment (finite keys spanning at most 4 size + 64) counts its keys
    as offsets from its lowest; any other ranks its distinct keys (-inf keys
    by height, finite keys, +inf keys by height).  Each segment's slots follow
    the previous one's, so one ``bincount`` adds every bin's weights in input
    order and ``reduceat`` takes each segment's heaviest bin.  Keys stay
    float64: one past 2^63 would wrap in int64.
    """
    starts = np.cumsum(sizes) - sizes
    atom = np.arange(sizes.sum()) - np.repeat(starts, sizes)
    ys = ys[atom]
    # an overflowing key, or a span past the floats, makes its segment ranked
    # (its offsets are replaced)
    with np.errstate(over="ignore", invalid="ignore"):
        bins = np.floor(ys / np.repeat(lengths, sizes) - np.repeat(phases, sizes))
        low = np.minimum.reduceat(bins, starts)
        span = np.maximum.reduceat(bins, starts) - low + 1
        keys = (bins - np.repeat(low, sizes)).astype(np.int64)
    dense = span <= 4 * sizes + 64
    if not dense.all():  # ranked by segment, key, then height where the key is +-inf
        at = np.flatnonzero(~np.repeat(dense, sizes))
        segment = np.repeat(np.arange(sizes.size), sizes)[at]
        heights = np.where(np.isinf(bins[at]), ys[at], 0.0)
        kinds, rank = np.unique(np.stack((segment, bins[at], heights)), axis=1, return_inverse=True)
        keys[at] = rank - np.searchsorted(kinds[0], segment)  # rank within the segment
    room = np.maximum.reduceat(keys, starts) + 1
    base = np.cumsum(room) - room
    keys += np.repeat(base, sizes)
    sums = np.bincount(keys, weights=ms[atom], minlength=int(room.sum()))
    weights = np.maximum.reduceat(sums, base)
    reach = np.where(sums == np.repeat(weights, room), np.arange(sums.size), sums.size)
    # an atom of each segment's heaviest bin (the weights are >= 0, so that
    # bin holds an atom)
    holder = np.empty(sums.size, np.int64)
    holder[keys] = np.arange(keys.size)
    held = holder[np.minimum.reduceat(reach, base)]
    k, far = bins[held], np.isinf(bins[held])
    with np.errstate(over="ignore"):  # an end past 2^1024 is inf
        lows = np.where(far, ys[held], (k + phases) * lengths)
        highs = np.where(far, ys[held] + lengths, (k + phases + 1) * lengths)
    return weights, lows, highs


def _scanned_level(m: AtomicMeasure, n: int, length: float, denom: float, symmetric: bool,
                   part: str) -> tuple[float, dict | None]:
    """Ratio and witness of one dyadic length from a scan of every atom in
    storage order: a centred square's mass is one ``sum``, the staggered
    bins one ``_heaviest_bins`` call of two segments, phase 0 first."""
    x_lo = length / 2 if part == "right_half" else 0.0
    inside = (m.x >= x_lo) & (m.x < length)
    y = np.zeros(len(m)) if m.y is None else m.y
    if symmetric:
        inside &= (y >= -length / 2) & (y < length / 2)
        found = [(-0.5 * length, 0.5 * length, float(m.masses[inside].sum()))]
    else:
        sizes = np.full(2, np.count_nonzero(inside))  # a scanned level holds mass
        weights, lows, highs = _heaviest_bins(y[inside], m.masses[inside], sizes,
                                              np.full(2, length), np.array([0.0, 0.5]))
        found = zip(lows.tolist(), highs.tolist(), weights.tolist())
    best, witness = 0.0, None
    for lo, hi, mass in found:
        ratio = (math.inf if denom == 0 else mass / denom) if mass > 0 else 0.0
        if ratio > best:
            best, witness = ratio, {"n": n, "interval": [lo, hi]}
    return best, witness


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
    kernel moment of the weight (``_r1_quotients``)."""
    re_grid = spectral_grid(spectral_measure(sys).x, R1_POINTS_PER_DECADE)
    im_mag = np.concatenate(([0.0], re_grid[:: max(1, len(re_grid) // 12)]))
    im_grid = np.unique(np.concatenate((-im_mag, im_mag)))
    n_res, lam, ratios = _r1_quotients(sys, zen, resolvent_power, re_grid, im_grid)
    levels, constant, witness = nested_log_sup(lam.real, ratios)
    return ladder_report(
        "R1", constant, {"lambda": [float(lam[witness].real), float(lam[witness].imag)]},
        levels, resolvent_power=n_res)


def resolvent_ratio(sys: DiagonalSystem, zen: RadialMeasure, lam: complex,
                    resolvent_power: int = 1) -> float:
    """Pointwise value of the R1 quotient at one lambda, Re lambda > 0, with
    N = ``resolvent_power``.  R1 defaults to the weight's resolvent power
    instead, which is 2 for ``hardy()`` and for ``bergman(0.5)``."""
    lam = complex(lam)
    return float(_r1_quotients(sys, zen, resolvent_power, np.array([lam.real]),
                               np.array([lam.imag]))[2][0])


def _r1_quotients(sys: DiagonalSystem, zen: RadialMeasure, resolvent_power: int | None,
                  re: np.ndarray, im: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """R1's quotient at every lambda = re_i + i im_j (ordered by i, then j),
    with the kernel moment of the weight, integral of t^(2N-2)
    e^(-2 Re lambda t) w(t) dt, evaluated once per real part.  Returns N (the
    weight's resolvent power when ``resolvent_power`` is None), the lambdas
    and the quotients."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R1 is stated for q = 2")
    if (re <= 0).any():
        raise ValueError("lambda must lie in the open right half-plane")
    wf = weight(zen)
    n = wf.resolvent_power() if resolvent_power is None else resolvent_power
    if n < 1 or math.isinf(wf.poly_exp_moment(2 * n - 2, 1.0)):
        raise ValueError("kernel moment diverges for this weight: increase N")
    lam = np.repeat(re, im.size) + 1j * np.tile(im, re.size)
    den = np.repeat([wf.poly_exp_moment(2 * n - 2, 2 * r) for r in re], im.size)
    return n, lam, kernel_sums(lam, spectral_measure(sys), -n) / den


def fractional_resolvent_ratio(sys: DiagonalSystem, alpha: float, lam: float) -> float:
    """Pointwise value of the R7 quotient at one positive lambda."""
    return float(_r7_quotients(sys, alpha, np.array([lam], dtype=float))[0])


def _r7_quotients(sys: DiagonalSystem, alpha: float, lam: np.ndarray) -> np.ndarray:
    """R7's quotient at every positive lambda, 0 <= alpha < 1."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R7 is stated for q = 2")
    if not 0 <= alpha < 1:
        raise ValueError("power exponent must lie in [0, 1)")
    if (lam <= 0).any():
        raise ValueError("lambda must be positive")
    return np.sqrt(kernel_sums(lam, spectral_measure(sys), alpha - 1)) / lam ** ((alpha - 1) / 2)


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
    factors *= m.masses  # the weighted masses, in the array this criterion owns
    return _square_report("C5", m._with_masses(factors), lambda length: length**exponent,
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
    factors *= m.masses
    value, diag = balayage_norm(m._with_masses(factors), s)
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
    sup of (sum |b_k|^2 |lam - lambda_k|^(2 alpha - 2))^(1/2) / lam^((alpha-1)/2)
    (``_r7_quotients``)."""
    grid = spectral_grid(spectral_measure(sys).x, R7_POINTS_PER_DECADE)
    levels, constant, witness = nested_log_sup(grid, _r7_quotients(sys, alpha, grid))
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
    factors *= m.masses
    return _square_report("C8", m._with_masses(factors), lambda length: length, n_range,
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


def run_criterion(name: str, sys: DiagonalSystem, space: InputSpace,
                  n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Run the registered criterion ``name``; a space of another kind, or a
    system and space outside its hypotheses, raises ValueError."""
    entry = REGISTRY[name]
    if space.kind != entry.kind:
        raise ValueError(f"criterion {name} applies to {entry.kind} spaces, got {space.kind}")
    mu = spectral_measure(sys)
    sectorial = mu.sector_angle < math.pi / 2
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
    mu = spectral_measure(sys)
    sectorial = mu.sector_angle < math.pi / 2
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
