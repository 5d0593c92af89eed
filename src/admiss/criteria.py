"""Admissibility criteria C1-C8 and the resolvent forms R1, R7.

Every criterion evaluates a supremum (or sequence norm) over a finite dyadic
family, reports the constant, a witness, and a three-valued verdict produced
by the shared grid-extension ladder (see ``admiss.report``).  Exponent ranges
are enforced strictly: a criterion refuses inputs outside the hypotheses of
the theorem it implements rather than extrapolating.
"""

from __future__ import annotations

import math

import numpy as np

from admiss.halfplane import _BLOCK_ENTRIES as _KERNEL_BLOCK_ENTRIES
from admiss.halfplane import balayage_norm, strip_masses
from admiss.laplace_oracle import kernel_condition_sweep  # noqa: F401  (re-export)
from admiss.report import (
    BOUNDED,
    INCONCLUSIVE,
    UNBOUNDED,
    CriterionReport,
    ladder_cuts,
    ladder_verdict,
    log_space,
    nested_log_sup,
)
from admiss.spaces import InputSpace, dual_space, load_space  # noqa: F401  (re-export)
from admiss.system_model import (
    AtomicMeasure,
    DiagonalSystem,
    dual_system,
    max_sector_angle,
    spectral_measure,
)
from admiss.zen_weight import RadialMeasure, nu_square_mass, weight

__all__ = [
    "InputSpace",
    "CriterionReport",
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
    "dispatch",
    "observation_dispatch",
    "DEFAULT_N_RANGE",
]

DEFAULT_N_RANGE = (-20, 40)


def _square_family_sup(m: AtomicMeasure, denom_of_length, n_range, symmetric: bool,
                       part: str = "full") -> tuple[list[float], float, dict, list[float]]:
    """Sup of mu(region)/denom(|I|) over the dyadic square family.

    Symmetric families test the single centred interval per dyadic length;
    otherwise two staggered phases of dyadic translates are tested (any
    interval is then contained in a tested one of at most 4x its length).
    Membership is half-open: 0 <= x < |I| (|I|/2 <= x for the right half) and
    y_lo <= y < y_hi.  Returns (ladder levels, constant, witness, per-n best
    ratios).
    """
    n_min, n_max = n_range
    ns = range(n_min, n_max + 1)
    lengths = [2.0**n for n in ns]
    denoms = [denom_of_length(length) for length in lengths]
    level_sups = _symmetric_level_sups if symmetric else _staggered_level_sups
    per_n, witnesses = level_sups(m, ns, lengths, denoms, part)
    per_n_arr = np.asarray(per_n)
    cuts = ladder_cuts(n_min, n_max)
    levels = [float(per_n_arr[: cut - n_min + 1].max()) for cut in cuts]
    best_idx = int(np.argmax(per_n_arr))
    constant = float(per_n_arr[best_idx])
    witness = witnesses[best_idx] or {}
    return levels, constant, witness, per_n


def _symmetric_level_sups(m: AtomicMeasure, ns, lengths: list[float], denoms, part: str):
    """Ratio and witness per dyadic length for the centred square (or its
    right half).

    Each atom is placed once at the index of the level it belongs to, found by
    ``searchsorted`` on the exact powers of two: the full squares are nested,
    so an atom lies in every square from its entry level on (a cumulative
    sum); the right halves are disjoint in x, so an atom lies in at most one.
    """
    x = m.locations.real
    y = m.locations.imag
    halves = np.array(lengths) / 2
    # first level with y < |I|/2 and first with -y <= |I|/2
    y_entry = np.maximum(np.searchsorted(halves, y, side="right"),
                         np.searchsorted(halves, -y, side="left"))
    x_level = np.searchsorted(lengths, x, side="right")  # first level with x < |I|
    if part == "right_half":
        # x < |I| at x_level, and |I|/2 <= x there unless below the lowest level
        inside = (y_entry <= x_level) & ((x_level > 0) | (x >= halves[0]))
        level = np.where(inside, x_level, len(lengths))
    else:
        level = np.maximum(x_level, y_entry)
    masses = np.bincount(level, weights=m.masses, minlength=len(lengths) + 1)[:-1]
    if part != "right_half":
        masses = np.cumsum(masses)
    per_n, witnesses = [], []
    for n, length, denom, mass in zip(ns, lengths, denoms, masses.tolist()):
        positive = mass > 0
        per_n.append((math.inf if denom == 0 else mass / denom) if positive else 0.0)
        witnesses.append({"n": n, "interval": [-length / 2, length / 2]} if positive else None)
    return per_n, witnesses


def _staggered_level_sups(m: AtomicMeasure, ns, lengths: list[float], denoms, part: str):
    """Best ratio and witness per dyadic length over two staggered phases of
    dyadic translates.  Atoms are sorted by x once; the depth condition of
    each level is then a contiguous slice found by ``searchsorted``."""
    order = np.argsort(m.locations.real, kind="stable")
    xs = m.locations.real[order]
    ys = m.locations.imag[order]
    ms = m.masses[order]
    hi = np.searchsorted(xs, lengths, side="left").tolist()
    lo = (np.searchsorted(xs, np.array(lengths) / 2, side="left").tolist()
          if part == "right_half" else [0] * len(hi))
    per_n, witnesses = [], []
    for n, length, denom, a, b in zip(ns, lengths, denoms, lo, hi):
        best = 0.0
        best_witness = None
        if b > a:
            for phase in (0.0, 0.5):
                bins = np.floor(ys[a:b] / length - phase).astype(np.int64)
                k_bin, mass = _heaviest_bin(bins, ms[a:b])
                if mass > 0:
                    ratio = math.inf if denom == 0 else mass / denom
                    if ratio > best:
                        best = ratio
                        lo_y = (k_bin + phase) * length
                        best_witness = {"n": n, "interval": [lo_y, lo_y + length]}
        per_n.append(best)
        witnesses.append(best_witness)
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
    levels, constant, witness, per_n = _square_family_sup(
        m, lambda length: nu_square_mass(zen, length), n_range, symmetric=False)
    verdict = UNBOUNDED if math.isinf(constant) else ladder_verdict(levels)
    return CriterionReport("C1", constant, witness, verdict,
                           {"levels": levels, "n_range": list(n_range)})


def r1_resolvent(sys: DiagonalSystem, zen: RadialMeasure, resolvent_power: int | None = None,
                 points_per_decade: int = 8) -> CriterionReport:
    """Resolvent criterion for weighted L^2 admissibility (Hilbert case):
    sup over lambda of sum_k |lambda - lambda_k|^(-2N) |b_k|^2 divided by the
    kernel moment of the weight."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R1 is stated for q = 2")
    wf = weight(zen)
    if resolvent_power is None:
        n_res = 2
        while math.isinf(wf.poly_exp_moment(2 * n_res - 2, 1.0)):
            n_res += 1
            if n_res > 64:
                raise ValueError("no convergent resolvent power for this weight")
    else:
        n_res = resolvent_power
        if n_res < 1 or math.isinf(wf.poly_exp_moment(2 * n_res - 2, 1.0)):
            raise ValueError("kernel moment diverges for this weight: increase N")

    x = -sys.eigenvalues.real
    re_grid = log_space(x.min() / 100, x.max() * 100, points_per_decade)
    im_mag = np.concatenate(([0.0], re_grid[:: max(1, len(re_grid) // 12)]))
    im_grid = np.unique(np.concatenate((-im_mag, im_mag)))
    lam_re = np.repeat(re_grid, im_grid.size)
    lam_im = np.tile(im_grid, re_grid.size)
    lam = lam_re + 1j * lam_im

    num = _kernel_sums(lam, sys, -n_res)
    den = np.array([wf.poly_exp_moment(2 * n_res - 2, 2 * r) for r in re_grid])
    den = np.repeat(den, im_grid.size)
    ratios = num / den
    levels, constant, witness = nested_log_sup(lam_re, ratios)
    return CriterionReport(
        "R1", constant, {"lambda": [float(lam[witness].real), float(lam[witness].imag)]},
        ladder_verdict(levels),
        {"levels": levels, "resolvent_power": n_res},
    )


def resolvent_ratio(sys: DiagonalSystem, zen: RadialMeasure, lam: complex,
                    resolvent_power: int = 1) -> float:
    """Pointwise value of the R1 quotient at one lambda, Re lambda > 0."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R1 is stated for q = 2")
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("lambda must lie in the open right half-plane")
    wf = weight(zen)
    num = float(_kernel_sums(np.array([lam]), sys, -resolvent_power)[0])
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
    num = math.sqrt(float(_kernel_sums(np.array([lam], dtype=complex), sys, alpha - 1)[0]))
    return num / lam ** ((alpha - 1) / 2)


def _kernel_sums(points: np.ndarray, sys: DiagonalSystem, power: float) -> np.ndarray:
    """sum_k |lambda - lambda_k|^(2 power) |b_k|^2 at every point lambda.

    The squared distances are formed in real arithmetic, one block of points
    at a time, so memory stays O(_KERNEL_BLOCK_ENTRIES) whatever the number
    of points and modes.
    """
    u, v = sys.eigenvalues.real, sys.eigenvalues.imag
    b_sq = np.abs(sys.coeffs) ** 2
    re, im = points.real, points.imag
    rows = max(1, _KERNEL_BLOCK_ENTRIES // u.size)
    out = np.empty(points.size)
    for i in range(0, points.size, rows):
        block = slice(i, i + rows)
        dist2 = re[block, None] - u
        dist2 *= dist2
        dy = im[block, None] - v
        dy *= dy
        dist2 += dy
        np.power(dist2, power, out=dist2)
        out[block] = dist2 @ b_sq
    return out


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
    levels, constant, witness, _ = _square_family_sup(
        m, lambda length: length**exponent, n_range, symmetric=symmetric_only)
    name = "C3" if symmetric_only else "C2"
    return CriterionReport(name, constant, witness, ladder_verdict(levels),
                           {"levels": levels, "exponent": exponent, "n_range": list(n_range)})


def c4_strip_summability(m: AtomicMeasure, p: float, q: float,
                         n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Dyadic-strip criterion for q < p: the ell^(p/(p-q)) norm of
    2^(-n q/p') mu(S_n), with the resolvent sequence and (when p' < q) the
    weighted balayage branch reported in diagnostics."""
    if not 1 <= q < p:
        raise ValueError("hypothesis violated: strip criterion needs 1 <= q < p")
    n_min, n_max = n_range
    p_conj = p / (p - 1)
    s = p / (p - q)
    masses = np.array([v for _, v in strip_masses(m, n_min, n_max)])
    ns = np.arange(n_min, n_max + 1)
    terms = 2.0 ** (-ns * q / p_conj) * masses
    cuts = ladder_cuts(n_min, n_max)
    levels = [float((terms[ns <= cut] ** s).sum() ** (1 / s)) for cut in cuts]
    constant = levels[-1]
    peak = int(np.argmax(terms)) if terms.any() else 0
    diagnostics: dict = {"levels": levels, "sequence_exponent": s, "n_range": list(n_range)}

    with np.errstate(divide="ignore"):
        resolvent = (2.0 ** (ns / p)
                     * np.array([_resolvent_norm(m, 2.0**n, q) for n in ns]))
    r_s = q * p / (p - q)
    diagnostics["resolvent_sequence_norm"] = float((resolvent**r_s).sum() ** (1 / r_s))

    if p_conj < q:
        a = q * (2 - p) / p
        try:
            bal, bal_diag = balayage_norm(m, a, s)
            diagnostics["balayage_norm"] = bal if math.isfinite(bal) else None
            diagnostics["balayage_diagnostics"] = bal_diag
        except ValueError as exc:
            diagnostics["balayage_diagnostics"] = {"error": str(exc)}

    return CriterionReport("C4", constant, {"n": int(ns[peak])},
                           ladder_verdict(levels, stable_rtol=1e-6), diagnostics)


def _resolvent_norm(m: AtomicMeasure, lam: float, q: float) -> float:
    """||(lam - A)^(-1) B||_{ell^q} from the spectral measure:
    (integral of |lam + z|^(-q) d mu)^(1/q)."""
    x, y = m.locations.real, m.locations.imag
    vals = ((lam + x) ** 2 + y**2) ** (-q / 2)
    return float((vals * m.masses).sum() ** (1 / q))


def _sobolev_factors(m: AtomicMeasure, q: float, beta: float) -> np.ndarray | None:
    """Mass multipliers 1 + |z|^(-q beta); None when an atom at the origin
    makes the factor infinite."""
    mags = np.abs(m.locations)
    if ((mags == 0) & (m.masses > 0)).any():
        return None
    with np.errstate(divide="ignore"):
        return 1.0 + np.where(mags > 0, mags, 1.0) ** (-q * beta)


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
    inner = c2_power_square(m.transformed(factors), p, q, symmetric_only=True, n_range=n_range)
    return CriterionReport("C5", inner.constant, inner.witness, inner.verdict,
                           dict(inner.diagnostics, beta=beta))


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
    value, diag = balayage_norm(m.transformed(factors), 0.0, s)
    verdict = BOUNDED if math.isfinite(value) and diag["converged"] else INCONCLUSIVE
    return CriterionReport("C6", value, {}, verdict,
                           {"balayage_diagnostics": diag, "beta": beta, "exponent": s,
                            "one_sided": "sufficient only; infinite norm is inconclusive"})


def c7_halfsquare(m: AtomicMeasure, alpha: float, n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Half-square criterion for the power scale: sup of mu(T_I) / |I|^(1-alpha)
    over symmetric dyadic intervals (alpha = 0 is the admitted limiting case)."""
    if not 0 <= alpha < 1:
        raise ValueError("power exponent must lie in [0, 1)")
    levels, constant, witness, _ = _square_family_sup(
        m, lambda length: length ** (1 - alpha), n_range, symmetric=True, part="right_half")
    return CriterionReport("C7", constant, witness, ladder_verdict(levels),
                           {"levels": levels, "alpha": alpha, "n_range": list(n_range)})


def r7_fractional_resolvent(sys: DiagonalSystem, alpha: float,
                            points_per_decade: int = 10) -> CriterionReport:
    """Fractional resolvent criterion on the positive axis:
    sup of (sum |b_k|^2 |lam - lambda_k|^(2 alpha - 2))^(1/2) / lam^((alpha-1)/2)."""
    if sys.q != 2:
        raise ValueError("resolvent criterion R7 is stated for q = 2")
    if not 0 <= alpha < 1:
        raise ValueError("power exponent must lie in [0, 1)")
    x = -sys.eigenvalues.real
    grid = log_space(x.min() / 100, x.max() * 100, points_per_decade)
    num = np.sqrt(_kernel_sums(grid.astype(complex), sys, alpha - 1))
    ratios = num / grid ** ((alpha - 1) / 2)
    levels, constant, witness = nested_log_sup(grid, ratios)
    return CriterionReport("R7", constant, {"lambda": float(grid[witness])},
                           ladder_verdict(levels), {"levels": levels, "alpha": alpha})


def c8_shifted_carleson(m: AtomicMeasure, beta: float,
                        n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Smoothed Carleson criterion: the plain Carleson test applied to the
    |1+z|^(-2 beta)-weighted measure (beta = 0 degenerates to the plain test)."""
    if beta < 0:
        raise ValueError("smoothness beta must be nonnegative")
    factors = np.abs(1.0 + m.locations) ** (-2 * beta)
    levels, constant, witness, _ = _square_family_sup(
        m.transformed(factors), lambda length: length, n_range, symmetric=False)
    return CriterionReport("C8", constant, witness, ladder_verdict(levels),
                           {"levels": levels, "beta": beta, "n_range": list(n_range)})


def _no_characterization(space: InputSpace, reason: str) -> CriterionReport:
    return CriterionReport("none", math.nan, {}, "no characterization known",
                           {"space": space.describe(), "reason": reason})


def dispatch(sys: DiagonalSystem, space: InputSpace,
             n_range=DEFAULT_N_RANGE) -> list[CriterionReport]:
    """Route to every criterion whose hypotheses match the system and space,
    run them all, and flag cross-criterion disagreements in the diagnostics of
    a trailing summary report."""
    mu = spectral_measure(sys)
    theta = max_sector_angle(mu)
    sectorial = theta < math.pi / 2
    q = sys.q
    reports: list[CriterionReport] = []

    if space.kind == "Lp":
        p = space.p
        p_conj = p / (p - 1)
        if p <= 2 and p_conj <= q:
            reports.append(c2_power_square(mu, p, q, symmetric_only=False, n_range=n_range))
        if sectorial and 1 < p <= q:
            reports.append(c2_power_square(mu, p, q, symmetric_only=True, n_range=n_range))
        if sectorial and q < p:
            reports.append(c4_strip_summability(mu, p, q, n_range=n_range))
        if not reports:
            reason = ("no known full characterization for this exponent "
                      "configuration" + ("" if sectorial else " without sectorial support"))
            reports.append(_no_characterization(space, reason))
    elif space.kind == "weightedL2":
        reports.append(c1_zen_carleson(mu, space.measure, n_range=n_range))
        if q == 2:
            reports.append(r1_resolvent(sys, space.measure))
    elif space.kind == "powerL2":
        if sectorial and q == 2:
            reports.append(c7_halfsquare(mu, space.alpha, n_range=n_range))
            reports.append(r7_fractional_resolvent(sys, space.alpha))
        else:
            reports.append(_no_characterization(
                space, "power-scale criteria need a sectorial measure and q = 2"))
    elif space.kind == "sobolev":
        p, beta = space.p, space.beta
        if sectorial and p <= q and p > 1:
            reports.append(c5_sobolev_square(mu, p, q, beta, n_range=n_range))
        if sectorial and q < p:
            reports.append(c6_sobolev_balayage(mu, p, q, beta))
        if p == 2 and q == 2:
            reports.append(c8_shifted_carleson(mu, beta, n_range=n_range))
        if not reports:
            reports.append(_no_characterization(
                space, "Sobolev criteria need a sectorial measure (or p = q = 2)"))
    else:
        raise ValueError(f"unknown space kind {space.kind!r}")

    reports.append(_summary(reports))
    return reports


def _summary(reports: list[CriterionReport]) -> CriterionReport:
    verdicts = {r.verdict for r in reports if r.criterion != "none"}
    if not verdicts:
        combined = "no characterization known"
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
