"""Direct numerical evaluation of Laplace embeddings for test families.

This module is the trust anchor.  Every test function is a finite sum of
terms c t^(N-1) e^(-lam t) (``TestFunction``); transforms and norms use
closed Gamma-function forms wherever possible, the Zen-space norm is computed
by honest product quadrature over the half-plane, and the embedding value is
the exact coordinate formula for the truncated system.  For one term that
formula is a closed-form constant times one ``halfplane.kernel_sums``
value, the package's one primitive for spectral kernel sums; the kernel
sweep and the dyadic kernel sequence take all their points in one such call,
and the mixtures of ``empirical_ratio`` share one table of their kernels.
Quadrature appears only where no closed form exists and is flagged as such;
mixture L^p norms use the vectorised Gauss-Kronrod integrator of
``admiss.halfplane`` with an analytic bound on the truncated tail.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma

from admiss import halfplane
from admiss.halfplane import (
    _EPSABS,
    _integrate_with_breaks,
    _power_in_place,
    dyadic_kernel_sequence,
    kernel_sums,
)
from admiss.report import (
    CriterionReport,
    dyadic_levels,
    ladder_report,
    nested_log_sup,
    spectral_grid,
)
from admiss.spaces import InputSpace
from admiss.system_model import DiagonalSystem, spectral_measure
from admiss.zen_weight import RadialMeasure, WeightFunction

__all__ = [
    "TestFunction",
    "laplace_at",
    "space_norm",
    "embedding_value",
    "kernel_condition_sweep",
    "isometry_check",
    "empirical_ratio",
]


@dataclass(frozen=True)
class TestFunction:
    """A finite sum f(t) = sum_m c_m t^(N_m - 1) e^(-lam_m t) of terms
    (c, N, lam) with real order N > 0 and Re lam > 0.

    The Laplace transform of a term is c Gamma(N) / (lam + z)^N, so the
    exponential (N = 1), the polynomial kernel (integer N) and the power
    kernel t^(-alpha) e^(-lam t) (N = 1 - alpha) are one family.  Mixture
    L^p norms bound their tail for integer orders N >= 1, which ``mix``
    enforces.
    """

    __test__ = False  # not a pytest suite despite the name

    terms: tuple[tuple[complex, float, complex], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("test function needs at least one term")
        terms = tuple((complex(c), n, complex(lam)) for c, n, lam in self.terms)
        for _, n, lam in terms:
            if not n > 0:
                raise ValueError(f"kernel order N must be positive, got {n}")
            if not lam.real > 0:
                raise ValueError("kernel rate must have positive real part")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def exp(cls, lam: complex) -> "TestFunction":
        return cls(((1, 1, lam),))

    @classmethod
    def poly_exp(cls, n: int, lam: complex) -> "TestFunction":
        return cls(((1, int(n), lam),))

    @classmethod
    def power_exp(cls, alpha: float, lam: complex) -> "TestFunction":
        return cls(((1, 1 - float(alpha), lam),))

    @classmethod
    def mix(cls, terms) -> "TestFunction":
        terms = tuple((c, int(n), lam) for c, n, lam in terms)
        if any(n < 1 for _, n, _ in terms):
            raise ValueError("mixture orders N must be integers >= 1")
        return cls(terms)

    def time_values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for c, n, lam in self.terms:
            out += c * t ** (n - 1) * np.exp(-lam * t)
        return out


def laplace_at(f: TestFunction, z) -> np.ndarray | complex:
    """Closed-form Laplace transform sum_m c_m Gamma(N_m) (lam_m + z)^(-N_m)
    of f at z (scalar or array), Re z >= 0."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.zeros(z_arr.shape, dtype=complex)
    for c, n, lam in f.terms:
        shifted = lam + z_arr
        if (shifted == 0).any():
            raise ValueError("pole: lam + z = 0")
        out += c * gamma(n) / shifted**n
    return out if np.ndim(z) else complex(out[0])


def _pair_sum_norm_sq(f: TestFunction, moment) -> float:
    """|f|^2-integral against a quadratic moment functional: expands f into
    pair terms t^(Ni+Nj-2) e^(-(lam_i + conj(lam_j)) t)."""
    total = 0j
    for ci, ni, li in f.terms:
        for cj, nj, lj in f.terms:
            val = moment(ni + nj - 2, li + lj.conjugate())
            if val == complex(math.inf) or (isinstance(val, float) and math.isinf(val)):
                return math.inf
            total += ci * cj.conjugate() * val
    return float(total.real)


def _mix_lp_norm(f: TestFunction, p: float) -> tuple[float, float, bool]:
    """L^p norm of a mixture f(t) = sum_m c_m t^(N_m - 1) e^(-lam_m t).

    |f|^p is integrated over [0, U] by the adaptive Gauss-Kronrod rule of
    ``admiss.halfplane``, on dyadic panels from the fastest decay scale
    1 / max Re lam_m up to U.  The integrand is divided by S, the sum of the
    closed-form integrals of the terms of the envelope
    E(t) = sum_m |c_m| t^(N_m - 1) e^(-Re lam_m t) >= |f(t)|, so the
    integrator's absolute tolerance is relative to the envelope's size.
    Beyond U > (N_m - 1) / Re lam_m, t^(N-1) <= U^(N-1) e^((N-1)(t/U - 1))
    gives E(t) <= E(U) e^(-r (t - U)) with r = min_m Re lam_m - (N_m - 1)/U,
    so the tail is at most E(U)^p / (p r); U is doubled until that bound is
    a thousandth of the absolute tolerance, and the bound is added to the
    error.  Returns (value, error estimate, converged), converged False when
    the integrator stopped at its panel cap.
    """
    c = np.array([abs(c) for c, _, _ in f.terms])
    k = np.array([n - 1 for _, n, _ in f.terms], dtype=float)
    x = np.array([lam.real for _, _, lam in f.terms])
    scale = float((c**p * gamma(p * k + 1) / (p * x) ** (p * k + 1)).sum())
    if scale == 0:
        return 0.0, 0.0, True

    def tail(u: float) -> float:
        envelope = float((c * u**k * np.exp(-x * u)).sum())
        return envelope**p / (p * float((x - k / u).min())) / scale

    u = max(1 / x.min(), 2 * float((k / x).max()))
    while tail(u) > 1e-3 * _EPSABS:
        u *= 2
    breaks = 2.0 ** np.arange(math.floor(math.log2(1 / x.max())), math.ceil(math.log2(u)))
    integral, error, converged = _integrate_with_breaks(
        lambda t: np.abs(f.time_values(t)) ** p / scale, 0.0, u, breaks)
    error += tail(u)
    value = (integral * scale) ** (1 / p)
    # first-order propagation through the 1/p root, as in balayage_norm
    abserr = (error * scale) ** (1 / p) if integral == 0 else value * error / (p * integral)
    return value, abserr, converged


def _sobolev_tail_ok(f: TestFunction, beta: float) -> bool:
    """Frequency tail integrability of |Ff|^2 |xi|^(2 beta)."""
    return 2 * beta - 2 * min(n for _, n, _ in f.terms) < -1


def _geometric_panels(scale: float, octaves: int, order: int, center: float = 0.0,
                      two_sided: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on geometric panels away from ``center``."""
    xg, wg = leggauss(order)
    # refine toward the center too: kinks like |xi|^(2 beta) sit there
    edges = [0.0] + [scale * 2.0**k for k in range(-40, octaves + 1)]
    nodes, weights = [], []
    sides = (1.0, -1.0) if two_sided else (1.0,)
    for sign in sides:
        for a, b in zip(edges[:-1], edges[1:]):
            lo, hi = sorted((center + sign * a, center + sign * b))
            half = (hi - lo) / 2
            nodes.append((lo + hi) / 2 + half * xg)
            weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _sobolev_surrogate_sq(f: TestFunction, beta: float) -> float:
    """Frequency-side surrogate norm^2 for p = 2: (1/2pi) * integral of
    |Ff(xi)|^2 (1 + |xi|^(2 beta)) d xi, with Ff(xi) = Lf(i xi)."""
    if not _sobolev_tail_ok(f, beta):
        return math.inf
    scale = min(abs(lam) for _, _, lam in f.terms)
    xi, wts = _geometric_panels(scale, 52, 16)
    vals = np.abs(laplace_at(f, 1j * xi)) ** 2 * (1 + np.abs(xi) ** (2 * beta))
    return float((vals * wts).sum()) / (2 * math.pi)


def _sobolev_fft_norm(f: TestFunction, p: float, beta: float, base_scale=1.0,
                      frac_scale=1.0) -> tuple:
    """Two-term Sobolev norm for general p via FFT fractional derivative, and
    whether the L^p term converged (see ``_single_lp_norm``).

    The L^p part is multiplied by ``base_scale`` and the derivative's part by
    ``frac_scale`` before they are combined; arrays of scales give an array
    of norms (see ``_kernel_norms``).

    Quadrature-grade: sampled frequency inversion, intended for exploratory
    sweeps only; the p = 2 path uses the exact Plancherel surrogate instead.
    """
    if not _sobolev_tail_ok(f, beta):
        return math.inf * np.ones_like(base_scale * frac_scale), True
    frac = _fft_derivative_norm(f, p, beta) * frac_scale
    base, converged = _single_lp_norm(f, p)
    base = base * base_scale
    return (base**p + frac**p) ** (1 / p), converged


def _fft_derivative_norm(f: TestFunction, p: float, beta: float) -> float:
    """L^p norm of the fractional derivative D^beta f, by inverting its
    transform (i xi)^beta Lf(i xi) sampled on a 2^16-point FFT grid that
    reaches 4096 min |lam|."""
    if any(n != int(n) for _, n, _ in f.terms):
        raise ValueError("fractional derivative of power kernels is out of quadrature scope")
    scale = min(abs(lam) for _, _, lam in f.terms)
    m = 1 << 16
    xi_max = scale * 4096.0
    xi = np.fft.fftfreq(m, d=1.0 / xi_max) * 2 * math.pi
    fhat = np.asarray(laplace_at(f, 1j * xi))
    ghat = (1j * xi) ** beta * fhat
    dt = 2 * math.pi / xi_max
    g = np.fft.ifft(ghat) / dt
    t = np.arange(m) * dt
    half = m // 2
    return float(np.trapezoid(np.abs(g[1:half]) ** p, t[1:half])) ** (1 / p)


def _kernel_norms(n: float, rates: np.ndarray, space: InputSpace) -> np.ndarray:
    """``space_norm`` of the kernel t^(n-1) e^(-z t) at each positive rate z.

    In a Sobolev space with p != 2 both parts of the two-term norm are
    homogeneous in the rate: the L^p norm is z^(-(n-1)-1/p) times its value
    at rate 1, and the FFT grid of ``_fft_derivative_norm`` scales with the
    rate, so the derivative's norm is z^(beta-(n-1)-1/p) times its value at
    rate 1.  One FFT at rate 1 then serves every rate.
    """
    if space.kind != "sobolev" or space.p == 2:
        return np.array([space_norm(TestFunction(((1, n, z),)), space) for z in rates])
    p, beta = space.p, space.beta
    return _sobolev_fft_norm(TestFunction(((1, n, 1.0),)), p, beta,
                             rates ** (-(n - 1) - 1 / p), rates ** (beta - (n - 1) - 1 / p))[0]


def _single_lp_norm(f: TestFunction, p: float) -> tuple[float, bool]:
    """L^p norm, and False when a mixture's quadrature did not converge."""
    if len(f.terms) > 1:
        value, _, converged = _mix_lp_norm(f, p)
        return value, converged
    c, n, lam = f.terms[0]
    s = p * (n - 1)  # |f|^p = |c|^p t^s e^(-p Re lam t), integrable near 0 iff s > -1
    if s <= -1:
        return math.inf, True
    return abs(c) * (gamma(s + 1) / (p * lam.real) ** (s + 1)) ** (1 / p), True


def space_norm(f: TestFunction, space: InputSpace) -> float:
    """Norm of the test function in the given input space.

    Closed Gamma forms everywhere they exist; mixtures in L^p fall back to
    adaptive quadrature; Sobolev norms use the exact frequency surrogate at
    p = 2 and an FFT fractional derivative (quadrature-grade) otherwise.
    Divergent norms are reported as inf rather than raising.  A mixture norm
    whose quadrature stopped at the integrator's panel cap is returned with a
    warning.
    """
    value, converged = _space_norm(f, space)
    if not converged:
        warnings.warn("mixture L^p norm quadrature stopped at its panel cap unconverged",
                      stacklevel=2)
    return value


def _space_norm(f: TestFunction, space: InputSpace) -> tuple[float, bool]:
    """``space_norm`` and whether its quadrature converged."""
    if space.kind == "Lp":
        return _single_lp_norm(f, space.p)
    if space.kind == "sobolev" and space.p != 2:
        return _sobolev_fft_norm(f, space.p, space.beta)
    return _hilbert_norm(f, space), True


def _hilbert_norm(f: TestFunction, space: InputSpace) -> float:
    """Norm in weighted L^2, power-weighted L^2 or the p = 2 Sobolev space."""
    if space.kind == "weightedL2":
        wf = WeightFunction(space.measure, "unchecked")
        sq = _pair_sum_norm_sq(f, wf.poly_exp_moment)
        return math.inf if math.isinf(sq) else math.sqrt(sq)
    if space.kind == "powerL2":
        a = space.alpha

        def moment(power, decay):
            if power + a <= -1:
                return complex(math.inf)
            return gamma(power + a + 1) / decay ** (power + a + 1)

        sq = _pair_sum_norm_sq(f, moment)
        return math.inf if math.isinf(sq) else math.sqrt(sq)
    if space.kind == "sobolev":
        sq = _sobolev_surrogate_sq(f, space.beta)
        return math.inf if math.isinf(sq) else math.sqrt(sq)
    raise ValueError(f"unknown space kind {space.kind!r}")


def embedding_value(sys: DiagonalSystem, f: TestFunction) -> float:
    """Exact ell^q state norm of the input-to-state map applied to f:
    (sum_k |Lf(-lambda_k)|^q |b_k|^q)^(1/q).  A single term takes one
    ``kernel_sums`` value (see ``_kernel_embeddings``); a mixture takes its
    transform from the kernel table of ``_embeddings``."""
    return float(_embeddings(sys, [f])[0])


def _embeddings(sys: DiagonalSystem, fs: list[TestFunction]) -> np.ndarray:
    """``embedding_value`` of every test function in ``fs``.

    A single term c t^(N-1) e^(-lam t) is |c| times its one ``kernel_sums``
    value.  The mixtures share one table of their distinct kernels
    (N, lam): row (N, lam) holds the kernel's transform Gamma(N)
    (lam - lambda_k)^(-N) at every atom, and the mixtures' transforms are
    the product of their coefficient matrix with the table.  The table is
    formed one block of atoms at a time, so memory stays O(_BLOCK_ENTRIES)
    whatever the number of atoms and mixtures, and in real arithmetic when
    the spectrum, the rates and the coefficients are all real.
    """
    out = np.empty(len(fs))
    mixtures = []
    for i, f in enumerate(fs):
        if len(f.terms) == 1:
            c, n, lam = f.terms[0]
            out[i] = abs(c) * _kernel_embeddings(sys, n, lam)[0]
        else:
            mixtures.append(i)
    if not mixtures:
        return out
    kernels = list(dict.fromkeys((n, lam) for i in mixtures for _, n, lam in fs[i].terms))
    row = {kernel: r for r, kernel in enumerate(kernels)}
    coef = np.zeros((len(mixtures), len(kernels)), dtype=complex)
    for j, i in enumerate(mixtures):
        for c, n, lam in fs[i].terms:
            coef[j, row[(n, lam)]] += c * gamma(n)
    rates = np.array([lam for _, lam in kernels])
    mu = spectral_measure(sys)
    s = mu.locations
    if mu.y is None and not (rates.imag.any() or coef.imag.any()):
        rates, coef = rates.real, coef.real
    # a block's table and the mixtures' values there hold _BLOCK_ENTRIES entries
    cols = max(1, halfplane._BLOCK_ENTRIES // (len(kernels) + len(mixtures)))
    total = np.zeros(len(mixtures))
    for k in range(0, s.size, cols):
        table = rates[:, None] + s[k:k + cols]
        for r, (n, _) in enumerate(kernels):
            table[r] = _power_in_place(table[r], -n)
        values = coef @ table
        if np.iscomplexobj(values):
            mod_sq = values.real * values.real
            mod_sq += values.imag * values.imag
        else:
            mod_sq = np.multiply(values, values, out=values)
        total += _power_in_place(mod_sq, sys.q / 2) @ mu.masses[k:k + cols]
    out[mixtures] = total ** (1 / sys.q)
    return out


def _kernel_embeddings(sys: DiagonalSystem, n: float, rates) -> np.ndarray:
    """``embedding_value`` of the kernel t^(N-1) e^(-lam t) of order n at
    each rate lam in ``rates``.  Its transform has modulus
    Gamma(N) |lam + s|^(-N), so the q-th power of the embedding is
    Gamma(N)^q times the kernel sum of the spectral measure at power
    -N q / 2."""
    q = sys.q
    return gamma(n) * kernel_sums(rates, spectral_measure(sys), -n * q / 2) ** (1 / q)


def kernel_condition_sweep(sys: DiagonalSystem, space: InputSpace,
                           points_per_decade: int = 10) -> CriterionReport:
    """Reproducing-kernel condition for the embedding over the kernels
    t^(N-1) e^(-z t), with one order N matched to the space: N = 1 for L^p
    (p <= q), the smallest N with a finite H^beta norm (2 beta - 2N < -1)
    for Sobolev, the weight's resolvent power for weighted L^2 and
    N = 1 - alpha for the power scale; the dyadic kernel sequence when
    q < p."""
    if space.kind == "Lp" and space.p > sys.q:
        return _dyadic_kernel_sequence(sys, space)
    grid = spectral_grid(spectral_measure(sys).x, points_per_decade)
    if space.kind == "Lp":
        n = 1
    elif space.kind == "sobolev":
        n = math.floor(space.beta + 0.5) + 1
    elif space.kind == "weightedL2":
        n = WeightFunction(space.measure, "unchecked").resolvent_power(minimum=1)
    elif space.kind == "powerL2":
        n = 1 - space.alpha
    else:
        raise ValueError(f"no kernel family for space kind {space.kind!r}")
    norms = _kernel_norms(n, grid, space)
    # a zero norm reads inf, an infinite norm (no kernel in the space) 0
    ratios = np.divide(_kernel_embeddings(sys, n, grid), norms, out=np.full(grid.size, np.inf),
                       where=norms != 0)
    ratios[np.isinf(norms)] = 0.0
    levels, constant, best = nested_log_sup(grid, ratios)
    witness_z = float(grid[best])
    return ladder_report(f"K-sweep[{space.describe()}]", constant, {"z": witness_z}, levels,
                         sup_interior=bool(grid[0] < witness_z < grid[-1]),
                         points_per_decade=points_per_decade)


def _dyadic_kernel_sequence(sys: DiagonalSystem, space: InputSpace) -> CriterionReport:
    """Sequence condition for q < p: the ell^(qp/(p-q)) norm of
    2^(n/p) * ||L e^(-2^n t)||_{L^q_mu} over dyadic rates
    (``halfplane.dyadic_kernel_sequence``)."""
    p, q = space.p, sys.q
    mu = spectral_measure(sys)
    n_lo = int(math.floor(math.log2(mu.x.min()))) - 10
    n_hi = int(math.ceil(math.log2(mu.x.max()))) + 10
    ns = np.arange(n_lo, n_hi + 1)
    seq = dyadic_kernel_sequence(mu, ns, p, q)
    s = q * p / (p - q)
    levels = dyadic_levels(seq, n_lo, s)
    return ladder_report(f"K-sweep[{space.describe()}]", levels[-1], {"n_range": [n_lo, n_hi]},
                         levels, sequence_exponent=s)


def zen_norm_by_quadrature(zen: RadialMeasure, f: TestFunction) -> float:
    """Zen-space norm of Lf by product quadrature: boundary/atom lines plus
    Gauss-Legendre panels in x against the power density, each line integrated
    in y over geometric panels with tail truncation."""
    n_min_order = min(n for _, n, _ in f.terms)
    # line integrals decay like x^(1 - 2N); the density integral then needs
    # 2N - 2 - alpha > 0
    if zen.has_density and 2 * n_min_order - 2 - zen.density_alpha <= 0:
        return math.inf

    rates = [lam for _, _, lam in f.terms]
    y_center = -float(np.mean([lam.imag for lam in rates]))

    def line_integral(x: np.ndarray) -> np.ndarray:
        """integral over y of |Lf(x + iy)|^2 for each x (vectorized)."""
        x = np.atleast_1d(x)
        w_scale = float(min(lam.real for lam in rates)) + float(x.min())
        octaves = 52 if n_min_order < 1.5 else 40
        y, wts = _geometric_panels(w_scale, octaves, 12, center=y_center)
        z = x[:, None] + 1j * y[None, :]
        vals = np.abs(np.asarray(laplace_at(f, z))) ** 2
        return vals @ wts

    total = 0.0
    if zen.atom_at_zero > 0:
        total += zen.atom_at_zero * float(line_integral(np.array([0.0]))[0])
    for r, mass in zen.atoms:
        if mass > 0:
            total += mass * float(line_integral(np.array([r]))[0])
    if zen.has_density:
        a = zen.density_alpha
        x_ref = float(min(lam.real for lam in rates))
        down = math.ceil(14 * math.log2(10) / (a + 1)) + 8
        decay = 2 * n_min_order - 2 - a
        up = math.ceil(14 * math.log2(10) / max(decay, 0.25)) + 8
        xg, wg = leggauss(12)
        x_nodes, x_wts = [], []
        for k in range(-down, up):
            lo, hi = x_ref * 2.0**k, x_ref * 2.0 ** (k + 1)
            half = (hi - lo) / 2
            x_nodes.append((lo + hi) / 2 + half * xg)
            x_wts.append(half * wg)
        x_nodes = np.concatenate(x_nodes)
        x_wts = np.concatenate(x_wts)
        line = line_integral(x_nodes)
        total += zen.density_scale * float((x_nodes**a * line * x_wts).sum())
    return math.sqrt(total)


def isometry_check(zen: RadialMeasure, f: TestFunction) -> float:
    """Relative mismatch between the half-plane quadrature norm of Lf and the
    closed-form weighted time-domain norm of f.  Zero function gives 0."""
    time_norm = space_norm(f, InputSpace("weightedL2", measure=zen))
    if time_norm == 0:
        return 0.0
    if math.isinf(time_norm):
        raise ValueError("test function is not in the weighted space")
    zen_norm = zen_norm_by_quadrature(zen, f)
    return abs(zen_norm / time_norm - 1.0)


def empirical_ratio(sys: DiagonalSystem, space: InputSpace, family_size: int,
                    seed: int) -> float:
    """Monte-Carlo LOWER bound on the embedding norm: max of
    embedding_value / space_norm over a family of dictionary mixtures.

    The dictionary is exponential kernels at dyadic rates; the family's i-th
    member is centred at rate 2^i (capped at 100x the spectral radius), with
    a seeded random width and coefficients, so families are nested in
    ``family_size`` and the bound is monotone.  Member 0 is the pure kernel at
    rate 1, matching the kernel sweep at that point.  A member whose norm
    quadrature did not converge is skipped, so the result stays a lower
    bound.
    """
    if family_size < 1:
        raise ValueError("family size must be >= 1")
    j_cap = int(math.ceil(math.log2(100 * float(spectral_measure(sys).x.max()))))
    members, denoms = [], []
    for i in range(family_size):
        j = min(i, j_cap)
        if i == 0:
            f = TestFunction.exp(1.0)
        else:
            rng = np.random.default_rng([seed, i])
            width = int(rng.integers(1, 4))
            coeffs = 10.0 ** rng.uniform(-1, 0, width)
            f = TestFunction.mix([(coeffs[m], 1, 2.0 ** (j - m)) for m in range(width)])
        denom, converged = _space_norm(f, space)
        if not converged or denom == 0 or math.isinf(denom):
            continue
        members.append(f)
        denoms.append(denom)
    ratios = (_embeddings(sys, members) / np.array(denoms)).tolist() if members else []
    return max([0.0, *ratios])
