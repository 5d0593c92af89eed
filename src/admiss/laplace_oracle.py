"""Direct numerical evaluation of Laplace embeddings for test families.

This module is the trust anchor: transforms and norms of the test kernels use
closed Gamma-function forms wherever possible, the Zen-space norm is computed
by honest product quadrature over the half-plane, and the embedding value is
the exact coordinate formula for the truncated system.  Quadrature appears
only where no closed form exists and is flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import gamma

from admiss.report import (
    CriterionReport,
    ladder_cuts,
    ladder_verdict,
    log_space,
    nested_log_sup,
)
from admiss.spaces import InputSpace
from admiss.system_model import DiagonalSystem
from admiss.zen_weight import RadialMeasure, WeightFunction, weight

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
    """Kernel test functions: exponentials, polynomial-exponentials
    t^(N-1) e^(-lam t), power-exponentials t^(-alpha) e^(-lam t), and finite
    mixtures over a polynomial-exponential dictionary."""

    __test__ = False  # not a pytest suite despite the name

    kind: str
    lam: complex | None = None
    n: int | None = None
    alpha: float | None = None
    terms: tuple[tuple[complex, int, complex], ...] | None = None

    def __post_init__(self):
        if self.kind in ("exp", "poly_exp", "power_exp"):
            if self.lam is None or complex(self.lam).real <= 0:
                raise ValueError("kernel rate must have positive real part")
        if self.kind == "poly_exp" and (self.n is None or self.n < 1):
            raise ValueError("polynomial order N must be >= 1")
        if self.kind == "power_exp" and (self.alpha is None or self.alpha >= 1):
            raise ValueError("power exponent must be < 1 for integrability near 0")
        if self.kind == "random_mix":
            if not self.terms:
                raise ValueError("mixture needs at least one term")
            for _, n, lam in self.terms:
                if n < 1 or complex(lam).real <= 0:
                    raise ValueError("invalid mixture term")

    @classmethod
    def exp(cls, lam: complex) -> "TestFunction":
        return cls("exp", lam=complex(lam))

    @classmethod
    def poly_exp(cls, n: int, lam: complex) -> "TestFunction":
        return cls("poly_exp", lam=complex(lam), n=int(n))

    @classmethod
    def power_exp(cls, alpha: float, lam: complex) -> "TestFunction":
        return cls("power_exp", lam=complex(lam), alpha=float(alpha))

    @classmethod
    def mix(cls, terms) -> "TestFunction":
        return cls("random_mix", terms=tuple((complex(c), int(n), complex(l)) for c, n, l in terms))

    @property
    def poly_terms(self) -> tuple[tuple[complex, int, complex], ...]:
        """Canonical (coeff, N, lam) list; undefined for power_exp kernels."""
        if self.kind == "exp":
            return ((1.0 + 0j, 1, self.lam),)
        if self.kind == "poly_exp":
            return ((1.0 + 0j, self.n, self.lam),)
        if self.kind == "random_mix":
            return self.terms
        raise ValueError("power_exp kernel has no polynomial-exponential expansion")

    def scaled(self, factor: complex) -> "TestFunction":
        if self.kind == "power_exp":
            raise ValueError("scaling is only supported for polynomial-exponential kernels")
        return TestFunction.mix([(c * factor, n, l) for c, n, l in self.poly_terms])

    def time_values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "power_exp":
            return t ** (-self.alpha) * np.exp(-self.lam * t)
        out = np.zeros(t.shape, dtype=complex)
        for c, n, lam in self.poly_terms:
            out += c * t ** (n - 1) * np.exp(-lam * t)
        return out


def laplace_at(f: TestFunction, z) -> np.ndarray | complex:
    """Closed-form Laplace transform of f at z (scalar or array), Re z >= 0."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if f.kind == "power_exp":
        shifted = f.lam + z_arr
        if (shifted == 0).any():
            raise ValueError("pole: lam + z = 0")
        out = gamma(1 - f.alpha) * shifted ** (f.alpha - 1)
    else:
        out = np.zeros(z_arr.shape, dtype=complex)
        for c, n, lam in f.poly_terms:
            shifted = lam + z_arr
            if (shifted == 0).any():
                raise ValueError("pole: lam + z = 0")
            out += c * gamma(n) / shifted**n
    return out if np.ndim(z) else complex(out[0])


def _measure_moment(m: RadialMeasure, power: float, decay: complex) -> complex:
    """Integral of t^power e^(-decay t) w(t) dt for the weight of ``m``,
    complex decay with positive real part.  Returns inf on divergence at 0."""
    if decay.real <= 0:
        raise ValueError("decay must have positive real part")
    total = 0j
    if (m.atom_at_zero > 0 or any(mass > 0 for _, mass in m.atoms)) and power <= -1:
        return complex(math.inf)
    if m.atom_at_zero > 0:
        total += 2 * math.pi * m.atom_at_zero * gamma(power + 1) / decay ** (power + 1)
    for r, mass in m.atoms:
        if mass > 0:
            total += 2 * math.pi * mass * gamma(power + 1) / (decay + 2 * r) ** (power + 1)
    if m.has_density:
        a = m.density_alpha
        eff = power - (a + 1)
        if eff <= -1:
            return complex(math.inf)
        total += (2 * math.pi * m.density_scale * gamma(a + 1) * 2 ** (-(a + 1))
                  * gamma(eff + 1) / decay ** (eff + 1))
    return total


def _pair_sum_norm_sq(f: TestFunction, moment) -> float:
    """|f|^2-integral against a quadratic moment functional: expands the
    mixture into pair terms t^(Ni+Nj-2) e^(-(lam_i + conj(lam_j)) t)."""
    total = 0j
    for ci, ni, li in f.poly_terms:
        for cj, nj, lj in f.poly_terms:
            val = moment(ni + nj - 2, li + lj.conjugate())
            if val == complex(math.inf) or (isinstance(val, float) and math.isinf(val)):
                return math.inf
            total += ci * cj.conjugate() * val
    return float(total.real)


def _mix_lp_norm(f: TestFunction, p: float) -> float:
    """L^p norm of a mixture by scale-normalized adaptive quadrature."""
    rates = [lam.real for _, _, lam in f.poly_terms]
    ref = min(rates)

    def integrand(u):
        return abs(complex(f.time_values(np.array([u / ref]))[0])) ** p

    val, _ = quad(integrand, 0, np.inf, epsabs=0.0, epsrel=1e-10, limit=400)
    return (val / ref) ** (1 / p)


def _sobolev_tail_ok(f: TestFunction, beta: float) -> bool:
    """Frequency tail integrability of |Ff|^2 |xi|^(2 beta)."""
    if f.kind == "power_exp":
        return 2 * beta + 2 * (f.alpha - 1) < -1
    n_min = min(n for _, n, _ in f.poly_terms)
    return 2 * beta - 2 * n_min < -1


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
    if f.kind == "power_exp":
        scale = abs(f.lam)
    else:
        scale = min(abs(lam) for _, _, lam in f.poly_terms)
    xi, wts = _geometric_panels(scale, 52, 16)
    vals = np.abs(laplace_at(f, 1j * xi)) ** 2 * (1 + np.abs(xi) ** (2 * beta))
    return float((vals * wts).sum()) / (2 * math.pi)


def _sobolev_fft_norm(f: TestFunction, p: float, beta: float) -> float:
    """Two-term Sobolev norm for general p via FFT fractional derivative.

    Quadrature-grade: sampled frequency inversion, intended for exploratory
    sweeps only; the p = 2 path uses the exact Plancherel surrogate instead.
    """
    if not _sobolev_tail_ok(f, beta):
        return math.inf
    if f.kind == "power_exp":
        raise ValueError("fractional derivative of power kernels is out of quadrature scope")
    scale = min(abs(lam) for _, _, lam in f.poly_terms)
    m = 1 << 16
    xi_max = scale * 4096.0
    xi = np.fft.fftfreq(m, d=1.0 / xi_max) * 2 * math.pi
    fhat = np.asarray(laplace_at(f, 1j * xi))
    ghat = (1j * xi) ** beta * fhat
    dt = 2 * math.pi / xi_max
    g = np.fft.ifft(ghat) / dt
    t = np.arange(m) * dt
    half = m // 2
    frac = (np.trapezoid(np.abs(g[1:half]) ** p, t[1:half])) ** (1 / p)
    base = _single_lp_norm(f, p)
    return (base**p + frac**p) ** (1 / p)


def _single_lp_norm(f: TestFunction, p: float) -> float:
    if f.kind == "power_exp":
        if p * f.alpha >= 1:
            return math.inf
        x = f.lam.real
        return (gamma(1 - p * f.alpha) / (p * x) ** (1 - p * f.alpha)) ** (1 / p)
    if len(f.poly_terms) == 1:
        c, n, lam = f.poly_terms[0]
        s = p * (n - 1)
        return abs(c) * (gamma(s + 1) / (p * lam.real) ** (s + 1)) ** (1 / p)
    return _mix_lp_norm(f, p)


def space_norm(f: TestFunction, space: InputSpace) -> float:
    """Norm of the test function in the given input space.

    Closed Gamma forms everywhere they exist; mixtures in L^p fall back to
    adaptive quadrature; Sobolev norms use the exact frequency surrogate at
    p = 2 and an FFT fractional derivative (quadrature-grade) otherwise.
    Divergent norms are reported as inf rather than raising.
    """
    if space.kind == "Lp":
        return _single_lp_norm(f, space.p)
    if space.kind == "weightedL2":
        m = space.measure
        if f.kind == "power_exp":
            val = _measure_moment(m, -2 * f.alpha, 2 * f.lam.real)
            return math.sqrt(float(val.real)) if not math.isinf(abs(val)) else math.inf
        sq = _pair_sum_norm_sq(f, lambda power, decay: _measure_moment(m, power, decay))
        return math.inf if math.isinf(sq) else math.sqrt(sq)
    if space.kind == "powerL2":
        a = space.alpha

        def moment(power, decay):
            if power + a <= -1:
                return complex(math.inf)
            return gamma(power + a + 1) / decay ** (power + a + 1)

        if f.kind == "power_exp":
            power = -2 * f.alpha
            if power + a <= -1:
                return math.inf
            return math.sqrt(gamma(power + a + 1) / (2 * f.lam.real) ** (power + a + 1))
        sq = _pair_sum_norm_sq(f, moment)
        return math.inf if math.isinf(sq) else math.sqrt(sq)
    if space.kind == "sobolev":
        if space.p == 2:
            sq = _sobolev_surrogate_sq(f, space.beta)
            return math.inf if math.isinf(sq) else math.sqrt(sq)
        return _sobolev_fft_norm(f, space.p, space.beta)
    raise ValueError(f"unknown space kind {space.kind!r}")


def embedding_value(sys: DiagonalSystem, f: TestFunction) -> float:
    """Exact ell^q state norm of the input-to-state map applied to f:
    (sum_k |Lf(-lambda_k)|^q |b_k|^q)^(1/q)."""
    vals = np.abs(np.asarray(laplace_at(f, -sys.eigenvalues)))
    return float(((vals * np.abs(sys.coeffs)) ** sys.q).sum() ** (1 / sys.q))


def kernel_condition_sweep(sys: DiagonalSystem, space: InputSpace,
                           points_per_decade: int = 10) -> CriterionReport:
    """Reproducing-kernel condition for the embedding, using the kernel family
    matched to the space: exponentials for L^p (p <= q) and Sobolev,
    polynomial-exponentials for weighted L^2, power kernels for the power
    scale, and the dyadic kernel sequence when q < p."""
    q = sys.q
    x = -sys.eigenvalues.real
    grid = log_space(x.min() / 100, x.max() * 100, points_per_decade)
    if space.kind == "Lp" and space.p > q:
        return _dyadic_kernel_sequence(sys, space)
    if space.kind == "Lp" or space.kind == "sobolev":
        kernels = [TestFunction.exp(z) for z in grid]
    elif space.kind == "weightedL2":
        n = _default_resolvent_power(space.measure, minimum=1)
        kernels = [TestFunction.poly_exp(n, z) for z in grid]
    elif space.kind == "powerL2":
        kernels = [TestFunction.power_exp(space.alpha, z) for z in grid]
    else:
        raise ValueError(f"no kernel family for space kind {space.kind!r}")
    ratios = np.empty(len(kernels))
    for i, f in enumerate(kernels):
        denom = space_norm(f, space)
        if math.isinf(denom) or denom == 0:
            ratios[i] = 0.0 if math.isinf(denom) else math.inf
        else:
            ratios[i] = embedding_value(sys, f) / denom
    levels, constant, best = nested_log_sup(grid, ratios)
    witness_z = float(grid[best])
    interior = bool(grid[0] < witness_z < grid[-1])
    return CriterionReport(
        criterion=f"K-sweep[{space.describe()}]",
        constant=constant,
        witness={"z": witness_z},
        verdict=ladder_verdict(levels),
        diagnostics={"levels": levels, "sup_interior": interior,
                     "points_per_decade": points_per_decade},
    )


def _dyadic_kernel_sequence(sys: DiagonalSystem, space: InputSpace) -> CriterionReport:
    """Sequence condition for q < p: the ell^(qp/(p-q)) norm of
    2^(n/p) * ||L e^(-2^n t)||_{L^q_mu} over dyadic rates."""
    p, q = space.p, sys.q
    x = -sys.eigenvalues.real
    n_lo = int(math.floor(math.log2(x.min()))) - 10
    n_hi = int(math.ceil(math.log2(x.max()))) + 10
    ns = np.arange(n_lo, n_hi + 1)
    seq = np.array([2.0 ** (n / p) * embedding_value(sys, TestFunction.exp(2.0**n)) for n in ns])
    s = q * p / (p - q)
    cuts = ladder_cuts(n_lo, n_hi)
    levels = [float((seq[ns <= cut] ** s).sum() ** (1 / s)) for cut in cuts]
    return CriterionReport(
        criterion=f"K-sweep[{space.describe()}]",
        constant=levels[-1],
        witness={"n_range": [n_lo, n_hi]},
        verdict=ladder_verdict(levels),
        diagnostics={"levels": levels, "sequence_exponent": s},
    )


def _default_resolvent_power(m: RadialMeasure, minimum: int = 2) -> int:
    """Smallest N >= minimum making the kernel-moment integral converge."""
    for n in range(minimum, minimum + 64):
        wf = WeightFunction(m, "probe")
        if not math.isinf(wf.poly_exp_moment(2 * n - 2, 1.0)):
            return n
    raise ValueError("no convergent kernel power found for this weight")


def zen_norm_by_quadrature(zen: RadialMeasure, f: TestFunction) -> float:
    """Zen-space norm of Lf by product quadrature: boundary/atom lines plus
    Gauss-Legendre panels in x against the power density, each line integrated
    in y over geometric panels with tail truncation."""
    if f.kind == "power_exp":
        n_min_order = 1 - f.alpha
    else:
        n_min_order = min(n for _, n, _ in f.poly_terms)
    # line integrals decay like x^(1 - 2N); the density integral then needs
    # 2N - 2 - alpha > 0
    if zen.has_density and 2 * n_min_order - 2 - zen.density_alpha <= 0:
        return math.inf

    if f.kind == "power_exp":
        rates = [f.lam]
    else:
        rates = [lam for _, _, lam in f.poly_terms]
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
    rate 1, matching the kernel sweep at that point.
    """
    if family_size < 1:
        raise ValueError("family size must be >= 1")
    x = -sys.eigenvalues.real
    j_cap = int(math.ceil(math.log2(100 * float(x.max()))))
    best = 0.0
    for i in range(family_size):
        j = min(i, j_cap)
        if i == 0:
            f = TestFunction.exp(1.0)
        else:
            rng = np.random.default_rng([seed, i])
            width = int(rng.integers(1, 4))
            coeffs = 10.0 ** rng.uniform(-1, 0, width)
            f = TestFunction.mix([(coeffs[m], 1, 2.0 ** (j - m)) for m in range(width)])
        denom = space_norm(f, space)
        if denom == 0 or math.isinf(denom):
            continue
        best = max(best, embedding_value(sys, f) / denom)
    return best
