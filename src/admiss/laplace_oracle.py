"""Direct numerical evaluation of Laplace embeddings for test families.

This module is the trust anchor.  Every test function is a finite sum of
terms c t^(N-1) e^(-lam t) (``TestFunction``); transforms and norms use
closed Gamma-function forms wherever possible, and the embedding value is
the exact coordinate formula for the truncated system.  For one term that
formula is a closed-form constant times one ``halfplane.kernel_sums``
value, the package's one primitive for spectral kernel sums; the kernel
sweep and the dyadic kernel sequence take all their points in one such call,
and the mixtures of ``empirical_ratio`` share one table of their kernels.
Where no closed form exists, the mixture L^p norms, the p = 2 Sobolev norm
and the Zen-space norm of the isometry check (an iterated integral over the
half-plane) use the Gauss-Kronrod integrator of ``admiss.halfplane``, with
their infinite tails bounded in closed form and counted in the error; only
the p != 2 Sobolev norm samples an FFT instead.  ``_space_norm`` is the one
dispatch from a space to the norm of a test function.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from admiss import halfplane
from admiss.halfplane import (
    _EPSABS,
    _height_seeds,
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
from admiss.zen_weight import RadialMeasure, WeightFunction, gamma

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
    (c, N, lam) with real order N > 0 and finite lam, Re lam > 0.

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
            if not (lam.real > 0 and cmath.isfinite(lam)):  # its pole seeds quadratures
                raise ValueError(f"kernel rate must be finite with positive real part, got {lam}")
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
    shifted = np.empty_like(out)
    for c, n, lam in f.terms:
        np.add(lam, z_arr, out=shifted)
        if not shifted.all():  # some lam + z is 0
            raise ValueError("pole: lam + z = 0")
        shifted **= n  # in place, by the path ``shifted ** n`` takes
        out += np.divide(c * gamma(n), shifted, out=shifted)
    return out if np.ndim(z) else complex(out[0])


def _pair_sum_norm_sq(f: TestFunction, moment) -> float:
    """|f|^2-integral against a quadratic moment functional: expands f into
    pair terms t^(Ni+Nj-2) e^(-(lam_i + conj(lam_j)) t)."""
    total = 0j
    for ci, ni, li in f.terms:
        for cj, nj, lj in f.terms:
            val = moment(ni + nj - 2, li + lj.conjugate())
            if math.isinf(abs(val)):
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
    gammas = np.array([gamma(a) for a in p * k + 1])
    scale = float((c**p * gammas / (p * x) ** (p * k + 1)).sum())
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


def _pole_breaks(lam: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Breaks for an integral of |Lf(x + iy)| over y: the pole heights
    -Im lam and their ``_height_seeds`` at the widths Re lam."""
    y = -lam.imag if lam.imag.any() else None
    return np.concatenate((np.zeros(1) if y is None else y, _height_seeds(lam.real, y, lo, hi)))


def _sobolev_surrogate_sq(f: TestFunction, beta: float) -> tuple[float, float]:
    """Frequency-side surrogate norm^2 for p = 2, (1/2pi) * integral of
    |Ff(xi)|^2 (1 + |xi|^(2 beta)) d xi with Ff(xi) = Lf(i xi), and its error.

    Gauss-Kronrod over [-X, X] on breaks at the kink 0, geometric toward it,
    and ``_pole_breaks``, the integrand over S = sum_m |a_m|^2
    Re(lam_m)^(1-2N_m) (1 + |lam_m|^(2 beta)), a_m = c_m Gamma(N_m).  For
    |xi| >= X >= 2 max |lam_m|, Lf(i xi) = A (i xi)^(-N0) + R with A the sum
    of a_m of least order N0 and |R| <= e |xi|^(-N0) (mean value theorem).
    The tail of |A|^2 |xi|^(-2N0) (1 + |xi|^(2 beta)) is added in closed form,
    the rest, at most e (2|A| + e) / |A|^2 of it, goes into the error, and X
    is doubled until that is a thousandth of _EPSABS.
    """
    if not _sobolev_tail_ok(f, beta):
        return math.inf, 0.0
    a, n, lam = map(np.array, zip(*((c * gamma(n), float(n), lam) for c, n, lam in f.terms)))
    scale = float((abs(a) ** 2 * lam.real ** (1 - 2 * n) * (1 + abs(lam) ** (2 * beta))).sum())
    if scale == 0:
        return 0.0, 0.0
    n0 = float(n.min())
    gap = 2 * n0 - 1 - 2 * beta  # exact for n0 = 1 and 1/4 <= beta <= 1
    lead = abs(a[n == n0].sum())
    near = float(abs(a * lam)[n == n0].sum()) * n0 * 2 ** (n0 + 1)
    far = [(float(v), float(d)) for v, d in zip(abs(a) * 2**n, n - n0) if d > 0]

    def tails(x: float) -> tuple[float, float]:
        """The leading term's tail past |xi| = x and the bound on the rest, over S."""
        e = near / x + sum(v * x**-d for v, d in far)
        power = 2 * (x ** (1 - 2 * n0) / (2 * n0 - 1) + x**-gap / gap) / scale
        return lead**2 * power, e * (2 * lead + e) * power

    x = 2 * float(abs(lam).max())
    while tails(x)[1] > 1e-3 * _EPSABS:
        x *= 2
    kink = float(lam.real.min()) * 2.0 ** -np.arange(1, 41)
    integral, error, _ = _integrate_with_breaks(
        lambda xi: abs(laplace_at(f, 1j * xi)) ** 2 * (1 + abs(xi) ** (2 * beta)) / scale,
        -x, x, np.concatenate(([0.0], kink, -kink, _pole_breaks(lam, -x, x))))
    return tuple((v + t) * scale / (2 * math.pi) for v, t in zip((integral, error), tails(x)))


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
    unit = TestFunction(((1, n, 1.0),))
    if not _sobolev_tail_ok(unit, beta):
        return np.full(rates.shape, math.inf)
    base = _space_norm(unit, InputSpace("Lp", p=p))[0] * rates ** (-(n - 1) - 1 / p)
    frac = _fft_derivative_norm(unit, p, beta) * rates ** (beta - (n - 1) - 1 / p)
    return (base**p + frac**p) ** (1 / p)


def space_norm(f: TestFunction, space: InputSpace) -> float:
    """Norm of the test function in the given input space (``_space_norm``).

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
    """``space_norm`` and whether its quadrature converged; the one dispatch
    on space kind.  L^p: a closed Gamma form for one term, ``_mix_lp_norm``
    for a mixture.  Sobolev p != 2: (||f||_p^p + ||D^beta f||_p^p)^(1/p)
    with the FFT derivative (quadrature-grade).  Sobolev p = 2: ``_sobolev_surrogate_sq``.
    Weighted L^2 scales: ``_pair_sum_norm_sq`` with the weight's moment."""
    p = space.p
    if space.kind == "Lp":
        if len(f.terms) > 1:
            value, _, converged = _mix_lp_norm(f, p)
            return value, converged
        c, n, lam = f.terms[0]
        s = p * (n - 1)  # |f|^p = |c|^p t^s e^(-p Re lam t), integrable near 0 iff s > -1
        if s <= -1:
            return math.inf, True
        return abs(c) * (gamma(s + 1) / (p * lam.real) ** (s + 1)) ** (1 / p), True
    if space.kind == "sobolev" and p != 2:
        if not _sobolev_tail_ok(f, space.beta):
            return math.inf, True
        base, converged = _space_norm(f, InputSpace("Lp", p=p))
        frac = _fft_derivative_norm(f, p, space.beta)
        return (base**p + frac**p) ** (1 / p), converged
    if space.kind == "sobolev":
        return math.sqrt(_sobolev_surrogate_sq(f, space.beta)[0]), True
    if space.kind == "weightedL2":
        moment = WeightFunction(space.measure).poly_exp_moment
    elif space.kind == "powerL2":
        a = space.alpha

        def moment(power, decay):
            if power + a <= -1:
                return complex(math.inf)
            return gamma(power + a + 1) / decay ** (power + a + 1)
    else:
        raise ValueError(f"unknown space kind {space.kind!r}")
    return math.sqrt(_pair_sum_norm_sq(f, moment)), True


def embedding_value(sys: DiagonalSystem, f: TestFunction) -> float:
    """Exact ell^q state norm of the input-to-state map applied to f:
    (sum_k |Lf(-lambda_k)|^q |b_k|^q)^(1/q).  A single term takes one
    ``kernel_sums`` value (see ``_kernel_embeddings``); a mixture takes its
    transform from the kernel table of ``_embeddings``."""
    return float(_embeddings(sys, [f])[0])


def _embeddings(sys: DiagonalSystem, fs: list[TestFunction]) -> np.ndarray:
    """``embedding_value`` of every test function in ``fs``.

    A single term c t^(N-1) e^(-lam t) is |c| times its ``kernel_sums``
    value, one call per order N.  The mixtures share one table of their
    distinct kernels (N, lam): row (N, lam) holds the kernel's transform Gamma(N)
    (lam - lambda_k)^(-N) at every atom, and the mixtures' transforms are
    the product of their coefficient matrix with the table.  The table is
    formed one block of atoms at a time, so memory stays O(_BLOCK_ENTRIES)
    whatever the number of atoms and mixtures, and in real arithmetic when
    the spectrum, the rates and the coefficients are all real.
    """
    out = np.empty(len(fs))
    mixtures, singles = [], {}
    for i, f in enumerate(fs):
        if len(f.terms) == 1:
            singles.setdefault(f.terms[0][1], []).append(i)
        else:
            mixtures.append(i)
    for n, members in singles.items():
        coef = np.abs([fs[i].terms[0][0] for i in members])
        out[members] = coef * _kernel_embeddings(sys, n, [fs[i].terms[0][2] for i in members])
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
    s, masses = mu.locations, np.ascontiguousarray(mu.masses)  # for BLAS, as in kernel_sums
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
        total += _power_in_place(mod_sq, sys.q / 2) @ masses[k:k + cols]
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
        n = WeightFunction(space.measure).resolvent_power(minimum=1)
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


# columns per inner Zen-norm quadrature, and the most octaves its ranges reach
# past the rates: a tail bound not met there stays in the error
_ZEN_COLUMNS = 64
_ZEN_OCTAVES = 200


def zen_norm_by_quadrature(zen: RadialMeasure, f: TestFunction) -> float:
    """Zen-space norm of Lf, the root of the ``_zen_norm_sq`` quadrature."""
    return math.sqrt(_zen_norm_sq(zen, f)[0])


def _zen_norm_sq(zen: RadialMeasure, f: TestFunction) -> tuple[float, float]:
    """||Lf||^2 in A^2_nu, the nu-integral of L(x) = integral of |Lf(x + iy)|^2
    dy, by iterated Gauss-Kronrod quadrature, and its error.

    L is one vector-valued integral over y for a block of columns x, on
    ``_pole_breaks``, each column over s(x) = sum_m K_m (x + Re lam_m)^(1-2N_m),
    K_m = C_m^2 sqrt(pi) Gamma(N_m - 1/2) / Gamma(N_m), C_m = |c_m| Gamma(N_m);
    by Cauchy-Schwarz L <= M s over M terms, and the y-tails past d from the
    outermost heights hold at most 2 M sum_m C_m^2 d^(1-2N_m) / (2N_m - 1).
    The density c x^alpha dx is an outer integral over [x0, X] on breaks every
    3 octaves.  On [0, x0] it is at most M s(0) x0^(alpha+1) / (alpha+1), and
    L(x0) <= L <= L(0) there (L decreases) gives it to half their difference;
    past X it is at most M sum_m K_m X^(alpha+2-2N_m) / (2N_m-2-alpha).  d, x0
    and X put those bounds at a thousandth of _EPSABS, within _ZEN_OCTAVES of
    the rates; the error adds the tails and the largest relative error of a
    column times the density's value.
    """
    terms = [(abs(c) * gamma(n), float(n), lam) for c, n, lam in f.terms if c != 0]
    if not terms:
        return 0.0, 0.0
    c, n, lam = map(np.array, zip(*terms))
    alpha = zen.density_alpha if zen.has_density else -1.0
    if 2 * n.min() - 1 <= 0 or 2 * n.min() - 2 - alpha <= 0:  # L or its nu-integral diverges
        return math.inf, 0.0
    size, rho, target = len(terms), lam.real, 1e-3 * _EPSABS
    k = c * c * math.sqrt(math.pi) * np.array([gamma(v - 0.5) / gamma(v) for v in n])
    worst = [0.0]  # largest relative error of a column

    def lines(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L and its error at every column, in blocks of _ZEN_COLUMNS by x."""
        value, error = np.empty(x.size), np.empty(x.size)
        for block in np.array_split(np.argsort(x), range(_ZEN_COLUMNS, x.size, _ZEN_COLUMNS)):
            xb = x[block]
            s = ((xb[:, None] + rho) ** (1 - 2 * n) * k).sum(axis=1)
            log2_d = np.log2(target * s.min() * (2 * n - 1) / (2 * size**2 * c * c)) / (1 - 2 * n)
            d = 2.0 ** min(float(log2_d.max()), math.log2(xb.max() + rho.max()) + _ZEN_OCTAVES)
            lo, hi = -lam.imag.max() - d, -lam.imag.min() + d
            v, e, _ = _integrate_with_breaks(
                lambda y: abs(laplace_at(f, xb + 1j * y[:, None])) ** 2 / s, lo, hi,
                _pole_breaks(lam, lo, hi))
            e += 2 * size * float((c * c * d ** (1 - 2 * n) / (2 * n - 1)).sum()) / s
            worst[0] = max(worst[0], float((e / v).max()))
            value[block], error[block] = v * s, e * s
        return value, error

    x, w = np.array([(0.0, zen.atom_at_zero), *zen.atoms]).T
    total, error = (float(w @ v) for v in lines(x))
    if zen.has_density:
        decay = 2 * n - 2 - alpha
        scale = float((k * rho**-decay).sum())
        s0 = float((k * rho ** (1 - 2 * n)).sum())
        x0 = 2.0 ** max(math.log2(target * scale * (alpha + 1) / (size * s0)) / (alpha + 1),
                        math.log2(rho.min()) - _ZEN_OCTAVES)
        log2_top = np.log2(target * scale * decay / (size * size * k)) / -decay
        top = 2.0 ** min(float(log2_top.max()), math.log2(rho.max()) + _ZEN_OCTAVES)
        breaks = x0 * 8.0 ** np.arange(math.ceil(math.log2(top / x0) / 3) + 1)
        integral, outer_error, _ = _integrate_with_breaks(
            lambda x: x**alpha * lines(x)[0] / scale, x0, float(breaks[-1]), breaks)
        ends = lines(np.array([0.0, x0]))[0] * x0 ** (alpha + 1) / ((alpha + 1) * scale)
        integral += ends.mean()
        outer_error += (ends[0] - ends[1]) / 2 + size * float(
            (k * breaks[-1] ** -decay / decay).sum()) / scale
        total += zen.density_scale * scale * integral
        error += zen.density_scale * scale * (outer_error + worst[0] * integral)
    return float(total), float(error)


def _isometry(zen: RadialMeasure, f: TestFunction) -> tuple[float, float]:
    """``isometry_check`` and the relative error bound of the quadrature norm."""
    time_norm = space_norm(f, InputSpace("weightedL2", measure=zen))
    if time_norm == 0:
        return 0.0, 0.0
    if math.isinf(time_norm):
        raise ValueError("test function is not in the weighted space")
    sq, error = _zen_norm_sq(zen, f)
    return abs(math.sqrt(sq) / time_norm - 1.0), error / (2 * sq)


def isometry_check(zen: RadialMeasure, f: TestFunction) -> float:
    """Relative mismatch between the half-plane quadrature norm of Lf and the
    closed-form weighted time-domain norm of f.  Zero function gives 0."""
    return _isometry(zen, f)[0]


# the largest family ``empirical_ratio`` draws: each member costs a norm
# quadrature and a row of the mixtures' kernel table (about 0.24 ms at K = 10^4)
MAX_FAMILY_SIZE = 1024


def empirical_ratio(sys: DiagonalSystem, space: InputSpace, family_size: int,
                    seed: int, diagnostics: dict | None = None) -> float:
    """Monte-Carlo LOWER bound on the embedding norm: max of
    embedding_value / space_norm over a family of dictionary mixtures.

    The dictionary is exponential kernels at dyadic rates; the family's i-th
    member is centred at rate 2^i (capped at 100x the spectral radius), with
    a seeded random width and coefficients, so families are nested in
    ``family_size`` and the bound is monotone.  Member 0 is the pure kernel at
    rate 1, matching the kernel sweep at that point.  A member whose norm
    quadrature did not converge is skipped, so the result stays a lower
    bound; with none left it is 0.  The number of members used is stored
    under ``members_used`` in ``diagnostics`` when one is given.  A family
    of more than ``MAX_FAMILY_SIZE`` members is refused.
    """
    if family_size < 1:
        raise ValueError("family size must be >= 1")
    if family_size > MAX_FAMILY_SIZE:
        raise ValueError(f"family size {family_size} exceeds the cap of {MAX_FAMILY_SIZE}")
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
    if diagnostics is not None:
        diagnostics["members_used"] = len(members)
    ratios = (_embeddings(sys, members) / np.array(denoms)).tolist() if members else []
    return max([0.0, *ratios])
