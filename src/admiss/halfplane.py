"""Geometry and measure evaluation on the right half-plane.

Carleson squares and their right halves, dyadic strips, the Poisson balayage
onto the boundary, the pseudo-hyperbolic metric, and truncated Blaschke-type
products.  Membership conventions are half-open in both coordinates; atoms
within 1e-12 of a tested boundary trigger a warning since the measure-theoretic
convention is then load-bearing.

Balayage integrals use a vectorised adaptive Gauss-Kronrod 10/21 rule
(QUADPACK's qk21) whose first panels lie between the atoms' heights, with
extra breakpoints around each height at the scale of its narrowest atom;
each pass evaluates every active panel's 21 nodes in one array call.  Only
the two infinite tails of ``balayage_integral`` go to
``scipy.integrate.quad``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from admiss.system_model import AtomicMeasure

__all__ = [
    "CarlesonSquare",
    "measure_on_square",
    "strip_masses",
    "balayage",
    "balayage_integral",
    "balayage_norm",
    "pseudo_hyperbolic",
    "blaschke_products",
]

_BOUNDARY_EPS = 1e-12
# entries of one (points x atoms) kernel block, here and in the resolvent
# kernel sums of admiss.criteria: 2 MB of float64 per temporary, which stays
# in cache (2^16 to 2^20 measured alike, 2^21 and 2^22 slower)
_BLOCK_ENTRIES = 1 << 18

# QUADPACK's 21-point Gauss-Kronrod rule (qk21; Piessens et al., 1983):
# abscissae on [0, 1] in decreasing order, their Kronrod weights, and the
# weights of the embedded 10-point Gauss rule (0 where it has no node).
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208693019780, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0])
# the 21 nodes on [-1, 1] in increasing order; columns: Kronrod, Gauss weights
_GK_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_GK_WEIGHTS = np.stack([np.concatenate((w[:-1], w[::-1])) for w in (_WGK, _WG)], axis=1)
# most panels one quadrature may hold; past it the result is returned unconverged
_GK_MAX_PANELS = 50_000
# quadrature tolerances: absolute, and relative to the integral
_EPSABS = 1e-13
_EPSREL = 1e-11


@dataclass(frozen=True)
class CarlesonSquare:
    """Square over the interval [center_y - length/2, center_y + length/2) of
    the imaginary axis, with 0 <= x < length.  The right half restricts to
    x >= length/2."""

    center_y: float
    length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("square side must be positive")

    @property
    def y_lo(self) -> float:
        return self.center_y - self.length / 2

    @property
    def y_hi(self) -> float:
        return self.center_y + self.length / 2


def _warn_boundary(x: np.ndarray, y: np.ndarray, masses: np.ndarray, edges_x, edges_y) -> None:
    pos = masses > 0
    if not pos.any():
        return
    near = np.zeros(x.shape, dtype=bool)
    for e in edges_x:
        near |= np.abs(x - e) < _BOUNDARY_EPS * max(1.0, abs(e))
    for e in edges_y:
        near |= np.abs(y - e) < _BOUNDARY_EPS * max(1.0, abs(e))
    if (near & pos).any():
        warnings.warn(
            "atom within 1e-12 of a tested square boundary; the half-open "
            "membership convention decides its mass",
            stacklevel=3,
        )


def measure_on_square(m: AtomicMeasure, sq: CarlesonSquare, part: str = "full") -> float:
    """Mass of the atoms inside Q_I (part="full") or its right half T_I
    (part="right_half")."""
    if part not in ("full", "right_half"):
        raise ValueError(f"part must be 'full' or 'right_half', got {part!r}")
    x = m.locations.real
    y = m.locations.imag
    x_lo = sq.length / 2 if part == "right_half" else 0.0
    _warn_boundary(x, y, m.masses, (x_lo, sq.length), (sq.y_lo, sq.y_hi))
    inside = (x >= x_lo) & (x < sq.length) & (y >= sq.y_lo) & (y < sq.y_hi)
    return float(m.masses[inside].sum())


def strip_masses(m: AtomicMeasure, n_min: int, n_max: int) -> list[tuple[int, float]]:
    """Mass per dyadic strip S_n = { 2^(n-1) < Re z <= 2^n }, n in [n_min, n_max]."""
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    x = m.locations.real
    pos = x > 0
    out = np.zeros(n_max - n_min + 1)
    if pos.any():
        n_atom = np.ceil(np.log2(x[pos])).astype(int)
        # Re z exactly 2^(n-1) belongs to S_(n-1); guard the log2 rounding there.
        exact = x[pos] == 2.0 ** (n_atom - 1)
        n_atom = np.where(exact, n_atom - 1, n_atom)
        sel = (n_atom >= n_min) & (n_atom <= n_max)
        np.add.at(out, n_atom[sel] - n_min, m.masses[pos][sel])
    return [(n, float(v)) for n, v in zip(range(n_min, n_max + 1), out)]


def balayage(m: AtomicMeasure, t) -> np.ndarray | float:
    """Poisson sweep S_mu(t) of the measure onto the boundary line.

    Every atom must lie strictly inside the half-plane; the kernel is singular
    on the boundary.  The (points x atoms) kernel is formed one block of
    points at a time, so memory stays O(_BLOCK_ENTRIES) for any number of
    points and atoms.
    """
    x = m.locations.real
    if ((x == 0) & (m.masses > 0)).any():
        raise ValueError("balayage undefined: atom with Re z = 0 makes the Poisson kernel singular")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    pos = m.masses > 0
    x, y = x[pos], m.locations.imag[pos]
    weights = m.masses[pos] * x / math.pi
    x_sq = x * x
    rows = max(1, _BLOCK_ENTRIES // max(1, x.size))
    out = np.empty(t_arr.size)
    for i in range(0, t_arr.size, rows):
        kernel = t_arr[i:i + rows, None] - y
        kernel *= kernel
        kernel += x_sq
        np.reciprocal(kernel, out=kernel)
        out[i:i + rows] = kernel @ weights
    return out if np.ndim(t) else float(out[0])


def _quad_breakpoints(m: AtomicMeasure) -> tuple[np.ndarray, float]:
    x = m.locations.real
    y = m.locations.imag
    pos = m.masses > 0
    ys = np.unique(np.round(y[pos], decimals=12)) if pos.any() else np.array([0.0])
    width = float(x[pos].max()) if pos.any() else 1.0
    return ys, width


def _height_seeds(m: AtomicMeasure, lo: float, hi: float) -> np.ndarray:
    """Breakpoints y_h -+ x_h 2^j, j = 0, 1, ..., around every atom height y_h,
    out to the next height (or to lo / hi beyond the outermost heights), where
    x_h is the width of the narrowest atom at that height.

    A peak of width x_h at the end of a panel much longer than x_h falls
    between the Gauss-Kronrod nodes, so both rules read ~0 and agree; the
    geometric seeds keep every panel next to a height no longer than its
    distance to that height.  Panels fitted to the narrowest atom also
    resolve every wider one centred at the same height, so a spectrum on one
    line (a single height) gets O(log) seeds, not O(K log).
    """
    pos = m.masses > 0
    x, y = m.locations.real[pos], m.locations.imag[pos]
    heights, which = np.unique(y, return_inverse=True)
    width = np.full(heights.size, np.inf)
    np.minimum.at(width, which, x)
    seeds = []
    for sign, neighbour in ((-1.0, np.concatenate(([lo], heights[:-1]))),
                            (1.0, np.concatenate((heights[1:], [hi])))):
        gap = np.abs(neighbour - heights)
        with np.errstate(divide="ignore"):
            counts = np.ceil(np.log2(gap / width)).clip(min=0).astype(np.int64)
        starts = np.cumsum(counts) - counts
        j = np.arange(counts.sum()) - np.repeat(starts, counts)
        seeds.append(np.repeat(heights, counts) + sign * np.repeat(width, counts) * 2.0**j)
    return np.concatenate(seeds)


def _integrate_with_breaks(f, lo: float, hi: float, breaks: np.ndarray
                           ) -> tuple[float, float, bool]:
    """Vectorised adaptive Gauss-Kronrod 10/21 quadrature of f over [lo, hi].

    The initial panels are the intervals between the breakpoints.  Each pass
    evaluates the 21 nodes of every active panel in one call of f (1-d array
    in, 1-d array out) and estimates a panel's error as |K21 - G10| * h.
    Panels whose error is within their share of the remaining tolerance are
    accepted, the rest are bisected, until the total error is at most
    max(_EPSABS, _EPSREL |I|) or bisecting would pass _GK_MAX_PANELS panels.
    Returns (value, error estimate, converged).
    """
    pts = np.unique(np.concatenate(([lo, hi], breaks[(breaks > lo) & (breaks < hi)])))
    a, b = pts[:-1], pts[1:]
    done_value = done_error = 0.0
    done_panels = 0
    while True:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * _GK_NODES
        sums = (f(nodes.ravel()).reshape(nodes.shape) @ _GK_WEIGHTS) * half[:, None]
        errors = np.abs(sums[:, 0] - sums[:, 1])
        value = done_value + float(sums[:, 0].sum())
        error = done_error + float(errors.sum())
        tol = max(_EPSABS, _EPSREL * abs(value))
        if error <= tol:
            return value, error, True
        accept = errors <= (tol - done_error) / a.size
        n_split = a.size - int(accept.sum())
        if done_panels + a.size + n_split > _GK_MAX_PANELS:
            return value, error, False
        done_value += float(sums[accept, 0].sum())
        done_error += float(errors[accept].sum())
        done_panels += a.size - n_split
        split = ~accept
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))


def balayage_integral(m: AtomicMeasure) -> float:
    """Quadrature value of the boundary integral of S_mu (conserves total mass)."""
    if m.total_mass == 0:
        return 0.0
    ys, width = _quad_breakpoints(m)
    # beyond lo and hi every atom is between 10 and 11 scale lengths away, so
    # in units of that length quad's map of [0, inf) onto (0, 1] meets the
    # Lorentzian tails at unit scale
    scale = max(width, float(ys.max() - ys.min()))
    lo = float(ys.min()) - 10 * scale
    hi = float(ys.max()) + 10 * scale
    breaks = np.concatenate((ys, _height_seeds(m, lo, hi)))
    core, error, converged = _integrate_with_breaks(lambda t: balayage(m, t), lo, hi, breaks)
    if not converged:
        warnings.warn(f"balayage integral stopped at {_GK_MAX_PANELS} panels unconverged "
                      f"(error estimate {error:.3g})", stacklevel=2)
    tail_lo, _ = quad(lambda v: scale * balayage(m, lo - scale * v), 0, np.inf,
                      epsabs=_EPSABS, epsrel=_EPSREL, limit=400)
    tail_hi, _ = quad(lambda v: scale * balayage(m, hi + scale * v), 0, np.inf,
                      epsabs=_EPSABS, epsrel=_EPSREL, limit=400)
    return core + tail_lo + tail_hi


def _norm_integrand(m: AtomicMeasure, a: float, s: float, s0: float):
    """(|t|^a S_mu(t))^s on a 1-d array of t, with s0 = S_mu(0).  At t = 0 it
    is s0^s for a = 0 and 0 otherwise: a > 0 vanishes there, and a < 0 is an
    integrable singularity (the caller checks a s > -1)."""
    at_zero = s0**s if a == 0 else 0.0

    def integrand(t: np.ndarray) -> np.ndarray:
        vals = balayage(m, t)
        if a != 0:
            with np.errstate(divide="ignore"):
                vals *= np.abs(t) ** a
        return np.where(t == 0.0, at_zero, vals**s)

    return integrand


def balayage_norm(m: AtomicMeasure, weight_exponent: float, lebesgue_exponent: float
                  ) -> tuple[float, dict]:
    """L^s norm of |t|^a * S_mu(t) over the line, a = weight_exponent,
    s = lebesgue_exponent >= 1.

    Returns (value, diagnostics).  Non-integrable endpoint behaviour is
    detected analytically and reported as inf with the divergent end named.
    The diagnostics carry ``abserr``, the quadrature error estimate of the
    value (0 when no quadrature ran), and ``converged``, False when the
    integrator stopped at its panel cap before meeting its tolerance.
    """
    a, s = weight_exponent, lebesgue_exponent
    if s < 1:
        raise ValueError("Lebesgue exponent must be >= 1")
    analytic = {"abserr": 0.0, "converged": True}
    if m.total_mass == 0:
        return 0.0, {"note": "zero measure", **analytic}
    x = m.locations.real
    if ((x == 0) & (m.masses > 0)).any():
        raise ValueError("balayage undefined: atom with Re z = 0")
    s0 = float(balayage(m, 0.0))
    if a * s <= -1 and s0 > 0:
        return math.inf, {"divergent_end": "t=0", "exponent": a * s, **analytic}
    # |t|^(a s) S^s ~ t^(a s - 2 s) at infinity.
    if a * s - 2 * s >= -1:
        return math.inf, {"divergent_end": "t=inf", "exponent": a * s - 2 * s, **analytic}
    ys, width = _quad_breakpoints(m)
    peak = max(s0, float(np.max(balayage(m, ys))))
    first_moment = float((m.masses * x).sum())
    # tail cutoff where the Lorentzian envelope drops below 1e-14 of the peak
    t_cut = math.sqrt(first_moment / (math.pi * 1e-14 * peak))
    core = max(float(np.abs(ys).max()) + 10 * width, width)
    lo = min(float(ys.min()) - t_cut, -core)
    hi = max(float(ys.max()) + t_cut, core)
    # geometric panels bridge the scale gap between the atom cluster and t_cut
    n_geo = max(0, int(math.ceil(math.log2(max(hi, -lo) / core))))
    geo = core * 2.0 ** np.arange(n_geo + 1)
    breaks = np.concatenate((ys, [0.0], geo, -geo, _height_seeds(m, lo, hi)))
    integral, error, converged = _integrate_with_breaks(
        _norm_integrand(m, a, s, s0), lo, hi, breaks)
    value = integral ** (1 / s)
    # first-order propagation of the integral's error through the 1/s root;
    # an integral of 0 (S_mu^s underflowed at every node) only bounds the
    # norm by error^(1/s)
    abserr = error ** (1 / s) if integral == 0 else value * error / (s * integral)
    return value, {"t_cut": t_cut, "peak": peak, "abserr": abserr, "converged": converged}


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """p(z, w) = |(z - w) / (z + conj(w))| on the open right half-plane."""
    z, w = complex(z), complex(w)
    if z.real <= 0 or w.real <= 0:
        raise ValueError("pseudo-hyperbolic metric requires points in the open right half-plane")
    denom = z + w.conjugate()
    if denom == 0:
        raise ValueError("degenerate pair: z + conj(w) = 0")
    return abs((z - w) / denom)


def blaschke_products(points, window: int | None = None) -> tuple[np.ndarray, dict]:
    """Truncated products b_k = prod_{j != k} p(z_j, z_k) with convergence
    diagnostics.

    Returns (products, diagnostics) where diagnostics carries, per k, the
    smallest factor and a tail factor (the product over all factors except the
    ``window`` nearest ones, vacuously 1 when there are no others), plus a
    summability proxy sum Re z / (1 + |z|^2) with a growth flag.  A tail
    factor far below 1 means the product is still collapsing away from the
    nearest neighbours, so its truncated value is untrustworthy.  Repeated
    points give a zero product and are flagged as degenerate.
    """
    z = np.asarray([complex(p) for p in points])
    n = z.size
    if n == 0:
        raise ValueError("empty point sequence")
    if (z.real <= 0).any():
        raise ValueError("all points must lie in the open right half-plane")
    if window is None:
        window = 8
    if window < 0:
        raise ValueError("diagnostic window must be nonnegative")

    products = np.ones(n)
    min_factor = np.ones(n)
    tail_factor = np.ones(n)
    degenerate = False
    for k in range(n):
        others = np.delete(z, k)
        if others.size == 0:
            continue
        factors = np.abs((others - z[k]) / (others + z[k].conjugate()))
        if (factors == 0).any():
            degenerate = True
        products[k] = float(np.prod(factors))
        ordered = np.sort(factors)  # ascending: nearest neighbours first
        min_factor[k] = float(ordered[0])
        tail_factor[k] = float(np.prod(ordered[window:])) if window < ordered.size else 1.0

    proxy_terms = z.real / (1 + np.abs(z) ** 2)
    order = np.argsort(np.abs(z))
    partial = np.cumsum(proxy_terms[order])
    growing = bool(n >= 8 and partial[-1] > 2 * partial[n // 2])
    diagnostics = {
        "min_factor": min_factor,
        "tail_factor": tail_factor,
        "summability_proxy": float(partial[-1]),
        "proxy_growing": growing,
        "degenerate": degenerate,
    }
    if degenerate:
        warnings.warn("repeated interpolation points: Blaschke product vanishes", stacklevel=2)
    return products, diagnostics
