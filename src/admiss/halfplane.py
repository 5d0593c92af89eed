"""Geometry and measure evaluation on the right half-plane.

Dyadic levels and strips, the Poisson balayage onto the boundary, the
pseudo-hyperbolic metric, and truncated Blaschke-type products.  A dyadic
strip is half-open, S_n = { 2^(n-1) < Re z <= 2^n }.

``kernel_sums`` is the one primitive behind every single-kernel spectral sum
of the package, sum_k m_k |z + w_k|^(2 power) over the atoms w_k and masses
m_k of a measure: the resolvent criteria R1 and R7 and their pointwise
quotients, the dyadic kernel sequence (``dyadic_kernel_sequence``), and the
oracle's kernel sweep and single-kernel embedding values.

``balayage_norm`` is the one balayage quadrature, and ``balayage_integral``
is its s = 1 case.  It uses a vectorised adaptive Gauss-Kronrod 10/21 rule
(QUADPACK's qk21) whose first panels are seeded geometrically around each
atom height at the scale of its narrowest atom, and bounds the two infinite
tails analytically; each pass evaluates every active panel's 21 nodes in one
array call.  The oracle's mixture norms use the same integrator.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from admiss.system_model import AtomicMeasure

__all__ = [
    "dyadic_index",
    "strip_masses",
    "balayage",
    "balayage_integral",
    "balayage_norm",
    "kernel_sums",
    "dyadic_kernel_sequence",
    "pseudo_hyperbolic",
    "blaschke_products",
]


def __getattr__(name: str):
    """``halfplane.quad``, bound on first use: nothing in the package calls
    scipy's ``quad``, but the benchmark's span tracer wraps this name, so
    scipy is imported only when something asks for it.  ROADMAP item 1
    retargets the tracer's ``halfplane.quad`` metrics at the Gauss-Kronrod
    integrator and then deletes this binding."""
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# entries of one (points x atoms) block in ``balayage``, ``kernel_sums`` and
# ``blaschke_products``: 2 MB of float64 per temporary, which stays in cache (2^16
# to 2^20 measured alike, 2^21 and 2^22 slower)
_BLOCK_ENTRIES = 1 << 18
# nearest factors that ``blaschke_products`` leaves out of its tail factor
TAIL_WINDOW = 8

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


def dyadic_index(v: np.ndarray, n_first: int, count: int, strict: bool) -> np.ndarray:
    """Per value, the first n with v < 2^n (``strict``) or v <= 2^n, counted
    from ``n_first`` and clipped to [0, count]; v <= 0 (and -0.0) gives 0.

    The level is read exactly from the binary exponent, with no rounding:
    ``np.frexp`` writes v = f 2^e with 1/2 <= f < 1, so 2^(e-1) <= v < 2^e,
    and v is the power 2^(e-1) itself exactly when f = 1/2.  For finite v this
    equals ``np.searchsorted`` of v on [2^n_first, ..., 2^(n_first+count-1)]
    with side "right" (strict) or "left".  Infinite and NaN values have no
    exponent, so the measures refuse them.
    """
    mant, exp = np.frexp(v)
    if not strict:
        exp -= mant == 0.5
    exp -= n_first
    np.copyto(exp, 0, where=mant <= 0)
    np.maximum(exp, 0, out=exp)  # two ufuncs: np.clip costs more on small arrays
    return np.minimum(exp, count, out=exp)


def strip_masses(m: AtomicMeasure, n_min: int, n_max: int) -> list[tuple[int, float]]:
    """Mass per dyadic strip S_n = { 2^(n-1) < Re z <= 2^n }, n in [n_min, n_max].

    An atom's strip is the first n with Re z <= 2^n, read from its binary
    exponent by ``dyadic_index``; atoms below the first strip, above the last
    or on the imaginary axis fall in the two end bins, which are dropped.
    """
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    count = n_max - n_min + 1
    strip = dyadic_index(m.x, n_min - 1, count + 1, strict=False)
    out = np.bincount(strip, weights=m.masses, minlength=count + 2)[1:-1]
    return [(n, float(v)) for n, v in zip(range(n_min, n_max + 1), out)]


def balayage(m: AtomicMeasure, t) -> np.ndarray | float:
    """Poisson sweep S_mu(t) of the measure onto the boundary line.

    Every atom must lie strictly inside the half-plane; the kernel is singular
    on the boundary.  The (points x atoms) kernel is formed one block of
    points at a time, so memory stays O(_BLOCK_ENTRIES) for any number of
    points and atoms.
    """
    x = m.x
    if ((x == 0) & (m.masses > 0)).any():
        raise ValueError("balayage undefined: atom with Re z = 0 makes the Poisson kernel singular")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    pos = m.masses > 0
    x = x[pos]
    y = None if m.y is None else m.y[pos]
    weights = m.masses[pos] * x / math.pi
    x_sq = x * x
    rows = max(1, _BLOCK_ENTRIES // max(1, x.size))
    out = np.empty(t_arr.size)
    for i in range(0, t_arr.size, rows):
        t_rows = t_arr[i:i + rows, None]
        if y is None:  # a real measure: (t - 0)^2 is t^2, one per row
            kernel = t_rows * t_rows + x_sq
        else:
            kernel = t_rows - y
            kernel *= kernel
            kernel += x_sq
        np.reciprocal(kernel, out=kernel)
        out[i:i + rows] = kernel @ weights
    return out if np.ndim(t) else float(out[0])


def kernel_sums(points, m: AtomicMeasure, power: float) -> np.ndarray:
    """sum_k m_k |z + w_k|^(2 power) at every point z, over the atoms w_k and
    masses m_k of the measure; exact, every atom is summed.

    For a spectral measure (w_k = -lambda_k, m_k = |b_k|^q) this is the
    resolvent sum sum_k |b_k|^q |z - lambda_k|^(2 power), and the Laplace
    transforms of e^(-zt), t^(n-1) e^(-zt) and t^(-alpha) e^(-zt) are
    constants times (z + s)^(-r), so every single-kernel embedding is one
    such sum.  The squared distances are formed in real arithmetic, one
    block of (points x atoms) at a time; a block holds at most
    _BLOCK_ENTRIES entries, so memory stays O(_BLOCK_ENTRIES) whatever the
    number of points and atoms.

    On a real measure (float-stored, ``m.y`` None: the measure decided its
    realness when it was built, so no imaginary part is scanned here) the
    sums at z and conj(z) are equal, so the points are folded onto
    (Re z, |Im z|), each distinct folded point is summed once and the sums
    are scattered back: conjugate points get bit-identical sums.  There a
    point off the axis adds (Im z)^2 as one scalar to every (Re z + w_k)^2
    of its row; on the axis, for |power| < 1 with 4 power an integer,
    |Re z + w_k| is raised to 2 power, which saves the squaring and a square
    root.  A complex-stored measure takes the general path for every point.
    """
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    u, v = m.x, m.y
    real = v is None
    if real:
        z, back = np.unique(z.real + 1j * np.abs(z.imag), return_inverse=True)
    cols = min(max(1, u.size), _BLOCK_ENTRIES)
    rows = _BLOCK_ENTRIES // cols
    # over atoms off the axis every point takes the general path, in its order
    on_axis_points = z.imag == 0 if real else np.zeros(z.size, dtype=bool)
    sums = np.empty(z.size)
    for on_axis in (True, False):
        idx = np.flatnonzero(on_axis_points == on_axis)
        re, im = z.real[idx], z.imag[idx]
        for i in range(0, idx.size, rows):
            block = slice(i, i + rows)
            sums[idx[block]] = sum(
                _block_sums(re[block], None if on_axis else im[block], u[k:k + cols],
                            None if real else v[k:k + cols], m.masses[k:k + cols], power)
                for k in range(0, u.size, cols))
    return sums[back] if real else sums


def dyadic_kernel_sequence(m: AtomicMeasure, ns, p: float, q: float) -> np.ndarray:
    """2^(n/p) (sum_k m_k |2^n + w_k|^(-q))^(1/q) at every n of ``ns``, one
    ``kernel_sums`` call for all of them.

    For a spectral measure the bracket is ||(2^n - A)^(-1) B||^q in ell^q,
    which is also the q-th power of the ell^q embedding of the kernel
    e^(-2^n t); the sequence's ell^(qp/(p-q)) norm is the oracle's
    condition for q < p (``laplace_oracle.kernel_condition_sweep``).
    """
    ns = np.asarray(ns)
    return 2.0 ** (ns / p) * kernel_sums(2.0**ns, m, -q / 2) ** (1 / q)


def _block_sums(re: np.ndarray, im: np.ndarray | None, u: np.ndarray, v: np.ndarray | None,
                masses: np.ndarray, power: float) -> np.ndarray:
    """sum_k m_k |z + w_k|^(2 power) at z = re + i im over w_k = u_k + i v_k;
    v is None for real atoms, and only then may im be None (z on the axis)."""
    d = re[:, None] + u
    quarters = 4 * power
    if im is None and 0 < abs(quarters) < 4 and quarters == round(quarters):
        np.abs(d, out=d)
        return _power_in_place(d, 2 * power) @ masses
    d *= d
    if v is not None:
        dy = im[:, None] + v
        dy *= dy
        d += dy
    elif im is not None:
        d += (im * im)[:, None]
    return _power_in_place(d, power) @ masses


def _power_in_place(d: np.ndarray, power: float) -> np.ndarray:
    """d ** power, overwriting d.  When 4 power is a nonzero integer the power
    is formed from a reciprocal, at most two square roots and products, each
    about 1 ns per entry against about 4 ns for ``np.power`` at a general
    exponent (x86-64, numpy 2.4)."""
    quarters = 4 * power
    if quarters == 0 or quarters != round(quarters):
        return np.power(d, power, out=d)
    if power < 0:
        np.reciprocal(d, out=d)
    whole, rest = divmod(round(abs(quarters)), 4)
    out = None
    if rest:
        out = np.sqrt(d, out=d if whole == 0 else None)
        if rest == 1:
            np.sqrt(out, out=out)
        elif rest == 3:
            out *= np.sqrt(out)
    # d ** whole by binary powering, squaring d in place
    while whole:
        if whole & 1:
            if out is None:
                out = d if whole == 1 else d.copy()
            else:
                out *= d
        whole >>= 1
        if whole:
            d *= d
    return out


def _height_seeds(m: AtomicMeasure, lo: float, hi: float) -> np.ndarray:
    """Breakpoints y_h -+ x_h 2^j, j = 0, 1, ..., around every atom height y_h,
    out to the next height (or to lo / hi beyond the outermost heights), where
    x_h = min_k (x_k + |y_k - y_h|) is the narrowest width an atom shows at
    that height: its own narrowest atom's, or a narrower one's close by.

    A peak of width x_h at the end of a panel much longer than x_h falls
    between the Gauss-Kronrod nodes, so both rules read ~0 and agree; the
    geometric seeds keep every panel next to a height no longer than its
    distance to that height.  Panels fitted to the narrowest atom also
    resolve every wider one centred at the same height, so a spectrum on one
    line (a single height) gets O(log) seeds, not O(K log).
    """
    pos = m.masses > 0
    x = m.x[pos]
    if m.y is None:  # a real measure: one height, 0 (its callers hold positive mass)
        heights, width = np.zeros(1), np.array([x.min()])
    else:
        heights, which = np.unique(m.y[pos], return_inverse=True)
        width = np.full(heights.size, np.inf)
        np.minimum.at(width, which, x)
        # min_k (x_k + |y_k - y_h|) as a running min from each side
        width = np.minimum(np.minimum.accumulate(width - heights) + heights,
                           np.minimum.accumulate((width + heights)[::-1])[::-1] - heights)
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
    """Quadrature value of the boundary integral of S_mu, which conserves the
    total mass: ``balayage_norm`` at s = 1, with a warning when its
    integrator stopped at its panel cap unconverged."""
    value, diag = balayage_norm(m, 1.0)
    if not diag["converged"]:
        warnings.warn(f"balayage integral stopped at {_GK_MAX_PANELS} panels unconverged "
                      f"(error estimate {diag['abserr']:.3g})", stacklevel=2)
    return value


def balayage_norm(m: AtomicMeasure, lebesgue_exponent: float) -> tuple[float, dict]:
    """L^s norm of S_mu over the line, s = lebesgue_exponent >= 1.

    The integrand is (S_mu / peak)^s / w, where peak is the largest S_mu at
    an atom height and w the narrowest atom's width, so the integrator's
    absolute tolerance is relative to the answer and S_mu^s does not
    underflow for large s; the root is multiplied back by the peak.  With
    M1 = sum_k m_k x_k, S_mu(t) <= M1 / (pi (t - y_max)^2) above the highest
    atom, and likewise below the lowest, so beyond d of the outermost heights
    the two tails of S_mu^s hold at most 2 (M1/pi)^s d^(1-2s) / (2s - 1).
    d is chosen to make that bound a thousandth of the absolute tolerance,
    and the bound is added to the error.  The first panels lie between the
    atom heights and their ``_height_seeds``.

    Returns (value, diagnostics).  The diagnostics carry ``peak``,
    ``abserr`` and ``converged``, False when the integrator stopped at its
    panel cap before meeting its tolerance.  ``abserr`` is the quadrature and
    tail error carried through the 1/s root, floored at the rounding of the
    nodes: a node near height y is placed to within eps |y|, which moves a
    Lorentzian of width x by eps |y| / x relative, so the floor is
    value eps max_k |y_k| / x_k.
    """
    s = lebesgue_exponent
    if s < 1:
        raise ValueError("Lebesgue exponent must be >= 1")
    if m.total_mass == 0:
        return 0.0, {"note": "zero measure", "abserr": 0.0, "converged": True}
    pos = m.masses > 0
    heights = np.zeros(1) if m.y is None else np.unique(m.y[pos])
    peak = float(balayage(m, heights).max())  # raises on an atom with Re z = 0
    x = m.x[pos]
    width = float(x.min())
    tail = 1e-3 * _EPSABS
    d = math.exp((math.log(2 / ((2 * s - 1) * width * tail))
                  + s * math.log(float(m.masses[pos] @ x) / (math.pi * peak))) / (2 * s - 1))
    lo, hi = heights[0] - d, heights[-1] + d
    integral, error, converged = _integrate_with_breaks(
        lambda t: (balayage(m, t) / peak) ** s / width, lo, hi,
        np.concatenate((heights, _height_seeds(m, lo, hi))))
    error += tail
    value = peak * (width * integral) ** (1 / s)
    # first-order propagation through the 1/s root; an integral of 0 only
    # bounds the norm
    abserr = peak * (width * error) ** (1 / s) if integral == 0 else value * error / (s * integral)
    if m.y is not None:
        abserr = max(abserr, value * np.finfo(float).eps * float((np.abs(m.y[pos]) / x).max()))
    return value, {"peak": peak, "abserr": abserr, "converged": converged}


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """p(z, w) = |(z - w) / (z + conj(w))| on the open right half-plane."""
    z, w = complex(z), complex(w)
    if z.real <= 0 or w.real <= 0:
        raise ValueError("pseudo-hyperbolic metric requires points in the open right half-plane")
    denom = z + w.conjugate()
    if denom == 0:
        raise ValueError("degenerate pair: z + conj(w) = 0")
    return abs((z - w) / denom)


def blaschke_products(points) -> tuple[np.ndarray, dict]:
    """Truncated products b_k = prod_{j != k} p(z_j, z_k) with convergence
    diagnostics.

    Returns (products, diagnostics) where diagnostics carries, per k, the
    smallest factor and a tail factor (the product over all factors except the
    TAIL_WINDOW nearest ones, vacuously 1 when there are no others), plus a
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

    products = np.empty(n)
    min_factor = np.empty(n)
    tail_factor = np.ones(n)
    degenerate = False
    rows = max(1, _BLOCK_ENTRIES // n)
    for i in range(0, n, rows):
        zk = z[i:i + rows, None]
        factors = np.abs((z - zk) / (z + zk.conjugate()))
        factors[np.arange(zk.size), np.arange(i, i + zk.size)] = 1.0
        degenerate = degenerate or bool((factors == 0).any())
        products[i:i + rows] = np.prod(factors, axis=1)
        min_factor[i:i + rows] = factors.min(axis=1)
        if TAIL_WINDOW < n - 1:  # the window leaves other factors out
            tail = np.partition(factors, TAIL_WINDOW, axis=1)[:, TAIL_WINDOW:]
            tail_factor[i:i + rows] = np.prod(tail, axis=1)

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
