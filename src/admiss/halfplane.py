"""Geometry and measure evaluation on the right half-plane.

Dyadic levels and strips, the Poisson balayage onto the boundary, the
pseudo-hyperbolic metric, and truncated Blaschke-type products.  A dyadic
strip is half-open, S_n = { 2^(n-1) < Re z <= 2^n }.

``kernel_sums`` is the one primitive behind every single-kernel spectral sum
of the package, sum_k m_k |z + w_k|^(2 power) over the atoms w_k and masses
m_k of a measure: the resolvent criteria R1 and R7 and their pointwise
quotients, the dyadic kernel sequence (``dyadic_kernel_sequence``), and the
oracle's kernel sweep and single-kernel embedding values.  On a real measure
at -4 <= power < 0 (R1, R7 and the oracle's kernels at q = 2) a point sums
geometric bins of atoms from their Taylor moments, cached on the measure,
to within 2^-53 of each bin's sum: O(bins), not O(atoms).

``balayage_norm`` is the one balayage quadrature, and ``balayage_integral``
is its s = 1 case.  It uses a vectorised adaptive Gauss-Kronrod 10/21 rule
(QUADPACK's qk21) whose first panels are seeded geometrically around each
atom height at the scale of its narrowest atom, and bounds the two infinite
tails analytically; each pass evaluates every active panel's 21 nodes in one
array call.  The same integrator, which also integrates a row of values per
node at once, serves the oracle's mixture L^p norms, its p = 2 Sobolev norm
and its Zen-space norm (``laplace_oracle``), the package's one quadrature.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from admiss.system_model import AtomicMeasure

__all__ = [
    "dyadic_index",
    "level_masses",
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
    scipy is imported only when something asks for it.  ROADMAP items 6
    and 10 retarget the tracer's ``halfplane.quad`` metrics at the
    Gauss-Kronrod integrator and then delete this binding."""
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# entries of one (points x atoms) block in ``balayage``, ``kernel_sums`` and
# ``blaschke_products``: 2 MB of float64 per temporary, which stays in cache (2^16
# to 2^20 measured alike, 2^21 and 2^22 slower); each call allocates its block
# buffers once.  ``criteria`` bins staggered squares in runs of this many atoms
_BLOCK_ENTRIES = 1 << 18
# Taylor bins: ratio 9/7 (half-width / centre 1/8); most terms; fewest atoms
# a bin expands (a bin costs a point up to _TAYLOR_TERMS terms; on heat
# spectra 8 to 28 time alike, 40 and 60 slower); fewest (point, atom) pairs
# a call expands (with the moments built, the two paths cost the same at
# 2^15.6 to 2^16.5 pairs on heat spectra of 10^3 to 1.5 10^4 atoms, and
# below it the fixed 0.13 ms of per-term numpy calls costs more); the span
# 2^(+-100) in which D^power of ``_taylor_sums`` stays normal
_TAYLOR_RATIO = 9 / 7
_TAYLOR_TERMS = 28
_TAYLOR_MIN_ATOMS = _TAYLOR_TERMS
_TAYLOR_MIN_WORK = 1 << 16
_TAYLOR_SPAN = 2.0**100
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


def level_masses(m: AtomicMeasure, n_first: int, count: int, strict: bool,
                 in_x_order: bool = False) -> np.ndarray:
    """Mass per level of ``dyadic_index(m.x, n_first, count, strict)``: the
    ``count + 1`` bins cut by the powers 2^n_first ... 2^(n_first+count-1).

    An x-ascending measure (a heat spectrum), or any measure when
    ``in_x_order``, is cut at the ``searchsorted`` edges of those powers in
    its x-order (``AtomicMeasure.x_order``), and each non-empty segment is
    summed by one ``np.add.reduceat``; any other is binned in storage order
    by ``bincount``, so the pass takes no sort.
    """
    if not (in_x_order or m.x_ascending):
        return np.bincount(dyadic_index(m.x, n_first, count, strict), weights=m.masses,
                           minlength=count + 1)
    xs, ms, _ = m.x_order
    edges = np.searchsorted(xs, 2.0 ** np.arange(n_first, n_first + count),
                            side="left" if strict else "right")
    edges = np.concatenate(([0], edges, [len(m)]))
    out = np.zeros(count + 1)
    filled = np.flatnonzero(edges[1:] > edges[:-1])
    out[filled] = np.add.reduceat(ms, edges[filled])
    return out


def strip_masses(m: AtomicMeasure, n_min: int, n_max: int) -> list[tuple[int, float]]:
    """Mass per dyadic strip S_n = { 2^(n-1) < Re z <= 2^n }, n in [n_min, n_max].

    The strips depend on Re z only: they are the levels of ``level_masses``
    cut by 2^(n_min-1) ... 2^n_max; atoms below, above or on the imaginary
    axis fall in the two end bins, which are dropped.
    """
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    count = n_max - n_min + 1
    out = level_masses(m, n_min - 1, count + 1, strict=False)[1:-1]
    return list(zip(range(n_min, n_max + 1), out.tolist()))


def balayage(m: AtomicMeasure, t) -> np.ndarray | float:
    """Poisson sweep S_mu(t) of the measure onto the boundary line.

    Every atom must lie strictly inside the half-plane; the kernel is singular
    on the boundary.  The (points x atoms) kernel is formed one block of
    points at a time in one buffer per call, so memory stays
    O(_BLOCK_ENTRIES) for any number of points and atoms, and no block
    frees a temporary that the next must fault in again.
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
    block = np.empty((min(rows, t_arr.size), x.size))
    for i in range(0, t_arr.size, rows):
        t_rows = t_arr[i:i + rows, None]
        kernel = block[:t_rows.shape[0]]
        if y is None:  # a real measure: (t - 0)^2 is t^2, one per row
            np.add(t_rows * t_rows, x_sq, out=kernel)
        else:
            np.subtract(t_rows, y, out=kernel)
            kernel *= kernel
            kernel += x_sq
        np.reciprocal(kernel, out=kernel)
        np.matmul(kernel, weights, out=out[i:i + rows])
    return out if np.ndim(t) else float(out[0])


def kernel_sums(points, m: AtomicMeasure, power: float) -> np.ndarray:
    """sum_k m_k |z + w_k|^(2 power) at every point z, over the atoms w_k and
    masses m_k of the measure.

    For a spectral measure (w_k = -lambda_k, m_k = |b_k|^q) this is the
    resolvent sum sum_k |b_k|^q |z - lambda_k|^(2 power), and the Laplace
    transforms of e^(-zt), t^(n-1) e^(-zt) and t^(-alpha) e^(-zt) are
    constants times (z + s)^(-r), so every single-kernel embedding is one
    such sum.  The squared distances are formed in real arithmetic, one
    block of (points x atoms) at a time in one buffer per call; a block
    holds at most _BLOCK_ENTRIES entries, so memory stays O(_BLOCK_ENTRIES)
    whatever the number of points and atoms.  Atoms of mass 0 are left out,
    so one at a point adds 0, not 0 * inf.

    On a real measure (float-stored, ``m.y`` None: the measure decided its
    realness when it was built, so no imaginary part is scanned here) the
    sums at z and conj(z) are equal, so the points are folded onto
    (Re z, |Im z|), each distinct folded point is summed once and the sums
    are scattered back: conjugate points get bit-identical sums.  There a
    point adds (Im z)^2 as one scalar to every (Re z + w_k)^2 of its row.

    On a real measure at a power that ``_taylor_terms`` bounds, with
    _TAYLOR_MIN_WORK (point, atom) pairs or more and every point in
    Re z >= 0, |z| < 2^100, the bins of ``AtomicMeasure.taylor_bins`` are
    summed from their moments (``_taylor_sums``) and only the other atoms
    one by one.
    """
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    u, v, masses = m.x, m.y, m.masses
    real, taylor = v is None, None
    if real:
        z, back = np.unique(z.real + 1j * np.abs(z.imag), return_inverse=True)
        if (power < 0 and _taylor_terms(power) and z.size * len(m) >= _TAYLOR_MIN_WORK
                and z.real.min() >= 0 and np.abs(z).max() < _TAYLOR_SPAN
                and (bins := m.taylor_bins) is not None):
            centres, halves, moments, u, masses = bins
            taylor = _taylor_sums(z, centres, halves, moments, power)
    if not (held := masses > 0).all():
        u, v, masses = u[held], None if real else v[held], masses[held]
    # BLAS takes no stride-0 vector (heat's unit masses): numpy's own loop
    # would be slower and sum in another order
    masses = np.ascontiguousarray(masses)
    cols = min(max(1, u.size), _BLOCK_ENTRIES)
    rows = _BLOCK_ENTRIES // cols
    sums = np.zeros(z.size)
    layers = max(1 if real else 2, 1 + _power_layers(power))
    block = np.empty(layers * min(rows, z.size) * cols)
    for i in range(0, z.size, rows):
        re, im, out = z.real[i:i + rows], z.imag[i:i + rows], sums[i:i + rows]
        for k in range(0, u.size, cols):
            part = _block_sums(re, im, u[k:k + cols], None if real else v[k:k + cols],
                               masses[k:k + cols], power, block, None if k else out)
            if k:  # a further block of atoms, only where rows is 1
                out += part
    if taylor is not None:
        sums += taylor
    return sums[back] if real else sums


@functools.cache
def _taylor_terms(power: float) -> int | None:
    """Fewest terms J <= _TAYLOR_TERMS that truncate every bin's sum within
    2^-53 of it at this power, or None.

    A bin's atoms u lie within h <= eps c of its centre c, eps = 1/8 (plus a
    rounding margin).  At a + i b, a >= 0, g(s) = (s^2 + b^2)^power is
    analytic for |s - t| < R = |t + i b|, t = a + c, so h <= eps R; Cauchy's
    estimate on |s - t| = rho R puts the terms from J on within
    ((1 + eps) / (1 - rho))^(2 |power|) (eps / rho)^J / (1 - eps / rho) of
    g(u) >= ((1 + eps) R)^(2 power), here at the best rho of a grid.
    """
    eps = (_TAYLOR_RATIO - 1) / (_TAYLOR_RATIO + 1) * (1 + 2.0**-40)
    rho, terms = np.linspace(eps, 1, 258)[1:-1], np.arange(1, _TAYLOR_TERMS + 1)[:, None]
    bound = ((1 + eps) / (1 - rho)) ** (-2 * power) * (eps / rho) ** terms / (1 - eps / rho)
    met = np.flatnonzero(bound.min(axis=1) <= 2.0**-53)
    return int(met[0]) + 1 if met.size else None


def taylor_bins(m: AtomicMeasure) -> tuple | None:
    """(centres, half-widths, moments, x and masses of the other atoms) of
    the bins [x0 r^i, x0 r^(i+1)) of a real measure, or None if none expands.

    x0 is the least positive atom, r = _TAYLOR_RATIO, and the bins are cut
    at ``searchsorted`` edges of the x-order.  A bin inside [2^-100, 2^100]
    of _TAYLOR_MIN_ATOMS atoms or more keeps M_j = sum_k m_k ((u_k - c) / h)^j,
    j < _TAYLOR_TERMS, formed a block of atoms at a time.
    """
    xs, ms, _ = m.x_order
    first = int(np.searchsorted(xs, 0.0, side="right"))
    if first == xs.size:
        return None
    count = int((math.log(xs[-1]) - math.log(xs[first])) / math.log(_TAYLOR_RATIO)) + 2
    with np.errstate(over="ignore"):  # past 2^100 no bin expands
        edges = xs[first] * _TAYLOR_RATIO ** np.arange(count + 1.0)
    cuts = np.searchsorted(xs, edges)
    dense = ((np.diff(cuts) < _TAYLOR_MIN_ATOMS) | (edges[:-1] < 1 / _TAYLOR_SPAN)
             | (edges[1:] > _TAYLOR_SPAN))
    expand = np.flatnonzero(~dense)
    if not expand.size:
        return None
    centres, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    # blocks of a quarter of _BLOCK_ENTRIES atoms stay in cache; ``reduceat``
    # sums each bin's run pairwise, like ``sum``
    moments = np.zeros((count, _TAYLOR_TERMS))
    stop, block = cuts[expand[-1] + 1], _BLOCK_ENTRIES // 4 or 1
    for k in range(cuts[expand[0]], stop, block):
        seg = np.clip(cuts, k, min(k + block, stop))
        held = np.flatnonzero(np.diff(seg))
        sizes = np.diff(seg)[held]
        xi = (xs[k:seg[-1]] - np.repeat(centres[held], sizes)) / np.repeat(halves[held], sizes)
        term = ms[k:seg[-1]].copy()
        moments[held, 0] += np.add.reduceat(term, seg[held] - k)
        for j in range(1, _TAYLOR_TERMS):
            term *= xi
            moments[held, j] += np.add.reduceat(term, seg[held] - k)
    rest = [slice(0, first)] + [slice(lo, hi) for lo, hi in zip(cuts[:-1][dense], cuts[1:][dense])]
    return (centres[expand], halves[expand], moments[expand],
            np.concatenate([xs[r] for r in rest]), np.concatenate([ms[r] for r in rest]))


def _taylor_sums(z: np.ndarray, centres: np.ndarray, halves: np.ndarray,
                 moments: np.ndarray, power: float) -> np.ndarray:
    """sum over bins of sum_(j < J) G_j M_j at each z = a + i b, a >= 0, for
    J = ``_taylor_terms(power)`` and G_j = g^(j)(t) h^j / j!, t = a + c.

    (s^2 + b^2) g' = 2 power s g gives, with D = t^2 + b^2, G_0 = D^power,
    G_-1 = 0 and (j + 1) D G_(j+1) = 2 t h (power - j) G_j
    + h^2 (2 power - j + 1) G_(j-1), on and off the axis alike.  It runs on
    F_j = G_j / kappa_j, kappa_(j+1) = kappa_j (power - j) / (j + 1), as
    F_(j+1) = U F_j + gamma_j W F_(j-1) with U = 2 t h / D, W = h^2 / D.
    """
    terms = _taylor_terms(power)
    j = np.arange(terms - 1.0)
    c1 = (power - j) / (j + 1)
    gamma = (2 * power - j + 1) / (j + 1) / (c1 * np.concatenate(([1.0], c1[:-1])))
    weighted = moments[:, :terms] * np.concatenate(([1.0], np.cumprod(c1)))
    rows = max(1, _BLOCK_ENTRIES // (5 * centres.size))
    out = np.empty(z.size)
    for i in range(0, z.size, rows):
        u = z.real[i:i + rows, None] + centres
        d = u * u
        d += (z.imag[i:i + rows] ** 2)[:, None]
        u *= 2 * halves
        u /= d
        w = np.divide(halves * halves, d)
        older, old, tmp = np.zeros_like(d), _power_in_place(d, power), np.empty_like(d)
        out[i:i + rows] = old @ weighted[:, 0]
        for k in range(1, terms):  # F_k overwrites F_(k-2)
            older *= w
            older *= gamma[k - 1]
            older += np.multiply(u, old, out=tmp)
            out[i:i + rows] += older @ weighted[:, k]
            older, old = old, older
    return out


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


def _block_sums(re: np.ndarray, im: np.ndarray, u: np.ndarray, v: np.ndarray | None,
                masses: np.ndarray, power: float, block: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """sum_k m_k |z + w_k|^(2 power) at z = re + i im over w_k = u_k + i v_k,
    written to ``out`` if given; v is None for real atoms.  The squared
    distances are formed in ``block``, a flat buffer of at least (1, or 2
    for complex atoms, or 1 + ``_power_layers(power)`` if more) x points x
    atoms floats."""
    entries = re.size * u.size
    d = block[:entries].reshape(re.size, u.size)
    np.add(re[:, None], u, out=d)
    d *= d
    if v is not None:
        dy = block[entries:2 * entries].reshape(d.shape)
        np.add(im[:, None], v, out=dy)
        dy *= dy
        d += dy
    elif im.any():  # rows on the axis add nothing
        d += (im * im)[:, None]
    return np.matmul(_power_in_place(d, power, block[entries:]), masses, out=out)


def _power_in_place(d: np.ndarray, power: float, spare: np.ndarray | None = None) -> np.ndarray:
    """d ** power, overwriting d.  When 4 power is a nonzero integer the power
    is formed from a reciprocal, at most two square roots and products, each
    about 1 ns per entry against about 4 ns for ``np.power`` at a general
    exponent (x86-64, numpy 2.4).  The result is d or lies in ``spare``, a
    flat buffer of at least ``_power_layers(power)`` times d.size floats (None:
    new arrays), which also holds the roots and the odd powers that d, squared
    in place, would lose."""
    quarters = 4 * power
    if quarters == 0 or quarters != round(quarters):
        return np.power(d, power, out=d)
    if power < 0:
        np.reciprocal(d, out=d)
    whole, rest = divmod(round(abs(quarters)), 4)
    layers = (np.empty_like(d) if spare is None else
              spare[i * d.size:(i + 1) * d.size].reshape(d.shape) for i in range(2))
    out = None
    if rest:
        out = np.sqrt(d, out=d if whole == 0 else next(layers))
        if rest == 1:
            np.sqrt(out, out=out)
        elif rest == 3:
            out *= np.sqrt(out, out=next(layers))
    # d ** whole by binary powering, squaring d in place
    while whole:
        if whole & 1:
            if out is None:
                out = d
                if whole > 1:  # d is squared further: keep this power apart
                    out = next(layers)
                    np.copyto(out, d)
            else:
                out *= d
        whole >>= 1
        if whole:
            d *= d
    return out


def _power_layers(power: float) -> int:
    """Arrays of d's size beside d that ``_power_in_place`` writes at this
    power: a root beside d, a root of that root, or a copy of an odd power."""
    quarters = 4 * power
    if quarters == 0 or quarters != round(quarters):
        return 0
    whole, rest = divmod(round(abs(quarters)), 4)
    if rest:
        return (whole > 0) + (rest == 3)
    return int(whole & (whole - 1) != 0)  # two or more bits set


def _height_seeds(x: np.ndarray, y: np.ndarray | None, lo: float, hi: float) -> np.ndarray:
    """Breakpoints y_h -+ x_h 2^j, j = 0, 1, ..., around every height y_h of
    the atoms x + iy (y None: all at height 0), out to the next height (or to
    lo / hi beyond the outermost heights), where x_h = min_k (x_k + |y_k - y_h|)
    is the narrowest width an atom shows at that height: its own narrowest
    atom's, or a narrower one's close by.

    A peak of width x_h at the end of a panel much longer than x_h falls
    between the Gauss-Kronrod nodes, so both rules read ~0 and agree; the
    geometric seeds keep every panel next to a height no longer than its
    distance to that height.  Panels fitted to the narrowest atom also
    resolve every wider one centred at the same height, so a spectrum on one
    line (a single height) gets O(log) seeds, not O(K log).
    """
    if y is None:  # one height, 0
        heights, width = np.zeros(1), np.array([x.min()])
    else:
        heights, which = np.unique(y, return_inverse=True)
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


def _integrate_with_breaks(f, lo: float, hi: float, breaks: np.ndarray) -> tuple:
    """Vectorised adaptive Gauss-Kronrod 10/21 quadrature of f over [lo, hi].

    The initial panels are the intervals between the breakpoints.  Each pass
    evaluates the 21 nodes of every active panel in one call of f (1-d array
    in; one value, or a row of m values, per node out) and estimates a
    panel's error per component as |K21 - G10| * h.  Panels whose every
    component is within its share of its remaining tolerance are accepted,
    the rest are bisected, until each total error is at most
    max(_EPSABS, _EPSREL |I|) or bisecting would pass _GK_MAX_PANELS panels.
    Returns (value, error estimate, converged): floats, or arrays of m.
    """
    pts = np.unique(np.concatenate(([lo, hi], breaks[(breaks > lo) & (breaks < hi)])))
    a, b = pts[:-1], pts[1:]
    done_value = done_error = 0.0
    done_panels = 0
    while True:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * _GK_NODES
        values = f(nodes.ravel())
        # one row of 21 node values per (panel, component)
        rows = np.swapaxes(values.reshape(*nodes.shape, -1), 1, 2).reshape(-1, nodes.shape[1])
        sums = (rows @ _GK_WEIGHTS).reshape(a.size, -1, 2) * half[:, None, None]
        kronrod = sums[..., 0]
        errors = np.abs(kronrod - sums[..., 1])
        value = done_value + kronrod.sum(axis=0)
        error = done_error + errors.sum(axis=0)
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(value))
        if (error <= tol).all():
            break
        accept = (errors <= (tol - done_error) / a.size).all(axis=1)
        n_split = a.size - np.count_nonzero(accept)
        if done_panels + a.size + n_split > _GK_MAX_PANELS:
            break
        done_value = done_value + kronrod[accept].sum(axis=0)
        done_error = done_error + errors[accept].sum(axis=0)
        done_panels += a.size - n_split
        split = ~accept
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    converged = bool((error <= tol).all())
    if values.ndim == 1:
        return float(value[0]), float(error[0]), converged
    return value, error, converged


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
    x, y = m.x[pos], None if m.y is None else m.y[pos]
    heights = np.zeros(1) if y is None else np.unique(y)
    peak = float(balayage(m, heights).max())  # raises on an atom with Re z = 0
    width = float(x.min())
    tail = 1e-3 * _EPSABS
    d = math.exp((math.log(2 / ((2 * s - 1) * width * tail))
                  + s * math.log(float(m.masses[pos] @ x) / (math.pi * peak))) / (2 * s - 1))
    lo, hi = heights[0] - d, heights[-1] + d
    integral, error, converged = _integrate_with_breaks(
        lambda t: (balayage(m, t) / peak) ** s / width, lo, hi,
        np.concatenate((heights, _height_seeds(x, y, lo, hi))))
    error += tail
    value = peak * (width * integral) ** (1 / s)
    # first-order propagation through the 1/s root; an integral of 0 only
    # bounds the norm
    abserr = peak * (width * error) ** (1 / s) if integral == 0 else value * error / (s * integral)
    if y is not None:
        abserr = max(abserr, value * np.finfo(float).eps * float((np.abs(y) / x).max()))
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
    z = np.asarray(points, dtype=complex)
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
    # real points: numpy's complex quotient (Smith's form) in real arithmetic, bit for bit
    x = None if z.imag.any() else z.real
    # the factors, and the reciprocals of real points' sums, then the copy
    # that ``np.partition`` would make
    block = np.empty((2, min(rows, n), n))
    for i in range(0, n, rows):
        zk = z[i:i + rows, None]
        factors, spare = block[0, :zk.size], block[1, :zk.size]
        if x is None:
            np.abs((z - zk) / (z + zk.conjugate()), out=factors)
        else:
            np.subtract(x, zk.real, out=factors)
            np.abs(factors, out=factors)
            np.add(x, zk.real, out=spare)
            factors *= np.divide(1.0, spare, out=spare)
        factors[np.arange(zk.size), np.arange(i, i + zk.size)] = 1.0
        degenerate = degenerate or not factors.all()
        np.prod(factors, axis=1, out=products[i:i + rows])
        np.min(factors, axis=1, out=min_factor[i:i + rows])
        if TAIL_WINDOW < n - 1:  # the window leaves other factors out
            np.copyto(spare, factors)
            spare.partition(TAIL_WINDOW, axis=1)
            np.prod(spare[:, TAIL_WINDOW:], axis=1, out=tail_factor[i:i + rows])

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
