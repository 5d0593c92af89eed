"""The (points x atoms) block loops of ``kernel_sums``, ``blaschke_products``
and ``laplace_at`` write every block into one buffer per call.  Each must
give the bytes of a frozen copy of the loop that formed fresh temporaries per
block, at point counts below one block, of exactly one block and of one more
than a multiple of the block's rows.  ``balayage`` has no loop of its own: it
is a kernel sum, held to the frozen dense Poisson loop bit for bit on complex
measures and within 1e-13 relative where a real measure takes the Taylor bins."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from admiss import halfplane
from admiss.halfplane import _BLOCK_ENTRIES, balayage, blaschke_products, kernel_sums
from admiss.laplace_oracle import TestFunction, laplace_at
from admiss.system_model import AtomicMeasure, heat_system, spectral_measure
from admiss.zen_weight import gamma

ATOMS = 1000


def _balayage_frozen(m, t):
    x = m.x
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
        if y is None:
            kernel = t_rows * t_rows + x_sq
        else:
            kernel = t_rows - y
            kernel *= kernel
            kernel += x_sq
        np.reciprocal(kernel, out=kernel)
        out[i:i + rows] = kernel @ weights
    return out if np.ndim(t) else float(out[0])


def _power_in_place_frozen(d, power):
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


def _block_sums_frozen(re, im, u, v, masses, power):
    d = re[:, None] + u
    d *= d
    if v is not None:
        dy = im[:, None] + v
        dy *= dy
        d += dy
    elif im.any():
        d += (im * im)[:, None]
    return _power_in_place_frozen(d, power) @ masses


def _kernel_sums_frozen(points, m, power):
    """The dense rows only: every call here stays off the Taylor bins."""
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    u, v, masses = m.x, m.y, m.masses
    real = v is None
    if real:
        z, back = np.unique(z.real + 1j * np.abs(z.imag), return_inverse=True)
    if not (held := masses > 0).all():
        u, v, masses = u[held], None if real else v[held], masses[held]
    cols = min(max(1, u.size), _BLOCK_ENTRIES)
    rows = _BLOCK_ENTRIES // cols
    sums = np.empty(z.size)
    for i in range(0, z.size, rows):
        re, im = z.real[i:i + rows], z.imag[i:i + rows]
        sums[i:i + rows] = sum(
            _block_sums_frozen(re, im, u[k:k + cols], None if real else v[k:k + cols],
                               masses[k:k + cols], power)
            for k in range(0, u.size, cols))
    return sums[back] if real else sums


def _blaschke_frozen(points):
    z = np.asarray([complex(p) for p in points])
    n = z.size
    products, min_factor, tail_factor = np.empty(n), np.empty(n), np.ones(n)
    degenerate = False
    rows = max(1, _BLOCK_ENTRIES // n)
    x = None if z.imag.any() else z.real
    for i in range(0, n, rows):
        zk = z[i:i + rows, None]
        factors = (np.abs((z - zk) / (z + zk.conjugate())) if x is None
                   else np.abs(x - zk.real) * (1.0 / (x + zk.real)))
        factors[np.arange(zk.size), np.arange(i, i + zk.size)] = 1.0
        degenerate = degenerate or bool((factors == 0).any())
        products[i:i + rows] = np.prod(factors, axis=1)
        min_factor[i:i + rows] = factors.min(axis=1)
        if halfplane.TAIL_WINDOW < n - 1:
            tail = np.partition(factors, halfplane.TAIL_WINDOW, axis=1)[:, halfplane.TAIL_WINDOW:]
            tail_factor[i:i + rows] = np.prod(tail, axis=1)
    return products, min_factor, tail_factor, degenerate


def _laplace_at_frozen(f, z):
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.zeros(z_arr.shape, dtype=complex)
    for c, n, lam in f.terms:
        shifted = lam + z_arr
        if (shifted == 0).any():
            raise ValueError("pole: lam + z = 0")
        out += c * gamma(n) / shifted**n
    return out if np.ndim(z) else complex(out[0])


def _measure(stored):
    """1000 atoms, every seventh of mass 0: a block's rows hold the 857 others."""
    rng = np.random.default_rng(4)
    x = rng.uniform(0.01, 50.0, ATOMS)
    masses = rng.uniform(0.5, 2.0, ATOMS)
    masses[::7] = 0.0
    return AtomicMeasure(x, masses) if stored == "real" else AtomicMeasure(
        x + 1j * rng.uniform(-30.0, 30.0, ATOMS), masses)


def _point_counts(m):
    rows = _BLOCK_ENTRIES // int((m.masses > 0).sum())
    return rows // 3, rows, 2 * rows + 1


@pytest.fixture()
def taylor_sums():
    """``halfplane._taylor_sums``, wrapped to count its calls."""
    with mock.patch.object(halfplane, "_taylor_sums", wraps=halfplane._taylor_sums) as spy:
        yield spy


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want) / want))


@pytest.mark.parametrize("stored", ["real", "complex"])
def test_balayage_matches_the_fresh_block_loop(stored, taylor_sums):
    m = _measure(stored)
    rng = np.random.default_rng(5)
    for count in _point_counts(m):
        t = rng.uniform(-100.0, 100.0, count)
        got, want = balayage(m, t), _balayage_frozen(m, t)
        if stored == "complex":
            assert got.tobytes() == want.tobytes()
        else:  # every count takes the Taylor bins; the frozen loop is the dense reference
            assert _relative_gap(got, want) <= 1e-13
    assert taylor_sums.call_count == (3 if stored == "real" else 0)
    assert balayage(m, 3.5) == _balayage_frozen(m, 3.5)


def test_balayage_of_heat1d_matches_the_dense_loop(taylor_sums):
    m = spectral_measure(heat_system(100_000))
    t = np.concatenate(([0.0], np.logspace(-3, 12, 400)))
    assert _relative_gap(balayage(m, t), _balayage_frozen(m, t)) <= 1e-13
    assert taylor_sums.called


@pytest.mark.parametrize("stored", ["real", "complex"])
@pytest.mark.parametrize("power", [-1.0, -0.75, -1.5, -3.0, 0.3, -1.25, -1.75])
def test_kernel_sums_match_the_fresh_block_loop(stored, power):
    m = _measure(stored)
    rng = np.random.default_rng(6)
    for count in _point_counts(m):
        # Re z < 0 keeps a real measure off the Taylor bins at negative powers
        z = rng.uniform(-100.0, -1.0, count) + 1j * rng.uniform(-100.0, 100.0, count)
        assert kernel_sums(z, m, power).tobytes() == _kernel_sums_frozen(z, m, power).tobytes()


@pytest.mark.parametrize("power", [-0.25, -0.5, -0.75, -1.25, -1.5, -1.75, -2.0, -2.75, -3.0,
                                   -5.0, -6.0, -7.25, 0.25, 1.5, 2.75, 3.0, 0.3, -1.1])
def test_power_in_place_matches_the_fresh_power(power):
    # the roots and odd powers go to the spare buffer, or to new arrays
    # without one; the arithmetic is the frozen loop's
    d = np.random.default_rng(8).uniform(0.01, 3.0, (7, 11))
    want = _power_in_place_frozen(d.copy(), power).tobytes()
    assert halfplane._power_in_place(d.copy(), power).tobytes() == want
    spare = np.empty(halfplane._power_layers(power) * d.size + 3)
    assert halfplane._power_in_place(d.copy(), power, spare).tobytes() == want


def test_kernel_sums_take_no_block_temporary_at_any_quarter_power():
    # one call's peak at -1.5 (a root beside d) and at -3 (d beside d^2)
    # is the peak at -1: the complex atoms' second layer holds both
    rng = np.random.default_rng(9)
    m = AtomicMeasure(rng.uniform(0.1, 10.0, ATOMS) + 1j * rng.uniform(-5.0, 5.0, ATOMS),
                      rng.uniform(0.0, 1.0, ATOMS))
    z = rng.uniform(0.1, 5.0, _BLOCK_ENTRIES // ATOMS) + 1j * rng.uniform(-3.0, 3.0, 262)
    peaks = {}
    for power in (-1.0, -1.5, -3.0):
        kernel_sums(z, m, power)
        tracemalloc.start()
        try:
            kernel_sums(z, m, power)
            peaks[power] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks[-1.5], peaks[-3.0]) <= peaks[-1.0] + 0.1 * 2**20


@pytest.mark.parametrize("stored", ["real", "complex"])
def test_kernel_sums_over_more_atoms_than_one_block(stored):
    # each point's row takes two blocks of atoms, added into its sum
    rng = np.random.default_rng(5)
    atoms = _BLOCK_ENTRIES + 7
    x = rng.uniform(0.1, 50.0, atoms)
    m = (AtomicMeasure(x, rng.uniform(0.0, 1.0, atoms)) if stored == "real"
         else AtomicMeasure(x + 1j * rng.uniform(-3.0, 3.0, atoms), rng.uniform(0.0, 1.0, atoms)))
    z = rng.uniform(-9.0, -1.0, 3) + 1j
    assert kernel_sums(z, m, -1.0).tobytes() == _kernel_sums_frozen(z, m, -1.0).tobytes()


def _blaschke_counts():
    """Point counts n whose rows = _BLOCK_ENTRIES // n give one partial
    block, exactly one block, and one more than a multiple of rows."""
    one_more = next(n for n in range(600, 2000) if n % (_BLOCK_ENTRIES // n) == 1)
    return (300, math.isqrt(_BLOCK_ENTRIES), one_more)


@pytest.mark.parametrize("kind", ["real", "complex", "repeated"])
@pytest.mark.parametrize("count", _blaschke_counts())
def test_blaschke_products_match_the_fresh_block_loop(kind, count):
    rng = np.random.default_rng(count)
    points = rng.uniform(0.01, 100.0, count)
    if kind == "complex":
        points = points + 1j * rng.uniform(-50.0, 50.0, count)
    if kind == "repeated":
        points[count - 1] = points[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        products, diagnostics = blaschke_products(points)
    want = _blaschke_frozen(points)
    got = (products, diagnostics["min_factor"], diagnostics["tail_factor"])
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want[:3]]
    assert diagnostics["degenerate"] is want[3] is (kind == "repeated")


@pytest.mark.parametrize("count", [1, 7, 1000])
def test_laplace_at_matches_the_fresh_term_loop(count):
    rng = np.random.default_rng(count)
    functions = [
        TestFunction.poly_exp(3, 1.3),
        TestFunction.power_exp(0.5, 0.7 + 0.2j),
        TestFunction.mix([(1, 1, 1.0), (-2 + 1j, 2, 0.5 + 3j), (0.5, 4, 2.0), (1j, 7, 1.1)]),
        TestFunction(((1.5, 2.5, 1.0), (1, 1.0, 2.0), (2, 0.3, 0.4 - 1j))),
    ]
    z = rng.uniform(0.0, 10.0, count) + 1j * rng.uniform(-10.0, 10.0, count)
    for f in functions:
        assert laplace_at(f, z).tobytes() == _laplace_at_frozen(f, z).tobytes()
        column = z.reshape(-1, 1)
        assert laplace_at(f, column).tobytes() == _laplace_at_frozen(f, column).tobytes()
        assert laplace_at(f, 2.0 + 1j) == _laplace_at_frozen(f, 2.0 + 1j)
    with pytest.raises(ValueError, match="pole"):
        laplace_at(TestFunction.exp(1.0), np.array([1.0, -1.0]))
