import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from admiss import halfplane
from admiss.halfplane import (
    balayage,
    balayage_integral,
    balayage_norm,
    blaschke_products,
    dyadic_index,
    pseudo_hyperbolic,
    strip_masses,
)
from admiss.system_model import AtomicMeasure, heat_system, spectral_measure

DELTA_1 = AtomicMeasure(np.array([1 + 0j]), np.array([1.0]))


def test_strip_masses_delta1():
    masses = dict(strip_masses(DELTA_1, -3, 3))
    assert masses[0] == 1.0  # 2^(-1) < 1 <= 2^0
    assert sum(masses.values()) == 1.0


def test_strip_masses_exact_dyadic_boundary():
    m = AtomicMeasure(np.array([0.5 + 0j]), np.array([1.0]))
    masses = dict(strip_masses(m, -3, 3))
    assert masses[-1] == 1.0  # Re z = 2^(-1) belongs to S_(-1)


def test_strip_masses_heat_counts():
    mu = spectral_measure(heat_system(1000))
    for n, mass in strip_masses(mu, 0, 20):
        count = sum(1 for k in range(1, 1001)
                    if 2.0 ** (n - 1) < k * k * math.pi**2 <= 2.0**n)
        assert mass == count


@given(st.integers(min_value=-10, max_value=10))
@settings(max_examples=30)
def test_strip_partition_property(shift):
    # strips over a wide range partition the positive-real-part atoms
    locs = np.array([0.3 * 2.0**shift, 1 + 1j, 7 - 2j, 0 + 1j])
    masses = np.array([1.0, 2.0, 3.0, 4.0])
    m = AtomicMeasure(locs, masses)
    total = sum(v for _, v in strip_masses(m, -40, 40))
    expect = masses[locs.real > 0].sum()
    assert total == pytest.approx(expect)


# exact powers of two and their float neighbours, signed zeros, the smallest
# subnormal, and values far past both ends of every tested grid
_POWERS = [2.0**n for n in (-1074, -1073, -1022, -30, -11, -10, -1, 0, 1, 5, 44, 45, 46, 1023)]
_LEVEL_VALUES = np.array(
    [v for p in _POWERS for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p)]
    + [0.0, -0.0, 5e-324, -5e-324, 1e300, 1.7e308, -1e300, -1.7e308, 3.7, -3.7])


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("n_first, count",
                         [(-10, 56), (-1074, 1), (-1074, 2098), (-3, 0), (1000, 24), (-1, 3)])
def test_dyadic_index_matches_searchsorted(strict, n_first, count):
    grid = np.ldexp(1.0, np.arange(n_first, n_first + count))
    want = np.searchsorted(grid, _LEVEL_VALUES, side="right" if strict else "left")
    assert dyadic_index(_LEVEL_VALUES, n_first, count, strict).tolist() == want.tolist()


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
       n_first=st.integers(-1074, 960), count=st.integers(0, 64), strict=st.booleans())
@settings(max_examples=200)
def test_dyadic_index_matches_searchsorted_on_any_finite_value(values, n_first, count, strict):
    v = np.array(values)
    grid = np.ldexp(1.0, np.arange(n_first, n_first + count))
    want = np.searchsorted(grid, v, side="right" if strict else "left")
    assert dyadic_index(v, n_first, count, strict).tolist() == want.tolist()


_STRIP_X = st.one_of(
    st.integers(-12, 12).map(lambda n: 2.0**n).flatmap(
        lambda p: st.sampled_from([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])),
    st.just(0.0), st.floats(0.0, 1e4), st.floats(1e5, 1e300))


@given(atoms=st.lists(st.tuples(_STRIP_X, st.floats(-10.0, 10.0), st.integers(0, 4)),
                      min_size=1, max_size=40),
       n_min=st.integers(-14, 10), span=st.integers(0, 20))
@settings(max_examples=200)
def test_strip_masses_matches_per_strip_scan(atoms, n_min, span):
    # integer masses make every sum exact in any order
    m = AtomicMeasure.from_atoms([(complex(x, y), mass) for x, y, mass in atoms])
    x = m.locations.real
    want = [(n, float(m.masses[(x > 2.0 ** (n - 1)) & (x <= 2.0**n)].sum()))
            for n in range(n_min, n_min + span + 1)]
    assert strip_masses(m, n_min, n_min + span) == want


def test_balayage_delta1_at_zero():
    assert balayage(DELTA_1, 0.0) == pytest.approx(1 / math.pi, rel=1e-14)


def test_balayage_rejects_boundary_atom():
    m = AtomicMeasure(np.array([1j]), np.array([1.0]))
    with pytest.raises(ValueError):
        balayage(m, 0.0)


def test_balayage_integral_conserves_mass():
    m = AtomicMeasure(np.array([1 + 0j, 2 + 3j, 0.1 - 5j]), np.array([1.0, 2.5, 0.5]))
    assert balayage_integral(m) == pytest.approx(m.total_mass, rel=1e-10)


def test_balayage_norm_delta1():
    # || (1/pi) / (1 + t^2) ||_2 = (1/pi) sqrt(pi/2)
    val, _ = balayage_norm(DELTA_1, 2.0)
    assert val == pytest.approx(math.sqrt(math.pi / 2) / math.pi, rel=1e-10)


def test_balayage_norm_scaling():
    # delta_R scales the a = 0, s = 2 norm by R^(-1/2)
    base, _ = balayage_norm(DELTA_1, 2.0)
    for big_r in (4.0, 9.0):
        m = AtomicMeasure(np.array([big_r + 0j]), np.array([1.0]))
        val, _ = balayage_norm(m, 2.0)
        assert val == pytest.approx(base / math.sqrt(big_r), rel=1e-9)


def test_gauss_kronrod_rule():
    # K21 is exact to degree 31; the embedded rule is the 10-point Gauss rule
    nodes, kronrod, gauss = halfplane._GK_NODES, *halfplane._GK_WEIGHTS.T
    for degree in range(32):
        exact = 0.0 if degree % 2 else 2 / (degree + 1)
        assert (kronrod * nodes**degree).sum() == pytest.approx(exact, abs=1e-15)
    g_nodes, g_weights = leggauss(10)
    np.testing.assert_allclose(nodes[gauss > 0], g_nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(gauss[gauss > 0], g_weights, rtol=0, atol=1e-15)


def _quad_with_breaks(f, lo, hi, breaks):
    """Reference for _integrate_with_breaks: scalar quad on every panel
    between the breakpoints, f called one node at a time."""
    pts = np.unique(np.concatenate(([lo, hi], breaks[(breaks > lo) & (breaks < hi)])))
    scalar = lambda t: float(f(np.array([t]))[0])  # noqa: E731
    parts = [quad(scalar, a, b, epsabs=1e-15, epsrel=1e-13, limit=400)
             for a, b in zip(pts[:-1], pts[1:])]
    return sum(v for v, _ in parts), sum(e for _, e in parts), True


def _random_measure(rng):
    """Atoms on a coarse height lattice (shared heights, atoms at y = 0 on
    the breakpoint there) with x over three decades; some masses are zero,
    one of them on the boundary line."""
    n = int(rng.integers(1, 12))
    x = 10.0 ** rng.uniform(-2, 1, n)
    y = rng.integers(-4, 5, n) * 0.5
    masses = np.where(rng.random(n) < 0.25, 0.0, 10.0 ** rng.uniform(-1, 1, n))
    masses[0] = 1.0
    return AtomicMeasure(np.append(x + 1j * y, 0.5j), np.append(masses, 0.0))


@pytest.mark.parametrize("seed", range(6))
def test_gauss_kronrod_matches_quad_reference(seed):
    rng = np.random.default_rng(seed)
    m = _random_measure(rng)
    s = float(rng.choice([1.5, 2.0, 3.0]))
    integrand = lambda t: balayage(m, t) ** s  # noqa: E731
    breaks = np.append(m.locations.imag, 0.0)
    got, err, converged = halfplane._integrate_with_breaks(integrand, -40.0, 40.0, breaks)
    want, _, _ = _quad_with_breaks(integrand, -40.0, 40.0, breaks)
    assert converged and err >= 0
    assert got == pytest.approx(want, rel=1e-10)
    # the whole norm, with the quad reference swapped in for the integrator
    value, diag = balayage_norm(m, s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfplane, "_integrate_with_breaks", _quad_with_breaks)
        reference, _ = balayage_norm(m, s)
    assert diag["converged"]
    assert value == pytest.approx(reference, rel=1e-10)



def test_balayage_norm_matches_the_poisson_closed_form_at_s2():
    # an independent reference: P_a * P_b = P_(a+b) (the Poisson semigroup) gives
    # ||S_mu||_2^2 = sum_jk m_j m_k (x_j + x_k) / (pi ((x_j + x_k)^2 + (y_j - y_k)^2))
    rng = np.random.default_rng(0)
    x = 10.0 ** rng.uniform(-2, 2, 105)
    y = rng.uniform(-50, 50, 105)
    masses = rng.uniform(0.0, 1.0, 105)
    sx, dy = x[:, None] + x, y[:, None] - y
    want = math.sqrt(masses @ (sx / (math.pi * (sx * sx + dy * dy))) @ masses)
    got, diag = balayage_norm(AtomicMeasure(x + 1j * y, masses), 2.0)
    assert diag["converged"]
    assert abs(got - want) <= diag["abserr"]

@pytest.mark.parametrize("x", 10.0 ** np.arange(-6, 7))
def test_balayage_norm_single_atom_closed_form(x):
    # || P_x ||_2^2 = integral of (x / (pi (x^2 + t^2)))^2 dt = 1 / (2 pi x)
    m = AtomicMeasure(np.array([x + 0j]), np.array([1.0]))
    val, diag = balayage_norm(m, 2.0)
    assert val == pytest.approx((2 * math.pi * x) ** -0.5, rel=1e-10)
    assert diag["converged"] and diag["abserr"] <= 1e-10 * val
    # at s = 1 the norm is the mass: no tail may be dropped
    val, diag = balayage_norm(m, 1.0)
    assert val == pytest.approx(1.0, rel=1e-12)
    assert diag["converged"] and diag["abserr"] <= 1e-10


@pytest.mark.parametrize("x", [1e-4, 1e-3, 1e-2, 1e-1, 1.0])
@pytest.mark.parametrize("separation", [1.0, 1e1, 1e2, 1e3, 1e4])
def test_balayage_narrow_far_apart_atoms(x, separation):
    # a peak of width x at the end of a panel of length ~separation once
    # fell between all 21 nodes, so the panel was accepted with K = G = 0
    m = AtomicMeasure(np.array([x + 0j, x + 1j * separation]), np.array([1.0, 1.0]))
    assert balayage_integral(m) == pytest.approx(2.0, rel=1e-8)
    # ||P_x||^2 = 1/(2 pi x) each, cross term <P_x, P_x(. - d)> = P_2x(d)
    cross = (2 * x / math.pi) / (4 * x * x + separation**2)
    expect = math.sqrt(2 / (2 * math.pi * x) + 2 * cross)
    value, diag = balayage_norm(m, 2.0)
    assert value == pytest.approx(expect, rel=1e-9)
    # a node near height y is placed to within eps |y|: abserr must cover it
    assert abs(value - expect) <= diag["abserr"]


@pytest.mark.parametrize("separation", [1.0, 1e2, 1e4])
def test_balayage_wide_and_narrow_atoms_at_one_height(separation):
    # the seeds around a height follow its narrowest atom; the wider atom
    # there must still be resolved
    z = np.array([1e-4 + 0j, 1.0 + 0j, 3e-3 + 1j * separation])
    w = np.array([1.0, 2.0, 0.5])
    m = AtomicMeasure(z, w)
    assert balayage_integral(m) == pytest.approx(w.sum(), rel=1e-8)
    # <P_a(. - c), P_b(. - d)> = P_(a + b)(c - d)
    width = z.real[:, None] + z.real
    gram = width / math.pi / (width**2 + (z.imag[:, None] - z.imag) ** 2)
    assert balayage_norm(m, 2.0)[0] == pytest.approx(math.sqrt(w @ gram @ w), rel=1e-9)


@pytest.mark.parametrize("x", [1e-2, 1e-3, 1e-4])
def test_balayage_narrow_atom_beside_a_wide_height(x):
    # the heights are x/2 apart: seeds at the wide atom's own width would
    # leave one panel from the narrow peak's flank to the end of the range,
    # where (S/peak)^7 gives no sign of the peak.  S lies between the narrow
    # Lorentzian and the sum of both, so the norm lies between the narrow
    # one's norm and the sum of both norms (Minkowski)
    s = 7.0

    def lorentzian_norm(width):
        # || P_width ||_s = width^(1/s - 1) / pi (sqrt(pi) Gamma(s - 1/2) / Gamma(s))^(1/s)
        log_ratio = math.lgamma(s - 0.5) - math.lgamma(s)
        return width ** (1 / s - 1) / math.pi * math.exp((0.5 * math.log(math.pi) + log_ratio) / s)

    m = AtomicMeasure(np.array([500 + 0j, x + 0.5j * x]), np.ones(2))
    value = balayage_norm(m, s)[0]
    assert lorentzian_norm(x) <= value <= lorentzian_norm(x) + lorentzian_norm(500.0)


def test_height_seeds_grow_with_heights_not_atoms():
    # heat1d's atoms share the height 0: one geometric ladder each way
    m = spectral_measure(heat_system(10_000))
    assert halfplane._height_seeds(m, -1e12, 1e12).size <= 2 * math.ceil(math.log2(1e12 / math.pi**2))


def test_balayage_integral_warns_when_unconverged(monkeypatch):
    # one panel, and tolerances no pass can meet
    monkeypatch.setattr(halfplane, "_GK_MAX_PANELS", 1)
    monkeypatch.setattr(halfplane, "_EPSABS", 1e-30)
    monkeypatch.setattr(halfplane, "_EPSREL", 0.0)
    m = AtomicMeasure(np.array([0.05 + 0j, 1 + 0.3j]), np.ones(2))
    with pytest.warns(UserWarning, match="unconverged"):
        balayage_integral(m)


def test_pseudo_hyperbolic_hand_values():
    assert pseudo_hyperbolic(1, 2) == pytest.approx(1 / 3, rel=1e-15)
    assert pseudo_hyperbolic(1, 3) == pytest.approx(1 / 2, rel=1e-15)


@given(st.floats(min_value=0.05, max_value=20), st.floats(min_value=-20, max_value=20),
       st.floats(min_value=0.05, max_value=20), st.floats(min_value=-20, max_value=20))
@settings(max_examples=100)
def test_pseudo_hyperbolic_symmetry_and_range(x1, y1, x2, y2):
    z, w = complex(x1, y1), complex(x2, y2)
    d = pseudo_hyperbolic(z, w)
    assert d == pytest.approx(pseudo_hyperbolic(w, z), rel=1e-12)
    assert 0 <= d < 1


def test_pseudo_hyperbolic_rejects_left_halfplane():
    with pytest.raises(ValueError):
        pseudo_hyperbolic(-1, 1)


def test_blaschke_two_points():
    products, _ = blaschke_products([1, 2])
    assert products[0] == pytest.approx(1 / 3, rel=1e-15)
    assert products[1] == pytest.approx(1 / 3, rel=1e-15)


def test_blaschke_heat_k3():
    pts = [k * k * math.pi**2 for k in (1, 2, 3)]
    products, _ = blaschke_products(pts)
    assert products[0] == pytest.approx(12 / 25, rel=1e-14)


def test_blaschke_repeated_points_degenerate():
    with pytest.warns(UserWarning, match="repeated"):
        products, diag = blaschke_products([1, 1])
    assert diag["degenerate"]
    assert products[0] == 0.0


def test_blaschke_diagnostics_shape():
    products, diag = blaschke_products([1, 2, 4, 8])
    assert len(diag["min_factor"]) == 4
    assert (products > 0).all()
    assert diag["summability_proxy"] > 0


def _blaschke_per_point(z, window=8):
    """The per-point loop ``blaschke_products`` replaced: (products, min
    factors, tail factors, degenerate)."""
    n = z.size
    products, min_factor, tail_factor = np.ones(n), np.ones(n), np.ones(n)
    degenerate = False
    for k in range(n):
        others = np.delete(z, k)
        if others.size == 0:
            continue
        factors = np.abs((others - z[k]) / (others + z[k].conjugate()))
        degenerate = degenerate or bool((factors == 0).any())
        products[k] = float(np.prod(factors))
        ordered = np.sort(factors)
        min_factor[k] = float(ordered[0])
        tail_factor[k] = float(np.prod(ordered[window:])) if window < ordered.size else 1.0
    return products, min_factor, tail_factor, degenerate


@given(pool=st.lists(st.tuples(st.floats(0.01, 20.0), st.floats(-20.0, 20.0)), min_size=1,
                     max_size=39),
       picks=st.lists(st.integers(0, 38), min_size=1, max_size=39),
       block=st.sampled_from([None, 1, 7, 64]))
@settings(max_examples=300, deadline=None)
def test_blaschke_products_match_per_point_loop(pool, picks, block):
    # points picked from a pool repeat; small blocks run several row blocks
    z = np.array([complex(*pool[i % len(pool)]) for i in picks])
    with mock.patch.object(halfplane, "_BLOCK_ENTRIES", block or halfplane._BLOCK_ENTRIES), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        products, diag = blaschke_products(z)
    want_products, want_min, want_tail, want_degenerate = _blaschke_per_point(z)
    assert products.tobytes() == want_products.tobytes()
    assert diag["min_factor"].tobytes() == want_min.tobytes()
    assert diag["degenerate"] == want_degenerate
    # the tail is multiplied in the order np.partition leaves it, which is
    # up to the platform's selection routine, so it may round differently
    np.testing.assert_allclose(diag["tail_factor"], want_tail, rtol=z.size * 2.0**-52, atol=0)
