import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from admiss import halfplane
from admiss.halfplane import (
    CarlesonSquare,
    balayage,
    balayage_integral,
    balayage_norm,
    blaschke_products,
    measure_on_square,
    pseudo_hyperbolic,
    strip_masses,
)
from admiss.system_model import AtomicMeasure, heat_system, spectral_measure

DELTA_1 = AtomicMeasure(np.array([1 + 0j]), np.array([1.0]))


def test_square_membership_delta1():
    sq3 = CarlesonSquare(0.0, 3.0)
    assert measure_on_square(DELTA_1, sq3) == 1.0
    assert measure_on_square(DELTA_1, sq3, part="right_half") == 0.0  # 1 < 3/2
    sq15 = CarlesonSquare(0.0, 1.5)
    assert measure_on_square(DELTA_1, sq15, part="right_half") == 1.0


def test_square_boundary_warning():
    sq = CarlesonSquare(0.0, 1.0)  # atom exactly on the x = length edge
    with pytest.warns(UserWarning, match="half-open"):
        assert measure_on_square(DELTA_1, sq) == 0.0


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
    val, _ = balayage_norm(DELTA_1, 0.0, 2.0)
    assert val == pytest.approx(math.sqrt(math.pi / 2) / math.pi, rel=1e-10)


def test_balayage_norm_scaling():
    # delta_R scales the a = 0, s = 2 norm by R^(-1/2)
    base, _ = balayage_norm(DELTA_1, 0.0, 2.0)
    for big_r in (4.0, 9.0):
        m = AtomicMeasure(np.array([big_r + 0j]), np.array([1.0]))
        val, _ = balayage_norm(m, 0.0, 2.0)
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


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.3])
@pytest.mark.parametrize("seed", range(6))
def test_gauss_kronrod_matches_quad_reference(seed, a):
    rng = np.random.default_rng(seed)
    m = _random_measure(rng)
    s = 1.5 if a < 0 else float(rng.choice([1.5, 2.0, 3.0]))
    s0 = balayage(m, 0.0)
    integrand = halfplane._norm_integrand(m, a, s, s0)
    breaks = np.append(m.locations.imag, 0.0)
    got, err, converged = halfplane._integrate_with_breaks(integrand, -40.0, 40.0, breaks)
    want, _, _ = _quad_with_breaks(integrand, -40.0, 40.0, breaks)
    assert converged and err >= 0
    assert got == pytest.approx(want, rel=1e-10)
    # the whole norm, with the quad reference swapped in for the integrator
    value, diag = balayage_norm(m, a, s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfplane, "_integrate_with_breaks", _quad_with_breaks)
        reference, _ = balayage_norm(m, a, s)
    assert diag["converged"]
    assert value == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("x", 10.0 ** np.arange(-6, 7))
def test_balayage_norm_single_atom_closed_form(x):
    # || P_x ||_2^2 = integral of (x / (pi (x^2 + t^2)))^2 dt = 1 / (2 pi x)
    m = AtomicMeasure(np.array([x + 0j]), np.array([1.0]))
    val, diag = balayage_norm(m, 0.0, 2.0)
    assert val == pytest.approx((2 * math.pi * x) ** -0.5, rel=1e-10)
    assert diag["converged"] and diag["abserr"] <= 1e-10 * val


@pytest.mark.parametrize("a", [0.0, 0.3, -0.5])
def test_norm_integrand_matches_scalar_form(a):
    # the scalar integrand the array form replaced, t = 0 branch included
    m = AtomicMeasure(np.array([1 + 0j, 0.2 - 3j, 4 + 1j]), np.array([1.0, 0.5, 2.0]))
    s = 1.5
    s0 = balayage(m, 0.0)

    def scalar(t):
        if t == 0.0:
            return s0**s if a == 0 else 0.0
        return (abs(t) ** a * balayage(m, t)) ** s

    t = np.array([0.0, -0.0, 0.7, -2.5, 1e-9, 1e6])
    got = halfplane._norm_integrand(m, a, s, s0)(t)
    np.testing.assert_allclose(got, [scalar(v) for v in t], rtol=1e-15, atol=0)


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
    assert balayage_norm(m, 0.0, 2.0)[0] == pytest.approx(expect, rel=1e-9)


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
    assert balayage_norm(m, 0.0, 2.0)[0] == pytest.approx(math.sqrt(w @ gram @ w), rel=1e-9)


def test_height_seeds_grow_with_heights_not_atoms():
    # heat1d's atoms share the height 0: one geometric ladder each way
    m = spectral_measure(heat_system(10_000))
    assert halfplane._height_seeds(m, -1e12, 1e12).size <= 2 * math.ceil(math.log2(1e12 / math.pi**2))


def test_balayage_integral_warns_when_unconverged(monkeypatch):
    monkeypatch.setattr(halfplane, "_GK_MAX_PANELS", 1)
    m = AtomicMeasure(np.array([0.05 + 0j, 1 + 0.3j]), np.ones(2))
    with pytest.warns(UserWarning, match="unconverged"):
        balayage_integral(m)


def test_balayage_norm_divergence_detection():
    val, diag = balayage_norm(DELTA_1, -1.0, 2.0)  # |t|^(-2) at 0
    assert val == math.inf and diag["divergent_end"] == "t=0"
    val, diag = balayage_norm(DELTA_1, 2.0, 2.0)  # decay t^0 at infinity
    assert val == math.inf and diag["divergent_end"] == "t=inf"


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


@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=10),
                          st.floats(min_value=-5, max_value=5),
                          st.floats(min_value=0.0, max_value=2)),
                min_size=1, max_size=8))
@settings(max_examples=50)
def test_square_mass_monotone_under_atom_addition(atoms):
    sq = CarlesonSquare(0.0, 8.0)
    running = 0.0
    for i in range(1, len(atoms) + 1):
        m = AtomicMeasure.from_atoms([(complex(x, y), mass) for x, y, mass in atoms[:i]])
        val = measure_on_square(m, sq)
        assert val >= running - 1e-12
        running = val
