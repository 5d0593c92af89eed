import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as scipy_gamma

from admiss.zen_weight import (
    RadialMeasure,
    bergman,
    delta2_constant,
    gamma,
    hardy,
    load_radial_measure,
    nu_square_mass,
    weight,
)


def _weight_by_quadrature(w, t: float) -> float:
    """w(t) with the density's integral by scipy's adaptive quadrature: an
    independent reference for the closed forms."""
    m = w.measure
    total = 2 * math.pi * m.atom_at_zero
    for r, mass in m.atoms:
        total += 2 * math.pi * mass * math.exp(-2 * r * t)
    if m.has_density:
        a = m.density_alpha
        r_cap = max(1.0, -math.log(1e-16) / (2 * t))
        val, _ = quad(lambda r: math.exp(-2 * r * t) * r**a, 0, r_cap,
                      epsabs=1e-12, limit=200)
        total += 2 * math.pi * m.density_scale * val
    return total


def test_hardy_weight_constant():
    w = weight(hardy())
    assert w.provenance == "hardy"
    assert w(1.0) == pytest.approx(2 * math.pi)
    assert w(100.0) == pytest.approx(2 * math.pi)


def test_bergman_alpha1_closed_form():
    # density r dr gives w(t) = 2 pi Gamma(2) / (2t)^2 = pi / (2 t^2)
    w = weight(bergman(1.0))
    for t in (0.5, 1.0, 3.0):
        assert w(t) == pytest.approx(math.pi / (2 * t * t), rel=1e-14)


def test_quadrature_matches_closed_form():
    w = weight(bergman(0.5))
    assert _weight_by_quadrature(w, 1.0) == pytest.approx(w(1.0), rel=1e-10)


def test_gamma_matches_scipy_on_integers_and_half_integers():
    for x in [*range(1, 65), *(k + 0.5 for k in range(65))]:
        want = float(scipy_gamma(x))
        assert abs(gamma(x) - want) <= 1e-15 * want, x


def test_gamma_is_inf_past_the_float_range():
    for x in (171.7, 172.0, 200.5, 1e3, 1e308):
        with pytest.raises(OverflowError):
            math.gamma(x)
        assert gamma(x) == math.inf == scipy_gamma(x), x


def test_weight_rejects_nonpositive_time():
    w = weight(hardy())
    with pytest.raises(ValueError):
        w(0.0)


def test_delta2_power_density():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert delta2_constant(bergman(alpha)) == pytest.approx(2.0 ** (alpha + 1), rel=1e-12)


def test_delta2_hardy_is_one():
    assert delta2_constant(hardy()) == pytest.approx(1.0)


def test_delta2_isolated_atom_fails_doubling():
    m = RadialMeasure(atoms=((1.0, 1.0),))
    assert delta2_constant(m) == math.inf
    with pytest.raises(ValueError):
        weight(m)


def test_delta2_rejects_zero_measure():
    with pytest.raises(ValueError):
        delta2_constant(RadialMeasure())


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_delta2_mass_scale_invariance(c):
    base = RadialMeasure(atom_at_zero=1.0, atoms=((2.0, 3.0),))
    scaled = RadialMeasure(atom_at_zero=c, atoms=((2.0, 3.0 * c),))
    assert delta2_constant(scaled) == pytest.approx(delta2_constant(base), rel=1e-9)


@given(st.floats(min_value=1e-2, max_value=1e2),
       st.floats(min_value=1e-2, max_value=1e2))
def test_weight_nonincreasing(t1, t2):
    m = RadialMeasure(atom_at_zero=0.5, atoms=((1.0, 1.0),), density_alpha=0.5,
                      density_scale=1.0)
    w = weight(m)
    lo, hi = sorted((t1, t2))
    assert w(lo) >= w(hi) - 1e-12 * abs(w(lo))


def test_poly_exp_moment_hardy():
    # integral of t^0 e^(-2t) 2 pi dt = pi
    w = weight(hardy())
    assert w.poly_exp_moment(0, 2.0) == pytest.approx(math.pi, rel=1e-14)


def test_poly_exp_moment_divergence():
    w = weight(bergman(1.0))
    # t^0 against w ~ t^(-2) diverges at 0
    assert w.poly_exp_moment(0, 1.0) == math.inf
    assert math.isfinite(w.poly_exp_moment(2, 1.0))


@pytest.mark.parametrize("m, power", [
    (hardy(), 1.0),
    (bergman(0.5), 2.0),
    (RadialMeasure(atom_at_zero=0.5, atoms=((1.0, 2.0),), density_alpha=1.0,
                   density_scale=0.5), 3.0),
], ids=["hardy", "bergman-0.5", "atom-density-mixture"])
def test_poly_exp_moment_complex_decay(m, power):
    w = weight(m)
    d = 1.5 - 2.0j
    got = w.poly_exp_moment(power, d)
    assert isinstance(got, complex)
    # e^(-dt) = e^(-1.5 t) (cos 2t + i sin 2t)
    re, _ = quad(lambda t: t**power * math.exp(-1.5 * t) * math.cos(2 * t) * w(t),
                 0, np.inf, epsabs=0, epsrel=1e-12, limit=400)
    im, _ = quad(lambda t: t**power * math.exp(-1.5 * t) * math.sin(2 * t) * w(t),
                 0, np.inf, epsabs=0, epsrel=1e-12, limit=400)
    assert got.real == pytest.approx(re, rel=1e-9)
    assert got.imag == pytest.approx(im, rel=1e-9)
    real = w.poly_exp_moment(power, 1.5)
    assert isinstance(real, float)
    assert w.poly_exp_moment(-1.0, d) == complex(math.inf)


def test_nu_square_mass_hardy_and_power():
    assert nu_square_mass(hardy(), 3.0) == pytest.approx(3.0)
    for alpha in (0.0, 1.0, 2.5):
        for length in (0.5, 2.0):
            expect = length ** (alpha + 2) / (alpha + 1)
            assert nu_square_mass(bergman(alpha), length) == pytest.approx(expect, rel=1e-12)


def test_cumulative_half_open():
    m = RadialMeasure(atom_at_zero=1.0, atoms=((2.0, 5.0),))
    assert m.cumulative(2.0) == pytest.approx(1.0)  # atom at the edge excluded
    assert m.cumulative(2.0 + 1e-9) == pytest.approx(6.0)


def test_load_radial_measure_presets_and_schema():
    assert load_radial_measure("hardy").atom_at_zero == 1.0
    b = load_radial_measure("bergman:0.5")
    assert b.density_alpha == 0.5 and b.density_scale == 1.0
    m = load_radial_measure({"atom0": 2, "atoms": [[1, 3]], "density": {"alpha": 1, "scale": 4}})
    assert m.atom_at_zero == 2.0
    assert m.atoms == ((1.0, 3.0),)
    assert m.density_scale == 4.0


def test_weight_mixture_provenance():
    m = RadialMeasure(atom_at_zero=1.0, density_alpha=0.0, density_scale=1.0)
    assert weight(m).provenance == "mixture"
    assert weight(bergman(0.5)).provenance == "bergman-0.5"


def test_weight_vectorized():
    w = weight(bergman(1.0))
    t = np.array([1.0, 2.0])
    assert np.allclose(w(t), [math.pi / 2, math.pi / 8])
