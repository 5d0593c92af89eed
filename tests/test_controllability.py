import math

import numpy as np
import pytest

from admiss.controllability import (
    controllability_measure,
    interpolation_test,
    sobolev_controllability,
)
from admiss.halfplane import blaschke_products
from admiss.system_model import DiagonalSystem, heat_system

TWO_MODE = DiagonalSystem((-1 + 0j, -2 + 0j), (1 + 0j, 1 + 0j), 2.0)


def test_two_mode_hand_masses():
    # p(1, 2) = 1/3, so masses are 1/(1/3)^2 = 9 and 4 * 9 = 36
    m, _ = controllability_measure(TWO_MODE)
    assert np.allclose(m.locations, [1, 2])
    assert m.masses[0] == pytest.approx(9.0, rel=1e-14)
    assert m.masses[1] == pytest.approx(36.0, rel=1e-14)


def test_heat_k3_mass_uses_blaschke_product():
    m, _ = controllability_measure(heat_system(3))
    expect = math.pi**4 / (12 / 25) ** 2  # |Re lambda_1|^2 / b_{infty,1}^2
    assert m.masses[0] == pytest.approx(expect, rel=1e-12)


def test_rejects_vanishing_coefficient():
    bad = DiagonalSystem((-1 + 0j, -2 + 0j), (0j, 1 + 0j), 2.0)
    with pytest.raises(ValueError):
        controllability_measure(bad)


def test_rejects_repeated_eigenvalues():
    bad = DiagonalSystem((-1 + 0j, -1 + 0j), (1 + 0j, 1 + 0j), 2.0)
    with pytest.raises(ValueError), pytest.warns(UserWarning):
        controllability_measure(bad)


def test_interpolation_two_modes_bounded():
    report = interpolation_test(TWO_MODE)
    assert report.verdict == "bounded-evidence"
    assert math.isfinite(report.constant)


def test_interpolation_tail_gate():
    # many nearly coincident points: products collapse and the gate must fire
    pts = [-1 - 1e-4 * k + 0j for k in range(25)]
    sys_close = DiagonalSystem(tuple(pts), (1 + 0j,) * 25, 2.0)
    report = interpolation_test(sys_close)
    assert report.diagnostics["tail_gate_triggered"]
    assert report.verdict == "inconclusive"


def test_sobolev_single_point_hand_value():
    # z = 1, g = 1, beta = 1: mass |2|^2 |2|^2 = 16, best square |I| = 2
    sys1 = DiagonalSystem((-1 + 0j,), (1 + 0j,), 2.0)
    report = sobolev_controllability(sys1, 1.0)
    assert report.verdict == "bounded-evidence"
    assert report.constant == pytest.approx(8.0, rel=1e-12)


def test_sobolev_beta0_limit_matches_plain_masses():
    # beta = 0 reduces the mass formula to |2 Re z_k|^2 / b_{infty,k}^2
    sys2 = heat_system(2)
    report0 = sobolev_controllability(sys2, 0.0)
    products, _ = blaschke_products([math.pi**2, 4 * math.pi**2])
    plain = (2 * math.pi**2) ** 2 / products[0] ** 2
    # the witness square contains the first point; constant = mass / |I|
    two_n = 2.0 ** report0.witness["n"]
    assert report0.constant * two_n >= plain - 1e-9


def test_sobolev_constant_monotone_in_beta():
    sys3 = heat_system(3)
    consts = [sobolev_controllability(sys3, b).constant for b in (0.5, 1.0, 2.0)]
    assert consts[0] < consts[1] < consts[2]


def test_target_scaling_exact():
    rng = np.random.default_rng(5)
    base = sobolev_controllability(TWO_MODE, 1.0, targets=[1 + 0j, 1 + 0j])
    for c in rng.uniform(0.5, 3.0, 5):
        scaled = sobolev_controllability(TWO_MODE, 1.0, targets=[c + 0j, c + 0j])
        assert scaled.constant == pytest.approx(base.constant / c**2, rel=1e-14)


def test_target_validation():
    with pytest.raises(ValueError):
        sobolev_controllability(TWO_MODE, 1.0, targets=[1 + 0j])
    with pytest.raises(ValueError):
        sobolev_controllability(TWO_MODE, 1.0, targets=[0j, 1 + 0j])
    with pytest.raises(ValueError):
        sobolev_controllability(TWO_MODE, -1.0)


def test_heat_interpolation_equals_the_generic_system():
    # the measure reads heat's points as they are, and the generic system's
    # negated eigenvalues: the same atoms bit for bit
    h = heat_system(50)
    generic = DiagonalSystem(h.eigenvalues, np.ones(50), 2.0)
    assert interpolation_test(h).to_json() == interpolation_test(generic).to_json()
