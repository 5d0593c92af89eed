"""A real spectrum is stored as float64 from ``heat_system`` on; the same
atoms stored as complex128 with zero imaginary parts must give the same
answers: bit for bit for the square and strip criteria, and to rounding for
the kernel sums (whose real path folds conjugate points and skips a square
root)."""

import numpy as np
import pytest

from admiss.criteria import (
    c1_zen_carleson,
    c2_power_square,
    c4_strip_summability,
    c5_sobolev_square,
    c7_halfsquare,
    c8_shifted_carleson,
    r1_resolvent,
    r7_fractional_resolvent,
)
from admiss.halfplane import dyadic_kernel_sequence, kernel_sums
from admiss.system_model import AtomicMeasure, heat_system, spectral_measure
from admiss.zen_weight import bergman, hardy

MODES = (7, 300, 5000)
RTOL = 1e-12

CRITERIA = {
    "C1": lambda m: c1_zen_carleson(m, hardy()),
    "C2": lambda m: c2_power_square(m, 2.0, 2.0, symmetric_only=False),
    "C3": lambda m: c2_power_square(m, 1.3, 2.0, symmetric_only=True),
    "C3-wide": lambda m: c2_power_square(m, 1.5, 2.0, symmetric_only=True, n_range=(-1022, 60)),
    "C4": lambda m: c4_strip_summability(m, 3.0, 2.0),
    "C4-p4": lambda m: c4_strip_summability(m, 4.0, 2.0, n_range=(-10, 45)),
    "C5": lambda m: c5_sobolev_square(m, 2.0, 2.0, 0.5),
    "C7": lambda m: c7_halfsquare(m, 0.5),
    "C7-alpha0": lambda m: c7_halfsquare(m, 0.0, n_range=(-5, 30)),
    "C8": lambda m: c8_shifted_carleson(m, 0.75),
}


def _complex_stored(mu: AtomicMeasure) -> AtomicMeasure:
    return AtomicMeasure._at_checked_locations(mu.x + 0j, mu.masses)


def _heat(modes):
    sys_ = heat_system(modes)
    mu = spectral_measure(sys_)
    assert sys_.eigenvalues.dtype == mu.locations.dtype == np.float64 and mu.y is None
    return sys_, mu


@pytest.mark.parametrize("modes", MODES)
@pytest.mark.parametrize("name", CRITERIA)
def test_square_and_strip_criteria_identical_on_both_storages(name, modes):
    _, mu = _heat(modes)
    real, cplx = CRITERIA[name](mu), CRITERIA[name](_complex_stored(mu))
    assert real.constant == cplx.constant
    assert real.witness == cplx.witness
    assert real.verdict == cplx.verdict
    assert real.diagnostics == cplx.diagnostics


@pytest.mark.parametrize("modes", MODES)
def test_kernel_sums_equal_on_both_storages(modes):
    _, mu = _heat(modes)
    cplx = _complex_stored(mu)
    points = np.array([0.5, 3 + 2j, 3 - 2j, 100.0, 1e4 + 1e3j, 2.0**-20])
    for power in (-2.0, -1.0, -0.75, -0.5, -0.3, 0.25):
        np.testing.assert_allclose(kernel_sums(points, mu, power),
                                   kernel_sums(points, cplx, power), rtol=RTOL, atol=0)
    ns = np.arange(-20, 41)
    np.testing.assert_allclose(dyadic_kernel_sequence(mu, ns, 3.0, 2.0),
                               dyadic_kernel_sequence(cplx, ns, 3.0, 2.0), rtol=RTOL, atol=0)
    assert mu.sector_angle == cplx.sector_angle == 0.0


@pytest.mark.parametrize("modes", MODES)
def test_resolvent_criteria_equal_on_both_storages(modes):
    sys_, _ = _heat(modes)
    reports = []
    for stored in ("real", "complex"):
        sys_ = heat_system(modes)
        if stored == "complex":  # the system's cached measure, complex-stored
            sys_.__dict__["_measure"] = _complex_stored(spectral_measure(sys_))
            assert spectral_measure(sys_).y is not None
        reports.append([r1_resolvent(sys_, hardy()), r1_resolvent(sys_, bergman(0.5)),
                        r7_fractional_resolvent(sys_, 0.0), r7_fractional_resolvent(sys_, 0.5)])
    for real, cplx in zip(*reports):
        assert real.constant == pytest.approx(cplx.constant, rel=RTOL)
        assert real.diagnostics["levels"] == pytest.approx(cplx.diagnostics["levels"], rel=RTOL)
        assert real.witness == cplx.witness
        assert real.verdict == cplx.verdict
