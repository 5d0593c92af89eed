import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from admiss import system_model
from admiss.system_model import (
    AtomicMeasure,
    DiagonalSystem,
    dual_system,
    heat_system,
    load_system,
    spectral_measure,
)


def test_heat_eigenvalues():
    sys2 = heat_system(2)
    assert sys2.eigenvalues[0] == pytest.approx(-math.pi**2)
    assert sys2.eigenvalues[1] == pytest.approx(-4 * math.pi**2)
    assert np.array_equal(sys2.coeffs, (1.0, 1.0))
    assert sys2.q == 2.0


@pytest.mark.parametrize("modes", [1, 2, 1000, 10**5])
def test_heat_measure_equals_the_generic_measure(modes):
    h = heat_system(modes)
    fused = spectral_measure(h)
    generic = spectral_measure(DiagonalSystem(h.eigenvalues, h.coeffs, 2.0))
    pairs = [(fused.locations, generic.locations), (fused.masses, generic.masses),
             *zip(fused.x_order[:2], generic.x_order[:2])]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert fused.x_order[2] == generic.x_order[2]
    assert fused.x_ascending is generic.x_ascending is True
    for arr in (h.eigenvalues, h.coeffs, fused.locations, fused.masses):
        assert not arr.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: heat_system(50),
    lambda: load_system({"generator": "heat1d", "modes": 3}, 50),
    lambda: load_system({"generator": "heat1d", "modes": 50}),
], ids=["heat_system", "load_system_modes", "load_system"])
def test_heat_generators_build_the_measure_with_the_system(build):
    # x is the points and the atoms, the unit coefficients (a read-only
    # broadcast of 1.0) are the masses, and x ascends by construction
    h = build()
    m = spectral_measure(h)
    assert m.locations is h.points and m.masses is h.coeffs
    assert h.coeffs.strides == (0,) and not h.coeffs.flags.writeable
    assert vars(m)["x_ascending"] is True
    assert spectral_measure(h) is m


def test_heat_system_and_measure_hold_one_array():
    # x, 8 MB: the points and the atoms; the coefficients take no memory
    tracemalloc.start()
    try:
        m = spectral_measure(heat_system(10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m) == 10**6
    assert peak <= 8 * 10**6 + 10**6


def test_explicit_system_and_measure_hold_no_copy_of_the_eigenvalues():
    # the points (the integer input, converted and negated in place), the
    # coefficients' copy and the masses, 8 MB each; no eigenvalues beside them
    modes = 10**6
    lam, b = -np.arange(1, modes + 1), np.ones(modes)
    tracemalloc.start()
    try:
        m = spectral_measure(DiagonalSystem(lam, b, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.x[-1] == modes
    assert peak <= 3 * 8 * modes + 10**6


@pytest.mark.parametrize("make", [
    lambda: heat_system(5),
    lambda: DiagonalSystem(np.array([-1.0, -2.5]), [1, 2], 2.0),
    lambda: DiagonalSystem([-1 + 2j, -3 - 0.5j], [1, 1j], 3.0),
    lambda: dual_system(heat_system(3), [1, 2, 3]),
], ids=["heat", "real", "complex", "dual"])
def test_eigenvalues_are_the_negated_points(make):
    sys_ = make()
    lam = sys_.eigenvalues
    assert lam.dtype == sys_.points.dtype
    assert lam.tobytes() == np.negative(sys_.points).tobytes()
    assert not lam.flags.writeable and not sys_.points.flags.writeable
    assert sys_.eigenvalues is lam


def test_caller_arrays_are_never_negated():
    for lam in (np.array([-1.0, -2.0]), np.array([-1 + 1j, -2 - 1j])):
        for writeable in (True, False):
            given = lam.copy()
            given.setflags(write=writeable)
            sys_ = DiagonalSystem(given, [1, 1], 2.0)
            assert given.tobytes() == lam.tobytes() and given.flags.writeable is writeable
            assert not np.may_share_memory(sys_.points, given)
            assert sys_.eigenvalues.tobytes() == lam.tobytes()


def test_heat_rejects_nonpositive_modes():
    with pytest.raises(ValueError):
        heat_system(0)


def test_load_system_modes_replace_the_generator_truncation():
    assert load_system({"generator": "heat1d", "modes": 5}, 7).modes == 7
    explicit = {"eigenvalues": [[-1, 0]], "coeffs": [[1, 0]], "q": 2}
    with pytest.raises(ValueError, match="--modes"):
        load_system(explicit, 3)


def test_system_has_no_fields_beyond_its_arrays_and_q():
    # the points z = -lambda, the coefficients and q; no generator tag
    assert [f.name for f in dataclasses.fields(DiagonalSystem)] == ["points", "coeffs", "q"]


def test_system_validation():
    with pytest.raises(ValueError):
        DiagonalSystem((-1 + 0j,), (1 + 0j, 2 + 0j), 2.0)
    with pytest.raises(ValueError):
        DiagonalSystem((), (), 2.0)
    with pytest.raises(ValueError):
        DiagonalSystem((1 + 0j,), (1 + 0j,), 2.0)  # Re lambda must be < 0
    with pytest.raises(ValueError):
        DiagonalSystem((-1 + 0j,), (1 + 0j,), 0.5)


@pytest.mark.parametrize("bad", [complex(-math.inf, 0), complex(-1, math.inf),
                                 complex(-1, math.nan), complex(-math.inf, math.inf)])
def test_system_refuses_non_finite_eigenvalues(bad):
    with pytest.raises(ValueError, match="eigenvalue 1 "):
        DiagonalSystem((-1 + 0j, bad, -2 + 0j), (1, 1, 1), 2.0)


def test_points_are_checked_once_where_they_enter(monkeypatch):
    # heat1d's n^2 pi^2 and a dual system's inherited points are known good
    calls = []
    checked = system_model._finite_real_bounds
    monkeypatch.setattr(system_model, "_finite_real_bounds",
                        lambda values: calls.append(values.size) or checked(values))
    heat = heat_system(1000)
    dual_system(heat, np.ones(1000))
    assert calls == []
    DiagonalSystem((-1 + 0j, -2 + 1j), (1, 1), 2.0)
    assert calls == [2]


def test_overflowing_mass_is_refused_without_a_warning():
    # |1e300|^2 overflows: the finite-mass check names it, under -W error too
    with pytest.raises(ValueError, match="atom masses must be finite"):
        spectral_measure(DiagonalSystem([-1.0], [1e300], 2.0))


@pytest.mark.parametrize("bad", [complex(math.inf, 0), complex(1, -math.inf),
                                 complex(math.nan, 1), complex(1, math.nan)])
def test_measure_refuses_non_finite_locations(bad):
    with pytest.raises(ValueError, match="atom location 2 "):
        AtomicMeasure(np.array([1 + 0j, 2 + 1j, bad]), np.ones(3))


def test_transformed_keeps_locations_and_checks_masses():
    m = AtomicMeasure(np.array([1 + 0j, 2 + 1j]), np.array([1.0, 2.0]))
    scaled = m.transformed([3.0, 0.5])
    assert scaled.locations is m.locations
    assert scaled.masses.tolist() == [3.0, 1.0] and not scaled.masses.flags.writeable
    for factors in ([1.0, math.inf], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="atom masses"):
            m.transformed(factors)


def test_transformed_measures_share_the_x_order():
    m = AtomicMeasure(np.array([3.0, 1.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    twice = m.transformed([1.0, 10.0, 100.0, 1000.0]).transformed([2.0, 2.0, 2.0, 2.0])
    assert not twice.x_ascending
    xs, ms, order = twice.x_order
    # one stable argsort, taken on the first measure and read by the other
    assert "x_order" in m.__dict__ and xs is m.x_order[0] and order is m.x_order[2]
    assert xs.tolist() == [1.0, 1.0, 2.0, 3.0] and ms.tolist() == [40.0, 8000.0, 600.0, 2.0]
    ascending = AtomicMeasure(np.array([1.0, 2.0]), np.array([1.0, 1.0])).transformed([2.0, 3.0])
    assert ascending.x_order[0] is ascending.x and ascending.x_order[1] is ascending.masses


def test_system_arrays_read_only():
    # complex input stays complex; the heat system is float-stored
    lam = np.array([-1 + 0j, -2 + 1j])
    sys2 = DiagonalSystem(lam, [1, 2j], 2.0)
    heat = heat_system(3)
    for arr, dtype in ((sys2.eigenvalues, complex), (sys2.coeffs, complex),
                       (heat.eigenvalues, np.float64), (heat.coeffs, np.float64),
                       (spectral_measure(heat).locations, np.float64)):
        assert arr.dtype == dtype and arr.ndim == 1
        with pytest.raises(ValueError):
            arr[0] = -3.0
    lam[0] = -5.0  # the caller's array stays writeable and is not aliased
    assert sys2.eigenvalues[0] == -1


def test_zero_imaginary_parts_are_stored_real():
    # one scan at construction: an all-real complex input becomes float64
    sys_ = DiagonalSystem(np.array([-1 + 0j, -2 - 0j]), [1 + 0j, 3 + 0j], 2.0)
    assert sys_.eigenvalues.dtype == sys_.coeffs.dtype == np.float64
    assert sys_.eigenvalues.tolist() == [-1.0, -2.0]
    mu = spectral_measure(sys_)
    assert mu.y is None and mu.x is mu.locations
    assert mu.x.tolist() == [1.0, 2.0] and mu.masses.tolist() == [1.0, 9.0]
    m = AtomicMeasure(np.array([1 + 0j, 2 + 1j]), np.ones(2))
    assert m.locations.dtype == complex and m.y.tolist() == [0.0, 1.0]
    assert m.x.tolist() == [1.0, 2.0]
    assert AtomicMeasure.from_atoms([(1, 1.0), (2 + 0j, 2.0)]).y is None
    # an integer array is stored as float, and a complex-stored measure stays complex
    assert AtomicMeasure(np.array([1, 2]), np.ones(2)).locations.dtype == np.float64
    kept = AtomicMeasure._at_checked_locations(np.array([1 + 0j]), np.ones(1))
    assert kept.y is not None and kept.transformed([2.0]).y is not None


@pytest.mark.parametrize("make", [lambda bad: np.array([-1.0, bad, -2.0]),
                                  lambda bad: [-1 + 0j, complex(bad, 0), -2 + 0j]])
@pytest.mark.parametrize("bad, message", [
    (-math.inf, "eigenvalue 1 is (-inf+0j), must be finite"),
    (math.nan, "eigenvalue 1 has Re lambda = nan, must be < 0"),
    (0.0, "eigenvalue 1 has Re lambda = 0.0, must be < 0"),
])
def test_real_spectrum_errors_read_as_complex_ones(make, bad, message):
    # float and complex input name a bad eigenvalue alike, as before real storage
    with pytest.raises(ValueError) as err:
        DiagonalSystem(make(bad), np.ones(3), 2.0)
    assert str(err.value) == message


def test_bad_eigenvalue_names_its_index():
    with pytest.raises(ValueError, match="eigenvalue 2 "):
        DiagonalSystem((-1, -2 + 1j, 0.5, 1), (1, 1, 1, 1), 2.0)
    with pytest.raises(ValueError, match="eigenvalue 1 "):
        DiagonalSystem(np.array([-1, np.nan]), (1, 1), 2.0)


def test_spectral_measure_sign_flip_and_masses():
    sys3 = DiagonalSystem((-1 + 2j, -3 + 0j), (2 + 0j, 1j), 3.0)
    mu = spectral_measure(sys3)
    assert np.allclose(mu.locations, [1 - 2j, 3 + 0j])
    assert np.allclose(mu.masses, [8.0, 1.0])


def test_atomic_measure_immutability():
    mu = AtomicMeasure(np.array([1 + 0j]), np.array([1.0]))
    with pytest.raises(ValueError):
        mu.masses[0] = 2.0


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([-1 + 0j]), np.array([1.0]))
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([1 + 0j]), np.array([-1.0]))


def test_max_sector_angle_ignores_zero_mass():
    # an atom at the origin has no argument: with positive mass it reads inf
    for locations, masses, angle in [([1 + 0j, 1j], [1.0, 0.0], 0.0),
                                      ([1 + 0j, 0j], [1.0, 0.0], 0.0),
                                      ([1 + 0j, 1 + 5j], [1.0, 1.0], math.atan2(5, 1)),
                                      ([0j], [1.0], math.inf)]:
        mu = AtomicMeasure(np.array(locations), np.array(masses))
        assert mu.sector_angle == angle


def test_dual_system_exponent():
    sys3 = DiagonalSystem((-1 + 0j, -2 + 0j), (1 + 0j, 1 + 0j), 3.0)
    dual = dual_system(sys3, [2 + 0j, 3 + 0j])
    assert dual.q == pytest.approx(1.5)
    assert np.array_equal(dual.coeffs, (2 + 0j, 3 + 0j))
    with pytest.raises(ValueError):
        dual_system(DiagonalSystem((-1 + 0j,), (1 + 0j,), 1.0), [1 + 0j])
    with pytest.raises(ValueError):
        dual_system(sys3, [1 + 0j])


@given(st.floats(min_value=1.01, max_value=50))
def test_dual_exponent_involution(q):
    sys1 = DiagonalSystem((-1 + 0j,), (1 + 0j,), q)
    twice = dual_system(dual_system(sys1, [1 + 0j]), [1 + 0j])
    assert twice.q == pytest.approx(q, rel=1e-12)


def test_load_system_explicit_and_generator(tmp_path):
    config = {"eigenvalues": [[-1, 2]], "coeffs": [[0, 1]], "q": 2}
    sys1 = load_system(config)
    assert sys1.eigenvalues == (-1 + 2j,)
    assert sys1.coeffs == (1j,)
    assert load_system(json.dumps(config)).eigenvalues == (-1 + 2j,)
    assert load_system({"generator": "heat1d", "modes": 4}).modes == 4
    with pytest.raises(ValueError):
        load_system({"generator": "wave"})
    with pytest.raises(ValueError):
        load_system({"eigenvalues": [[-1, 0]], "q": 2})
    with pytest.raises(ValueError):
        load_system({"eigenvalues": [[-1, 0, 1]], "coeffs": [[1, 0]], "q": 2})
