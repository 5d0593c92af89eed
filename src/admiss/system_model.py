"""Diagonal semigroup systems and their induced spectral measures.

A system is a finite truncation of a diagonal generator on ell^q: eigenvalues
lambda_k in the open left half-plane and scalar control coefficients b_k.  The
sign flip onto the right half-plane happens once, when the system is built:
it stores its points z_k = -lambda_k, Re z_k > 0, which are also the atoms of
its spectral measure (``spectral_measure``, built once per system), so every
downstream module works with them; ``eigenvalues`` is derived when read.

Arrays are float64 when no entry has an imaginary part and complex128
otherwise; realness is decided once, when a system or measure is built, and a
real measure's ``y`` is None.  ``heat_system`` builds its measure with the
system on one K-long array: x = n^2 pi^2 is the points and the atoms, known
to ascend, and its unit coefficients, the masses too, are a read-only
broadcast of 1.0 that takes no memory.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

# a complex spectrum and its coefficients alone take 32 bytes per mode; the
# criteria hold several arrays of that size
MAX_MODES = 10**7

__all__ = [
    "DiagonalSystem",
    "AtomicMeasure",
    "spectral_measure",
    "heat_system",
    "dual_system",
    "load_system",
]


@dataclass(frozen=True, eq=False, init=False)
class DiagonalSystem:
    """Finite truncation of a diagonal semigroup system on ell^q.

    ``DiagonalSystem(eigenvalues, coeffs, q)``: ``eigenvalues`` and
    ``coeffs`` accept any sequence.  The system stores read-only 1-d arrays,
    each float64 when none of its entries has an imaginary part and
    complex128 otherwise: its ``points`` z = -lambda and its ``coeffs``.
    """

    points: np.ndarray  # z_k = -lambda_k, Re z_k > 0
    coeffs: np.ndarray
    q: float

    def __init__(self, eigenvalues, coeffs, q: float):
        points = _frozen_array(eigenvalues, "eigenvalues", negate=True)
        self._set(points, _frozen_array(coeffs, "coeffs"), q)
        bounds = _finite_real_bounds(points)
        if bounds is None or bounds[0] <= 0:  # refuse, naming the first eigenvalue at fault
            given = np.asarray(eigenvalues, dtype=complex)
            if not (given.real < 0).all():
                k = int(np.argmax(~(given.real < 0)))
                raise ValueError(f"eigenvalue {k} has Re lambda = {given[k].real}, must be < 0")
            _check_finite(given, "eigenvalue")

    def _set(self, points: np.ndarray, coeffs: np.ndarray, q: float) -> None:
        """Check the frozen arrays' lengths and q, and store them."""
        if points.size != coeffs.size:
            raise ValueError(
                f"eigenvalues ({points.size}) and coeffs ({coeffs.size}) must have equal length"
            )
        if points.size == 0:
            raise ValueError("system must have at least one mode")
        if q < 1:
            raise ValueError(f"state exponent q must be >= 1, got {q}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "q", q)

    @classmethod
    def _on_points(cls, points: np.ndarray, coeffs, q: float,
                   measure: "AtomicMeasure | None" = None) -> "DiagonalSystem":
        """``DiagonalSystem(-points, coeffs, q)`` on read-only points known
        finite with Re z > 0, neither negated nor checked again; a ``measure``
        its generator built from the same arrays is its spectral measure."""
        sys = object.__new__(cls)
        sys._set(points, _frozen_array(coeffs, "coeffs"), q)
        if measure is not None:
            object.__setattr__(sys, "_measure", measure)
        return sys

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """lambda = -z, read-only, derived when first read."""
        lam = np.negative(self.points)
        lam.setflags(write=False)
        return lam

    @property
    def modes(self) -> int:
        return self.points.size

    @functools.cached_property
    def _measure(self) -> "AtomicMeasure":
        """See ``spectral_measure``; the points were checked finite with
        Re z > 0, so they are its atoms with no second check."""
        masses = np.abs(self.coeffs)
        with np.errstate(over="ignore"):  # an infinite mass is refused by its check
            masses **= self.q
        return AtomicMeasure._at_checked_locations(self.points, masses)


def _finite_real_bounds(values: np.ndarray) -> tuple[float, float] | None:
    """(min, max) of the real parts of a non-empty array when every entry is
    finite, else None; reductions only, so no boolean array of its size."""
    re = values.real
    lo, hi = re.min(), re.max()
    if not (-math.inf < lo and hi < math.inf):  # NaN fails too
        return None
    if values.dtype.kind == "c" and not (-math.inf < values.imag.min()
                                         and values.imag.max() < math.inf):
        return None
    return float(lo), float(hi)


def _bounds(values: np.ndarray) -> tuple:
    """(min, max) of a non-empty 1-d array, read from its one element when
    its stride is 0 (a broadcast), where a full pass costs more than on a
    contiguous array."""
    if values.strides == (0,):
        return values[0], values[0]
    return values.min(), values.max()


def _check_finite(values: np.ndarray, name: str) -> None:
    """Raise naming the first non-finite entry: an infinite or NaN point has
    no dyadic level, and a criterion would drop it or file it wrongly."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"{name} {k} is {values[k]}, must be finite")


def _real_or_complex(values) -> np.ndarray:
    """``values`` as a float64 array when no entry has an imaginary part, else
    as complex128; a complex argument is scanned once for that.  A sequence
    is read into a new complex array, which numpy converts faster than it
    infers a dtype."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=complex)
    if arr.dtype.kind in "biuf":
        return arr.astype(float, copy=False)
    arr = arr.astype(complex, copy=False)
    return arr if arr.imag.any() else arr.real.copy()


def _frozen_array(values, name: str, negate: bool = False) -> np.ndarray:
    """Read-only 1-d float or complex array (``_real_or_complex``), negated
    if ``negate``; the caller's array is neither frozen, aliased when
    writeable, nor negated: a new array is negated in place, the caller's
    into a copy."""
    arr = _real_or_complex(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    aliased = isinstance(values, np.ndarray) and np.may_share_memory(arr, values)
    if negate:
        arr = np.negative(arr, out=None if aliased else arr)
    elif arr.flags.writeable and aliased:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive atomic measure on the closed right half-plane.

    ``locations`` is stored float64 when no atom has an imaginary part (a
    real measure) and complex128 otherwise; ``x`` and ``y`` read its
    coordinates, and ``y`` is None on a real measure.
    """

    locations: np.ndarray  # float or complex, Re >= 0
    masses: np.ndarray  # float, >= 0

    def __post_init__(self):
        loc = _real_or_complex(self.locations)
        if loc.ndim == 1 and loc.size:
            bounds = _finite_real_bounds(loc)
            if bounds is None or bounds[0] < 0:
                loc = np.asarray(self.locations, dtype=complex)
                _check_finite(loc, "atom location")
                raise ValueError("all atoms must lie in the closed right half-plane")
        self._set(loc, self.masses)

    def _set(self, loc: np.ndarray, masses) -> None:
        """Check the masses against ``loc`` and freeze both on the measure."""
        mass = np.asarray(masses, dtype=float)
        if loc.shape != mass.shape or loc.ndim != 1:
            raise ValueError("locations and masses must be 1-d arrays of equal length")
        if mass.size:
            lo, hi = _bounds(mass)
            if lo < 0:
                raise ValueError("atom masses must be nonnegative")
            if not hi < math.inf:  # NaN fails too
                raise ValueError("atom masses must be finite")
        loc.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", mass)

    @classmethod
    def _at_checked_locations(cls, locations: np.ndarray, masses,
                              x_ascending: bool | None = None) -> "AtomicMeasure":
        """A measure on a float or complex array of locations already known
        finite and in the closed right half-plane, stored as given: only the
        masses are checked, and an ``x_ascending`` the caller knows is kept."""
        m = object.__new__(cls)
        m._set(locations, masses)
        if x_ascending is not None:
            object.__setattr__(m, "x_ascending", x_ascending)
        return m

    @classmethod
    def from_atoms(cls, atoms) -> "AtomicMeasure":
        """Build from an iterable of (location, mass) pairs."""
        atoms = list(atoms)
        locs = np.array([complex(z) for z, _ in atoms], dtype=complex)
        masses = np.array([float(m) for _, m in atoms], dtype=float)
        return cls(locs, masses)

    @property
    def x(self) -> np.ndarray:
        """Real parts of the locations: the locations themselves on a real
        measure, a view otherwise."""
        return self.locations.real

    @property
    def y(self) -> np.ndarray | None:
        """Imaginary parts of the locations (a view), None on a real measure."""
        return None if self.locations.dtype.kind == "f" else self.locations.imag

    _source = None  # the measure this one was ``transformed`` from: the same locations

    @functools.cached_property
    def x_ascending(self) -> bool:
        """Whether x ascends in storage order, as a heat spectrum's does."""
        if self._source is not None:
            return self._source.x_ascending
        return bool((self.x[1:] >= self.x[:-1]).all())

    @functools.cached_property
    def x_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | slice]:
        """(x ascending, masses in that order, the order): read in place when
        ``x_ascending``, else one stable argsort, shared with the measures
        ``transformed`` from this one."""
        if self.x_ascending:
            return self.x, self.masses, slice(None)
        if self._source is not None:
            xs, _, order = self._source.x_order
        else:
            order = np.argsort(self.x, kind="stable")
            xs = self.x[order]
        return xs, self.masses[order], order

    @functools.cached_property
    def taylor_bins(self) -> tuple | None:
        """``halfplane.taylor_bins`` of a real measure, None on a complex one."""
        from admiss.halfplane import taylor_bins  # halfplane imports this module

        return None if self.y is not None else taylor_bins(self)

    @functools.cached_property
    def sector_angle(self) -> float:
        """Max |arg z| over positive-mass atoms; inf if an atom sits at the origin."""
        if not self.masses.size or _bounds(self.masses)[1] == 0:  # no positive mass
            return 0.0
        # an atom at the origin has Re z = 0, the least Re z can be
        if self.x.min() == 0 and ((self.masses > 0) & (self.locations == 0)).any():
            return math.inf
        if self.y is None:  # a real measure: no angle to take
            return 0.0
        return float(np.abs(np.angle(self.locations[self.masses > 0])).max())

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def __len__(self) -> int:
        return self.locations.size

    def transformed(self, mass_factors: np.ndarray) -> "AtomicMeasure":
        """New measure with per-atom mass multipliers (same locations, checked
        once when this measure was built)."""
        return self._with_masses(self.masses * np.asarray(mass_factors, dtype=float))

    def _with_masses(self, masses: np.ndarray) -> "AtomicMeasure":
        """``transformed`` to these masses, which are checked and frozen, not
        copied: a caller that owns a product of factors and masses saves one
        array of the measure's size."""
        m = AtomicMeasure._at_checked_locations(self.locations, masses)
        object.__setattr__(m, "_source", self if self._source is None else self._source)
        return m


def spectral_measure(sys: DiagonalSystem) -> AtomicMeasure:
    """Atomic measure with atoms at -lambda_k and masses |b_k|^q.

    Duplicate eigenvalues keep separate atoms; geometric routines treat
    coincident atoms additively, so multiplicity is handled naturally.  The
    system is immutable, so the measure is built once and kept on it.
    """
    return sys._measure


def heat_system(modes: int) -> DiagonalSystem:
    """1-d heat equation with Neumann boundary control: lambda_n = -n^2 pi^2, b_n = 1.

    At most ``MAX_MODES`` modes, so a generator config or ``--modes`` cannot
    ask for an allocation that exhausts memory.
    """
    _check_modes(modes)
    x = np.arange(1, modes + 1, dtype=float)
    x *= x
    x *= math.pi**2
    x.setflags(write=False)  # nothing else holds it: spare the copy
    coeffs = np.broadcast_to(1.0, modes)  # read-only, stride 0
    # x is the points and the atoms, and the masses |1|^2 = 1 the coefficients
    measure = AtomicMeasure._at_checked_locations(x, coeffs, x_ascending=True)
    return DiagonalSystem._on_points(x, coeffs, 2.0, measure)


def _check_modes(modes: int) -> None:
    """Refuse a truncation K outside 1 <= K <= ``MAX_MODES``."""
    if modes < 1:
        raise ValueError(f"number of modes must be >= 1, got {modes}")
    if modes > MAX_MODES:
        raise ValueError(f"number of modes {modes} exceeds the cap of {MAX_MODES}")


def dual_system(sys: DiagonalSystem, obs_coeffs) -> DiagonalSystem:
    """System carrying the observation data: same spectrum, coeffs c_k, exponent q' = q/(q-1).

    Observation admissibility questions reduce to control-side criteria run on
    this system together with the dual input space.
    """
    obs = np.asarray(obs_coeffs)
    if obs.shape != sys.points.shape:
        raise ValueError(f"obs_coeffs length {obs.size} != number of modes {sys.modes}")
    if sys.q == 1:
        raise ValueError("q = 1 has infinite conjugate exponent; out of numeric scope")
    q_dual = sys.q / (sys.q - 1)
    return DiagonalSystem._on_points(sys.points, obs, q_dual)


def load_system(config: dict | str, modes: int | None = None) -> DiagonalSystem:
    """Build a system from its JSON config, once.

    Schema: {"eigenvalues": [[re, im], ...], "coeffs": [[re, im], ...], "q": number}
    or {"generator": "heat1d", "modes": K}.  ``modes`` (the CLI's ``--modes``)
    replaces a generator config's K, which is still checked but never built;
    an explicit config is refused with it before anything is built.
    """
    if isinstance(config, str):
        config = json.loads(config)
    if "generator" in config:
        name = config["generator"]
        if name != "heat1d":
            raise ValueError(f"unknown system generator {name!r}")
        k = config_float(config, "modes")
        if not k.is_integer():
            raise ValueError(f"config field 'modes' must be an integer, got {config['modes']!r}")
        _check_modes(int(k))
        return heat_system(int(k) if modes is None else modes)
    if modes is not None:
        raise ValueError(f"--modes {modes} needs a generator config; "
                         "an explicit system has the modes it lists")
    return DiagonalSystem(_complex_pairs(config, "eigenvalues"), _complex_pairs(config, "coeffs"),
                          config_float(config, "q"))


def config_field(config: dict, key: str):
    """``config[key]``, or a ``ValueError`` that names the missing field."""
    if key not in config:
        raise ValueError(f"config field {key!r} is missing")
    return config[key]


def config_float(config: dict, key: str, default: float | None = None) -> float:
    """``float`` of a config field, or a ``ValueError`` that names the field;
    a JSON boolean is not a number, though ``float`` reads it as 1 or 0."""
    value = config_field(config, key) if default is None else config.get(key, default)
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"config field {key!r} must be a number, got {value!r}")


def _complex_pairs(config: dict, name: str) -> np.ndarray:
    """Complex array from the config field ``name``, a JSON list of [re, im] pairs."""
    arr = np.asarray(config_field(config, name), dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"system config field {name!r} must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]
