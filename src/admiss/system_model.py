"""Diagonal semigroup systems and their induced spectral measures.

A system is a finite truncation of a diagonal generator on ell^q: eigenvalues
lambda_k in the open left half-plane and scalar control coefficients b_k.  The
sign flip onto the right half-plane happens in exactly one place, the
system's spectral measure (``spectral_measure``, built once per system), so
every downstream module works with points z_k = -lambda_k, Re z_k > 0.

Arrays are float64 when no entry has an imaginary part and complex128
otherwise; realness is decided once, when a system or measure is built.  The
1-d heat equation's spectrum -n^2 pi^2 is real from ``heat_system`` on, and a
real measure's ``y`` is None, so no kernel scans its imaginary parts again.
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


@dataclass(frozen=True, eq=False)
class DiagonalSystem:
    """Finite truncation of a diagonal semigroup system on ell^q.

    ``eigenvalues`` and ``coeffs`` accept any sequence and are stored as
    read-only 1-d arrays, each float64 when none of its entries has an
    imaginary part and complex128 otherwise.  ``generator`` is an optional
    symbolic tag (e.g. ``"heat1d"``) from which ``with_modes`` rebuilds the
    system at another truncation (the CLI's ``--modes``).
    """

    eigenvalues: np.ndarray
    coeffs: np.ndarray
    q: float
    generator: str | None = None

    def __post_init__(self):
        lam = _frozen_array(self.eigenvalues, "eigenvalues")
        b = _frozen_array(self.coeffs, "coeffs")
        if lam.size != b.size:
            raise ValueError(
                f"eigenvalues ({lam.size}) and coeffs ({b.size}) must have equal length"
            )
        if lam.size == 0:
            raise ValueError("system must have at least one mode")
        if self.q < 1:
            raise ValueError(f"state exponent q must be >= 1, got {self.q}")
        bounds = _finite_real_bounds(lam)
        if bounds is None or bounds[1] >= 0:
            _refuse_eigenvalues(np.asarray(self.eigenvalues, dtype=complex))
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "coeffs", b)

    @property
    def modes(self) -> int:
        return self.eigenvalues.size

    @functools.cached_property
    def _measure(self) -> "AtomicMeasure":
        """See ``spectral_measure``; the eigenvalues were checked finite with
        Re lambda < 0, so their negatives need no second check."""
        masses = np.abs(self.coeffs)
        masses **= self.q
        return AtomicMeasure._at_checked_locations(-self.eigenvalues, masses)

    def with_modes(self, modes: int) -> "DiagonalSystem":
        """Rematerialize a tagged system at a different truncation."""
        if self.generator == "heat1d":
            return heat_system(modes)
        raise ValueError(f"cannot regenerate system without a known generator tag: {self.generator!r}")


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


def _refuse_eigenvalues(lam: np.ndarray) -> None:
    """Raise naming the first eigenvalue with Re lambda >= 0 (or NaN), else
    the first non-finite one."""
    if not (lam.real < 0).all():
        k = int(np.argmax(~(lam.real < 0)))
        raise ValueError(f"eigenvalue {k} has Re lambda = {lam[k].real}, must be < 0")
    _check_finite(lam, "eigenvalue")


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
    is read as complex, which numpy converts faster than it infers a dtype."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=complex)
    if arr.dtype.kind in "biuf":
        return arr.astype(float, copy=False)
    arr = arr.astype(complex, copy=False)
    return arr if arr.imag.any() else arr.real.copy()


def _frozen_array(values, name: str) -> np.ndarray:
    """Read-only 1-d float or complex array (``_real_or_complex``); a
    writeable ndarray argument is copied so the caller's array is neither
    frozen nor aliased."""
    arr = _real_or_complex(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    aliased = isinstance(values, np.ndarray) and np.may_share_memory(arr, values)
    if arr.flags.writeable and aliased:
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
            lo, hi = mass.min(), mass.max()
            if lo < 0:
                raise ValueError("atom masses must be nonnegative")
            if not hi < math.inf:  # NaN fails too
                raise ValueError("atom masses must be finite")
        loc.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", mass)

    @classmethod
    def _at_checked_locations(cls, locations: np.ndarray, masses) -> "AtomicMeasure":
        """A measure on a float or complex array of locations already known
        finite and in the closed right half-plane, stored as given: only the
        masses are checked."""
        m = object.__new__(cls)
        m._set(locations, masses)
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

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def __len__(self) -> int:
        return self.locations.size

    def transformed(self, mass_factors: np.ndarray) -> "AtomicMeasure":
        """New measure with per-atom mass multipliers (same locations, checked
        once when this measure was built)."""
        return AtomicMeasure._at_checked_locations(
            self.locations, self.masses * np.asarray(mass_factors, dtype=float))


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
    if modes < 1:
        raise ValueError(f"number of modes must be >= 1, got {modes}")
    if modes > MAX_MODES:
        raise ValueError(f"number of modes {modes} exceeds the cap of {MAX_MODES}")
    n = np.arange(1, modes + 1, dtype=float)
    n *= n
    n *= math.pi**2
    eig = np.negative(n, out=n)
    coeffs = np.ones(modes)
    eig.setflags(write=False)  # nothing else holds them: spare DiagonalSystem the copy
    coeffs.setflags(write=False)
    return DiagonalSystem(eig, coeffs, 2.0, generator="heat1d")


def dual_system(sys: DiagonalSystem, obs_coeffs) -> DiagonalSystem:
    """System carrying the observation data: same spectrum, coeffs c_k, exponent q' = q/(q-1).

    Observation admissibility questions reduce to control-side criteria run on
    this system together with the dual input space.
    """
    obs = np.asarray(obs_coeffs)
    if obs.shape != sys.eigenvalues.shape:
        raise ValueError(f"obs_coeffs length {obs.size} != number of modes {sys.modes}")
    if sys.q == 1:
        raise ValueError("q = 1 has infinite conjugate exponent; out of numeric scope")
    q_dual = sys.q / (sys.q - 1)
    return DiagonalSystem(sys.eigenvalues, obs, q_dual)


def max_sector_angle(m: AtomicMeasure) -> float:
    """Max |arg z| over positive-mass atoms; inf if an atom sits at the origin."""
    if not m.masses.size or m.masses.max() == 0:  # no positive mass
        return 0.0
    # an atom at the origin has Re z = 0, the least Re z can be
    if m.x.min() == 0 and ((m.masses > 0) & (m.locations == 0)).any():
        return math.inf
    if m.y is None:  # a real measure: no angle to take
        return 0.0
    return float(np.abs(np.angle(m.locations[m.masses > 0])).max())


def load_system(config: dict | str) -> DiagonalSystem:
    """Build a system from its JSON config.

    Schema: {"eigenvalues": [[re, im], ...], "coeffs": [[re, im], ...], "q": number}
    or {"generator": "heat1d", "modes": K}.
    """
    if isinstance(config, str):
        config = json.loads(config)
    if "generator" in config:
        name = config["generator"]
        if name != "heat1d":
            raise ValueError(f"unknown system generator {name!r}")
        modes = config_float(config, "modes")
        if not modes.is_integer():
            raise ValueError(f"config field 'modes' must be an integer, got {config['modes']!r}")
        return heat_system(int(modes))
    for key in ("eigenvalues", "coeffs", "q"):
        if key not in config:
            raise ValueError(f"system config missing required field {key!r}")
    return DiagonalSystem(_complex_pairs(config["eigenvalues"], "eigenvalues"),
                          _complex_pairs(config["coeffs"], "coeffs"), config_float(config, "q"))


def config_float(config: dict, key: str, default: float | None = None) -> float:
    """``float`` of a config field, or a ``ValueError`` that names the field."""
    value = config[key] if default is None else config.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"config field {key!r} must be a number, got {value!r}") from None


def _complex_pairs(pairs, name: str) -> np.ndarray:
    """Complex array from a JSON list of [re, im] pairs."""
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"system config field {name!r} must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]
