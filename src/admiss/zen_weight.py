"""Radial measures on [0, inf), the doubling condition, and the induced
time-domain weight w(t) = 2 pi * integral of exp(-2rt) against the measure.

The representable family is atoms plus a single power-law density
c * r^alpha dr (alpha > -1).  This covers the classical Hardy case (Dirac at
zero), the Bergman scale, and atom mixtures, all with closed-form weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from admiss.system_model import config_float

__all__ = [
    "RadialMeasure",
    "WeightFunction",
    "delta2_constant",
    "weight",
    "nu_square_mass",
    "load_radial_measure",
    "hardy",
    "bergman",
]

# radii 2^lo to 2^hi of the doubling test, and its points per octave
DOUBLING_OCTAVES = (-20, 40)
DOUBLING_POINTS_PER_OCTAVE = 4


def gamma(x: float) -> float:
    """Gamma function at a real x > 0, inf where it exceeds the float range
    (x > 171.6), where ``math.gamma`` raises.  The value is a numpy float, so
    a division by a power that underflowed to 0 reads inf instead of raising."""
    try:
        return np.float64(math.gamma(x))
    except OverflowError:
        return np.float64(math.inf)


@dataclass(frozen=True)
class RadialMeasure:
    """Positive measure on [0, inf): mass at 0, finitely many atoms at r > 0,
    and an optional power density c * r^alpha dr."""

    atom_at_zero: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()  # (r > 0, mass >= 0)
    density_alpha: float | None = None
    density_scale: float = 0.0

    def __post_init__(self):
        if self.atom_at_zero < 0:
            raise ValueError("mass at zero must be nonnegative")
        for r, m in self.atoms:
            if r <= 0:
                raise ValueError(f"atom radius must be positive, got {r}")
            if m < 0:
                raise ValueError(f"atom mass must be nonnegative, got {m}")
        if self.density_alpha is not None:
            if self.density_alpha <= -1:
                raise ValueError("density exponent must exceed -1 for integrability at 0")
            if self.density_scale < 0:
                raise ValueError("density scale must be nonnegative")

    @property
    def has_density(self) -> bool:
        return self.density_alpha is not None and self.density_scale > 0

    def cumulative(self, r) -> np.ndarray | float:
        """nu[0, r): includes the atom at 0, excludes atoms at radius >= r."""
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, self.atom_at_zero)
        for ra, ma in self.atoms:
            out = out + np.where(r > ra, ma, 0.0)
        if self.has_density:
            a = self.density_alpha
            out = out + self.density_scale * np.maximum(r, 0.0) ** (a + 1) / (a + 1)
        return out if out.shape else float(out)

    def is_trivial(self) -> bool:
        return self.atom_at_zero == 0 and not self.has_density and all(m == 0 for _, m in self.atoms)


def hardy() -> RadialMeasure:
    """Dirac mass at 0: the Hardy-space case, w(t) = 2 pi."""
    return RadialMeasure(atom_at_zero=1.0)


def bergman(alpha: float, scale: float = 1.0) -> RadialMeasure:
    """Power density r^alpha dr, alpha > -1: the weighted Bergman scale."""
    return RadialMeasure(density_alpha=alpha, density_scale=scale)


def delta2_constant(m: RadialMeasure) -> float:
    """Supremum of nu[0, 2r) / nu[0, r) over the geometric grid of
    ``DOUBLING_OCTAVES`` at ``DOUBLING_POINTS_PER_OCTAVE``.

    Returns inf when nu[0, r) vanishes while nu[0, 2r) does not (the doubling
    condition fails).  For the representable family the ratio is eventually
    constant at both ends, so the grid's span is conclusive.
    """
    if m.is_trivial():
        raise ValueError("doubling ratio undefined for the zero measure")
    lo, hi = DOUBLING_OCTAVES
    steps = np.arange((hi - lo) * DOUBLING_POINTS_PER_OCTAVE + 1)
    r = 2.0**lo * 2.0 ** (steps / DOUBLING_POINTS_PER_OCTAVE)
    lower = np.asarray(m.cumulative(r))
    upper = np.asarray(m.cumulative(2 * r))
    if ((lower == 0) & (upper > 0)).any():
        return math.inf
    valid = lower > 0
    if not valid.any():
        return 1.0
    return float((upper[valid] / lower[valid]).max())


@dataclass(frozen=True)
class WeightFunction:
    """Evaluation rule for w(t), t > 0, with closed-form components.

    provenance is "hardy" for a pure Dirac at 0, "bergman-<alpha>" for a pure
    power density, "mixture" for closed-form sums, and "unchecked" for a rule
    built without the doubling check of ``weight`` (the oracle's closed-form
    norms).
    """

    measure: RadialMeasure
    provenance: str

    def __call__(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        if t.size and t.min() <= 0:
            raise ValueError("weight is defined for t > 0")
        m = self.measure
        out = np.full(t.shape, 2 * math.pi * m.atom_at_zero)
        for r, mass in m.atoms:
            out = out + 2 * math.pi * mass * np.exp(-2 * r * t)
        if m.has_density:
            a = m.density_alpha
            out = out + 2 * math.pi * m.density_scale * gamma(a + 1) / (2 * t) ** (a + 1)
        return out if out.shape else float(out)

    def poly_exp_moment(self, power: float, decay_rate: float | complex) -> float | complex:
        """Closed form for integral of t^power * exp(-decay_rate * t) * w(t) dt,
        Re decay_rate > 0.  The arithmetic follows the type of ``decay_rate``:
        a real rate gives a float, a complex rate a complex.

        Returns inf (with no exception) when a component makes the integral
        diverge at t -> 0; the t -> inf end always converges for Re decay_rate > 0.
        """
        if decay_rate.real <= 0:
            raise ValueError("decay rate must have positive real part")
        inf = complex(math.inf) if isinstance(decay_rate, complex) else math.inf
        m = self.measure
        total = 0.0
        if m.atom_at_zero > 0 or any(mass > 0 for _, mass in m.atoms):
            if power <= -1:
                return inf
        if m.atom_at_zero > 0:
            total += 2 * math.pi * m.atom_at_zero * gamma(power + 1) / decay_rate ** (power + 1)
        for r, mass in m.atoms:
            if mass > 0:
                total += 2 * math.pi * mass * gamma(power + 1) / (decay_rate + 2 * r) ** (power + 1)
        if m.has_density:
            a = m.density_alpha
            eff = power - (a + 1)
            if eff <= -1:
                return inf
            total += (2 * math.pi * m.density_scale * gamma(a + 1) * 2 ** (-(a + 1))
                      * gamma(eff + 1) / decay_rate ** (eff + 1))
        return total

    def resolvent_power(self, minimum: int = 2) -> int:
        """Smallest N >= minimum, N <= 64, for which the kernel moment of
        t^(2N - 2) e^(-t) converges."""
        for n in range(minimum, 65):
            if not math.isinf(self.poly_exp_moment(2 * n - 2, 1.0)):
                return n
        raise ValueError("no convergent resolvent power N <= 64 for this weight")


def weight(m: RadialMeasure) -> WeightFunction:
    """Weight w(t) = 2 pi * integral exp(-2rt) dnu(r), refused when doubling fails."""
    r_const = delta2_constant(m)
    if not math.isfinite(r_const):
        raise ValueError(
            "measure fails the doubling condition (nu[0, r) vanishes below the "
            "first atom); the weight integral is not controlled"
        )
    if m.atom_at_zero > 0 and not m.has_density and not m.atoms:
        prov = "hardy"
    elif m.has_density and m.atom_at_zero == 0 and not m.atoms:
        prov = f"bergman-{m.density_alpha:g}"
    else:
        prov = "mixture"
    return WeightFunction(m, prov)


def nu_square_mass(m: RadialMeasure, interval_length: float) -> float:
    """Product-measure mass of the Carleson square of side |I|.

    The x = 0 boundary is included, so the Hardy case gives exactly |I|.
    """
    if interval_length <= 0:
        raise ValueError("interval length must be positive")
    return float(m.cumulative(interval_length)) * interval_length


def load_radial_measure(config: dict | str) -> RadialMeasure:
    """Parse a measure config or a named preset.

    Presets: "hardy", "bergman:<alpha>".  Schema:
    {"atom0": m, "atoms": [[r, m], ...], "density": {"alpha": a, "scale": c}}.
    """
    if isinstance(config, str):
        text = config.strip()
        if text == "hardy":
            return hardy()
        if text.startswith("bergman:"):
            return bergman(float(text.split(":", 1)[1]))
        config = json.loads(text)
    if not isinstance(config, dict):
        raise ValueError(f"measure must be a preset name or a JSON object, got {config!r}")
    try:
        atoms = tuple((float(r), float(mass)) for r, mass in config.get("atoms", []))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"config field 'atoms' must be a list of [r, mass] pairs, "
                         f"got {config['atoms']!r}") from None
    atom0 = config_float(config, "atom0", 0.0)
    density = config.get("density")
    if not isinstance(density, (dict, type(None))):
        raise ValueError(f"config field 'density' must be an object, got {density!r}")
    if density is not None:
        return RadialMeasure(atom_at_zero=atom0, atoms=atoms,
                             density_alpha=config_float(density, "alpha"),
                             density_scale=config_float(density, "scale", 1.0))
    return RadialMeasure(atom_at_zero=atom0, atoms=atoms)
