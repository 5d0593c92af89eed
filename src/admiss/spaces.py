"""Input-space descriptions for admissibility questions.

Four kinds are supported: plain L^p, weighted L^2 induced by a radial measure,
the power-weighted L^2(t^alpha dt) scale, and Sobolev spaces of fractional
smoothness beta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from admiss.system_model import config_float
from admiss.zen_weight import RadialMeasure, load_radial_measure

__all__ = ["InputSpace", "load_space", "dual_space"]


@dataclass(frozen=True)
class InputSpace:
    kind: str  # "Lp" | "weightedL2" | "powerL2" | "sobolev"
    p: float | None = None
    measure: RadialMeasure | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        # every range check is written so that NaN fails it
        if self.kind == "Lp":
            if self.p is None or not self.p > 1:
                raise ValueError(f"Lp space requires p > 1, got {self.p}")
        elif self.kind == "weightedL2":
            if self.measure is None:
                raise ValueError("weightedL2 space requires a radial measure")
        elif self.kind == "powerL2":
            # alpha = 0 is the admitted limiting (Hardy) case
            if self.alpha is None or not 0 <= self.alpha < 1:
                raise ValueError(f"powerL2 weight exponent must lie in [0, 1), got {self.alpha}")
        elif self.kind == "sobolev":
            if self.p is None or not self.p > 1:
                raise ValueError(f"Sobolev space requires p > 1, got {self.p}")
            if self.beta is None or not self.beta > 0:
                raise ValueError(f"Sobolev smoothness must be positive, got {self.beta}")
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "Lp":
            return f"Lp(p={self.p:g})"
        if self.kind == "weightedL2":
            return "weightedL2"
        if self.kind == "powerL2":
            return f"powerL2(alpha={self.alpha:g})"
        return f"sobolev(p={self.p:g}, beta={self.beta:g})"


def load_space(config: dict | str) -> InputSpace:
    """Parse {"kind": ...} configs; see the CLI docs for the schemas."""
    if isinstance(config, str):
        config = json.loads(config)
    kind = config.get("kind")
    if kind == "Lp":
        return InputSpace("Lp", p=config_float(config, "p"))
    if kind == "weightedL2":
        return InputSpace("weightedL2", measure=load_radial_measure(config["measure"]))
    if kind == "powerL2":
        return InputSpace("powerL2", alpha=config_float(config, "alpha"))
    if kind == "sobolev":
        return InputSpace("sobolev", p=config_float(config, "p"), beta=config_float(config, "beta"))
    raise ValueError(f"unknown space kind {kind!r}")


def dual_space(space: InputSpace) -> InputSpace:
    """Dual space used when reducing observation to control questions.

    Only L^p duals stay inside the representable family; weighted duals would
    need the reciprocal weight, which the radial-measure family cannot express.
    """
    if space.kind == "Lp":
        return InputSpace("Lp", p=space.p / (space.p - 1))
    raise ValueError(f"dual of {space.kind} space is not representable in this tool")
