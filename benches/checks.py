"""Reference computations for the benchmark's output checks.

Nothing here imports ``admiss``: each reference is computed from the
definitions with numpy, scipy and the standard library, so a check compares
the program against an independent computation, never against a stored copy
of an earlier output.  The 1-d heat system has eigenvalues -k^2 pi^2 and
unit control coefficients, so its spectral measure has unit atoms at
x_k = k^2 pi^2 on the positive real axis.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma

PI2 = math.pi**2


def close(got, want, rtol: float) -> bool:
    return got is not None and abs(got - want) <= rtol * abs(want)


class HeatReference:
    """Dyadic counts of the heat spectrum up to truncation K."""

    def __init__(self, modes: int, n_range: tuple[int, int]):
        k = np.arange(1, modes + 1, dtype=float)
        self.x = k * k * PI2
        self.ns = np.arange(n_range[0], n_range[1] + 1)
        self.lengths = 2.0**self.ns
        # atoms with x < 2^n: the Carleson square of side 2^n holds them all,
        # since every atom sits on the real axis
        self.below = np.searchsorted(self.x, self.lengths, side="left")
        # atoms in the dyadic strip 2^(n-1) < x <= 2^n
        self.strip = (np.searchsorted(self.x, self.lengths, side="right")
                      - np.searchsorted(self.x, self.lengths / 2, side="right"))
        # atoms in the right half [2^(n-1), 2^n) of the square
        self.right_half = self.below - np.searchsorted(self.x, self.lengths / 2, side="left")

    def _prefix_sums(self, weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return np.array([weights[:c].sum() for c in counts])

    def power_square(self, p: float, q: float = 2.0) -> float:
        """C2/C3: max over n of #{x_k < 2^n} / 2^(n q/p')."""
        exponent = q / (p / (p - 1))
        return float(np.max(self.below / self.lengths**exponent))

    def strip_sum(self, p: float, q: float = 2.0) -> float:
        """C4: ell^(p/(p-q)) norm of 2^(-n q/p') #{2^(n-1) < x_k <= 2^n}."""
        p_conj = p / (p - 1)
        s = p / (p - q)
        terms = 2.0 ** (-self.ns * q / p_conj) * self.strip
        return float((terms**s).sum() ** (1 / s))

    def sobolev_square(self, p: float, beta: float, q: float = 2.0) -> float:
        """C5: the C3 supremum for masses 1 + x^(-q beta)."""
        weighted = self._prefix_sums(1.0 + self.x ** (-q * beta), self.below)
        return float(np.max(weighted / self.lengths ** (q / (p / (p - 1)))))

    def shifted_carleson(self, beta: float) -> float:
        """C8: max over n of the sum of (1 + x_k)^(-2 beta) over x_k < 2^n, over 2^n."""
        weighted = self._prefix_sums((1.0 + self.x) ** (-2 * beta), self.below)
        return float(np.max(weighted / self.lengths))

    def zen_carleson(self, alpha: float | None) -> float:
        """C1 with nu the Hardy measure (alpha None: nu(Q) = |I|) or the
        Bergman density r^alpha dr (nu(Q) = |I|^(alpha+2) / (alpha+1))."""
        if alpha is None:
            nu = self.lengths
        else:
            nu = self.lengths ** (alpha + 2) / (alpha + 1)
        return float(np.max(self.below / nu))

    def half_square(self, alpha: float) -> float:
        """C7: max over n of #{2^(n-1) <= x_k < 2^n} / 2^(n (1 - alpha))."""
        return float(np.max(self.right_half / self.lengths ** (1 - alpha)))

    # -- pointwise kernel sums at a reported witness ------------------------

    def r1_hardy(self, lam: complex, power: int) -> float:
        num = (np.abs(lam + self.x) ** (-2.0 * power)).sum()
        den = 2 * math.pi * math.gamma(2 * power - 1) / (2 * lam.real) ** (2 * power - 1)
        return float(num / den)

    def r1_bergman(self, lam: complex, power: int, alpha: float) -> float:
        num = (np.abs(lam + self.x) ** (-2.0 * power)).sum()
        eff = 2 * power - 2 - (alpha + 1)
        den = (2 * math.pi * math.gamma(alpha + 1) * 2 ** (-(alpha + 1))
               * math.gamma(eff + 1) / (2 * lam.real) ** (eff + 1))
        return float(num / den)

    def r7(self, lam: float, alpha: float) -> float:
        num = math.sqrt((np.abs(lam + self.x) ** (2 * alpha - 2)).sum())
        return num / lam ** ((alpha - 1) / 2)

    def exp_embedding(self, z: float) -> float:
        """ell^2 norm of the Laplace transform 1/(z + x_k) of e^(-z t)."""
        return math.sqrt(((z + self.x) ** -2.0).sum())

    def lp_kernel(self, z: float, p: float) -> float:
        """L^p kernel quotient at z: ||e^(-z t)||_p = (p z)^(-1/p)."""
        return self.exp_embedding(z) / (p * z) ** (-1 / p)

    def lp_dyadic_sequence(self, p: float, n_lo: int, n_hi: int, q: float = 2.0) -> float:
        """ell^(qp/(p-q)) norm of 2^(n/p) ||L e^(-2^n t)|| over n_lo..n_hi."""
        ns = np.arange(n_lo, n_hi + 1)
        seq = np.array([2.0 ** (n / p) * self.exp_embedding(2.0**n) for n in ns])
        s = q * p / (p - q)
        return float((seq**s).sum() ** (1 / s))

    def power_kernel(self, z: float, alpha: float) -> float:
        """powerL2 kernel quotient for t^(-alpha) e^(-z t): its transform is
        Gamma(1-alpha) (z + x)^(alpha-1), its norm^2 Gamma(1-alpha) / (2z)^(1-alpha)."""
        g = gamma(1 - alpha)
        embedding = math.sqrt(((g * (z + self.x) ** (alpha - 1)) ** 2).sum())
        return embedding / math.sqrt(g / (2 * z) ** (1 - alpha))

    def member_zero(self, space: dict) -> float:
        """Quotient for e^(-t), the first member of the Monte-Carlo family."""
        if space["kind"] == "Lp":
            norm = (1 / space["p"]) ** (1 / space["p"])
        else:  # powerL2: ||e^(-t)||^2 = Gamma(1 + alpha) / 2^(1 + alpha)
            a = space["alpha"]
            norm = math.sqrt(math.gamma(1 + a) / 2 ** (1 + a))
        return self.exp_embedding(1.0) / norm
