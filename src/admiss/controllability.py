"""Exact controllability and Sobolev-model interpolation tests.

Controllability of a diagonal system reduces to a Carleson embedding for the
measure with masses |Re lambda_n|^2 / (|b_n|^2 b_{infty,n}^2), where
b_{infty,n} is the Blaschke-type product of the mirrored spectrum.  The
Sobolev interpolation variant weights the masses by |1 + z_k|^(2 beta) and
divides by the squared target values |g_k|^2.
"""

from __future__ import annotations

import numpy as np

from admiss.halfplane import blaschke_products
from admiss.report import BOUNDED, INCONCLUSIVE, CriterionReport
from admiss.system_model import AtomicMeasure, DiagonalSystem
from admiss.criteria import DEFAULT_N_RANGE, _square_report

__all__ = ["controllability_measure", "interpolation_test", "sobolev_controllability"]

TAIL_FACTOR_GATE = 0.5


def controllability_measure(sys: DiagonalSystem) -> tuple[AtomicMeasure, dict]:
    """Atoms at -lambda_n with masses |Re lambda_n|^2 / (|b_n|^2 b_{infty,n}^2).

    Refuses vanishing control coefficients and repeated eigenvalues: both make
    the mass formula singular and the underlying moment problem unsolvable.
    """
    z = sys.points
    return _interpolation_measure(z, z.real**2, sys.coeffs, "controllability measure",
                                  "control coefficient")


def _interpolation_measure(z: np.ndarray, numerators: np.ndarray, g: np.ndarray, name: str,
                           g_name: str) -> tuple[AtomicMeasure, dict]:
    """Atoms at z with masses numerators / (|g|^2 b_{infty}^2), and the
    Blaschke-product diagnostics; refuses a vanishing g or repeated points."""
    if (np.abs(g) == 0).any():
        raise ValueError(f"{name} undefined: vanishing {g_name}")
    products, diagnostics = blaschke_products(z)
    if diagnostics["degenerate"]:
        raise ValueError(f"{name} undefined: repeated eigenvalues")
    masses = numerators / (np.abs(g) ** 2 * products**2)
    # z are a checked system's points; the masses are checked
    return AtomicMeasure._at_checked_locations(z, masses), diagnostics


def _carleson_with_gate(m: AtomicMeasure, blaschke_diag: dict, name: str,
                        n_range) -> CriterionReport:
    tail = float(np.min(blaschke_diag["tail_factor"]))
    gated = tail < TAIL_FACTOR_GATE
    report = _square_report(name, m, lambda length: length, n_range, symmetric=False,
                            min_tail_factor=tail, tail_gate_triggered=gated,
                            proxy_growing=blaschke_diag["proxy_growing"])
    if gated and report.verdict == BOUNDED:
        # near-degenerate products inflate the masses faster than the grid
        # can witness, so a bounded reading is not trustworthy
        report.verdict = INCONCLUSIVE
    return report


def interpolation_test(sys: DiagonalSystem, n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Exact controllability test: Carleson criterion for the controllability
    measure, gated on Blaschke-product convergence diagnostics."""
    m, diag = controllability_measure(sys)
    return _carleson_with_gate(m, diag, "controllability", n_range)


def sobolev_controllability(sys: DiagonalSystem, beta: float, targets=None,
                            n_range=DEFAULT_N_RANGE) -> CriterionReport:
    """Interpolation test in the Sobolev model of smoothness beta:
    masses |2 Re z_k|^2 |1 + z_k|^(2 beta) / (b_{infty,k}^2 |g_k|^2) at
    z_k = -lambda_k, default targets g_k = b_k.  beta = 0 is the admitted
    limiting case with trivial smoothness factors."""
    if beta < 0:
        raise ValueError("smoothness beta must be nonnegative")
    z = sys.points
    g = sys.coeffs if targets is None else np.asarray(targets, dtype=complex)
    if g.shape != z.shape:
        raise ValueError("one target value per eigenvalue required")
    m, diag = _interpolation_measure(z, np.abs(2 * z.real) ** 2 * np.abs(1 + z) ** (2 * beta),
                                     g, "interpolation", "target value")
    report = _carleson_with_gate(m, diag, "sobolev-interpolation", n_range)
    report.diagnostics["beta"] = beta
    return report
