"""End-to-end acceptance suite.

Each test prints one pass/fail line so the suite doubles as a checklist:

1. heat-equation L^p admissibility threshold at p = 4/3;
2. quadrature/time-domain isometry for the Hardy and Bergman presets;
3. mass conservation of the Poisson balayage;
4. square-criterion vs resolvent-criterion verdict agreement;
5. direct-embedding oracle consistency with the criteria verdicts;
6. exact-value regressions for all hand-evaluable quantities;
7. exact scaling laws in the control coefficients and target values.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from admiss.controllability import controllability_measure, sobolev_controllability
from admiss.criteria import (
    c1_zen_carleson,
    c2_power_square,
    c4_strip_summability,
    c6_sobolev_balayage,
    c7_halfsquare,
    c8_shifted_carleson,
    fractional_resolvent_ratio,
    r1_resolvent,
    r7_fractional_resolvent,
    resolvent_ratio,
)
from admiss.halfplane import (
    balayage,
    balayage_integral,
    balayage_norm,
    blaschke_products,
    pseudo_hyperbolic,
    strip_masses,
)
from admiss.laplace_oracle import (
    TestFunction,
    embedding_value,
    empirical_ratio,
    isometry_check,
    kernel_condition_sweep,
    space_norm,
)
from admiss.spaces import InputSpace
from admiss.system_model import (
    AtomicMeasure,
    DiagonalSystem,
    heat_system,
    spectral_measure,
)
from admiss.zen_weight import bergman, delta2_constant, hardy, nu_square_mass, weight

DELTA_1 = AtomicMeasure(np.array([1 + 0j]), np.array([1.0]))
SINGLE_MODE = DiagonalSystem((-1 + 0j,), (1 + 0j,), 2.0)


def _verdictline(num, name, ok):
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def random_sectorial_system(seed: int) -> DiagonalSystem:
    """q = 2 system with spectrum in the sector of half-angle pi/6."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 201))
    radius = 10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0), n)
    phase = rng.uniform(-0.95, 0.95, n) * (math.pi / 6)
    z = radius * np.exp(1j * phase)
    b = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    return DiagonalSystem(tuple(-z), tuple(b), 2.0)


def test_acceptance_1_heat_threshold():
    start = time.perf_counter()
    mu = spectral_measure(heat_system(100000))
    n_range = (-10, 45)
    verdicts = {}
    for p in (1.20, 1.30, 1.35, 1.40, 1.50, 2.0):
        report = c2_power_square(mu, p, 2.0, symmetric_only=True, n_range=n_range)
        assert report.criterion == "C3"
        verdicts[p] = report.verdict
    for p in (3.0, 4.0):
        report = c4_strip_summability(mu, p, 2.0, n_range=n_range)
        assert report.criterion == "C4"
        verdicts[p] = report.verdict
    elapsed = time.perf_counter() - start
    ok = (all(verdicts[p] == "unbounded-evidence" for p in (1.20, 1.30))
          and all(verdicts[p] == "bounded-evidence"
                  for p in (1.35, 1.40, 1.50, 2.0, 3.0, 4.0))
          and elapsed <= 30.0)
    _verdictline(1, f"heat threshold at p = 4/3 ({elapsed:.1f} s)", ok)


def test_acceptance_2_isometry():
    start = time.perf_counter()
    presets = [hardy(), bergman(0.0), bergman(0.5), bergman(1.0)]
    dictionary = [TestFunction.poly_exp(n, lam)
                  for n in range(2, 7) for lam in (1.0, 3.0)]
    assert len(dictionary) == 10
    worst = max(isometry_check(zen, f) for zen in presets for f in dictionary)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed <= 5.0
    _verdictline(2, f"isometry error {worst:.2e} ({elapsed:.1f} s)", ok)


def test_acceptance_3_balayage_conservation():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 51))
        locations = (10.0 ** rng.uniform(-2, 2, n)) + 1j * rng.uniform(-10, 10, n)
        m = AtomicMeasure(locations, 10.0 ** rng.uniform(-2, 1, n))
        err = abs(balayage_integral(m) - m.total_mass) / m.total_mass
        worst = max(worst, err)
    ok = worst < 1e-8
    _verdictline(3, f"balayage mass conservation, worst {worst:.2e}", ok)


@pytest.fixture(scope="module")
def equivalence_results():
    out = []
    for seed in range(50):
        sys_r = random_sectorial_system(seed)
        mu = spectral_measure(sys_r)
        pairs = [("C1/R1", c1_zen_carleson(mu, hardy()), r1_resolvent(sys_r, hardy()),
                  InputSpace("weightedL2", measure=hardy()))]
        for alpha in (0.0, 0.25, 0.5, 0.75):
            pairs.append((f"C7/R7 alpha={alpha}", c7_halfsquare(mu, alpha),
                          r7_fractional_resolvent(sys_r, alpha),
                          InputSpace("powerL2", alpha=alpha)))
        out.append((seed, sys_r, pairs))
    return out


def test_acceptance_4_criterion_resolvent_equivalence(equivalence_results):
    disagreements = [(seed, label, c.verdict, r.verdict)
                     for seed, _, pairs in equivalence_results
                     for label, c, r, _ in pairs if c.verdict != r.verdict]
    ok = not disagreements
    _verdictline(4, f"criterion/resolvent agreement, {len(disagreements)} disagreements", ok)


def test_acceptance_5_oracle_consistency(equivalence_results):
    worst_change = 0.0
    checked = 0
    for _, sys_r, pairs in equivalence_results:
        for _, c_report, _, space in pairs:
            if c_report.verdict != "bounded-evidence":
                continue
            coarse = kernel_condition_sweep(sys_r, space, points_per_decade=10)
            fine = kernel_condition_sweep(sys_r, space, points_per_decade=20)
            assert math.isfinite(coarse.constant) and math.isfinite(fine.constant)
            worst_change = max(worst_change, abs(fine.constant / coarse.constant - 1))
            checked += 1
    heat = heat_system(100000)
    space = InputSpace("Lp", p=1.2)
    single = empirical_ratio(heat, space, 1, seed=0)
    family = empirical_ratio(heat, space, 64, seed=0)
    growth = family / single
    ok = checked > 0 and worst_change < 0.05 and growth > 10.0
    _verdictline(5, f"oracle consistency: {checked} sweeps, worst grid change "
                    f"{worst_change:.2%}, lower-bound growth {growth:.1f}x", ok)


def test_acceptance_6_exact_values():
    checks = []

    def check(label, got, expect, rel=1e-10):
        good = math.isfinite(got) and abs(got - expect) <= rel * abs(expect)
        checks.append((label, good))
        return good

    # weight of the alpha = 1 Bergman density, oracle: Gamma integral by quad
    oracle, _ = quad(lambda r: math.exp(-2 * r) * r, 0, 50)
    assert abs(oracle - 0.25) < 1e-12
    check("w(1) alpha=1 density", weight(bergman(1.0))(1.0), 2 * math.pi * oracle)

    # doubling constant of the power density, oracle: closed cumulative ratio
    check("doubling 2^(alpha+1)", delta2_constant(bergman(0.5)), 2.0**1.5)

    # product-measure square mass, oracle: quad of r^alpha times the side
    oracle, _ = quad(lambda r: r**0.5, 0, 2)
    check("square mass power density", nu_square_mass(bergman(0.5), 2.0), oracle * 2.0)

    # heat strip mass, oracle: integer counting
    mu_heat = spectral_measure(heat_system(100))
    count = sum(1 for k in range(1, 101) if 2.0**9 < k * k * math.pi**2 <= 2.0**10)
    check("heat strip count n=10", dict(strip_masses(mu_heat, 0, 15))[10], count)

    # balayage of delta_1 at 0, oracle: Poisson kernel by hand
    check("balayage delta1 at 0", balayage(DELTA_1, 0.0), 1 / math.pi)

    # balayage L^2 norm, oracle: quad of the squared Lorentzian
    oracle, _ = quad(lambda t: (1 / math.pi / (1 + t * t)) ** 2, -np.inf, np.inf)
    assert abs(oracle - 1 / (2 * math.pi)) < 1e-13
    check("balayage L2 norm", balayage_norm(DELTA_1, 2.0)[0], math.sqrt(oracle))

    # pseudo-hyperbolic distances, oracle: hand fractions
    check("p(1,2)", pseudo_hyperbolic(1, 2), 1 / 3)
    check("p(1,3)", pseudo_hyperbolic(1, 3), 1 / 2)

    # truncated product for the heat spectrum, oracle: two-factor product
    oracle = (3 / 5) * (8 / 10)
    assert abs(oracle - 12 / 25) < 1e-15
    pts = [k * k * math.pi**2 for k in (1, 2, 3)]
    check("b_inf,1 heat K=3", blaschke_products(pts)[0][0], oracle)

    # single-mode resolvent quotient, oracle: quad for the denominator
    den, _ = quad(lambda t: 2 * math.pi * math.exp(-2 * t), 0, 100)
    assert abs(den - math.pi) < 1e-12
    check("R1 single mode", resolvent_ratio(SINGLE_MODE, hardy(), 1.0, 1), 0.25 / den)

    # single-mode fractional resolvent quotient, oracle: hand evaluation
    check("R7 single mode", fractional_resolvent_ratio(SINGLE_MODE, 0.5, 1.0), 2**-0.5)

    # half-square constant for delta_1, oracle: membership enumeration
    check("C7 delta1 alpha=1/2", c7_halfsquare(DELTA_1, 0.5).constant, 2**-0.5)

    # plain Carleson constant for delta_1 on the staggered dyadic family
    c1_const = c1_zen_carleson(DELTA_1, hardy()).constant
    checks.append(("C1 delta1 in [1/2,1]", abs(c1_const - 0.5) < 1e-12))

    # shifted Carleson: mass |1+1|^(-2) = 1/4 on the same witness square
    check("C8 delta1 beta=1", c8_shifted_carleson(DELTA_1, 1.0).constant, c1_const / 4)

    # Sobolev balayage: transformed mass 2 delta_1
    check("C6 delta1", c6_sobolev_balayage(DELTA_1, 4.0, 2.0, 1.0).constant,
          2 * math.sqrt(1 / (2 * math.pi)))

    # controllability masses, oracle: p(1,2) = 1/3 hand value
    two_mode = DiagonalSystem((-1 + 0j, -2 + 0j), (1 + 0j, 1 + 0j), 2.0)
    m_ctrl, _ = controllability_measure(two_mode)
    check("controllability mass 1", m_ctrl.masses[0], 9.0)
    check("controllability mass 2", m_ctrl.masses[1], 36.0)

    # single-point interpolation: mass 16, best dyadic square has side 2
    check("interpolation single point",
          sobolev_controllability(SINGLE_MODE, 1.0, targets=[1 + 0j]).constant, 8.0)

    # embedding coordinate formula, oracle: hand evaluation 1/(1+1) * 1
    check("embedding single mode", embedding_value(SINGLE_MODE, TestFunction.exp(1.0)), 0.5)

    # kernel quotient, oracle: (1/2) / (2)^(-1/2)
    f = TestFunction.exp(1.0)
    check("kernel quotient", embedding_value(SINGLE_MODE, f)
          / space_norm(f, InputSpace("Lp", p=2.0)), 2**-0.5)

    failed = [label for label, good in checks if not good]
    ok = not failed
    _verdictline(6, f"exact-value regressions {len(checks) - len(failed)}/{len(checks)}"
                    + (f", failed: {failed}" if failed else ""), ok)


def test_acceptance_7_scaling_laws():
    rng = np.random.default_rng(2024)
    sys_r = random_sectorial_system(11)
    mu = spectral_measure(sys_r)
    base = {
        "C1": c1_zen_carleson(mu, hardy()).constant,
        "C7": c7_halfsquare(mu, 0.5).constant,
        "C8": c8_shifted_carleson(mu, 1.0).constant,
        "R1": r1_resolvent(sys_r, hardy()).constant,
        "R7": r7_fractional_resolvent(sys_r, 0.5).constant,
    }
    two_mode = DiagonalSystem((-1 + 0j, -2 + 0j), (1 + 0j, 1 + 0j), 2.0)
    interp_base = sobolev_controllability(two_mode, 1.0, targets=[1 + 0j, 1 + 0j]).constant

    exact = True
    for c in rng.uniform(0.3, 3.0, 10):
        scaled = DiagonalSystem(sys_r.eigenvalues,
                                tuple(b * c for b in sys_r.coeffs), sys_r.q)
        mu_s = spectral_measure(scaled)
        q = sys_r.q
        # Carleson-type constants are measure suprema: exactly homogeneous
        # of degree q in |b|; the quadratic resolvent quotients of degree 2
        got = {
            "C1": c1_zen_carleson(mu_s, hardy()).constant,
            "C7": c7_halfsquare(mu_s, 0.5).constant,
            "C8": c8_shifted_carleson(mu_s, 1.0).constant,
            "R1": r1_resolvent(scaled, hardy()).constant,
            "R7": r7_fractional_resolvent(scaled, 0.5).constant,
        }
        expect = {
            "C1": base["C1"] * c**q,
            "C7": base["C7"] * c**q,
            "C8": base["C8"] * c**q,
            "R1": base["R1"] * c**2,
            "R7": base["R7"] * c,
        }
        for key in got:
            if abs(got[key] - expect[key]) > 1e-12 * abs(expect[key]):
                exact = False
        interp = sobolev_controllability(
            two_mode, 1.0, targets=[c + 0j, c + 0j]).constant
        if abs(interp - interp_base / c**2) > 1e-12 * abs(interp_base / c**2):
            exact = False
    _verdictline(7, "scaling laws exact over 10 random factors", exact)
