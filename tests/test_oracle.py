import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from admiss import halfplane
from admiss.laplace_oracle import (
    MAX_FAMILY_SIZE,
    TestFunction,
    _fft_derivative_norm,
    _kernel_norms,
    _mix_lp_norm,
    _sobolev_surrogate_sq,
    embedding_value,
    empirical_ratio,
    isometry_check,
    kernel_condition_sweep,
    laplace_at,
    space_norm,
    zen_norm_by_quadrature,
)
from admiss.report import log_space
from admiss.spaces import InputSpace
from admiss.system_model import DiagonalSystem, heat_system
from admiss.zen_weight import bergman, hardy

SINGLE_MODE = DiagonalSystem((-1 + 0j,), (1 + 0j,), 2.0)


def _quad_laplace(f, z, t_max=200.0):
    re, _ = quad(lambda t: (f.time_values(np.array([t]))[0] * np.exp(-z * t)).real,
                 0, t_max, limit=400)
    im, _ = quad(lambda t: (f.time_values(np.array([t]))[0] * np.exp(-z * t)).imag,
                 0, t_max, limit=400)
    return complex(re, im)


def test_laplace_exp_at_zero():
    f = TestFunction.exp(1.0)
    assert _quad_laplace(f, 0.0) == pytest.approx(1.0, rel=1e-9)
    assert laplace_at(f, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_laplace_poly_exp_at_zero():
    f = TestFunction.poly_exp(2, 1.0)
    assert _quad_laplace(f, 0.0) == pytest.approx(1.0, rel=1e-9)
    assert laplace_at(f, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_laplace_power_exp_at_zero():
    f = TestFunction.power_exp(0.5, 1.0)
    val, _ = quad(lambda t: t**-0.5 * math.exp(-t), 0, 200, limit=400)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-9)
    assert laplace_at(f, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_laplace_complex_argument_vectorized():
    f = TestFunction.mix([(1.0, 1, 1.0), (2.0, 3, 2 + 1j)])
    zs = np.array([0.0, 1.0 + 2j, 5.0])
    closed = laplace_at(f, zs)
    for z, c in zip(zs, closed):
        assert _quad_laplace(f, z) == pytest.approx(c, rel=1e-8)


def test_space_norm_exp_weighted_hardy():
    val, _ = quad(lambda t: 2 * math.pi * math.exp(-2 * t), 0, 100)
    assert val == pytest.approx(math.pi, rel=1e-10)
    got = space_norm(TestFunction.exp(1.0), InputSpace("weightedL2", measure=hardy()))
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_space_norm_exp_lp():
    for p, z in ((1.5, 1.0), (2.0, 3.0), (4.0, 0.5)):
        got = space_norm(TestFunction.exp(z), InputSpace("Lp", p=p))
        assert got == pytest.approx((p * z) ** (-1 / p), rel=1e-14)


def test_space_norm_power_exp_power_weight():
    # ||t^(-1/2) e^(-lam t)||^2 in L^2(t^(1/2) dt) = Gamma(1/2) / (2 lam)^(1/2)
    lam = 3.0
    val, _ = quad(lambda t: t**-0.5 * math.exp(-2 * lam * t), 0, 100)
    assert val == pytest.approx(math.gamma(0.5) / math.sqrt(2 * lam), rel=1e-10)
    got = space_norm(TestFunction.power_exp(0.5, lam), InputSpace("powerL2", alpha=0.5))
    assert got**2 == pytest.approx(val, rel=1e-12)


def test_space_norm_mixture_quadrature_vs_closed():
    f = TestFunction.mix([(1.0, 1, 1.0), (0.5, 2, 2.0)])
    got = space_norm(f, InputSpace("Lp", p=1.5))
    direct, _ = quad(lambda t: abs(f.time_values(np.array([t]))[0]) ** 1.5, 0, 200, limit=400)
    assert got == pytest.approx(direct ** (1 / 1.5), rel=1e-8)


def _family_member(seed, i, j):
    """Member i of empirical_ratio's family, centred at rate 2^j."""
    rng = np.random.default_rng([seed, i])
    width = int(rng.integers(1, 4))
    coeffs = 10.0 ** rng.uniform(-1, 0, width)
    return TestFunction.mix([(coeffs[m], 1, 2.0 ** (j - m)) for m in range(width)])


def _quad_lp_norm(f, p):
    """Scalar quad over [0, inf) in units of the slowest rate."""
    ref = min(lam.real for _, _, lam in f.terms)
    val, _ = quad(lambda u: abs(complex(f.time_values(np.array([u / ref]))[0])) ** p,
                  0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return (val / ref) ** (1 / p)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
def test_mix_lp_norm_matches_scalar_quad(p):
    members = [_family_member(seed, i, j) for seed in range(3)
               for i, j in enumerate((0, 1, 2, 7, 19, 33, 40), start=1)]
    members.append(TestFunction.mix([(1.0, 1, 1.0), (0.5 - 0.2j, 3, 0.5 + 2j)]))
    for f in members:
        value, error, converged = _mix_lp_norm(f, p)
        assert converged
        assert value == pytest.approx(_quad_lp_norm(f, p), rel=1e-10)
        assert 0 <= error <= 1e-10 * value


def test_unconverged_mixture_norm_warns_and_is_skipped(monkeypatch):
    space = InputSpace("Lp", p=1.5)
    sys50 = heat_system(50)
    mixture = _family_member(0, 1, 1)  # member 1 of seed 0: two terms
    assert len(mixture.terms) == 2
    first = embedding_value(sys50, TestFunction.exp(1.0)) / space_norm(TestFunction.exp(1.0), space)
    assert empirical_ratio(sys50, space, 2, seed=0) > first
    # one panel, and tolerances no pass can meet
    monkeypatch.setattr(halfplane, "_GK_MAX_PANELS", 1)
    monkeypatch.setattr(halfplane, "_EPSABS", 0.0)
    monkeypatch.setattr(halfplane, "_EPSREL", 0.0)
    assert _mix_lp_norm(mixture, 1.5)[2] is False
    with pytest.warns(UserWarning, match="unconverged"):
        space_norm(mixture, space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert empirical_ratio(sys50, space, 2, seed=0) == first


def test_sobolev_mixture_norm_combines_lp_and_derivative_parts(monkeypatch):
    # p != 2: (||f||_p^p + ||D^beta f||_p^p)^(1/p), the L^p part by mixture quadrature
    space = InputSpace("sobolev", p=3.0, beta=0.25)
    mixture = TestFunction.mix([(1.0, 1, 1.0), (0.5, 1, 4.0 + 2j)])
    base, _, converged = _mix_lp_norm(mixture, 3.0)
    assert converged
    frac = _fft_derivative_norm(mixture, 3.0, 0.25)
    assert space_norm(mixture, space) == (base**3 + frac**3) ** (1 / 3)
    # the L^p part's convergence flag reaches the Sobolev norm
    monkeypatch.setattr(halfplane, "_GK_MAX_PANELS", 1)
    monkeypatch.setattr(halfplane, "_EPSABS", 0.0)
    monkeypatch.setattr(halfplane, "_EPSREL", 0.0)
    with pytest.warns(UserWarning, match="unconverged"):
        space_norm(mixture, space)


@pytest.mark.parametrize("p, beta", [(3.0, 0.25), (3.0, 0.75), (1.5, 1.5), (4.0, 0.5)])
def test_sobolev_kernel_norms_scale_from_rate_one(p, beta):
    # one FFT at rate 1, scaled as powers of the rate, against one FFT per rate
    n = math.floor(beta + 0.5) + 1
    rates = log_space(1e-2, 1e6, 3)
    got = _kernel_norms(n, rates, InputSpace("sobolev", p=p, beta=beta))
    want = [space_norm(TestFunction(((1, n, z),)), InputSpace("sobolev", p=p, beta=beta))
            for z in rates]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
    # exponentials have infinite H^beta norm from beta = 1/2 on, at every rate
    inf = _kernel_norms(1, rates, InputSpace("sobolev", p=p, beta=max(beta, 0.5)))
    assert np.isinf(inf).all()


def test_space_norm_divergent_reports_inf():
    # exp kernel has no fractional smoothness beyond 1/2 in L^2
    assert space_norm(TestFunction.exp(1.0),
                      InputSpace("sobolev", p=2.0, beta=1.0)) == math.inf


def test_sobolev_norm_beta_small_matches_plancherel():
    # for beta < 1/2 the surrogate must reproduce a direct frequency quadrature
    f = TestFunction.exp(2.0)
    beta = 0.25
    direct, _ = quad(lambda xi: abs(1 / (2 + 1j * xi)) ** 2 * (1 + abs(xi) ** (2 * beta)) / (2 * math.pi),
                     -np.inf, np.inf, limit=400)
    got = space_norm(f, InputSpace("sobolev", p=2.0, beta=beta))
    # reference quad is only good to ~1e-8 absolute
    assert got == pytest.approx(math.sqrt(direct), rel=1e-7)


@pytest.mark.parametrize("beta", [0.25, 0.4, 0.45, 0.49])
def test_sobolev_norm_exp_matches_closed_form_within_abserr(beta):
    # (1/2pi) integral of (1 + |xi|^(2 beta)) / (1 + xi^2) = (pi + pi/cos(pi beta)) / (2 pi);
    # near beta = 1/2 most of it lies in the |xi|^(2 beta - 2) tail; cos(pi beta)
    # is formed as sin(pi (1/2 - beta)), which keeps the reference accurate there
    f = TestFunction.exp(1.0)
    closed = (math.pi + math.pi / math.sin(math.pi * (0.5 - beta))) / (2 * math.pi)
    sq, abserr = _sobolev_surrogate_sq(f, beta)
    assert abs(sq - closed) <= abserr + 4 * np.finfo(float).eps * closed
    assert space_norm(f, InputSpace("sobolev", p=2.0, beta=beta)) == math.sqrt(sq)


def test_embedding_single_mode():
    assert embedding_value(SINGLE_MODE, TestFunction.exp(1.0)) == pytest.approx(0.5, rel=1e-14)


def test_embedding_heat_term_sum():
    sys100 = heat_system(100)
    expect = math.sqrt(sum((1 + k * k * math.pi**2) ** -2 for k in range(1, 101)))
    got = embedding_value(sys100, TestFunction.exp(1.0))
    assert got == pytest.approx(expect, rel=1e-12)


def test_kernel_ratio_single_mode_hand_value():
    f = TestFunction.exp(1.0)
    ratio = embedding_value(SINGLE_MODE, f) / space_norm(f, InputSpace("Lp", p=2.0))
    assert ratio == pytest.approx(0.5 * math.sqrt(2), rel=1e-14)


def test_kernel_sweep_interior_sup_single_atom():
    report = kernel_condition_sweep(SINGLE_MODE, InputSpace("Lp", p=2.0))
    assert report.diagnostics["sup_interior"]
    assert report.verdict == "bounded-evidence"
    assert report.constant >= 0.5 * math.sqrt(2) - 1e-12


def test_kernel_sweep_heat_small_p_diverges_with_truncation():
    # the constant must keep growing as the spectral truncation is extended
    space = InputSpace("Lp", p=1.2)
    consts = [kernel_condition_sweep(heat_system(k), space).constant
              for k in (100, 1000, 10000)]
    assert consts[1] > 1.2 * consts[0]
    assert consts[2] > 1.2 * consts[1]


def test_kernel_sweep_dyadic_sequence_branch():
    report = kernel_condition_sweep(heat_system(1000), InputSpace("Lp", p=4.0))
    assert report.verdict == "bounded-evidence"
    assert math.isfinite(report.constant)
    assert report.diagnostics["sequence_exponent"] == pytest.approx(4.0)


def test_zen_quadrature_hardy_exp():
    # ||Lf||^2 over the boundary line: integral of dy/(1+y^2) = pi, both sides pi
    got = zen_norm_by_quadrature(hardy(), TestFunction.exp(1.0))
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-8)


def test_isometry_hardy_and_bergman():
    assert isometry_check(hardy(), TestFunction.exp(1.0)) < 1e-8
    assert isometry_check(bergman(0.0), TestFunction.poly_exp(2, 1.0)) < 1e-6


@pytest.mark.parametrize("zen", [hardy(), bergman(0.5)], ids=["hardy", "bergman0.5"])
@pytest.mark.parametrize("rate", [1 + 50j, 1 + 500j])
def test_isometry_mixture_with_separated_poles(zen, rate):
    # the poles of Lf sit at heights 0 and -Im(rate); each needs its own panels
    assert isometry_check(zen, TestFunction.mix([(1, 2, 1), (1, 2, rate)])) < 1e-10


@pytest.mark.parametrize("rate", [complex(1, math.nan), complex(1, math.inf),
                                  complex(math.inf, 0), complex(0, 1)])
def test_test_function_refuses_a_non_finite_rate(rate):
    # a non-finite pole would seed the isometry's quadrature
    with pytest.raises(ValueError, match="kernel rate must be finite with positive real part"):
        TestFunction.exp(rate)


def test_isometry_power_kernel_slow_tail():
    # |Lf(iy)|^2 decays like |y|^(-1.4): the y-tail is bounded, not cut off
    assert isometry_check(hardy(), TestFunction.power_exp(0.3, 1.0)) < 1e-10


def test_isometry_zero_function():
    f = TestFunction.mix([(0.0, 1, 1.0)])
    assert isometry_check(hardy(), f) == 0.0


def test_empirical_ratio_monotone_in_family_size():
    space = InputSpace("Lp", p=1.2)
    sys100 = heat_system(100)
    vals = [empirical_ratio(sys100, space, m, seed=0) for m in (1, 4, 16)]
    assert vals[0] <= vals[1] <= vals[2]


def test_empirical_ratio_takes_families_up_to_the_cap():
    space = InputSpace("Lp", p=1.5)
    sys50 = heat_system(50)
    diagnostics = {}
    at_cap = empirical_ratio(sys50, space, MAX_FAMILY_SIZE, seed=0, diagnostics=diagnostics)
    assert diagnostics["members_used"] == MAX_FAMILY_SIZE
    assert at_cap >= empirical_ratio(sys50, space, 64, seed=0)


def test_empirical_ratio_m1_matches_kernel_point():
    f = TestFunction.exp(1.0)
    space = InputSpace("Lp", p=2.0)
    expect = embedding_value(SINGLE_MODE, f) / space_norm(f, space)
    assert empirical_ratio(SINGLE_MODE, space, 1, seed=7) == pytest.approx(expect, rel=1e-14)


def test_empirical_ratio_deterministic():
    space = InputSpace("Lp", p=1.5)
    sys50 = heat_system(50)
    a = empirical_ratio(sys50, space, 12, seed=3)
    b = empirical_ratio(sys50, space, 12, seed=3)
    assert a == b
