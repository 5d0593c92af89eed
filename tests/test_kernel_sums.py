"""``halfplane.kernel_sums`` against the dense complex formula, and every
site routed through it against the per-kernel formula it replaced.

The replaced formulas are kept here as references: the resolvent sums in
complex-free blocks with ``np.power``, the per-point resolvent norm, the
complex-transform embedding value, and the kernel sweep and dyadic sequence
that called it once per point.  The Taylor bins of real measures are checked
against exactly summed references, their truncation bound against the
series in 40-digit arithmetic, and the rows they leave alone against
``_block_sums`` bit for bit.
"""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admiss import halfplane
from admiss.criteria import (
    fractional_resolvent_ratio,
    r1_resolvent,
    resolvent_ratio,
)
from admiss.halfplane import dyadic_kernel_sequence, kernel_sums
from admiss.laplace_oracle import (
    TestFunction,
    _embeddings,
    embedding_value,
    kernel_condition_sweep,
    laplace_at,
    space_norm,
    zen_norm_by_quadrature,
)
from admiss.report import ladder_cuts, ladder_verdict, log_space, nested_log_sup
from admiss.spaces import InputSpace
from admiss.system_model import AtomicMeasure, DiagonalSystem, heat_system, spectral_measure
from admiss.zen_weight import WeightFunction, bergman, hardy, weight

RTOL = 1e-12


def _dense(points, m, power):
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    return np.abs(z[:, None] + m.locations[None, :]) ** (2 * power) @ m.masses


_POOL = st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(-50.0, 50.0)), min_size=1,
                 max_size=6)


@given(pool=_POOL,
       picks=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0.0, 0.5, 1.0, 7.25])),
                      min_size=1, max_size=30),
       points=st.lists(st.tuples(st.floats(0.01, 100.0),
                                 st.one_of(st.just(0.0), st.floats(-50.0, 50.0))),
                       min_size=1, max_size=12),
       power=st.sampled_from([-2.0, -1.5, -1.0, -0.75, -0.5, -0.3]),
       rows=st.sampled_from([None, 1, 5, 0.1, 0.5]))
@settings(max_examples=200, deadline=None)
def test_kernel_sums_match_dense_formula(pool, picks, points, power, rows):
    # atoms drawn from a small pool repeat; masses include zeros; a block of
    # a fraction of a row splits the atoms
    atoms = [(complex(*pool[i % len(pool)]), mass) for i, mass in picks]
    m = AtomicMeasure.from_atoms(atoms)
    z = np.array([complex(x, y) for x, y in points])
    block = halfplane._BLOCK_ENTRIES if rows is None else max(1, int(rows * len(m)))
    with mock.patch.object(halfplane, "_BLOCK_ENTRIES", block):
        got = kernel_sums(z, m, power)
        real = kernel_sums(z.real, m, power)
    np.testing.assert_allclose(got, _dense(z, m, power), rtol=RTOL, atol=0)
    np.testing.assert_allclose(real, _dense(z.real, m, power), rtol=RTOL, atol=0)


@given(atoms=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0.0, 0.5, 1.0, 7.25])),
                      min_size=1, max_size=30),
       pool=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=6),
       points=st.lists(st.tuples(st.floats(0.01, 100.0),
                                 st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
                                 st.sampled_from(["once", "conjugate", "twice"])),
                       min_size=1, max_size=12),
       power=st.sampled_from([-2.0, -0.75, -0.5]),
       block=st.sampled_from([None, 1, 3, 7, 64]))
@settings(max_examples=200, deadline=None)
def test_real_measure_kernel_sums_match_dense_formula(atoms, pool, points, power, block):
    # real atoms repeat from a small pool and include zero masses; points come
    # with their conjugates or repeated, and rows on the axis share blocks with
    # rows off it; small blocks split the atoms too
    m = AtomicMeasure.from_atoms((pool[i % len(pool)], mass) for i, mass in atoms)
    z = []
    for x, y, copies in points:
        z.append(complex(x, y))
        if copies != "once":
            z.append(complex(x, -y if copies == "conjugate" else y))
    z = np.array(z)
    with mock.patch.object(halfplane, "_BLOCK_ENTRIES", block or halfplane._BLOCK_ENTRIES):
        got = kernel_sums(z, m, power)
    np.testing.assert_allclose(got, _dense(z, m, power), rtol=RTOL, atol=0)


def test_kernel_sums_memory_over_complex_atoms():
    # blocks span at most _BLOCK_ENTRIES atoms off the axis too: two 2 MB
    # temporaries, not a few per atom
    rng = np.random.default_rng(5)
    m = AtomicMeasure(rng.uniform(0.1, 100, 10**6) + 1j * rng.uniform(-50, 50, 10**6),
                      rng.uniform(0, 2, 10**6))
    z = rng.uniform(0.01, 100, 10) + 1j * rng.uniform(-50, 50, 10)
    tracemalloc.start()
    try:
        kernel_sums(z, m, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("power", [-2.0, -1.0, -0.75, -0.5, -0.25, 0.5])
def test_real_measure_kernel_sums_equal_at_conjugate_points(power):
    m = spectral_measure(heat_system(5000))
    re = log_space(0.1, 1e6, 4)
    z = (re[:, None] + 1j * np.concatenate(([0.0], re[::3]))).ravel()
    assert np.array_equal(kernel_sums(z, m, power), kernel_sums(z.conj(), m, power))


# -- the formulas the routed sites used before ----------------------------------

def _pre_kernel_sums(points, sys, power):
    u, v = sys.eigenvalues.real, sys.eigenvalues.imag
    b_sq = np.abs(sys.coeffs) ** 2
    re, im = points.real, points.imag
    dist2 = (re[:, None] - u) ** 2 + (im[:, None] - v) ** 2
    return np.power(dist2, power) @ b_sq


def _pre_resolvent_norm(m, lam, q):
    x, y = m.locations.real, m.locations.imag
    vals = ((lam + x) ** 2 + y**2) ** (-q / 2)
    return float((vals * m.masses).sum() ** (1 / q))


def _pre_embedding_value(sys, f):
    vals = np.abs(np.asarray(laplace_at(f, -sys.eigenvalues)))
    return float(((vals * np.abs(sys.coeffs)) ** sys.q).sum() ** (1 / sys.q))


def _pre_sweep(sys, space, points_per_decade=10):
    x = -sys.eigenvalues.real
    grid = log_space(x.min() / 100, x.max() * 100, points_per_decade)
    if space.kind == "Lp" and space.p > sys.q:
        p, q = space.p, sys.q
        n_lo = int(math.floor(math.log2(x.min()))) - 10
        n_hi = int(math.ceil(math.log2(x.max()))) + 10
        ns = np.arange(n_lo, n_hi + 1)
        seq = np.array([2.0 ** (n / p) * _pre_embedding_value(sys, TestFunction.exp(2.0**n))
                        for n in ns])
        s = q * p / (p - q)
        levels = [float((seq[ns <= cut] ** s).sum() ** (1 / s)) for cut in ladder_cuts(n_lo, n_hi)]
        return levels, levels[-1], {"n_range": [n_lo, n_hi]}
    if space.kind == "Lp":
        kernels = [TestFunction.exp(z) for z in grid]
    elif space.kind == "sobolev":
        # the smallest order with a finite H^beta norm: 2 beta - 2N < -1
        n = math.floor(space.beta + 0.5) + 1
        kernels = [TestFunction.poly_exp(n, z) for z in grid]
    elif space.kind == "weightedL2":
        n = WeightFunction(space.measure).resolvent_power(minimum=1)
        kernels = [TestFunction.poly_exp(n, z) for z in grid]
    else:
        kernels = [TestFunction.power_exp(space.alpha, z) for z in grid]
    ratios = np.empty(len(kernels))
    for i, f in enumerate(kernels):
        denom = space_norm(f, space)
        if math.isinf(denom) or denom == 0:
            ratios[i] = 0.0 if math.isinf(denom) else math.inf
        else:
            ratios[i] = _pre_embedding_value(sys, f) / denom
    levels, constant, best = nested_log_sup(grid, ratios)
    return levels, constant, {"z": float(grid[best])}


def _random_sectorial(modes, q, seed=11):
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(math.log(0.5), math.log(50), modes))
    lam = -radii * np.exp(1j * rng.uniform(-0.95 * math.pi / 6, 0.95 * math.pi / 6, modes))
    b = rng.uniform(0.5, 2, modes) * np.exp(1j * rng.uniform(0, 2 * math.pi, modes))
    return DiagonalSystem(lam, b, q)


@functools.cache
def _system(name):
    if name == "heat1d":
        return heat_system(2000)
    return _random_sectorial(150, {"sectorial": 2.0, "sectorial-q3": 3.0}[name])


HILBERT = ("heat1d", "sectorial")
SYSTEMS = HILBERT + ("sectorial-q3",)


@pytest.mark.parametrize("name", HILBERT)
def test_pointwise_quotients_match_pre_change_formulas(name):
    sys_ = _system(name)
    for lam in (0.3 + 0j, 7.5 + 2j, 4e3 - 1e3j):
        for zen, power in ((hardy(), 1), (bergman(0.5), 2)):
            den = weight(zen).poly_exp_moment(2 * power - 2, 2 * lam.real)
            want = float(_pre_kernel_sums(np.array([lam]), sys_, -power)[0]) / den
            assert resolvent_ratio(sys_, zen, lam, power) == pytest.approx(want, rel=RTOL)
    for lam in (0.3, 7.5, 4e3):
        for alpha in (0.0, 0.25, 0.5, 0.9):
            num = math.sqrt(float(_pre_kernel_sums(np.array([lam + 0j]), sys_, alpha - 1)[0]))
            want = num / lam ** ((alpha - 1) / 2)
            assert fractional_resolvent_ratio(sys_, alpha, lam) == pytest.approx(want, rel=RTOL)


SWEEP_SPACES = [
    InputSpace("Lp", p=1.5),
    InputSpace("Lp", p=3.0),
    InputSpace("Lp", p=4.0),
    InputSpace("weightedL2", measure=hardy()),
    InputSpace("weightedL2", measure=bergman(0.5)),
    InputSpace("powerL2", alpha=0.5),
    InputSpace("sobolev", p=2.0, beta=0.5),
]


@pytest.mark.parametrize("space", SWEEP_SPACES, ids=lambda s: s.describe())
@pytest.mark.parametrize("name", SYSTEMS)
def test_kernel_sweep_matches_pre_change_loop(name, space):
    sys_ = _system(name)
    report = kernel_condition_sweep(sys_, space)
    levels, constant, witness = _pre_sweep(sys_, space)
    assert report.diagnostics["levels"] == pytest.approx(levels, rel=RTOL)
    assert report.constant == pytest.approx(constant, rel=RTOL)
    assert report.witness == witness
    assert report.verdict == ladder_verdict(levels)


@pytest.mark.parametrize("name", SYSTEMS)
def test_single_kernel_embedding_matches_complex_transform(name):
    sys_ = _system(name)
    for lam in (0.05, 1.0 + 3j, 2e4 - 5e2j):
        for f in (TestFunction.exp(lam), TestFunction.poly_exp(3, lam),
                  TestFunction.power_exp(0.5, lam), TestFunction.power_exp(-0.7, lam)):
            assert embedding_value(sys_, f) == pytest.approx(_pre_embedding_value(sys_, f),
                                                             rel=RTOL)


_MIXTURES = [
    TestFunction.mix([(1.0, 1, 2.0), (0.5, 2, 3.0)]),
    TestFunction.mix([(0.3, 1, 0.5), (-0.2, 1, 64.0), (0.1, 3, 2.0)]),
    TestFunction.mix([(1.0, 1, 2.0), (0.5 - 0.2j, 2, 3 + 1j), (0.1j, 1, 0.5 - 4j)]),
    TestFunction(((1.0, 0.5, 1 + 1j), (2.0, 1.5, 0.3), (-1.0, 1, 1 + 1j))),
    TestFunction.exp(3.0 - 2j),
    TestFunction.poly_exp(2, 0.7),
]


@pytest.mark.parametrize("block", [None, 1, 100])
@pytest.mark.parametrize("name", SYSTEMS + ("heat1d-q3",))
def test_mixture_table_matches_per_member_transform(name, block):
    # real and complex spectra, rates and coefficients; members share kernels,
    # and small blocks split the atoms
    sys_ = _system(name) if name != "heat1d-q3" else DiagonalSystem(
        _system("heat1d").eigenvalues, _system("heat1d").coeffs, 3.0)
    with mock.patch.object(halfplane, "_BLOCK_ENTRIES", block or halfplane._BLOCK_ENTRIES):
        got = _embeddings(sys_, _MIXTURES)
        single = [embedding_value(sys_, f) for f in _MIXTURES]
    want = [_pre_embedding_value(sys_, f) for f in _MIXTURES]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)
    np.testing.assert_allclose(single, want, rtol=RTOL, atol=0)


def test_single_term_embedding_is_its_kernel_sum_bit_for_bit():
    sys_ = _system("heat1d")
    f = TestFunction.exp(1.0)
    got = _embeddings(sys_, [_MIXTURES[0], f, _MIXTURES[1]])[1]
    assert got == embedding_value(sys_, f)
    assert got == (kernel_sums(1.0, spectral_measure(sys_), -1.0) ** (1 / 2))[0]


@pytest.mark.parametrize("lam", [1.0, 2.5 + 1j])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_overlapping_constructors_agree(n, lam):
    # t^(n-1) e^(-lam t) is poly_exp(n), power_exp(1 - n), a one-term mix and, at n = 1, exp
    kernels = [TestFunction.power_exp(1 - n, lam), TestFunction.mix([(1.0, n, lam)])]
    if n == 1:
        kernels.append(TestFunction.exp(lam))
    ref = TestFunction.poly_exp(n, lam)
    z = np.array([0.0, 1.0 + 2j, 40.0 - 3j])
    spaces = SWEEP_SPACES + [InputSpace("sobolev", p=3.0, beta=0.25)]
    for f in kernels:
        np.testing.assert_allclose(laplace_at(f, z), laplace_at(ref, z), rtol=RTOL, atol=0)
        for name in SYSTEMS:
            assert embedding_value(_system(name), f) == pytest.approx(
                embedding_value(_system(name), ref), rel=RTOL)
        for zen in (hardy(), bergman(0.5)):
            assert zen_norm_by_quadrature(zen, f) == pytest.approx(
                zen_norm_by_quadrature(zen, ref), rel=RTOL)
        for space in spaces:
            assert space_norm(f, space) == pytest.approx(space_norm(ref, space), rel=RTOL)


@pytest.mark.parametrize("name, p", [("heat1d", 2.5), ("heat1d", 4.0), ("sectorial", 2.5),
                                     ("sectorial", 4.0), ("sectorial-q3", 4.0)])
def test_c4_resolvent_sequence_matches_pre_change_loop(name, p):
    # C4's former resolvent diagnostic, now ``dyadic_kernel_sequence`` alone
    m, q = spectral_measure(_system(name)), _system(name).q
    n_range = (-20, 40)
    ns = np.arange(n_range[0], n_range[1] + 1)
    resolvent = 2.0 ** (ns / p) * np.array([_pre_resolvent_norm(m, 2.0**n, q) for n in ns])
    r_s = q * p / (p - q)
    want = float((resolvent**r_s).sum() ** (1 / r_s))
    seq = dyadic_kernel_sequence(m, ns, p, q)
    assert float((seq**r_s).sum() ** (1 / r_s)) == pytest.approx(want, rel=RTOL)


# -- Taylor bins of real measures ----------------------------------------------

def _fsum_reference(points, m, power):
    """Every term summed exactly by ``math.fsum``: the dense sum's rounding
    is left out of the reference."""
    out = []
    for z in np.atleast_1d(points):
        terms = m.masses * ((z.real + m.x) ** 2 + z.imag**2) ** power
        out.append(math.fsum(terms.tolist()))
    return np.array(out)


def _expand_every_bin():
    # every bin with an atom expands, and every call expands
    return mock.patch.multiple(halfplane, _TAYLOR_MIN_ATOMS=1, _TAYLOR_MIN_WORK=0)


_POSITIVE = st.floats(-3.0, 9.0).map(lambda e: 10.0**e)
_MASS = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
_COORD = st.one_of(st.just(0.0), st.floats(-3.0, 10.0).map(lambda e: 10.0**e))


@given(pool=st.lists(_POSITIVE, min_size=1, max_size=8),
       picks=st.lists(st.tuples(st.integers(0, 7), _MASS), min_size=1, max_size=60),
       at_zero=st.one_of(st.none(), st.floats(0.0, 10.0)), ascending=st.booleans(),
       points=st.lists(st.tuples(_COORD, _COORD, st.booleans()), min_size=1, max_size=10),
       power=st.sampled_from([-0.25, -0.5, -0.75, -1.0, -1.5, -2.0, -2.5, -3.0]))
@settings(max_examples=300, deadline=None)
def test_expanded_kernel_sums_match_exact_sums(pool, picks, at_zero, ascending, points, power):
    # atoms repeat from a small pool over twelve decades with masses over
    # twelve decades and zeros, with or without an atom at x = 0; points on
    # and off the axis and on Re z = 0, and z = 0 when no atom sits there
    atoms = [(pool[i % len(pool)], mass) for i, mass in picks]
    z = [complex(a, -b if flip else b) for a, b, flip in points]
    if at_zero is None:
        z.append(0j)
    else:
        atoms.append((0.0, at_zero))
        z = [p for p in z if p != 0] or [1j]
    if ascending:
        atoms.sort(key=lambda atom: atom[0])
    m = AtomicMeasure(np.array([x for x, _ in atoms]), np.array([mass for _, mass in atoms]))
    z = np.array(z)
    with _expand_every_bin():
        got = kernel_sums(z, m, power)
    assert m.taylor_bins is not None
    want = _fsum_reference(z, m, power)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@given(points=st.lists(st.floats(-3.0, 12.0), min_size=1, max_size=20),
       power=st.sampled_from([-0.25, -0.5, -1.0, -2.0, -3.0, -4.0]))
@settings(max_examples=40, deadline=None)
def test_expanded_heat_sums_match_exact_sums(points, power):
    # the default bin threshold on a heat spectrum: sparse low modes summed
    # densely, every bin above them expanded
    m = spectral_measure(heat_system(20_000))
    z = 10.0 ** np.array(points)
    z = np.concatenate((z, z * (1 + 0.7j)))
    with mock.patch.object(halfplane, "_TAYLOR_MIN_WORK", 0):
        got = kernel_sums(z, m, power)
    centres, _, _, rest_x, _ = m.taylor_bins
    assert centres.size > 10 and 0 < rest_x.size < 2000
    np.testing.assert_allclose(got, _fsum_reference(z, m, power), rtol=1e-13, atol=0)


def _cauchy_bound(eps, terms, power):
    rho = np.linspace(eps, 1, 20_001)[1:-1]
    return float((((1 + eps) / (1 - rho)) ** (2 * abs(power)) * (eps / rho) ** terms
                  / (1 - eps / rho)).min())


def _package_powers():
    # R1: -N for the weights' resolvent powers; R7: alpha - 1; the oracle at
    # q = 2: -N for its sweep orders (L^p, Sobolev up to beta = 2, weighted
    # L^2, powerL2 1 - alpha) and its Monte-Carlo members (N = 1)
    r1 = {WeightFunction(zen).resolvent_power()
          for zen in (hardy(), bergman(0.0), bergman(0.5), bergman(1.0), bergman(1.99))}
    sweep = {math.floor(beta + 0.5) + 1 for beta in (0.25, 0.5, 1.0, 2.0)}
    sweep |= {WeightFunction(zen).resolvent_power(minimum=1)
              for zen in (hardy(), bergman(0.5))}
    alphas = (0.0, 0.25, 0.5, 0.9, 0.99)
    return sorted({-float(n) for n in r1 | sweep | {1}} | {a - 1 for a in alphas})


@pytest.mark.parametrize("power", _package_powers())
def test_truncation_bound_holds_at_every_power_the_package_passes(power):
    import mpmath  # only this test needs it

    terms = halfplane._taylor_terms(power)
    assert terms is not None and terms <= halfplane._TAYLOR_TERMS
    eps = (halfplane._TAYLOR_RATIO - 1) / (halfplane._TAYLOR_RATIO + 1)
    assert eps == pytest.approx(1 / 8, rel=1e-15)
    assert _cauchy_bound(eps * (1 + 1e-12), terms, power) <= 2.0**-53
    # the tail of the Taylor series itself, in 40-digit arithmetic, for one
    # atom at the edge of a bin whose centre is 1 and point a + i b: at most
    # the bound's share of that atom's term.  (s^2 + b^2)^p is
    # (s - i b)^p (s + i b)^p, so its coefficients at t are the convolution of
    # two binomial series.
    with mpmath.workdps(40):
        for a, b in ((0, 0), (0, 0.3), (0, 1), (0.5, 2), (0, 10)):
            t = mpmath.mpf(a) + 1
            series = [[mpmath.binomial(power, j) * w ** (power - j) for j in range(terms)]
                      for w in (t - 1j * b, t + 1j * b)]
            coeffs = [mpmath.fsum(series[0][i] * series[1][j - i] for i in range(j + 1)).real
                      for j in range(terms)]
            for h in (-eps, eps):
                exact = (((t + h) ** 2 + mpmath.mpf(b) ** 2)) ** power
                partial = mpmath.fsum(coeffs[j] * mpmath.mpf(h) ** j for j in range(terms))
                assert abs(exact - partial) / exact <= 2.0**-53


def test_powers_past_the_bound_are_summed_densely():
    assert halfplane._taylor_terms(-5.0) is None
    m = spectral_measure(heat_system(2000))
    z = log_space(0.1, 1e8, 8)
    with mock.patch.object(halfplane, "_taylor_sums", side_effect=AssertionError):
        kernel_sums(z, m, -5.0)
        kernel_sums(z, m, 0.5)


def _block_reference(z, m, power):
    # the dense path in one block
    return halfplane._block_sums(z.real, z.imag, m.x, m.y, m.masses, power,
                                 np.empty(2 * z.size * len(m)))


@pytest.mark.parametrize("power", [-2.0, -1.0, -0.5, 0.5, 1.0])
def test_dense_rows_are_the_block_sums_bit_for_bit(power):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(1, 1e4, 3000))
    masses = rng.uniform(0, 2, 3000)
    real = AtomicMeasure(x, masses)
    complex_ = AtomicMeasure(x + 1j * rng.uniform(-50, 50, 3000), masses)
    z_axis = np.unique(rng.uniform(0.1, 1e4, 64))
    z_off = np.unique(rng.uniform(0.1, 1e4, 64)) + 3j
    with _expand_every_bin():
        # a complex-stored measure never expands
        for z in (z_axis + 0j, z_off):
            assert np.array_equal(kernel_sums(z, complex_, power),
                                  _block_reference(z, complex_, power))
        # nor do powers >= 0 or points with Re z < 0 on a real measure
        left = -z_axis[::-1]
        assert np.array_equal(kernel_sums(left, real, power), _block_reference(left, real, power))
        if power >= 0:
            assert np.array_equal(kernel_sums(z_axis, real, power),
                                  _block_reference(z_axis, real, power))
            assert np.array_equal(kernel_sums(z_off, real, power),
                                  _block_reference(z_off, real, power))
    assert "taylor_bins" not in complex_.__dict__ and complex_.taylor_bins is None


def test_measure_without_a_bin_to_expand_gives_the_dense_sums():
    # 30 atoms over six decades: no bin holds _TAYLOR_MIN_ATOMS atoms
    m = AtomicMeasure(np.geomspace(1, 1e6, 30), np.linspace(0.5, 2, 30))
    z = log_space(1e-2, 1e8, 30)
    with mock.patch.object(halfplane, "_TAYLOR_MIN_WORK", 0):
        got = kernel_sums(z, m, -1.0)
    assert m.taylor_bins is None
    assert np.array_equal(got, _block_reference(z + 0j, m, -1.0))


@pytest.mark.parametrize("stored", ["real", "complex"])
def test_massless_atom_at_the_point_adds_nothing(stored):
    # 0 * inf would read NaN: the atom at 0 has no mass, the others sum to 1 + 1/4
    x, masses = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0])
    m = (AtomicMeasure(x, masses) if stored == "real"
         else AtomicMeasure._at_checked_locations(x + 0j, masses))
    assert (m.y is None) == (stored == "real")
    assert kernel_sums([0.0, 1j], m, -1.0).tolist() == [1.25, 1 / 2 + 1 / 5]


def test_kernel_sums_memory_over_a_million_real_atoms():
    # the first call also builds the bins and their moments; x ascends, as a
    # heat spectrum's does, so the x-order is read in place
    rng = np.random.default_rng(7)
    m = AtomicMeasure(np.sort(rng.uniform(0.1, 1e6, 10**6)), rng.uniform(0, 2, 10**6))
    z = log_space(1e-3, 1e8, 10)
    z = np.concatenate((z, z + 1j * z))
    tracemalloc.start()
    try:
        kernel_sums(z, m, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.taylor_bins is not None
    assert peak < 8 * 2**20


def test_moments_are_built_once_per_measure():
    sys_ = heat_system(20_000)
    calls = []
    real_bins = halfplane.taylor_bins

    def counted(m):
        calls.append(m)
        return real_bins(m)

    with mock.patch.object(halfplane, "taylor_bins", counted):
        r1_resolvent(sys_, hardy())
        kernel_condition_sweep(sys_, InputSpace("Lp", p=1.5))
        kernel_sums(log_space(1, 1e6, 20), spectral_measure(sys_), -0.5)
    assert len(calls) == 1


def test_single_terms_share_one_kernel_sum_per_order():
    sys_ = _system("heat1d")
    fs = [TestFunction.exp(2.0), TestFunction.poly_exp(2, 0.5), _MIXTURES[0],
          TestFunction.exp(0.25 - 3j), TestFunction.mix([(-0.5, 2, 4.0)]),
          TestFunction.power_exp(0.5, 1.0)]
    with mock.patch("admiss.laplace_oracle.kernel_sums", wraps=kernel_sums) as spy:
        got = _embeddings(sys_, fs)
    assert spy.call_count == 3  # orders 1, 2 and 1/2
    want = [_pre_embedding_value(sys_, f) for f in fs]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


def test_heat_unit_masses_sum_as_contiguous_ones():
    # heat's masses are a stride-0 broadcast of 1.0, which BLAS does not
    # take; the dense rows and the oracle's mixture table sum them as the
    # generic system's contiguous ones, bit for bit
    h = heat_system(3000)
    generic = DiagonalSystem(h.eigenvalues, np.ones(h.modes), 2.0)
    z = np.array([-0.5 + 1j, 2.0 + 3j, -7.0])  # Re z < 0 stays off the Taylor bins
    for power in (-1.0, -1.5, 0.3):
        assert (kernel_sums(z, spectral_measure(h), power).tobytes()
                == kernel_sums(z, spectral_measure(generic), power).tobytes())
    f = TestFunction.mix([(1, 1, 1.0), (-2 + 1j, 2, 0.5 + 3j)])
    assert embedding_value(h, f) == embedding_value(generic, f)
