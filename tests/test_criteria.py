import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from admiss import criteria, halfplane
from admiss.halfplane import dyadic_kernel_sequence
from admiss.criteria import (
    _square_family_sup,
    c1_zen_carleson,
    c2_power_square,
    c4_strip_summability,
    c5_sobolev_square,
    c6_sobolev_balayage,
    c7_halfsquare,
    c8_shifted_carleson,
    dispatch,
    fractional_resolvent_ratio,
    observation_dispatch,
    r1_resolvent,
    r7_fractional_resolvent,
    resolvent_ratio,
)
from admiss.spaces import InputSpace
from admiss.system_model import (
    AtomicMeasure,
    DiagonalSystem,
    heat_system,
    spectral_measure,
)
from admiss.report import ladder_cuts, ladder_verdict, log_space, nested_log_sup
from admiss.zen_weight import bergman, hardy, weight

DELTA_1 = AtomicMeasure(np.array([1 + 0j]), np.array([1.0]))
SINGLE_MODE = DiagonalSystem((-1 + 0j,), (1 + 0j,), 2.0)


def test_c1_delta1_hardy_constant():
    report = c1_zen_carleson(DELTA_1, hardy())
    # x < |I| excludes the atom at |I| = 1; the best tested square has |I| = 2
    assert 0.5 <= report.constant <= 1.0
    assert report.constant == pytest.approx(0.5, rel=1e-12)
    assert report.verdict == "bounded-evidence"


def test_c1_heat_bounded():
    mu = spectral_measure(heat_system(10000))
    report = c1_zen_carleson(mu, hardy(), n_range=(-10, 40))
    assert report.verdict == "bounded-evidence"
    assert math.isfinite(report.constant)


def test_c1_rejects_non_doubling_weight():
    from admiss.zen_weight import RadialMeasure
    with pytest.raises(ValueError):
        c1_zen_carleson(DELTA_1, RadialMeasure(atoms=((1.0, 1.0),)))


def test_r1_single_mode_hand_value():
    # lam = 1, N = 1: numerator 1/4, denominator 2 pi int e^(-2t) dt = pi
    ratio = resolvent_ratio(SINGLE_MODE, hardy(), 1.0, resolvent_power=1)
    assert ratio == pytest.approx(1 / (4 * math.pi), rel=1e-14)


def test_r1_matches_c1_verdict_on_heat():
    sys1k = heat_system(1000)
    c = c1_zen_carleson(spectral_measure(sys1k), hardy(), n_range=(-10, 40))
    r = r1_resolvent(sys1k, hardy(), resolvent_power=1)
    assert c.verdict == r.verdict == "bounded-evidence"


def test_r1_rejects_divergent_power():
    with pytest.raises(ValueError):
        r1_resolvent(SINGLE_MODE, bergman(1.0), resolvent_power=1)
    report = r1_resolvent(SINGLE_MODE, bergman(1.0))
    assert report.diagnostics["resolvent_power"] >= 2


def test_r1_rejects_non_hilbert():
    sys3 = DiagonalSystem((-1 + 0j,), (1 + 0j,), 3.0)
    with pytest.raises(ValueError):
        r1_resolvent(sys3, hardy())


def test_c2_range_checks():
    with pytest.raises(ValueError):
        c2_power_square(DELTA_1, 3.0, 2.0, symmetric_only=False)  # p > 2
    with pytest.raises(ValueError):
        c2_power_square(DELTA_1, 1.9, 2.0, symmetric_only=False)  # p' > q
    with pytest.raises(ValueError):
        c2_power_square(DELTA_1, 3.0, 2.0, symmetric_only=True)  # p > q
    with pytest.raises(ValueError):
        c2_power_square(DELTA_1, 1.0, 2.0, symmetric_only=True)


def test_c2_heat_unbounded_below_threshold():
    mu = spectral_measure(heat_system(100000))
    low = c2_power_square(mu, 1.2, 2.0, symmetric_only=True, n_range=(-10, 45))
    assert low.verdict == "unbounded-evidence"
    high = c2_power_square(mu, 1.5, 2.0, symmetric_only=True, n_range=(-10, 45))
    assert high.verdict == "bounded-evidence"


def test_c4_range_check_and_heat():
    mu = spectral_measure(heat_system(100000))
    with pytest.raises(ValueError):
        c4_strip_summability(mu, 1.5, 2.0)
    report = c4_strip_summability(mu, 4.0, 2.0, n_range=(-10, 45))
    assert report.verdict == "bounded-evidence"
    # the resolvent sequence of the same question, and its ell^(qp/(p-q)) norm
    assert "resolvent_sequence_norm" not in report.diagnostics
    seq = dyadic_kernel_sequence(mu, np.arange(-10, 46), 4.0, 2.0)
    assert math.isfinite(float((seq**4.0).sum() ** 0.25))


@pytest.mark.parametrize("run", [
    lambda m, n: c2_power_square(m, 2.0, 2.0, symmetric_only=False, n_range=n),
    lambda m, n: c2_power_square(m, 1.5, 2.0, symmetric_only=True, n_range=n),
    lambda m, n: c1_zen_carleson(m, hardy(), n_range=n),
    lambda m, n: c7_halfsquare(m, 0.5, n_range=n),
    lambda m, n: c8_shifted_carleson(m, 0.5, n_range=n),
])
def test_square_criteria_refuse_n_range_beyond_normal_powers(run):
    # above 1023, 2.0**n overflows (it raised OverflowError); below -1074 it
    # is 0, and the atom at x = 0 read constant inf in a square of length 0
    m = AtomicMeasure(np.array([0j, 1 + 1j]), np.ones(2))
    for n_range in ((0, 1024), (-1100, 0), (-1023, 0)):
        with pytest.raises(ValueError, match=r"outside \[-1022, 1023\]"):
            run(m, n_range)
    assert math.isfinite(run(m, (-1022, 1023)).constant)


def test_c4_low_end_of_grid_does_not_overflow():
    # 2^(-n q/p') overflows below n = -768 at q/p' = 4/3; only strips with
    # mass may form it, or inf * 0 reads NaN
    mu = spectral_measure(heat_system(50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = c4_strip_summability(mu, 3.0, 2.0, n_range=(-1022, 40))
    assert math.isfinite(low.constant)
    default = c4_strip_summability(mu, 3.0, 2.0, n_range=(-20, 40))
    assert low.constant == pytest.approx(default.constant, rel=1e-12)


def test_c5_matches_unweighted_for_far_spectrum():
    # heat masses sit at k^2 pi^2 >> 1, so 1 + |z|^(-2) is essentially 1
    mu = spectral_measure(heat_system(1000))
    weighted = c5_sobolev_square(mu, 1.5, 2.0, 1.0, n_range=(-5, 30))
    plain = c2_power_square(mu, 1.5, 2.0, symmetric_only=True, n_range=(-5, 30))
    assert weighted.verdict == plain.verdict
    # smallest atom at pi^2 carries factor 1 + pi^(-4), about 1%
    assert weighted.constant == pytest.approx(plain.constant, rel=2e-2)


def test_c5_atom_at_origin_unbounded():
    m = AtomicMeasure(np.array([0j, 1 + 0j]), np.array([1.0, 1.0]))
    report = c5_sobolev_square(m, 1.5, 2.0, 1.0)
    assert report.verdict == "unbounded-evidence"
    assert report.constant == math.inf


def test_c6_delta1_bounded():
    # transformed mass 2 delta_1; finite balayage norm certifies boundedness
    report = c6_sobolev_balayage(DELTA_1, 4.0, 2.0, 1.0)
    assert report.verdict == "bounded-evidence"
    expect = 2 * (math.sqrt(math.pi / 2) / math.pi)  # 2 * || (1/pi)/(1+t^2) ||_2
    assert report.constant == pytest.approx(expect, rel=1e-9)


def test_c6_reports_quadrature_error():
    report = c6_sobolev_balayage(DELTA_1, 4.0, 2.0, 1.0)
    diag = report.diagnostics["balayage_diagnostics"]
    assert diag["converged"] is True
    assert 0 <= diag["abserr"] <= 1e-9 * report.constant


def test_c6_unconverged_quadrature_is_inconclusive(monkeypatch):
    from admiss import halfplane

    m = AtomicMeasure(np.array([0.05 + 0j, 1 + 0.3j, 3 - 2j]), np.ones(3))
    assert c6_sobolev_balayage(m, 4.0, 2.0, 1.0).verdict == "bounded-evidence"
    # one panel, and tolerances no pass can meet
    monkeypatch.setattr(halfplane, "_GK_MAX_PANELS", 1)
    monkeypatch.setattr(halfplane, "_EPSABS", 1e-30)
    monkeypatch.setattr(halfplane, "_EPSREL", 0.0)
    report = c6_sobolev_balayage(m, 4.0, 2.0, 1.0)
    assert report.diagnostics["balayage_diagnostics"]["converged"] is False
    assert math.isfinite(report.constant)
    assert report.verdict == "inconclusive"


def test_c6_heat1d_matches_log_scale_reference():
    # heat1d's 10^4 atoms share one height; the reference integrates
    # S(e^u)^s e^u over u by scalar quad, with no breakpoints at all
    from scipy.integrate import quad

    from admiss.halfplane import balayage

    mu = spectral_measure(heat_system(10_000))
    report = c6_sobolev_balayage(mu, 3.0, 2.0, 0.5)
    assert report.verdict == "bounded-evidence"
    assert report.diagnostics["balayage_diagnostics"]["converged"] is True
    m = mu.transformed(criteria._sobolev_factors(mu, 2.0, 0.5))
    f = lambda u: balayage(m, math.exp(u)) ** 3 * math.exp(u)  # noqa: E731
    half = sum(quad(f, u, u + 4, epsabs=0, epsrel=1e-12, limit=200)[0]
               for u in range(-40, 60, 4))
    half += balayage(m, 0.0) ** 3 * math.exp(-40)
    assert report.constant == pytest.approx((2 * half) ** (1 / 3), rel=1e-9)


def test_c6_p_near_q_does_not_raise():
    # s = p / (p - q) = 4001: S^s alone underflows to 0 at every node.  The
    # transformed mass is 2 delta_1, and the integral of (pi (1 + t^2))^(-s)
    # is pi^(-s) sqrt(pi) Gamma(s - 1/2) / Gamma(s)
    report = c6_sobolev_balayage(DELTA_1, 2.0005, 2.0, 1.0)
    diag = report.diagnostics["balayage_diagnostics"]
    s = report.diagnostics["exponent"]
    log_ratio = math.lgamma(s - 0.5) - math.lgamma(s)
    expect = 2 / math.pi * math.exp((0.5 * math.log(math.pi) + log_ratio) / s)
    assert report.constant == pytest.approx(expect, rel=1e-12)
    assert diag["converged"] is True and math.isfinite(diag["abserr"])


def test_c6_is_one_sided():
    m = AtomicMeasure(np.array([0j]), np.array([1.0]))
    report = c6_sobolev_balayage(m, 4.0, 2.0, 1.0)
    assert report.verdict == "inconclusive"


def test_c7_delta1_hand_value():
    # only |I| in (1, 2] admits the atom in the right half; dyadic |I| = 2
    report = c7_halfsquare(DELTA_1, 0.5)
    assert report.constant == pytest.approx(2 ** -0.5, rel=1e-12)
    assert report.witness["n"] == 1


def test_c7_alpha0_within_factor_two_of_c1():
    mu = spectral_measure(heat_system(500))
    c7 = c7_halfsquare(mu, 0.0, n_range=(-5, 30))
    c1 = c1_zen_carleson(mu, hardy(), n_range=(-5, 30))
    assert c7.constant <= c1.constant * 2 + 1e-12
    assert c1.constant <= c7.constant * 2 + 1e-12


def test_c7_heat_bounded():
    mu = spectral_measure(heat_system(10000))
    report = c7_halfsquare(mu, 0.5, n_range=(-10, 40))
    assert report.verdict == "bounded-evidence"


def test_c7_range_check():
    with pytest.raises(ValueError):
        c7_halfsquare(DELTA_1, 1.0)


@pytest.mark.parametrize("alpha", [1.5, -0.5, 1.0])
def test_fractional_resolvent_ratio_refuses_alpha_outside_r7(alpha):
    sys100 = heat_system(100)
    for run in (lambda: r7_fractional_resolvent(sys100, alpha),
                lambda: fractional_resolvent_ratio(sys100, alpha, 3.0)):
        with pytest.raises(ValueError, match=r"power exponent must lie in \[0, 1\)"):
            run()


@pytest.mark.parametrize("modes", [2000, 100_000])
def test_pointwise_quotients_equal_r1_and_r7_at_their_witness(modes):
    # one point sums densely, the grid may sum Taylor bins: equal to rounding
    sys_ = heat_system(modes)
    for zen in (hardy(), bergman(0.5)):
        r1 = r1_resolvent(sys_, zen)
        lam = complex(*r1.witness["lambda"])
        n = r1.diagnostics["resolvent_power"]
        assert n == 2
        assert resolvent_ratio(sys_, zen, lam, n) == pytest.approx(r1.constant, rel=1e-13)
    for alpha in (0.0, 0.25, 0.5, 0.9):
        r7 = r7_fractional_resolvent(sys_, alpha)
        got = fractional_resolvent_ratio(sys_, alpha, r7.witness["lambda"])
        assert got == pytest.approx(r7.constant, rel=1e-13)


def test_r7_single_mode_hand_value():
    ratio = fractional_resolvent_ratio(SINGLE_MODE, 0.5, 1.0)
    assert ratio == pytest.approx(2 ** -0.5, rel=1e-14)


def test_r7_agrees_with_c7_on_heat():
    sys1k = heat_system(1000)
    r = r7_fractional_resolvent(sys1k, 0.5)
    c = c7_halfsquare(spectral_measure(sys1k), 0.5, n_range=(-10, 40))
    assert r.verdict == c.verdict == "bounded-evidence"


def test_c8_delta1_beta1():
    report = c8_shifted_carleson(DELTA_1, 1.0)
    # transformed mass |1+1|^(-2) = 1/4, best square |I| = 2 as in C1
    assert report.constant == pytest.approx(1 / 8, rel=1e-12)
    assert report.verdict == "bounded-evidence"


def test_c8_heat_bounded():
    mu = spectral_measure(heat_system(1000))
    report = c8_shifted_carleson(mu, 1.0, n_range=(-10, 40))
    assert report.verdict == "bounded-evidence"


def test_dispatch_routing_lp():
    sys1k = heat_system(1000)
    reports = dispatch(sys1k, InputSpace("Lp", p=2.0), n_range=(-10, 40))
    names = [r.criterion for r in reports]
    assert names == ["C2", "C3", "summary"]
    reports = dispatch(sys1k, InputSpace("Lp", p=4.0), n_range=(-10, 40))
    assert [r.criterion for r in reports] == ["C4", "summary"]


def test_dispatch_no_characterization():
    # the power-scale criteria are stated for q = 2 only
    sys3 = DiagonalSystem((-1 + 0j,), (1 + 0j,), 3.0)
    reports = dispatch(sys3, InputSpace("powerL2", alpha=0.5))
    assert reports[0].criterion == "none"
    assert reports[0].verdict == "no characterization known"
    assert reports[-1].verdict == "no characterization known"


def test_dispatch_weighted_and_power():
    sys1k = heat_system(200)
    reports = dispatch(sys1k, InputSpace("weightedL2", measure=hardy()), n_range=(-10, 35))
    assert [r.criterion for r in reports] == ["C1", "R1", "summary"]
    assert reports[-1].verdict == "bounded-evidence"
    reports = dispatch(sys1k, InputSpace("powerL2", alpha=0.5), n_range=(-10, 35))
    assert [r.criterion for r in reports] == ["C7", "R7", "summary"]


def test_dispatch_sobolev_routing():
    sys1k = heat_system(200)
    reports = dispatch(sys1k, InputSpace("sobolev", p=2.0, beta=1.0), n_range=(-10, 35))
    assert [r.criterion for r in reports] == ["C5", "C8", "summary"]
    reports = dispatch(sys1k, InputSpace("sobolev", p=4.0, beta=1.0), n_range=(-10, 35))
    assert [r.criterion for r in reports] == ["C6", "summary"]


# (kind, p, q, sectorial) -> criteria the paper's theorems admit, in dispatch order
ROUTES = {
    ("Lp", 2.0, 2.0, True): ["C2", "C3"],
    ("Lp", 1.5, 2.0, True): ["C3"],
    ("Lp", 1.5, 3.0, True): ["C2", "C3"],
    ("Lp", 3.0, 2.0, True): ["C4"],
    ("Lp", 2.0, 2.0, False): ["C2"],
    ("Lp", 1.5, 2.0, False): ["none"],
    ("weightedL2", None, 2.0, True): ["C1", "R1"],
    ("weightedL2", None, 3.0, True): ["C1"],
    ("weightedL2", None, 2.0, False): ["C1", "R1"],
    ("powerL2", None, 2.0, True): ["C7", "R7"],
    ("powerL2", None, 3.0, True): ["none"],
    ("powerL2", None, 2.0, False): ["none"],
    ("sobolev", 2.0, 2.0, True): ["C5", "C8"],
    ("sobolev", 1.5, 3.0, True): ["C5"],
    ("sobolev", 3.0, 2.0, True): ["C6"],
    ("sobolev", 2.0, 2.0, False): ["C8"],
    ("sobolev", 3.0, 2.0, False): ["none"],
}


def test_dispatch_follows_the_registry():
    from admiss.cli import _build_parser
    from admiss.criteria import REGISTRY
    modes = np.arange(1, 21)
    spectra = {True: -(modes**2) + 0j,
               # |Im| / |Re| >= 9e15: the angle rounds to pi/2 and the gate fails
               False: -1e-12 + 1e3j * (modes + 8)}
    spaces = {"Lp": lambda p: InputSpace("Lp", p=p),
              "weightedL2": lambda p: InputSpace("weightedL2", measure=bergman(0.5)),
              "powerL2": lambda p: InputSpace("powerL2", alpha=0.5),
              "sobolev": lambda p: InputSpace("sobolev", p=p, beta=0.5)}
    for (kind, p, q, sectorial), expected in ROUTES.items():
        sys_ = DiagonalSystem(spectra[sectorial], np.ones(modes.size), q)
        mu = spectral_measure(sys_)
        assert (mu.sector_angle < math.pi / 2) == sectorial
        space = spaces[kind](p)
        names = [r.criterion for r in dispatch(sys_, space, n_range=(-10, 30))]
        admitted = [name for name, c in REGISTRY.items()
                    if c.kind == kind and c.applies(space, q, sectorial)]
        assert names == (admitted or ["none"]) + ["summary"], (kind, p, q, sectorial)
        assert names[:-1] == expected, (kind, p, q, sectorial)

    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    for command in ("check", "sweep"):
        option = next(a for a in sub.choices[command]._actions if a.dest == "criterion")
        assert option.choices == ["auto", *REGISTRY]


def test_observation_duality_matches_control():
    # q = 3, c = [1, 1]: observation verdict equals the control verdict
    # computed from (q', c, dual space)
    sys3 = DiagonalSystem((-1 + 0j, -2 + 0j), (1 + 0j, 1 + 0j), 3.0)
    obs = observation_dispatch(sys3, [1 + 0j, 1 + 0j], InputSpace("Lp", p=3.0))
    from admiss.system_model import dual_system
    from admiss.spaces import dual_space
    direct = dispatch(dual_system(sys3, [1 + 0j, 1 + 0j]),
                      dual_space(InputSpace("Lp", p=3.0)))
    assert [r.verdict for r in obs] == [r.verdict for r in direct]
    assert obs[-1].verdict == "bounded-evidence"


def test_report_json_serializable():
    import json
    report = c1_zen_carleson(DELTA_1, hardy())
    text = json.dumps(report.to_json())
    assert "bounded-evidence" in text


def _square_family_sup_reference(m, denom_of_length, n_range, symmetric, part="full"):
    """Per-level mask loop: every level scans every atom."""
    n_min, n_max = n_range
    x, y, masses = m.locations.real, m.locations.imag, m.masses
    per_n, witnesses = [], []
    for n in range(n_min, n_max + 1):
        length = 2.0**n
        denom = denom_of_length(length)
        x_lo = length / 2 if part == "right_half" else 0.0
        in_depth = (x >= x_lo) & (x < length)
        best, best_witness = 0.0, None
        if symmetric:
            inside = in_depth & (y >= -length / 2) & (y < length / 2)
            mass = float(masses[inside].sum())
            if mass > 0:
                best = math.inf if denom == 0 else mass / denom
                best_witness = {"n": n, "interval": [-length / 2, length / 2]}
        elif in_depth.any():
            ys, ms = y[in_depth], masses[in_depth]
            for phase in (0.0, 0.5):
                bins = np.floor(ys / length - phase).astype(np.int64)
                uniq, inv = np.unique(bins, return_inverse=True)
                sums = np.bincount(inv, weights=ms)
                k = int(np.argmax(sums))
                mass = float(sums[k])
                if mass > 0:
                    ratio = math.inf if denom == 0 else mass / denom
                    if ratio > best:
                        best = ratio
                        lo = (uniq[k] + phase) * length
                        best_witness = {"n": n, "interval": [lo, lo + length]}
        per_n.append(best)
        witnesses.append(best_witness)
    per_n_arr = np.asarray(per_n)
    levels = [float(per_n_arr[: cut - n_min + 1].max()) for cut in ladder_cuts(n_min, n_max)]
    best_idx = int(np.argmax(per_n_arr))
    return levels, float(per_n_arr[best_idx]), witnesses[best_idx] or {}, per_n


_DYADIC = st.integers(-8, 8).map(lambda n: 2.0**n)
_ATOM_X = st.one_of(_DYADIC, st.just(0.0), st.floats(0.0, 300.0))
_ATOM_Y = st.one_of(_DYADIC.map(lambda v: v / 2), _DYADIC.map(lambda v: -v / 2), st.just(0.0),
                    st.floats(-300.0, 300.0))
# integer masses (zero included) make every sum exact in any order
_ATOM = st.tuples(_ATOM_X, _ATOM_Y, st.integers(0, 4))
# many atoms on y = 0 beside a few off it: the staggered levels whose atoms
# share one bin read a prefix sum, the others bin their atoms
_AXIS_ATOM = st.tuples(_ATOM_X, st.just(0.0), st.integers(0, 4))
_ATOMS = st.one_of(
    st.lists(_ATOM, min_size=1, max_size=40),
    st.tuples(st.lists(_AXIS_ATOM, min_size=1, max_size=30), st.lists(_ATOM, max_size=4))
    .map(lambda parts: parts[0] + parts[1]))
_DENOMS = [lambda length: length**0.5, lambda length: length,
           lambda length: length**1.5, lambda length: max(length - 1.0, 0.0)]


@pytest.mark.parametrize("symmetric, part",
                         [(True, "full"), (True, "right_half"), (False, "full")])
@given(atoms=_ATOMS, n_min=st.integers(-6, 3), span=st.integers(0, 12),
       denom=st.sampled_from(_DENOMS))
@settings(max_examples=150, deadline=None)
def test_square_family_sup_matches_per_level_scan(symmetric, part, atoms, n_min, span, denom):
    m = AtomicMeasure.from_atoms([(complex(x, y), mass) for x, y, mass in atoms])
    n_range = (n_min, n_min + span)
    got = _square_family_sup(m, denom, n_range, symmetric, part)
    want = _square_family_sup_reference(m, denom, n_range, symmetric, part)
    assert got == want
    if m.y is None:  # an all-axis draw is float-stored; complex-stored it reads the same
        as_complex = AtomicMeasure._at_checked_locations(m.x + 0j, m.masses)
        assert _square_family_sup(as_complex, denom, n_range, symmetric, part) == got


@pytest.mark.parametrize("symmetric, part",
                         [(True, "full"), (True, "right_half"), (False, "full")])
@given(atoms=_ATOMS, extra=_ATOMS.map(lambda atoms: atoms[0]), data=st.data(),
       n_min=st.integers(-6, 3), span=st.integers(0, 12), denom=st.sampled_from(_DENOMS))
@settings(max_examples=100, deadline=None)
def test_square_family_sup_permutation_invariant_and_monotone(symmetric, part, atoms, extra, data,
                                                              n_min, span, denom):
    def sup(atom_list):
        m = AtomicMeasure.from_atoms([(complex(x, y), mass) for x, y, mass in atom_list])
        levels, constant, _, _ = _square_family_sup(m, denom, (n_min, n_min + span), symmetric,
                                                    part)
        return levels, constant

    levels, constant = sup(atoms)
    assert sup(data.draw(st.permutations(atoms))) == (levels, constant)
    more_levels, more_constant = sup(atoms + [extra])
    assert more_constant >= constant
    assert all(a >= b for a, b in zip(more_levels, levels))



@pytest.mark.parametrize("on_axis", [True, False], ids=["real", "complex"])
def test_staggered_sups_of_a_sorted_measure_match_a_permutation(on_axis):
    # a measure sorted by x is read in place, a permutation of it is sorted
    # first; distinct x give one sorted order, so every sum and witness agrees
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(0.0, 300.0, 400))
    y = np.zeros(x.size) if on_axis else rng.uniform(-300.0, 300.0, x.size)
    masses = rng.uniform(0.0, 1.0, x.size)
    perm = rng.permutation(x.size)
    in_order = AtomicMeasure.from_atoms(list(zip(x + 1j * y, masses)))
    permuted = AtomicMeasure.from_atoms(list(zip((x + 1j * y)[perm], masses[perm])))
    assert (in_order.y is None) == on_axis
    assert (np.diff(in_order.x) > 0).all() and not (np.diff(permuted.x) >= 0).all()
    for denom in _DENOMS:
        got = _square_family_sup(permuted, denom, (-6, 10), False)
        assert got == _square_family_sup(in_order, denom, (-6, 10), False)


# real atoms at exact powers of two, at 0 and between, with masses that are
# not integers: an x-ascending measure (or the staggered family) sums them
# by segment of the x-order, the complex symmetric path in storage order
_REAL_ATOMS = st.lists(st.tuples(_ATOM_X, st.floats(0.0, 4.0)), min_size=1, max_size=40)


@pytest.mark.parametrize("symmetric, part",
                         [(True, "full"), (True, "right_half"), (False, "full")])
@given(atoms=_REAL_ATOMS, ascending=st.booleans(), n_min=st.integers(-6, 3),
       span=st.integers(0, 12), denom=st.sampled_from(_DENOMS))
# 0.8 / sqrt(2) at n = 1 and 1.6 / sqrt(8) at n = 3 tie exactly; summed in
# storage order the n = 3 mass rounds up, summed by levels it rounds down
@example(atoms=[(4.0, 0.7), (0.0, 0.7), (1.0, 0.1), (2.0, 0.1)], ascending=False, n_min=1,
         span=2, denom=_DENOMS[0])
@settings(max_examples=150, deadline=None)
def test_real_level_pass_matches_complex_binning(symmetric, part, atoms, ascending, n_min, span,
                                                 denom):
    if ascending:
        atoms = sorted(atoms)
    x = np.array([a for a, _ in atoms])
    real = AtomicMeasure(x, np.array([mass for _, mass in atoms]))
    as_complex = AtomicMeasure._at_checked_locations(x + 0j, real.masses)
    assert real.y is None and as_complex.y is not None
    n_range = (n_min, n_min + span)
    levels, constant, witness, per_n = _square_family_sup(real, denom, n_range, symmetric, part)
    for want in (_square_family_sup(as_complex, denom, n_range, symmetric, part),
                 _square_family_sup_reference(real, denom, n_range, symmetric, part)):
        assert witness == want[2]
        assert constant == pytest.approx(want[1], rel=1e-14, abs=0)
        assert levels == pytest.approx(want[0], rel=1e-14, abs=0)
        assert per_n == pytest.approx(want[3], rel=1e-14, abs=0)


# complex atoms with masses that are not integers, zero included: a level
# whose atoms share one bin reads a prefix sum, which must add the masses
# as the binning of the other phase does, or equal phases tie by rounding
_ROUNDING_ATOMS = st.tuples(
    st.lists(st.tuples(_ATOM_X, st.just(0.0), st.sampled_from([0.0, 0.1, 0.7, 1.3])),
             min_size=1, max_size=30),
    st.lists(st.tuples(_ATOM_X, _ATOM_Y, st.sampled_from([0.0, 0.1, 0.7])), min_size=1,
             max_size=6)).map(lambda parts: parts[0] + parts[1])


@pytest.mark.parametrize("symmetric, part",
                         [(True, "full"), (True, "right_half"), (False, "full")])
@given(atoms=_ROUNDING_ATOMS, n_min=st.integers(-6, 3), span=st.integers(0, 12),
       denom=st.sampled_from(_DENOMS))
# exact ties of 0.8 / sqrt(2) and 1.6 / sqrt(8), and of 0.8 / 1 and 1.6 / 2
# (the staggered prefix sums add in x-order)
@example(atoms=[(4.0, 0.0, 0.7), (0.0, 0.0, 0.7), (1.0, 0.0, 0.1), (2.0, 0.0, 0.1)], n_min=1,
         span=2, denom=_DENOMS[0])
@example(atoms=[(0.0, 0.0, 0.7), (0.0, 0.0, 0.1), (2.0, 0.5, 0.7), (1.0, 0.0, 0.1)], n_min=0,
         span=2, denom=_DENOMS[0])
# at n = 0 the two phase-0 bins hold 0.3 + 0.2 + 0.1 and 0.3 + 0.3 over a
# denominator 0: in storage order they tie and the lower bin [-1, 0) names
# the infinite level; in x-order the upper bin's sum rounds above
@example(atoms=[(0.5, 0.0, 0.3), (0.125, -0.015625, 0.3), (4.0, -5.0, 0.3),
                (0.0, -0.0078125, 0.3), (0.25, 0.0, 0.2), (6.0, 0.001953125, 1.3),
                (0.0625, 0.03125, 0.1)], n_min=0, span=3, denom=_DENOMS[3])
@settings(max_examples=150, deadline=None)
def test_complex_square_families_with_rounding_masses_match_the_scan(symmetric, part, atoms,
                                                                     n_min, span, denom):
    m = AtomicMeasure.from_atoms([(complex(x, y), mass) for x, y, mass in atoms])
    n_range = (n_min, n_min + span)
    levels, constant, witness, per_n = _square_family_sup(m, denom, n_range, symmetric, part)
    want = _square_family_sup_reference(m, denom, n_range, symmetric, part)
    assert witness == want[2]
    assert constant == pytest.approx(want[1], rel=1e-14, abs=0)
    assert levels == pytest.approx(want[0], rel=1e-14, abs=0)
    assert per_n == pytest.approx(want[3], rel=1e-14, abs=0)


def test_staggered_phases_of_equal_mass_tie_exactly():
    # at |I| = 2 phase 0 holds every atom (a prefix sum) and phase 1/2 all but
    # the massless one (a bincount); both add 0.1 + 0.2 + 0.3 left to right,
    # which rounds above 0.1 + (0.2 + 0.3), so the tie must go to phase 0
    m = AtomicMeasure.from_atoms([(0.5, 0.1), (1.5, 0.2), (1.5, 0.3), (0.5 + 1j, 0.0)])
    got = _square_family_sup(m, lambda length: length, (0, 3), False)
    assert got == _square_family_sup_reference(m, lambda length: length, (0, 3), False)
    assert got[2] == {"n": 1, "interval": [0.0, 2.0]}


def _staggered_level_masses_reference(m, lengths):
    """Per level and phase, the heaviest bin floor(y/|I| - phase) of the
    level's prefix of the x-order: ``np.unique`` numbers the bins and
    ``bincount`` adds each bin's masses in that order."""
    xs, ms, order = m.x_order
    ys = m.y[order]
    masses = []
    for length in lengths:
        b = int(np.searchsorted(xs, length, side="left"))
        mass = 0.0
        for phase in (0.0, 0.5):
            if b:
                _, bins = np.unique(np.floor(ys[:b] / length - phase), return_inverse=True)
                mass = max(mass, float(np.bincount(bins, weights=ms[:b]).max()))
        masses.append(mass)
    return masses


# heights up to 1e6 at lengths down to 2^-8 spread a level's bins wider than
# 4 b + 64 (the unique path); +-0 and masses of 0 sit on the bin edges
_STAGGERED_Y = st.one_of(_ATOM_Y, st.just(-0.0), st.floats(-1e6, 1e6))
_STAGGERED_ATOMS = st.lists(
    st.tuples(_ATOM_X, _STAGGERED_Y, st.one_of(st.sampled_from([0.0, 0.1, 0.7, 1.3]),
                                                st.floats(0.0, 4.0))),
    min_size=1, max_size=40)


@given(atoms=_STAGGERED_ATOMS, n_min=st.integers(-8, 3), span=st.integers(0, 16))
@example(atoms=[(0.1, 1e6, 0.7), (0.2, -1e6, 0.1), (0.3, 0.0, 1.3), (0.3, 0.5, 0.1)], n_min=-8,
         span=16)
@example(atoms=[(0.5, -0.0, 0.7), (0.5, 0.0, 0.1), (1.5, 0.25, 0.0), (0.0, -0.5, 0.1)], n_min=-2,
         span=4)
@settings(max_examples=200, deadline=None)
def test_staggered_level_masses_match_a_heaviest_bin_per_level_bit_for_bit(atoms, n_min, span):
    x, y, masses = (np.array(column) for column in zip(*atoms))
    m = AtomicMeasure._at_checked_locations(x + 1j * y, masses)
    lengths = [2.0**n for n in range(n_min, n_min + span + 1)]
    want = np.array(_staggered_level_masses_reference(m, lengths)).tobytes()
    # runs of segments of the default size, and of one or two segments each
    for entries in (criteria._BLOCK_ENTRIES, 3):
        with mock.patch.object(criteria, "_BLOCK_ENTRIES", entries):
            assert np.array(criteria._staggered_level_masses(m, lengths)).tobytes() == want


def test_staggered_level_masses_keep_the_unique_path_for_sparse_bins():
    # two atoms 2e6 apart at |I| = 2^-2 span 8e6 bins: beyond 4 b + 64, so
    # that level's segments rank their keys
    m = AtomicMeasure.from_atoms([(0.1 + 1e6j, 0.7), (0.2 - 1e6j, 0.1), (0.3, 1.3)])
    lengths = [2.0**n for n in range(-8, 9)]
    xs, _, order = m.x_order
    ys = m.y[order]
    prefixes = [(int(np.searchsorted(xs, length)), length) for length in lengths]
    assert any(np.ptp(np.floor(ys[:b] / length)) + 1 > 4 * b + 64 for b, length in prefixes if b)
    got = criteria._staggered_level_masses(m, lengths)
    assert got == _staggered_level_masses_reference(m, lengths)


@pytest.mark.parametrize("space", [InputSpace("Lp", p=2.0), InputSpace("weightedL2", measure=hardy())],
                         ids=["C2", "C1"])
def test_staggered_bins_past_int64_stay_apart(space):
    # at |I| = 2^-20 the heights +-1e20 .. 5e20 are bins past 2^63, where an
    # int64 key wraps to INT64_MIN and the three unit atoms share one bin; as
    # floats each keeps its own, and the lowest of the tied bins, y = -3e20,
    # names the witness
    sys_ = DiagonalSystem([-1e-7 + 1e20j, -1e-7 + 3e20j, -1e-7 - 5e20j], [1, 1, 1], 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = dispatch(sys_, space)[0]
    assert report.criterion in ("C1", "C2")
    assert report.constant == 2.0**20
    assert report.witness["n"] == -20 and report.witness["interval"][0] == -3e20


@pytest.mark.parametrize("run", [
    lambda sys_: dispatch(sys_, InputSpace("Lp", p=2.0))[0],
    lambda sys_: c1_zen_carleson(spectral_measure(sys_), hardy()),
], ids=["C2", "C1"])
@pytest.mark.parametrize("heights, mass", [((-1e303, -1.5e303), 1.0), ((-1e303, -1e303), 2.0)],
                         ids=["apart", "equal"])
def test_staggered_bins_whose_keys_overflow_stay_apart(run, heights, mass):
    # at |I| = 2^-20, y/|I| overflows to inf at both heights: distinct heights
    # lie far more than |I| apart, so each atom keeps its own bin (2^20) and
    # only equal heights share one (2^21); the witness is the lower atom's
    # bin, which rounds to [y, y] (z = -lambda flips the sign of Im lambda)
    sys_ = DiagonalSystem([complex(-1e-7, h) for h in heights], [1, 1], 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run(sys_)
    assert report.criterion in ("C1", "C2")
    assert report.constant == mass * 2.0**20
    assert report.witness == {"n": -20, "interval": [1e303, 1e303]}


def _heaviest_height_bin_reference(ys, weights, length, phase):
    """Bins keyed (-1, y) below, (0, floor(y/|I| - phase)) and (1, y) above
    the finite keys, summed in storage order; the lowest key wins ties."""
    sums = {}
    for y, w in zip(ys.tolist(), weights.tolist()):
        with np.errstate(over="ignore"):
            k = float(np.floor(np.float64(y) / length - phase))
        key = (0, k) if math.isfinite(k) else ((-1 if k < 0 else 1), y)
        sums[key] = sums.get(key, 0.0) + w
    key = min(sums, key=lambda key: (-sums[key], key))
    if key[0]:
        return key[1], key[1] + length, sums[key]
    return (key[1] + phase) * length, (key[1] + phase + 1) * length, sums[key]


@given(st.lists(st.tuples(st.sampled_from([-1.5e303, -1e303, -3.0, -0.5, 0.0, 0.25, 2.0, 1e303,
                                           1.7e308]),
                          st.sampled_from([0.0, 0.5, 1.0, 1.5])), min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(1, 12), st.integers(-24, 2), st.sampled_from([0.0, 0.5])),
                min_size=1, max_size=6))
# one call of dense (|y| <= 3), wide (1e303 at |I| = 4) and overflowing
# (|y| >= 1e303 at |I| = 2^-24) segments
@example([(-3.0, 1.0), (2.0, 0.5), (1e303, 1.0), (-1.5e303, 1.5), (-1e303, 1.5), (0.25, 0.0)],
         [(2, 0, 0.5), (3, 2, 0.0), (5, -24, 0.5), (6, -1, 0.0), (3, -24, 0.0)])
@settings(max_examples=300, deadline=None)
def test_heaviest_height_bin_orders_overflowing_keys_around_the_finite_ones(atoms, segments):
    # each segment is a prefix of the atoms, binned at its own length and phase
    ys, weights = (np.array(column) for column in zip(*atoms))
    sizes, ns, phases = (np.array(column) for column in zip(*segments))
    sizes = np.minimum(sizes, ys.size)
    lengths = 2.0**ns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = criteria._heaviest_bins(ys, weights, sizes, lengths, phases)
    want = [_heaviest_height_bin_reference(ys[:size], weights[:size], length, phase)
            for size, length, phase in zip(sizes.tolist(), lengths.tolist(), phases.tolist())]
    assert list(zip(*(column.tolist() for column in got))) == [(w, lo, hi) for lo, hi, w in want]


@pytest.mark.parametrize("name", ["C5", "C6", "C8"])
def test_weighted_criteria_read_the_transformed_measure(name):
    # the criteria write the weighted masses into their factor array; the
    # constants are those of the measure ``transformed`` by the factors
    rng = np.random.default_rng(12)
    m = AtomicMeasure(rng.uniform(0.01, 50.0, 400) + 1j * rng.uniform(-20.0, 20.0, 400),
                      rng.uniform(0.0, 2.0, 400))
    if name == "C8":
        got = c8_shifted_carleson(m, 0.4)
        want = _square_family_sup(m.transformed(np.abs(1.0 + m.locations) ** -0.8),
                                  lambda length: length, criteria.DEFAULT_N_RANGE, False)[1]
    else:
        factors = criteria._sobolev_factors(m, 2.0, 0.5)
        if name == "C5":
            got = c5_sobolev_square(m, 1.5, 2.0, 0.5)
            want = _square_family_sup(m.transformed(factors), lambda length: length ** (2 / 3),
                                      criteria.DEFAULT_N_RANGE, True)[1]
        else:
            got = c6_sobolev_balayage(m, 3.0, 2.0, 0.5)
            want = halfplane.balayage_norm(m.transformed(factors), 3.0)[0]
    assert got.constant == want
    assert m.masses.flags.writeable is False


@pytest.mark.parametrize("space", [
    InputSpace("Lp", p=1.3), InputSpace("Lp", p=3.0), InputSpace("weightedL2", measure=hardy()),
    InputSpace("powerL2", alpha=0.5), InputSpace("sobolev", p=2.0, beta=0.5),
], ids=["Lp1.3", "Lp3", "hardy", "powerL2", "sobolev"])
def test_heat_system_reports_equal_the_generic_system(space):
    # heat's points are its atoms and its stride-0 unit coefficients its
    # masses; the generic system negates the eigenvalues and takes |b|^2
    h = heat_system(3000)
    generic = DiagonalSystem(h.eigenvalues, np.ones(h.modes), 2.0)
    assert ([r.to_json() for r in dispatch(h, space)]
            == [r.to_json() for r in dispatch(generic, space)])


@pytest.mark.parametrize("location", [0.5, 0.5 + 0.25j], ids=["real", "complex"])
def test_zero_ratio_names_the_symmetric_square_that_holds_mass(location):
    # 5e-324 / 1e300 rounds to 0 at every level: a symmetric square names the
    # first level, which holds mass; a staggered square names none
    m = AtomicMeasure.from_atoms([(location, 5e-324)])
    for symmetric, part in [(True, "full"), (True, "right_half"), (False, "full")]:
        got = _square_family_sup(m, lambda length: 1e300, (0, 3), symmetric, part)
        assert got == _square_family_sup_reference(m, lambda length: 1e300, (0, 3), symmetric,
                                                   part)
        assert got[1] == 0.0
        assert got[2] == ({"n": 0, "interval": [-0.5, 0.5]} if symmetric else {})


def test_sweep_orders_and_gates_each_measure_once(monkeypatch, capsys):
    from admiss.cli import main

    built = {"x_ascending": [], "x_order": [], "sector_angle": []}
    for name, calls in built.items():
        prop = AtomicMeasure.__dict__[name]

        def counted(m, build=prop.func, calls=calls):
            calls.append(m)
            return build(m)

        monkeypatch.setattr(prop, "func", counted)
    # a real spectrum out of x-order: C3 and C4 bin it in storage order, the
    # staggered C2 sorts it once
    eigenvalues = [[-float(k * k), 0.0] for k in (5, 1, 9, 2, 7, 3, 8, 4, 6, 10)]
    system = json.dumps({"eigenvalues": eigenvalues, "coeffs": [[1.0, 0.0]] * 10, "q": 2})
    code = main(["sweep", "--system", system, "--space", '{"kind":"Lp","p":2}', "--param", "p",
                 "--values", "1.2,1.3,1.4,1.5,2,2.5,3,4", "--grid=-10:40"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code in (0, 2, 3)
    assert {row.split(",")[1] for row in rows} == {"C2", "C3", "C4"}
    # eight rows share the system's measure: one order, one sector angle
    assert [len(calls) for calls in built.values()] == [1, 1, 1]
    assert built["x_ascending"][0] is built["x_order"][0] is built["sector_angle"][0]


def _dense_r1(sys, zen, n_res, points_per_decade=8):
    """R1 with the whole (lambda grid x K) complex matrix at once."""
    wf = weight(zen)
    lam_sys = np.asarray(sys.eigenvalues, dtype=complex)
    b_sq = np.abs(np.asarray(sys.coeffs, dtype=complex)) ** 2
    x = (-lam_sys).real
    re_grid = log_space(x.min() / 100, x.max() * 100, points_per_decade)
    im_mag = np.concatenate(([0.0], re_grid[:: max(1, len(re_grid) // 12)]))
    im_grid = np.unique(np.concatenate((-im_mag, im_mag)))
    lam_re = np.repeat(re_grid, im_grid.size)
    lam = lam_re + 1j * np.tile(im_grid, re_grid.size)
    num = np.abs(lam[:, None] - lam_sys[None, :]) ** (-2 * n_res) @ b_sq
    den = np.repeat([wf.poly_exp_moment(2 * n_res - 2, 2 * r) for r in re_grid], im_grid.size)
    levels, constant, best = nested_log_sup(lam_re, num / den)
    return levels, constant, [float(lam[best].real), float(lam[best].imag)]


def _dense_r7(sys, alpha, points_per_decade=10):
    lam_sys = np.asarray(sys.eigenvalues, dtype=complex)
    b_sq = np.abs(np.asarray(sys.coeffs, dtype=complex)) ** 2
    x = (-lam_sys).real
    grid = log_space(x.min() / 100, x.max() * 100, points_per_decade)
    num = np.sqrt(np.abs(grid[:, None] - lam_sys[None, :]) ** (2 * alpha - 2) @ b_sq)
    levels, constant, best = nested_log_sup(grid, num / grid ** ((alpha - 1) / 2))
    return levels, constant, float(grid[best])


def _random_sectorial(modes, seed=11):
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(math.log(0.5), math.log(50), modes))
    lam = -radii * np.exp(1j * rng.uniform(-0.95 * math.pi / 6, 0.95 * math.pi / 6, modes))
    b = rng.uniform(0.5, 2, modes) * np.exp(1j * rng.uniform(0, 2 * math.pi, modes))
    return DiagonalSystem(lam, b, 2.0)


@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("make_system", [lambda: heat_system(2000),
                                         lambda: _random_sectorial(150)])
def test_blocked_resolvent_sums_match_dense(make_system, block_rows, monkeypatch):
    sys_ = make_system()
    if block_rows is not None:  # many blocks, the last one ragged
        monkeypatch.setattr(halfplane, "_BLOCK_ENTRIES", block_rows * sys_.modes)
    for zen in (hardy(), bergman(0.5)):
        report = r1_resolvent(sys_, zen)
        levels, constant, witness = _dense_r1(sys_, zen, report.diagnostics["resolvent_power"])
        assert report.diagnostics["levels"] == pytest.approx(levels, rel=1e-12)
        assert report.constant == pytest.approx(constant, rel=1e-12)
        assert report.witness["lambda"] == witness
        assert report.verdict == ladder_verdict(levels)
    for alpha in (0.0, 0.5):
        report = r7_fractional_resolvent(sys_, alpha)
        levels, constant, witness = _dense_r7(sys_, alpha)
        assert report.diagnostics["levels"] == pytest.approx(levels, rel=1e-12)
        assert report.constant == pytest.approx(constant, rel=1e-12)
        assert report.witness["lambda"] == witness
        assert report.verdict == ladder_verdict(levels)


@pytest.mark.parametrize("kwargs", [
    {"kind": "Lp", "p": math.nan},
    {"kind": "sobolev", "p": math.nan, "beta": 0.5},
    {"kind": "sobolev", "p": 3.0, "beta": math.nan},
])
def test_input_space_rejects_nan_exponents(kwargs):
    with pytest.raises(ValueError):
        InputSpace(**kwargs)
