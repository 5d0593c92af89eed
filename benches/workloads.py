"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of operations.  An operation is
one ``admiss`` command, called in-process through ``admiss.cli.main`` so that
argument parsing, JSON loading, manifest building and serialisation are timed
with it, or one question put to the library.  Every operation carries a check
that runs after the timed pass, against the references in ``checks`` or
against a property the method must have.

The seed only jitters truncations and draws random systems and parameters;
it never changes the kind, the size class or the order of the operations, so
every seed costs about the same and touches memory in the same pattern.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math

import numpy as np

from checks import HeatReference, close

BLASCHKE_UNDERFLOW = "atom masses must be finite"
FALSE_UNBOUNDED = "false unbounded-evidence"
CONSTANT_RTOL = 1e-12  # counts and powers: the same arithmetic, other code
SUM_RTOL = 1e-10  # sums over up to 1e6 terms, summed in another order


class CliError(Exception):
    """``admiss`` exited with the usage/error code."""


class Op:
    """One timed operation.  ``known_fault`` names a fault of the program that
    makes this operation fail every time: the text of the exception it raises,
    or a text that every problem its check reports contains."""

    def __init__(self, name, run, check, known_fault=None, cli=False):
        self.name = name
        self.run = run
        self.check = check
        self.known_fault = known_fault
        self.cli = cli


class Workload:
    """Operations in timed order, an untimed warm-up operation, and an
    optional check that takes each operation's first output."""

    def __init__(self, ops, warmup, extra_check=None):
        self.ops = ops
        self.warmup = warmup
        self.extra_check = extra_check


def _cli_op(name, argv, check):
    from admiss import cli  # attribute lookup at call time sees the tracer

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code == cli.EXIT_USAGE:
            raise CliError(err.getvalue().strip())
        return code, out.getvalue()

    return Op(name, run, check, cli=True)


def _heat(modes: int) -> str:
    return json.dumps({"generator": "heat1d", "modes": modes})


def _grid_arg(grid) -> str:
    return f"--grid={grid[0]}:{grid[1]}"


def _by_criterion(reports: list[dict]) -> dict[str, dict]:
    return {r["criterion"]: r for r in reports}


# -- heat-lp ------------------------------------------------------------------

HEAT_GRID = (-10, 45)
HEAT_P = (1.2, 1.3, 1.35, 1.4, 1.5, 2.0, 3.0, 4.0)
THRESHOLD_LOW, THRESHOLD_HIGH = 1.30, 1.35  # around p = 4/3


def _heat_lp_problems(ref: HeatReference, reports: list[dict], space: dict) -> list[str]:
    """Problems with one dispatch result on the heat system."""
    problems = []
    found = _by_criterion(reports)
    summary = found.pop("summary", {}).get("verdict")
    if space["kind"] == "Lp":
        p = space["p"]
        want = ("unbounded-evidence" if p <= THRESHOLD_LOW
                else "bounded-evidence" if p >= THRESHOLD_HIGH else None)
        refs = {"C2": lambda: ref.power_square(p), "C3": lambda: ref.power_square(p),
                "C4": lambda: ref.strip_sum(p)}
        rtol = CONSTANT_RTOL
    else:
        beta = space["beta"]
        want = "bounded-evidence"  # Sobolev inputs are smoother than L^2 ones
        refs = {"C5": lambda: ref.sobolev_square(space["p"], beta),
                "C8": lambda: ref.shifted_carleson(beta)}
        rtol = SUM_RTOL
    if summary != want:
        problems.append(f"{space}: verdict {summary}, expected {want}")
    if not found or set(found) - set(refs):
        problems.append(f"{space}: unexpected criteria {sorted(found)}")
    for name, report in found.items():
        if name in refs:
            expected = refs[name]()
            if not close(report["constant"], expected, rtol):
                problems.append(f"{space} {name}: constant {report['constant']!r}, "
                                f"reference {expected!r}")
    return problems


def heat_lp(seed: int):
    # fixed truncations: with jittered ones the peak RSS moved by 5 % between seeds
    k_big, k_sobolev, k_sweep = 1_000_000, 600_000, 200_000
    rng = np.random.default_rng([seed, 1])
    beta = round(float(rng.uniform(0.25, 1.0)), 3)
    refs = functools.cache(lambda modes: HeatReference(modes, HEAT_GRID))

    def check_op(modes, space):
        argv = ["check", "--system", _heat(modes), "--space", json.dumps(space),
                _grid_arg(HEAT_GRID), "--format", "json"]

        def check(output):
            code, text = output
            reports = json.loads(text)["reports"]
            problems = _heat_lp_problems(refs(modes), reports, space)
            verdict = _by_criterion(reports)["summary"]["verdict"]
            want_code = {"bounded-evidence": 0, "unbounded-evidence": 2}.get(verdict, 3)
            if code != want_code:
                problems.append(f"{space}: exit code {code} for verdict {verdict}")
            return problems

        return _cli_op(f"check {space} K={modes}", argv, check)

    def sweep_op(modes, values):
        argv = ["sweep", "--system", _heat(modes), "--space", json.dumps({"kind": "Lp", "p": 2}),
                "--param", "p", "--values", ",".join(str(v) for v in values),
                _grid_arg(HEAT_GRID), "--format", "json"]

        def check(output):
            _, text = output
            rows = json.loads(text)["reports"]
            if sorted(rows, key=float) != [str(float(v)) for v in values]:
                return [f"sweep rows {sorted(rows)} for values {values}"]
            return [problem for key, reports in rows.items()
                    for problem in _heat_lp_problems(refs(modes), reports,
                                                     {"kind": "Lp", "p": float(key)})]

        return _cli_op(f"sweep p K={modes}", argv, check)

    warmup = check_op(k_big, {"kind": "Lp", "p": 1.35})
    # five operations of about the same size, so the median latency sits
    # inside that cluster and not between two operation kinds
    ops = [check_op(k_big, {"kind": "Lp", "p": THRESHOLD_LOW}),
           check_op(k_big, {"kind": "Lp", "p": THRESHOLD_HIGH}),
           check_op(k_big, {"kind": "Lp", "p": 1.4}),
           check_op(k_sobolev, {"kind": "sobolev", "p": 2.0, "beta": beta}),
           sweep_op(k_sweep, HEAT_P)]
    return Workload(ops, warmup)


# -- kernel-sums --------------------------------------------------------------

KERNEL_GRID = (-20, 40)


def kernel_sums(seed: int):
    rng = np.random.default_rng([seed, 2])
    refs = functools.cache(lambda modes: HeatReference(modes, KERNEL_GRID))

    def jitter(modes):
        return modes - int(rng.integers(0, 100))

    def check_op(modes, space):
        argv = ["check", "--system", _heat(modes), "--space", json.dumps(space),
                _grid_arg(KERNEL_GRID), "--format", "json"]

        def check(output):
            _, text = output
            found = _by_criterion(json.loads(text)["reports"])
            ref = refs(modes)
            if space["kind"] == "weightedL2":
                square, resolvent = found.get("C1"), found.get("R1")
                alpha = None if space["measure"] == "hardy" else float(space["measure"].split(":")[1])
                square_ref = ref.zen_carleson(alpha)
                if resolvent is not None:
                    lam = complex(*resolvent["witness"]["lambda"])
                    power = resolvent["diagnostics"]["resolvent_power"]
                    resolvent_ref = (ref.r1_hardy(lam, power) if alpha is None
                                     else ref.r1_bergman(lam, power, alpha))
            else:
                square, resolvent = found.get("C7"), found.get("R7")
                square_ref = ref.half_square(space["alpha"])
                if resolvent is not None:
                    resolvent_ref = ref.r7(resolvent["witness"]["lambda"], space["alpha"])
            if square is None or resolvent is None:
                return [f"{space}: criteria {sorted(found)}"]
            problems = []
            if not close(square["constant"], square_ref, CONSTANT_RTOL):
                problems.append(f"{space} {square['criterion']}: constant "
                                f"{square['constant']!r}, reference {square_ref!r}")
            if not close(resolvent["constant"], resolvent_ref, SUM_RTOL):
                problems.append(f"{space} {resolvent['criterion']}: constant "
                                f"{resolvent['constant']!r}, reference {resolvent_ref!r}")
            if square["verdict"] != resolvent["verdict"]:
                problems.append(f"{space}: {square['criterion']} {square['verdict']} but "
                                f"{resolvent['criterion']} {resolvent['verdict']}")
            return problems

        return _cli_op(f"check {space} K={modes}", argv, check)

    def oracle_op(modes, space):
        argv = ["oracle", "--system", _heat(modes), "--space", json.dumps(space),
                "--mix-size", "64", "--seed", str(int(rng.integers(0, 2**31))),
                "--format", "json"]

        def check(output):
            _, text = output
            lower, sweep = json.loads(text)["reports"]
            ref = refs(modes)
            if space["kind"] == "Lp" and space["p"] > 2:
                n_lo, n_hi = sweep["witness"]["n_range"]
                expected = ref.lp_dyadic_sequence(space["p"], n_lo, n_hi)
            elif space["kind"] == "Lp":
                expected = ref.lp_kernel(sweep["witness"]["z"], space["p"])
            else:
                expected = ref.power_kernel(sweep["witness"]["z"], space["alpha"])
            problems = []
            if not close(sweep["constant"], expected, SUM_RTOL):
                problems.append(f"oracle {space}: kernel constant {sweep['constant']!r}, "
                                f"reference {expected!r}")
            floor = ref.member_zero(space)
            if not lower["constant"] >= floor * (1 - SUM_RTOL):
                problems.append(f"oracle {space}: lower bound {lower['constant']!r} below "
                                f"its first member's quotient {floor!r}")
            return problems

        return _cli_op(f"oracle {space} K={modes}", argv, check)

    # the warm-up allocates little: the first touch of a resolvent matrix's
    # hundreds of MB costs the kernel 0.1-0.4 s from run to run, which no
    # later operation saves, since each allocates and frees its own
    warmup = oracle_op(jitter(10_000), {"kind": "Lp", "p": 1.5})
    ops = [
        check_op(jitter(5_000), {"kind": "weightedL2", "measure": "hardy"}),
        check_op(jitter(5_000), {"kind": "weightedL2", "measure": "bergman:0.5"}),
        check_op(jitter(100_000), {"kind": "powerL2", "alpha": 0.25}),
        check_op(jitter(100_000), {"kind": "powerL2", "alpha": 0.5}),
        oracle_op(jitter(10_000), {"kind": "Lp", "p": 1.5}),
        oracle_op(jitter(15_000), {"kind": "Lp", "p": 3.0}),
        oracle_op(jitter(15_000), {"kind": "powerL2", "alpha": 0.5}),
    ]
    return Workload(ops, warmup)


# -- small-systems ------------------------------------------------------------

SMALL_SPACES = (
    {"kind": "Lp", "p": 1.5},
    {"kind": "Lp", "p": 3.0},
    {"kind": "weightedL2", "measure": "hardy"},
    {"kind": "powerL2", "alpha": 0.5},
    {"kind": "sobolev", "p": 2.0, "beta": 0.5},
    {"kind": "sobolev", "p": 3.0, "beta": 0.5},
)
RANDOM_MODES = tuple(int(n) for n in np.linspace(10, 200, 12).round())
FAILING_HEAT_MODES = (300, 1000)
# Separated spectra are fixed, not drawn from --seed: (modes, key) of the
# spectra that must not read unbounded-evidence, and of the one that does.
SEPARATED = ((150, 0), (250, 1))
FALSE_UNBOUNDED_SPECTRUM = (40, 1)
SEPARATED_BETA = 0.5
ISOMETRY_PRESETS = ("bergman:0.5", "bergman:1")
ISOMETRY_TOL = 1e-6
SCALING_RTOL = 1e-9
QUADRATURE_RTOL = 1e-6  # C6 integrates adaptively with absolute tolerances
PAIRED = (("C1", "R1"), ("C7", "R7"))


def random_sectorial(rng, modes: int):
    """q = 2 system with spectrum in the sector of half-angle pi/6, drawn
    the way the acceptance tests draw theirs."""
    radius = 10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0), modes)
    phase = rng.uniform(-0.95, 0.95, modes) * (math.pi / 6)
    z = radius * np.exp(1j * phase)
    b = rng.uniform(0.5, 2.0, modes) * np.exp(1j * rng.uniform(0, 2 * math.pi, modes))
    return -z, b


def separated_spectrum(modes: int, key: int):
    """Carleson-separated spectrum lambda_n = -2^n e^(i theta_n), theta_n
    uniform in +-pi/4, with |b_n|^2 = Re(-lambda_n); fixed by ``key``."""
    rng = np.random.default_rng([7, key])
    z = 2.0 ** np.arange(1, modes + 1) * np.exp(1j * rng.uniform(-math.pi / 4, math.pi / 4, modes))
    b = np.sqrt(z.real) * np.exp(1j * rng.uniform(0, 2 * math.pi, modes))
    return -z, b


def _pair_problems(name: str, reports_by_space) -> list[str]:
    problems = []
    for reports in reports_by_space:
        found = {r.criterion: r for r in reports}
        for a, b in PAIRED:
            if a in found and b in found and found[a].verdict != found[b].verdict:
                problems.append(f"{name}: {a} {found[a].verdict} but {b} {found[b].verdict}")
    return problems


def small_systems(seed: int):
    from admiss import controllability, criteria, laplace_oracle, system_model, zen_weight
    from admiss.spaces import load_space

    rng = np.random.default_rng([seed, 3])
    spaces = [load_space(s) for s in SMALL_SPACES]
    ops = []
    systems = []

    for modes in RANDOM_MODES:
        eig, b = random_sectorial(rng, modes)
        system = system_model.DiagonalSystem(tuple(eig), tuple(b), 2.0)
        systems.append(system)
        name = f"dispatch random K={modes}"

        def run(system=system):
            return [criteria.dispatch(system, space) for space in spaces]

        ops.append(Op(name, run, lambda out, name=name: _pair_problems(name, out)))

    for modes in FAILING_HEAT_MODES:
        name = f"interpolation heat1d K={modes}"

        def run(modes=modes):
            return controllability.interpolation_test(system_model.heat_system(modes))

        def check(out, name=name):
            # the heat spectrum is not uniformly separated
            return [f"{name}: bounded-evidence"] if out.verdict == "bounded-evidence" else []

        ops.append(Op(name, run, check, known_fault=BLASCHKE_UNDERFLOW))

    for modes, key in SEPARATED + (FALSE_UNBOUNDED_SPECTRUM,):
        eig, b = separated_spectrum(modes, key)
        system = system_model.DiagonalSystem(tuple(eig), tuple(b), 2.0)
        targets = b * np.abs(1 - eig) ** SEPARATED_BETA
        n_range = (-5, modes + 5)  # covers |lambda_n| = 2^1 .. 2^modes
        name = f"interpolation separated K={modes} key={key}"

        def run(system=system, targets=targets, n_range=n_range):
            return [controllability.interpolation_test(system, n_range),
                    controllability.sobolev_controllability(system, SEPARATED_BETA, targets,
                                                            n_range)]

        def check(out, name=name):
            # a uniformly separated spectrum with these masses is interpolating
            return [f"{name}: {r.criterion} {FALSE_UNBOUNDED}" for r in out
                    if r.verdict == "unbounded-evidence"]

        known = FALSE_UNBOUNDED if (modes, key) == FALSE_UNBOUNDED_SPECTRUM else None
        ops.append(Op(name, run, check, known_fault=known))

    for preset in ISOMETRY_PRESETS:
        rate = float(rng.uniform(0.5, 2.0))
        name = f"isometry hardy+{preset} rate={rate:.3f}"

        def run(preset=preset, rate=rate):
            f = laplace_oracle.TestFunction.poly_exp(3, rate)
            return [laplace_oracle.isometry_check(zen_weight.load_radial_measure(p), f)
                    for p in ("hardy", preset)]

        def check(out, name=name):
            return [f"{name}: isometry error {e!r}" for e in out if not e < ISOMETRY_TOL]

        ops.append(Op(name, run, check))

    def scaling_and_permutation(first_outputs) -> list[str]:
        """Re-ask the first two random systems with scaled coefficients and
        permuted modes; compare with their timed outputs."""
        problems = []
        for index in range(2):
            system = systems[index]
            base = first_outputs[ops[index]]
            c = float(rng.uniform(0.3, 3.0))
            order = rng.permutation(system.modes)
            scaled = system_model.DiagonalSystem(
                system.eigenvalues, tuple(c * v for v in system.coeffs), system.q)
            permuted = system_model.DiagonalSystem(
                tuple(system.eigenvalues[i] for i in order),
                tuple(system.coeffs[i] for i in order), system.q)
            for variant, label in ((scaled, f"scaled by {c:.4f}"), (permuted, "permuted")):
                for space, reports in zip(spaces, base):
                    for want, got in zip(reports, criteria.dispatch(variant, space)):
                        if want.criterion == "summary":
                            continue
                        factor = 1.0
                        if variant is scaled:
                            factor = {"R1": c**2, "R7": c}.get(want.criterion, c**system.q)
                        rtol = QUADRATURE_RTOL if want.criterion == "C6" else SCALING_RTOL
                        expected = want.constant * factor
                        if not (got.constant == expected == math.inf
                                or close(got.constant, expected, rtol)):
                            problems.append(
                                f"random K={system.modes} {label} {space.describe()} "
                                f"{want.criterion}: {got.constant!r}, expected {expected!r}")
        return problems

    warmup = ops[len(RANDOM_MODES) // 2]
    return Workload(ops, warmup, scaling_and_permutation)


WORKLOADS = {"heat-lp": heat_lp, "kernel-sums": kernel_sums, "small-systems": small_systems}
