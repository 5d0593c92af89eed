import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from admiss.cli import main
from admiss.laplace_oracle import MAX_FAMILY_SIZE, TestFunction, _isometry
from admiss.zen_weight import hardy

HEAT = json.dumps({"generator": "heat1d", "modes": 10000})
SMALL_HEAT = '{"generator":"heat1d","modes":50}'


@pytest.fixture()
def heat_file(tmp_path):
    path = tmp_path / "heat.json"
    path.write_text(HEAT)
    return str(path)


def test_check_bounded_exit_zero(heat_file, capsys):
    code = main(["check", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 "--grid=-10:40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bounded-evidence" in out


def test_check_unbounded_exit_two(heat_file, capsys):
    code = main(["check", "--system", heat_file, "--space", '{"kind":"Lp","p":1.2}',
                 "--grid=-10:45", "--modes", "100000"])
    assert code == 2


def test_check_malformed_json_exit_one(heat_file, capsys):
    code = main(["check", "--system", heat_file, "--space", '{bad json'])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_one(capsys):
    assert main([]) == 1
    assert main(["check"]) == 1


def test_check_single_criterion(heat_file, capsys):
    code = main(["check", "--system", heat_file, "--space", '{"kind":"Lp","p":1.5}',
                 "--criterion", "C3", "--grid=-10:40", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    reader = list(csv.reader(io.StringIO(out)))
    assert reader[0] == ["criterion", "constant", "verdict"]
    assert reader[1][0] == "C3"


def test_check_criterion_space_mismatch(heat_file, capsys):
    code = main(["check", "--system", heat_file, "--space", '{"kind":"Lp","p":1.5}',
                 "--criterion", "C1"])
    assert code == 1


@pytest.mark.parametrize("system, space, criterion, hypothesis", [
    ('{"eigenvalues":[[-1,0],[-4,0],[-9,0]],"coeffs":[[1,0],[1,0],[1,0]],"q":3}',
     '{"kind":"powerL2","alpha":0.5}', "C7", "q = 2"),
    ('{"generator":"heat1d","modes":1000}', '{"kind":"sobolev","p":3,"beta":0.5}', "C8",
     "p = q = 2"),
], ids=["C7-q3", "C8-sobolev-p3"])
def test_check_criterion_outside_its_hypotheses(system, space, criterion, hypothesis, capsys):
    code = main(["check", "--system", system, "--space", space, "--criterion", criterion,
                 "--grid=-10:40"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"{criterion} needs" in captured.err and hypothesis in captured.err


def test_oracle_has_no_criterion_or_grid_option(heat_file, capsys):
    for option in ("--criterion=C3", "--grid=-10:40"):
        assert main(["oracle", "--system", heat_file, "--isometry", "hardy", option]) == 1


def test_check_json_manifest_fields(heat_file, capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["check", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 "--grid=-10:40", "--format", "json", "--out", str(out_path)])
    assert code == 0
    manifest = json.loads(out_path.read_text())
    assert manifest["command"] == "check"
    assert manifest["grid"] == [-10, 40]
    assert "sha256" in manifest["inputs"]["system"]
    assert manifest["reports"][-1]["criterion"] == "summary"


def test_check_determinism(heat_file, tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        main(["check", "--system", heat_file, "--space", '{"kind":"Lp","p":1.5}',
              "--grid=-10:40", "--out", str(path)])
        capsys.readouterr()
        data = json.loads(path.read_text())
        data.pop("wall_clock")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]

    sweeps = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}', "--param", "p",
              "--values", "0.5,1.5,3", "--grid=-10:40", "--out", str(path)])
        capsys.readouterr()
        data = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        data.pop("wall_clock")
        sweeps.append(json.dumps(data, sort_keys=True))
    assert sweeps[0] == sweeps[1]
    manifest = json.loads(sweeps[0])
    assert {"tool_version", "command", "inputs", "grid", "seed", "modes", "param", "values",
            "criterion"} <= manifest.keys()
    assert manifest["command"] == "sweep" and manifest["grid"] == [-10, 40]
    assert list(manifest["reports"]) == ["0.5", "1.5", "3.0"]


def test_sweep_threshold_flip(heat_file, capsys):
    code = main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 "--param", "p",
                 "--values", "1.2,1.3,1.3333333333333333,1.4,2,3,4",
                 "--grid=-10:45", "--format", "csv"])
    assert code == 3  # mixed verdicts across the sweep
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))[1:]
    # collapse to one verdict per parameter value, in sweep order
    seen = {}
    for param, _, _, verdict in rows:
        seen.setdefault(param, set()).add(verdict)
    verdicts = [v.pop() for v in (seen[k] for k in seen)]
    assert all(len(seen[k]) == 0 for k in seen)  # criteria agree per value
    flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
    assert flips == 1
    assert verdicts[0] == "unbounded-evidence"
    assert verdicts[2] == "bounded-evidence"  # p = 4/3 is admissible


def test_sweep_empty_values_exit_one(heat_file, capsys):
    assert main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 "--param", "p", "--values", ""]) == 1


def test_sweep_format_is_csv_or_json(capsys):
    # sweep prints rows as CSV; a table format would only be a second name for it
    argv = ["sweep", "--system", SMALL_HEAT, "--space", '{"kind":"Lp","p":2}',
            "--param", "p", "--values", "2", "--grid=-10:40"]
    assert main([*argv, "--format", "table"]) == 1
    assert "invalid choice: 'table'" in capsys.readouterr().err
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == default
    assert default.splitlines()[0] == "param,criterion,constant,verdict"


def test_sweep_failing_row_does_not_abort(heat_file, capsys):
    code = main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 "--param", "p", "--values", "0.5,2", "--grid=-10:40",
                 "--format", "csv"])
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert any(r[3].startswith("error") for r in rows)
    assert any(r[3] == "bounded-evidence" for r in rows)
    assert code == 3


def test_sweep_writes_csv_file(heat_file, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
          "--param", "p", "--values", "2,3", "--grid=-10:40",
          "--out", str(out_path)])
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == ["param", "criterion", "constant", "verdict"]
    assert len(rows) > 2


def test_oracle_isometry_exit_zero(heat_file, tmp_path, capsys):
    out_path = tmp_path / "isometry.json"
    code = main(["oracle", "--system", heat_file, "--isometry", "hardy", "--out", str(out_path)])
    assert code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(row[0], row[-1]) for row in rows[2:]] == [("isometry", "pass")]
    abserr = json.loads(out_path.read_text())["reports"][0]["diagnostics"]["relative_abserr"]
    assert math.isfinite(abserr)
    for n in range(2, 7):
        error, bound = _isometry(hardy(), TestFunction.poly_exp(n, 1.0))
        assert error <= bound + 4 * np.finfo(float).eps


def test_oracle_lower_bound_monotone(heat_file, capsys):
    bounds = []
    for m in ("1", "8"):
        main(["oracle", "--system", heat_file, "--space", '{"kind":"Lp","p":1.2}',
              "--mix-size", m, "--seed", "0", "--modes", "200", "--format", "json"])
        manifest = json.loads(capsys.readouterr().out)
        report = next(r for r in manifest["reports"]
                      if r["criterion"] == "empirical-lower-bound")
        bounds.append(report["constant"])
    assert bounds[1] >= bounds[0]


def test_oracle_deterministic_with_seed(heat_file, capsys):
    outs = []
    for _ in range(2):
        main(["oracle", "--system", heat_file, "--space", '{"kind":"Lp","p":1.5}',
              "--mix-size", "8", "--seed", "42", "--modes", "100", "--format", "json"])
        manifest = json.loads(capsys.readouterr().out)
        manifest.pop("wall_clock")
        outs.append(json.dumps(manifest, sort_keys=True))
    assert outs[0] == outs[1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("argv, manifest_suffix, stdout_is_json", [
    (["check", "--space", '{"kind":"Lp","p":1.5}', "--grid=-10:40"], "", True),
    (["check", "--space", '{"kind":"Lp","p":1.2}', "--grid=-10:45", "--modes", "2000"], "", True),
    (["check", "--space", '{"kind":"Lp","p":1.5}', "--criterion", "C3"], "", True),
    (["check", "--space", '{"kind":"weightedL2","measure":"hardy"}', "--modes", "300"], "", True),
    (["check", "--space", '{"kind":"Lp","p":3}', "--criterion", "C4"], "", True),
    (["sweep", "--space", '{"kind":"Lp","p":2}', "--param", "p", "--values", "0.5,1.2,2",
      "--grid=-10:40"], ".manifest.json", True),
    (["oracle", "--isometry", "hardy"], "", True),
    (["oracle", "--space", '{"kind":"Lp","p":1.2}', "--mix-size", "4", "--modes", "200"],
     "", True),
])
def test_json_outputs_are_strict_json(argv, manifest_suffix, stdout_is_json, heat_file,
                                      tmp_path, capsys):
    out_path = tmp_path / "out"
    main(argv[:1] + ["--system", heat_file] + argv[1:]
         + ["--format", "json", "--out", str(out_path)])
    stdout = capsys.readouterr().out
    texts = [(tmp_path / f"out{manifest_suffix}").read_text()]
    if stdout_is_json:
        texts.append(stdout)
    for text in texts:
        manifest = json.loads(text, parse_constant=_reject_constant)
        assert manifest["reports"]


@pytest.mark.parametrize("space", [
    '{"kind":"Lp","p":NaN}',
    '{"kind":"sobolev","p":3,"beta":NaN}',
    '{"kind":"sobolev","p":NaN,"beta":0.5}',
])
def test_check_nan_exponent_is_usage_error(heat_file, capsys, space):
    code = main(["check", "--system", heat_file, "--space", space, "--grid=-10:40"])
    err = capsys.readouterr().err
    assert code == 1
    assert "got nan" in err and "atom masses" not in err


def test_check_infinite_eigenvalue_is_usage_error(capsys):
    system = '{"eigenvalues":[[-1,0],[-Infinity,0]],"coeffs":[[1,0],[1,0]],"q":2}'
    code = main(["check", "--system", system, "--space", '{"kind":"Lp","p":1.5}'])
    assert code == 1
    assert "eigenvalue 1 is (-inf+0j), must be finite" in capsys.readouterr().err


def test_sweep_nan_value_exits_before_any_row(heat_file, capsys, monkeypatch):
    computed = []
    monkeypatch.setattr("admiss.cli._sweep_row", lambda *args: computed.append(args))
    code = main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 "--param", "p", "--values", "nan,2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert computed == [] and captured.out == ""
    assert "finite" in captured.err


def test_oracle_sobolev_sweep_has_finite_norm_kernels(capsys):
    # at beta >= 1/2 every exponential has infinite H^beta norm; the sweep
    # must use kernels of higher order, not read a constant 0
    code = main(["oracle", "--system", '{"generator":"heat1d","modes":2000}',
                 "--space", '{"kind":"sobolev","p":2,"beta":0.5}', "--format", "json"])
    sweep = json.loads(capsys.readouterr().out)["reports"][1]
    assert code == 0
    assert sweep["constant"] > 0
    assert sweep["diagnostics"]["sup_interior"]


def test_oracle_notes_a_lower_bound_from_no_member(capsys):
    # at beta = 1/2 no exponential mixture has a finite H^beta norm, so the
    # family's bound of 0 bounds nothing, and the report says so
    code = main(["oracle", "--system", '{"generator":"heat1d","modes":10000}',
                 "--space", '{"kind":"sobolev","p":2,"beta":0.5}', "--format", "json"])
    lower, sweep = json.loads(capsys.readouterr().out)["reports"]
    assert code == 0
    assert lower["constant"] == 0 and sweep["constant"] > 0
    assert lower["diagnostics"]["members_used"] == 0
    assert "no dictionary member has a finite norm" in lower["diagnostics"]["note"]
    main(["oracle", "--system", SMALL_HEAT, "--space", '{"kind":"Lp","p":1.5}',
          "--format", "json"])
    diagnostics = json.loads(capsys.readouterr().out)["reports"][0]["diagnostics"]
    assert diagnostics["members_used"] == 16 and "note" not in diagnostics


def test_c4_at_the_low_end_of_the_grid_is_finite(capsys, recwarn):
    code = main(["check", "--system", '{"generator":"heat1d","modes":50}',
                 "--space", '{"kind":"Lp","p":3}', "--grid=-1022:40", "--format", "json"])
    c4 = json.loads(capsys.readouterr().out)["reports"][0]
    assert code in (0, 3)
    assert c4["criterion"] == "C4" and c4["constant"] > 0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("grid", ["--grid=0:1024", "--grid=-1023:0", "--grid=5:1", "--grid=5"])
def test_grid_outside_float_range_is_usage_error(grid, capsys):
    code = main(["check", "--system", '{"generator":"heat1d","modes":50}',
                 "--space", '{"kind":"Lp","p":1.5}', grid])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: argument --grid: " in err and "invalid" not in err
    if ":" not in grid:
        assert "expected N_MIN:N_MAX, got '5'" in err


@pytest.mark.parametrize("system, space, field", [
    ('{"generator":"heat1d","modes":null}', '{"kind":"Lp","p":2}', "'modes'"),
    ('{"generator":"heat1d","modes":2.7}', '{"kind":"Lp","p":2}', "'modes' must be an integer"),
    (SMALL_HEAT, '{"kind":"Lp","p":null}', "'p'"),
    (SMALL_HEAT, '{"kind":"sobolev","p":3,"beta":[1]}', "'beta'"),
    (SMALL_HEAT, '{"kind":"weightedL2","measure":5}', "measure"),
    (SMALL_HEAT, '{"kind":"weightedL2","measure":{"density":{"alpha":"x"}}}', "'alpha'"),
    (SMALL_HEAT, '{"kind":"weightedL2","measure":{"density":5}}', "'density'"),
    (SMALL_HEAT, '{"kind":"weightedL2","measure":{"atoms":5}}', "'atoms'"),
    (SMALL_HEAT, '{"kind":"weightedL2","measure":{"atoms":[[1,null]]}}', "'atoms'"),
    # JSON booleans are not numbers, though float() reads them as 1 and 0
    ('{"generator":"heat1d","modes":true}', '{"kind":"Lp","p":2}', "'modes'"),
    ('{"eigenvalues":[[-1,0]],"coeffs":[[1,0]],"q":true}', '{"kind":"Lp","p":2}', "'q'"),
    (SMALL_HEAT, '{"kind":"sobolev","p":3,"beta":true}', "'beta'"),
], ids=["modes-null", "modes-fraction", "p-null", "beta-list", "measure-number",
        "density-alpha-string", "density-number", "atoms-number", "atoms-null-mass",
        "modes-bool", "q-bool", "beta-bool"])
def test_wrong_typed_config_value_is_usage_error(system, space, field, capsys):
    code = main(["check", "--system", system, "--space", space, "--grid=-10:40"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err


@pytest.mark.parametrize("system, space, field", [
    ('{"generator":"heat1d"}', '{"kind":"Lp","p":2}', "modes"),
    (SMALL_HEAT, '{"kind":"Lp"}', "p"),
    (SMALL_HEAT, '{"kind":"weightedL2"}', "measure"),
    ('{"eigenvalues":[[-1,0]],"coeffs":[[1,0]]}', '{"kind":"Lp","p":2}', "q"),
    ('{"eigenvalues":[[-1,0]],"q":2}', '{"kind":"Lp","p":2}', "coeffs"),
], ids=["modes", "p", "measure", "q", "coeffs"])
def test_check_names_a_missing_config_field(system, space, field, capsys):
    code = main(["check", "--system", system, "--space", space, "--grid=-10:40"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: config field '{field}' is missing\n"


def test_sweep_names_a_missing_config_field(capsys):
    code = main(["sweep", "--system", '{"generator":"heat1d"}', "--space",
                 '{"kind":"Lp","p":2}', "--param", "p", "--values", "2"])
    assert code == 1
    assert capsys.readouterr().err == "error: config field 'modes' is missing\n"
    # a space field missing from every row is an error row per value
    for space, field in [('{"kind":"sobolev","p":2}', "beta"), ('{"kind":"weightedL2"}', "measure")]:
        code = main(["sweep", "--system", SMALL_HEAT, "--space", space, "--param", "p",
                     "--values", "1.5,2", "--grid=-10:40", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert code == 3
        assert [row[3] for row in rows] == [f"error: config field '{field}' is missing"] * 2


def test_overflowing_mass_is_one_error_line(capsys):
    # |1e300|^2 overflows to an infinite mass: one error line, no numpy warning
    system = '{"eigenvalues":[[-1,0]],"coeffs":[[1e300,0]],"q":2}'
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check", "--system", system, "--space", '{"kind":"Lp","p":2}'])
    assert code == 1 and caught == []
    assert capsys.readouterr().err == "error: atom masses must be finite\n"


def test_config_file_must_hold_an_object(heat_file, tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text("[1, 2]")
    assert main(["check", "--system", heat_file, "--space", str(space)]) == 1
    assert capsys.readouterr().err == f"error: {space} must hold a JSON object\n"


def test_oracle_without_space_or_isometry_is_usage_error(heat_file, capsys):
    assert main(["oracle", "--system", heat_file]) == 1
    assert capsys.readouterr().err == "error: oracle needs --space or --isometry\n"


def test_sweep_wrong_typed_value_writes_an_error_row(capsys):
    code = main(["sweep", "--system", SMALL_HEAT,
                 "--space", '{"kind":"weightedL2","measure":"hardy"}', "--param", "measure",
                 "--values", "1", "--grid=-10:40", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert code == 3
    assert len(rows) == 1 and rows[0][:2] == ["1.0", "error"] and "measure" in rows[0][3]


def test_sweep_rows_equal_check_reports(heat_file, capsys):
    values = [1.2, 1.5, 3.0]
    main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}', "--param", "p",
          "--values", ",".join(map(str, values)), "--grid=-10:40", "--format", "json"])
    swept = json.loads(capsys.readouterr().out)["reports"]
    assert list(swept) == [str(v) for v in values]
    for value in values:
        main(["check", "--system", heat_file, "--space", json.dumps({"kind": "Lp", "p": value}),
              "--grid=-10:40", "--format", "json"])
        checked = json.loads(capsys.readouterr().out)["reports"]
        assert json.dumps(swept[str(value)], sort_keys=True) == json.dumps(checked, sort_keys=True)


@pytest.mark.parametrize("command", [["check"], ["sweep", "--param", "p", "--values", "2"]])
def test_seed_is_an_oracle_option_only(command, heat_file, capsys):
    code = main([command[0], "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 *command[1:], "--seed", "1"])
    assert code == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_manifest_records_null_for_options_a_command_does_not_take(heat_file, tmp_path, capsys):
    check_path, oracle_path = tmp_path / "check.json", tmp_path / "oracle.json"
    main(["check", "--system", heat_file, "--space", '{"kind":"Lp","p":2}', "--grid=-10:40",
          "--out", str(check_path)])
    main(["oracle", "--system", heat_file, "--space", '{"kind":"Lp","p":1.5}', "--mix-size", "2",
          "--seed", "7", "--modes", "100", "--out", str(oracle_path)])
    check, oracle = json.loads(check_path.read_text()), json.loads(oracle_path.read_text())
    assert (check["grid"], check["seed"]) == ([-10, 40], None)
    assert (oracle["grid"], oracle["seed"]) == (None, 7)
    assert oracle["reports"][0]["diagnostics"]["seed"] == 7


@pytest.mark.parametrize("system, modes", [('{"generator":"heat1d","modes":10000000000}', []),
                                           (HEAT, ["--modes", "10000000000"])])
def test_modes_above_cap_refused_before_allocation(system, modes, capsys, monkeypatch):
    arange = np.arange

    def guarded_arange(*args, **kwargs):
        assert max(args) <= 10**7 + 1, "allocation above the cap"
        return arange(*args, **kwargs)

    monkeypatch.setattr("admiss.system_model.np.arange", guarded_arange)
    code = main(["check", "--system", system, "--space", '{"kind":"Lp","p":1.5}', *modes])
    assert code == 1
    assert "exceeds the cap of 10000000" in capsys.readouterr().err


@pytest.mark.parametrize("size", [MAX_FAMILY_SIZE + 1, 10**8])
def test_mix_size_above_cap_refused_before_any_member(size, capsys, monkeypatch):
    # each member costs a norm quadrature: above the cap none is drawn
    def no_member(*args, **kwargs):
        raise AssertionError("a member was drawn above the cap")

    monkeypatch.setattr("admiss.laplace_oracle._space_norm", no_member)
    code = main(["oracle", "--system", SMALL_HEAT, "--space", '{"kind":"Lp","p":1.5}',
                 "--mix-size", str(size)])
    assert code == 1
    assert f"exceeds the cap of {MAX_FAMILY_SIZE}" in capsys.readouterr().err


def test_modes_truncate_the_generator_config_before_its_one_build(capsys, monkeypatch):
    # a config of 10^7 modes with --modes 100 builds only the 100 modes
    arange = np.arange
    stops = []

    def recorded_arange(*args, **kwargs):
        stops.append(max(args))
        return arange(*args, **kwargs)

    monkeypatch.setattr("admiss.system_model.np.arange", recorded_arange)
    code = main(["check", "--system", '{"generator":"heat1d","modes":10000000}',
                 "--space", '{"kind":"Lp","p":1.5}', "--modes", "100", "--format", "json"])
    assert code != 1
    assert stops and max(stops) <= 101
    assert json.loads(capsys.readouterr().out)["modes"] == 100


def test_modes_refused_for_an_explicit_system_before_it_is_built(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("an explicit system was built")

    monkeypatch.setattr("admiss.system_model.DiagonalSystem", no_build)
    system = '{"eigenvalues":[[-1,0],[-4,0]],"coeffs":[[1,0],[1,0]],"q":2}'
    code = main(["check", "--system", system, "--space", '{"kind":"Lp","p":2}', "--modes", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "--modes" in captured.err


@pytest.mark.parametrize("config_modes, message", [
    ("2.7", "'modes' must be an integer"),
    ("null", "'modes' must be a number"),
    ("10000000000", "exceeds the cap of 10000000"),
], ids=["fraction", "null", "above-cap"])
def test_config_modes_checked_when_modes_replaces_them(config_modes, message, capsys):
    system = f'{{"generator":"heat1d","modes":{config_modes}}}'
    code = main(["check", "--system", system, "--space", '{"kind":"Lp","p":2}', "--modes", "50"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert message in captured.err
