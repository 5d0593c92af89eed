import csv
import io
import json

import pytest

from admiss.cli import main

HEAT = json.dumps({"generator": "heat1d", "modes": 10000})


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


def test_sweep_threshold_flip(heat_file, capsys, monkeypatch):
    monkeypatch.setenv("ADMISS_THREADS", "2")
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


def test_oracle_isometry_exit_zero(heat_file, capsys):
    code = main(["oracle", "--system", heat_file, "--isometry", "hardy"])
    assert code == 0
    assert "relative error" in capsys.readouterr().out


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


def test_bad_threads_env(heat_file, capsys, monkeypatch):
    monkeypatch.setenv("ADMISS_THREADS", "0")
    code = main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 "--param", "p", "--values", "2", "--grid=-10:40"])
    assert code == 1


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
    (["oracle", "--isometry", "hardy"], "", False),
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


def test_sweep_nan_value_exits_before_any_row(heat_file, capsys, monkeypatch):
    computed = []
    monkeypatch.setattr("admiss.cli._sweep_row", lambda *args: computed.append(args))
    code = main(["sweep", "--system", heat_file, "--space", '{"kind":"Lp","p":2}',
                 "--param", "p", "--values", "nan,2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert computed == [] and captured.out == ""
    assert "finite" in captured.err
