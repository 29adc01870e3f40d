import json
import os
import subprocess
import sys

import numpy as np
import pytest

from quantcurv.cli import main, run, summarize
from quantcurv.experiments import ConfigError, config_hash, validate_config


def _config(tmp_path, **overrides):
    cfg = {
        "seed": 11,
        "experiments": [
            {
                "experiment": "teichmuller-symbol",
                "parameters": {"n_tuples": 50},
                "output_path": str(tmp_path / "teich.csv"),
            },
            {
                "experiment": "bargmann-curvature",
                "parameters": {"n": 1, "N": 4, "D": 12},
                "output_path": str(tmp_path / "barg.csv"),
            },
        ],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_validate_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        validate_config([])
    with pytest.raises(ConfigError):
        validate_config({"seed": 1})
    with pytest.raises(ConfigError):
        validate_config({"seed": -1, "experiments": [{}]})
    with pytest.raises(ConfigError):
        validate_config({"seed": 1, "experiments": []})
    with pytest.raises(ConfigError):
        validate_config({"seed": 1, "experiments": [{"experiment": "nope"}]})


def test_validate_config_rejects_unknown_keys():
    cfg = {
        "seed": 1,
        "experiments": [
            {
                "experiment": "teichmuller-symbol",
                "parameters": {"n_tuples": 5, "bogus": 1},
                "output_path": "x.csv",
            }
        ],
    }
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(cfg)
    cfg["experiments"][0]["parameters"] = {"n_tuples": 5}
    cfg["extra_root"] = True
    with pytest.raises(ConfigError, match="extra_root"):
        validate_config(cfg)


def test_config_hash_stable_under_key_order():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 12
    assert a != config_hash({"x": 2, "y": [1, 2]})


def test_run_writes_csvs_and_exits_zero(tmp_path, capsys):
    path, cfg = _config(tmp_path)
    assert run(str(path)) == 0
    out = capsys.readouterr().out
    assert "PASS teichmuller-symbol" in out
    assert "PASS bargmann-curvature" in out
    body = (tmp_path / "teich.csv").read_text().splitlines()
    assert body[0].startswith("# generated ")
    header = body[1].split(",")
    assert header[0] == "config_hash"
    assert "passed" in header
    # every data row carries the same config hash and a true verdict
    for line in body[2:]:
        fields = line.split(",")
        assert fields[0] == header[1] or len(fields[0]) == 12
        assert fields[-1] == "true"


def test_run_is_deterministic(tmp_path):
    path, _ = _config(tmp_path)
    assert run(str(path)) == 0
    first = (tmp_path / "teich.csv").read_text().splitlines()[1:]
    assert run(str(path)) == 0
    second = (tmp_path / "teich.csv").read_text().splitlines()[1:]
    assert first == second


def test_run_seed_override_changes_measurements(tmp_path):
    path, _ = _config(tmp_path)
    assert run(str(path)) == 0
    base = (tmp_path / "teich.csv").read_text()
    assert run(str(path), seed=99) == 0
    other = (tmp_path / "teich.csv").read_text()
    base_rows = [l for l in base.splitlines() if not l.startswith("#")]
    other_rows = [l for l in other.splitlines() if not l.startswith("#")]
    assert base_rows != other_rows


def test_run_bad_config_no_partial_output(tmp_path):
    out_path = tmp_path / "sub" / "t.csv"
    cfg = {
        "seed": 1,
        "experiments": [
            {
                "experiment": "teichmuller-symbol",
                "parameters": {"n_tuples": 5, "oops": 1},
                "output_path": str(out_path),
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == 2
    assert not out_path.exists()


def test_run_unreadable_and_invalid_json(tmp_path):
    assert run(str(tmp_path / "missing.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(str(bad)) == 2


def test_summarize_reports_pass_and_slope(tmp_path, capsys):
    path, _ = _config(tmp_path)
    assert run(str(path)) == 0
    capsys.readouterr()
    rc = summarize([str(tmp_path / "teich.csv"), str(tmp_path / "barg.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 2
    # a convergence table with N and eps columns gets a fitted slope
    conv = tmp_path / "conv.csv"
    conv.write_text(
        "config_hash,N,eps,passed\n"
        "abc,8,1.0,true\n"
        "abc,16,0.5,true\n"
        "abc,32,0.25,true\n"
    )
    assert summarize([str(conv)]) == 0
    out = capsys.readouterr().out
    assert "slope=-1.000" in out


def test_summarize_refuses_non_finite_eps(tmp_path, capsys):
    conv = tmp_path / "conv.csv"
    conv.write_text(
        "config_hash,N,eps,passed\n"
        "abc,8,1.0,true\n"
        "abc,16,nan,true\n"
        "abc,32,0.25,true\n"
    )
    assert summarize([str(conv)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "slope=" not in out
    assert "abc,16,nan,true" in out


def test_summarize_missing_passed_column(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("config_hash,value\nabc,1.0\n")
    assert summarize([str(bad)]) == 2


def test_summarize_failing_rows(tmp_path, capsys):
    f = tmp_path / "f.csv"
    f.write_text("config_hash,case,passed\nabc,one,true\nabc,two,false\n")
    assert summarize([str(f)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_main_usage_errors():
    # argparse signals usage errors by exiting with status 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_console_script_smoke(tmp_path):
    path, _ = _config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "quantcurv.cli", "run", str(path), "--workers", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 2
