import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantcurv
from quantcurv import fock, teichmuller
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


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_random_pairs", 0),
        ("n_random_pairs", -3),
        ("n_random_pairs", 1),
        ("n_random_pairs", 2.7),
        ("n_random_pairs", True),
        ("n_random_pairs", "x"),
        ("D", 8.5),
        ("tol_identity", 0),
        ("tol_identity", -1e-10),
        ("tol_scalar", "x"),
        ("tol_scalar", True),
        ("tol_ratio_spread", float("inf")),
        ("tol_ratio_spread", float("nan")),
    ],
)
def test_bargmann_config_rejects_bad_pairs_and_tolerances(tmp_path, key, value):
    out_path = tmp_path / "barg.csv"
    params = {"n": 1, "N": 4, "D": 8, key: value}
    cfg = {
        "seed": 1,
        "experiments": [
            {
                "experiment": "bargmann-curvature",
                "parameters": params,
                "output_path": str(out_path),
            }
        ],
    }
    with pytest.raises(ConfigError, match=key):
        validate_config(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == 2
    assert not out_path.exists()


def test_bargmann_config_defaults_and_two_pairs():
    entry = {"experiment": "bargmann-curvature", "output_path": "b.csv"}
    cfg = {"seed": 1, "experiments": [dict(entry, parameters={"n": 1, "N": 4, "D": 8})]}
    params = validate_config(cfg)[0]["parameters"]
    assert params["n_random_pairs"] == 20
    assert (params["tol_identity"], params["tol_scalar"], params["tol_ratio_spread"]) == (
        1e-10,
        1e-8,
        1e-6,
    )
    cfg["experiments"][0]["parameters"] = {"n": 1, "N": 4, "D": 8, "n_random_pairs": 2}
    assert validate_config(cfg)[0]["parameters"]["n_random_pairs"] == 2


@pytest.mark.parametrize(
    "experiment, params, key, bound",
    [
        ("bargmann-curvature", {"n": 1, "N": 4, "D": 8}, "n_random_pairs", fock.FOCK_PAIRS_MAX),
        ("teichmuller-symbol", {}, "n_tuples", teichmuller.TEICHMULLER_TUPLES_MAX),
    ],
)
def test_sample_counts_bounded_by_measured_cost(experiment, params, key, bound):
    # validated only: a run at the bound takes about a second (1000 pairs,
    # held in one batch) or ~11 s (50000 tuples)
    def config(count):
        entry = {"experiment": experiment, "parameters": dict(params, **{key: count})}
        return {"seed": 1, "experiments": [dict(entry, output_path="out.csv")]}

    assert validate_config(config(bound))[0]["parameters"][key] == bound
    with pytest.raises(ConfigError, match=f"'{key}' must be <= {bound}"):
        validate_config(config(bound + 1))


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


def test_nan_scalar_ratio_row_fails(tmp_path, capsys):
    # a tolerance no curvature fit meets leaves no ratio to average, and the
    # row reporting the mean ratio must not pass a NaN
    cfg = {
        "seed": 3,
        "experiments": [
            {
                "experiment": "bargmann-curvature",
                "parameters": {"n": 1, "N": 4, "D": 8, "tol_scalar": 1e-300},
                "output_path": str(tmp_path / "barg.csv"),
            }
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == 1
    lines = (tmp_path / "barg.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = {r[header.index("case")]: r for r in (ln.split(",") for ln in lines[2:])}
    row = rows["scalar-ratio-value"]
    assert row[header.index("measured")] == "nan"
    assert row[header.index("passed")] == "false"


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


def test_summarize_passes_a_ladder_of_exact_zeros_that_run_passed(tmp_path, capsys):
    # a repeated Hamiltonian gives Y = T_chi = 0, so eps is exactly 0 on every row
    out = tmp_path / "zero.csv"
    cfg = {
        "seed": 1,
        "experiments": [
            {
                "experiment": "sphere-convergence",
                "parameters": {"N_list": [8, 16, 32], "hamiltonians": ["harmonic_real", "harmonic_real"]},
                "output_path": str(out),
            }
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == 0
    capsys.readouterr()
    assert summarize([str(out)]) == 0
    assert capsys.readouterr().out == f"PASS {out}\n"


def test_summarize_fits_the_slope_over_positive_eps(tmp_path, capsys):
    conv = tmp_path / "conv.csv"
    conv.write_text(
        "config_hash,N,eps,passed\n"
        "abc,8,1.0,true\n"
        "abc,16,0.0,true\n"
        "abc,32,0.25,true\n"
    )
    assert summarize([str(conv)]) == 0
    assert "slope=-1.000" in capsys.readouterr().out
    conv.write_text("config_hash,N,eps,passed\nabc,8,1.0,true\nabc,16,-0.5,true\n")
    assert summarize([str(conv)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "slope=" not in out
    assert "abc,16,-0.5,true" in out


@pytest.mark.parametrize(
    "text",
    [
        "config_hash,value\nabc,1.0\n",
        "config_hash,N,eps,passed\nabc,8,1.0,true\nabc,16\n",
        "config_hash,N,eps,passed\nabc,8,1.0,true\nabc,x,0.5,true\n",
        "config_hash,N,eps,passed\nabc,8,1.0,true\nabc,16,small,true\n",
    ],
    ids=["no-passed-column", "short-row", "non-numeric-N", "non-numeric-eps"],
)
def test_summarize_missing_passed_column(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert summarize([str(bad)]) == 2
    assert capsys.readouterr().err.startswith("format error: ")


def test_summarize_refuses_a_table_without_rows(tmp_path, capsys):
    # a header alone would pass all() vacuously
    empty = tmp_path / "empty.csv"
    empty.write_text("# generated now\nconfig_hash,case,passed\n")
    assert summarize([str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"format error: {empty}: header but no rows\n"
    assert "PASS" not in captured.out


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
    # the child imports the package under test, wherever pytest found it
    src = os.path.dirname(os.path.dirname(quantcurv.__file__))
    pythonpath = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-m", "quantcurv.cli", "run", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 2


_VALID_PARAMETERS = {
    "bargmann-curvature": {"n": 1, "N": 4, "D": 8},
    "sphere-convergence": {"N_list": [8, 16]},
    "schrodinger-intertwine": {
        "N": 4,
        "dt": 1e-3,
        "t_end": 0.01,
        "cases": [{"hamiltonian": "rotation_z", "tol": 1e-6}],
    },
    "teichmuller-symbol": {"n_tuples": 5},
}

_NUMERIC_KEYS = [
    ("bargmann-curvature", "n", int),
    ("bargmann-curvature", "N", int),
    ("bargmann-curvature", "D", int),
    ("bargmann-curvature", "n_random_pairs", int),
    ("bargmann-curvature", "tol_identity", float),
    ("bargmann-curvature", "tol_scalar", float),
    ("bargmann-curvature", "tol_ratio_spread", float),
    ("sphere-convergence", "ratio_bound", float),
    ("sphere-convergence", "ratio_min_N", int),
    ("schrodinger-intertwine", "N", int),
    ("schrodinger-intertwine", "dt", float),
    ("schrodinger-intertwine", "t_end", float),
    ("schrodinger-intertwine", "tol_residual", float),
    ("teichmuller-symbol", "n_tuples", int),
    ("teichmuller-symbol", "tol_pairing", float),
    ("teichmuller-symbol", "tol_sp", float),
    ("teichmuller-symbol", "tol_wp", float),
]
_BAD_NUMBERS = ["x", True, 0, -1, float("inf"), float("nan")]


def _with_case(**case):
    params = dict(_VALID_PARAMETERS["schrodinger-intertwine"])
    params["cases"] = [dict(params["cases"][0], **case)]
    return params


def _bad(experiment, key, bad, params):
    return pytest.param(experiment, key, params, id=f"{experiment}-{key}={bad!r}")


_BAD_VALUES = (
    [
        _bad(exp, key, bad, dict(_VALID_PARAMETERS[exp], **{key: bad}))
        for exp, key, kind in _NUMERIC_KEYS
        for bad in _BAD_NUMBERS + ([2.7] if kind is int else [])
    ]
    + [_bad("schrodinger-intertwine", "tol", bad, _with_case(tol=bad)) for bad in _BAD_NUMBERS]
    + [
        # t_end/dt overflows to inf: refused by the step bound, not by round()
        _bad("schrodinger-intertwine", "dt", 1e-310, dict(_with_case(), dt=1e-310, t_end=1.0))
    ]
    + [
        _bad("sphere-convergence", "N_list", bad, {"N_list": bad})
        for bad in ([True, 16], [8, 2.7], [16, 8], [16, 16])
    ]
    + [
        _bad("sphere-convergence", "hamiltonians", bad, {"N_list": [8], "hamiltonians": bad})
        for bad in (["harmonic_real", 3], [["zonal_harmonic"], "harmonic_real"])
    ]
    + [
        _bad("schrodinger-intertwine", "hamiltonian", bad, _with_case(hamiltonian=bad))
        for bad in (["rotation_z"], None)
    ]
    + [
        _bad("schrodinger-intertwine", "cases", bad, dict(_with_case(), cases=bad))
        for bad in (["rotation_z"], [["rotation_z", 1e-6]])
    ]
)


def _single_entry(experiment, parameters, output_path):
    return {
        "seed": 1,
        "experiments": [
            {"experiment": experiment, "parameters": parameters, "output_path": str(output_path)}
        ],
    }


@pytest.mark.parametrize("experiment, key, params", _BAD_VALUES)
def test_every_config_value_is_read_strictly(tmp_path, experiment, key, params):
    out_path = tmp_path / "out.csv"
    cfg = _single_entry(experiment, params, out_path)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        validate_config(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == 2
    assert not out_path.exists()


def test_overflowing_json_tolerance_is_rejected(tmp_path):
    out_path = tmp_path / "teich.csv"
    text = json.dumps(_single_entry("teichmuller-symbol", {"n_tuples": 5, "tol_sp": 7.0}, out_path))
    path = tmp_path / "bad.json"
    path.write_text(text.replace("7.0", "1e999"))
    assert run(str(path)) == 2
    assert not out_path.exists()


@pytest.mark.parametrize("experiment", sorted(_VALID_PARAMETERS))
def test_validate_config_is_idempotent(experiment):
    cfg = _single_entry(experiment, _VALID_PARAMETERS[experiment], "x.csv")
    entries = validate_config(cfg)
    assert validate_config({"seed": 1, "experiments": entries}) == entries


def test_duplicate_output_paths_rejected(tmp_path):
    out_path = tmp_path / "teich.csv"
    entry = {"experiment": "teichmuller-symbol", "parameters": {"n_tuples": 5}}
    cfg = {
        "seed": 1,
        "experiments": [
            dict(entry, output_path=str(out_path)),
            dict(entry, output_path=str(tmp_path / "sub" / ".." / "teich.csv")),
        ],
    }
    with pytest.raises(ConfigError, match=r"experiments\[0\] and experiments\[1\]"):
        validate_config(cfg)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == 2
    assert not out_path.exists()


def test_readme_config_examples_validate():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        validate_config(json.loads(block))


def _two_teichmuller(tmp_path, second_path):
    entry = {"experiment": "teichmuller-symbol", "parameters": {"n_tuples": 5}}
    cfg = {
        "seed": 1,
        "experiments": [
            dict(entry, output_path=str(tmp_path / "first.csv")),
            dict(entry, output_path=str(second_path)),
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.mark.parametrize("layout", ["directory", "under_file", "under_file_deep", "nul"])
def test_unwritable_output_path_is_a_config_error(tmp_path, layout):
    (tmp_path / "outdir").mkdir()
    (tmp_path / "plain").write_text("not a directory\n")
    second = {
        "directory": tmp_path / "outdir",
        "under_file": tmp_path / "plain" / "x.csv",
        "under_file_deep": tmp_path / "plain" / "sub" / "x.csv",
        "nul": f"{tmp_path}/x\0.csv",
    }[layout]
    path, cfg = _two_teichmuller(tmp_path, second)
    with pytest.raises(ConfigError, match=r"'output_path' in experiments\[1\]"):
        validate_config(cfg)
    assert run(str(path)) == 2
    assert not (tmp_path / "first.csv").exists()


def test_write_failure_exits_1_with_message(tmp_path, capsys):
    # a file name longer than any file system allows passes validation and
    # fails only when opened
    path, _cfg = _two_teichmuller(tmp_path, tmp_path / ("x" * 300 + ".csv"))
    assert run(str(path)) == 1
    err = capsys.readouterr().err
    assert "output error: cannot write" in err
    assert "Traceback" not in err
