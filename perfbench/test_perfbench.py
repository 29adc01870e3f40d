"""Smoke test of the benchmark harness at reduced workload sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, workloads.SMOKE_WORKLOADS)
    assert rc == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    lines, result = _run(workload, trace)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines), name
    assert lines[0].startswith("machine: nproc=")
    assert any(ln.startswith("fail_ratio 0 ratio (0 of ") for ln in lines)
    if trace:
        metrics = result["metrics"]
        called = {"ladder": "sphere.ChartFunction.eval", "transport": "sphere.eval_batch",
                  "exact": "fock.curvature_operator"}[workload]
        assert metrics[f"{called}.calls"]["value"] > 0
        # a layer the workload never calls reports 0
        if workload != "transport":
            assert metrics["sphere.eval_batch.calls"]["value"] == 0
        assert 0.0 < metrics["trace.coverage"]["value"] <= 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


LADDER_CSV = """# generated 2026-01-01T00:00:00+00:00
config_hash,N,dim,eps,ratio,trace_lhs,trace_rhs,passed
abc,8,9,14.082936338591505,nan,0,0,true
abc,16,17,8.5,0.6,0,0,true
abc,80,81,0.85722824596314784,0.86,0,0,false
"""


def test_row_checks_separate_failed_from_silently_wrong():
    entry = workloads._ladder([8, 16, 32, 80])[0]
    verdicts = {v["row"]: v for v in workloads.check_rows(entry, LADDER_CSV)}
    ok, wrong, missing, flagged = (verdicts[f"ladder.csv N={n}"] for n in (8, 16, 32, 80))
    assert not ok["why"] and not ok["silent"]
    assert wrong["why"] and wrong["silent"]  # passed=true, eps off the closed form
    assert missing["why"] == "missing" and not missing["silent"]
    assert flagged["why"].startswith("passed=false") and not flagged["silent"]
    assert all(v["why"] == "missing" for v in workloads.check_rows(entry, None))
