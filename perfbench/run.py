#!/usr/bin/env python3
"""quantcurv benchmark: one workload through `quantcurv.cli.run`, with its metrics.

    python3 perfbench/run.py --workload {ladder,transport,exact} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The
workload runs in one fresh worker process (see worker.py).  With --trace 0
the run prints the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

`attempted` counts the CSV rows the config asks for, summed over the passes
made; `failed` counts those missing, flagged failed, failing the benchmark's
own check, or differing from the first pass (fail_ratio = failed/attempted).
`correct` is false when a row is flagged passed although the benchmark's
check fails, or when two passes give different CSVs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 7  # fresh interpreters timed per run, after one warm-up
TIME_LIMIT_S = 170.0  # every run ends within 180 s
# One BLAS thread: on 2 cores the ladder and transport passes take the same
# wall time with two, at twice the CPU and with a wider run-to-run spread.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _read_cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _commit() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unavailable (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quantcurv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


def machine_record(worker_machine: dict) -> str:
    caches = _cache_sizes()
    fields = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _read_cpu_model(),
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        **worker_machine,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }
    return "machine: " + " ".join(
        f"{k}={v!r}" if isinstance(v, str) and " " in v else f"{k}={v}" for k, v in fields.items()
    )


def _time_setup(config_path: Path, work: Path, deadline: float) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "setup", str(config_path)],
        cwd=work,
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up process failed (exit {rc})")
    return elapsed


def _layer_metrics(names: list[str], result: dict) -> dict[str, float]:
    """Per-layer metric values from the traced set-up plus the traced pass."""
    total = result["layers"]["total"]
    traced_pass = result["layers"]["pass"]
    traced_wall = result["layers"]["traced_wall_s"]
    self_layers = {n.rsplit(".", 1)[0] for n in names if n.endswith(".self_s")}
    covered = sum(traced_pass.get(layer, (0, 0.0, 0))[1] for layer in self_layers)
    special = {
        "cli.run.cpu_s": result["cpu_s"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - result["walls"][0],
        "trace.coverage": covered / traced_wall,
    }
    fields = {"calls": 0, "self_s": 1, "term_points": 2}
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        layer, field = name.rsplit(".", 1)
        if field not in fields:
            raise KeyError(f"per-layer metric {name}: unknown field {field}")
        out[name] = total.get(layer, (0, 0.0, 0))[fields[field]]
    return out


def main(argv: list[str] | None = None, table: dict | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    table = workloads.WORKLOADS if table is None else table

    if not (ROOT / "src" / "quantcurv" / "__init__.py").is_file():
        return _fail(f"no quantcurv sources under {ROOT / 'src'}: run from a repository checkout")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in table:
        return _fail(f"unknown workload {args.workload!r} (choices: {sorted(table)})")
    if not 0 <= args.seed < 2**64:
        return _fail("--seed must lie in [0, 2^64)")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    entries = table[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config = {"seed": args.seed, "experiments": entries}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        setups = []
        if not args.trace:
            _time_setup(config_path, work, deadline)  # warm-up: byte-compiles, fills the page cache
            setups = [_time_setup(config_path, work, deadline) for _ in range(SETUP_SAMPLES)]
        result_path = work / "result.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "run",
            str(config_path),
            str(result_path),
            "--seconds",
            str(args.seconds),
            "--budget",
            str(deadline - time.perf_counter() - 5.0),
        ]
        if args.trace:
            cmd.append("--trace")
        try:
            proc = subprocess.run(
                cmd,
                cwd=work,
                env=CHILD_ENV,
                stdout=subprocess.DEVNULL,
                timeout=max(1.0, deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            return _fail(f"workload {args.workload} did not finish within {TIME_LIMIT_S:.0f} s")
        if proc.returncode != 0 or not result_path.is_file():
            return _fail(f"worker failed with exit code {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    checks = result["checks"]
    walls = result["walls"]
    print(machine_record(result["machine"]))
    n_passes = result["n_passes"]
    print(
        f"workload {args.workload}, seed {args.seed}: {n_passes} passes, untraced walls "
        + ", ".join(f"{w:.3f}" for w in walls)
        + " s"
    )
    if setups:
        print(f"set-up samples: {', '.join(f'{t:.4f}' for t in setups)} s")
    if args.trace:
        values = _layer_metrics([m["name"] for m in wanted], result)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            return _fail(f"no value for metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(
        f"fail_ratio {checks['failed'] / checks['attempted']:.6g} ratio "
        f"({checks['failed']} of {checks['attempted']} rows over {n_passes} passes, "
        f"{checks['attempted'] // n_passes} rows per pass)"
    )
    by_note: dict[str, list[int]] = {}
    for pass_no, note in checks["notes"]:
        by_note.setdefault(note, []).append(pass_no)
    for note, pass_nos in by_note.items():
        print(f"  failed in pass {','.join(map(str, pass_nos))}: {note}")
    print(
        json.dumps(
            {
                "correct": checks["incorrect"] == 0,
                "attempted": checks["attempted"],
                "failed": checks["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
