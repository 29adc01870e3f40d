"""One fresh process of the quantcurv benchmark; started by `run.py`.

    worker.py setup CONFIG
        import quantcurv, validate CONFIG, run the curvature calibration,
        print "ready" and exit: the set-up every `quantcurv run` pays.
    worker.py run CONFIG RESULT --seconds S --budget B [--trace]
        set up, then pass CONFIG through `quantcurv.cli.run` repeatedly in the
        current directory, check every CSV row and write RESULT as JSON.

Untraced, passes repeat until S seconds of passes are measured (at least
two, for the determinism check; no new pass starts unless it fits in B).
Traced, the set-up and one pass run under the tracer, followed by one
untraced pass that gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

MIN_PASSES = 2


def _setup(config_path: str):
    from quantcurv import cli, experiments, sphere

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"quantcurv imported from {cli.__file__}, not from {SRC}")
    with open(config_path, encoding="utf-8") as fh:
        experiments.validate_config(json.load(fh))
    sphere.curvature_calibration()
    return cli


def _blas_threads() -> int | None:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _numpy_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def _one_pass(cli, config_path: str, entries: list[dict]) -> tuple[float, float, dict]:
    for entry in entries:
        Path(entry["output_path"]).unlink(missing_ok=True)
    c0 = time.process_time()
    t0 = time.perf_counter()
    cli.run(config_path)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    csvs = {}
    for entry in entries:
        path = Path(entry["output_path"])
        if path.exists():
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            csvs[entry["output_path"]] = "".join(ln for ln in lines if not ln.startswith("# generated"))
    return wall, cpu, csvs


def _check(entries: list[dict], passes: list[dict]) -> dict:
    """Row verdicts over all passes; a row differing from pass 1 fails.

    `incorrect` counts rows flagged passed that fail the benchmark's check,
    and rows or files that differ from pass 1.
    """
    attempted = failed = incorrect = 0
    notes: list[list] = []  # [pass, description]
    first: dict[str, dict | None] = {}
    for i, csvs in enumerate(passes):
        for entry in entries:
            text = csvs.get(entry["output_path"])
            for v in workloads.check_rows(entry, text):
                attempted += 1
                why = v["why"]
                first.setdefault(v["row"], v["data"])
                if v["data"] != first[v["row"]]:
                    why = "; ".join(p for p in (why, "differs from pass 1") if p)
                    incorrect += 1
                if why:
                    failed += 1
                    notes.append([i + 1, f"{v['row']}: {why}"])
                incorrect += v["silent"]
        if csvs != passes[0]:
            # whole files compared too: catches reordered or extra rows
            incorrect += 1
            notes.append([i + 1, "CSV bytes differ from pass 1"])
    return {"attempted": attempted, "failed": failed, "incorrect": incorrect, "notes": notes}


def _run(args) -> dict:
    with open(args.config, encoding="utf-8") as fh:
        entries = json.load(fh)["experiments"]
    started = time.perf_counter()
    tracer = None
    if args.trace:
        import quantcurv.cli  # noqa: F401 - the tracer wraps loaded modules
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli = _setup(args.config)
    walls, passes, layers, cpu_s = [], [], {}, None
    if tracer is not None:
        tracer.uninstall()
        setup_stats = tracer.snapshot()
        # traced pass first: it pays the one-time costs of a fresh process, as
        # a `quantcurv run` does, so the overhead it shows is an upper bound
        tracer.install()
        traced_wall, _cpu, csvs = _one_pass(cli, args.config, entries)
        tracer.uninstall()
        passes.append(csvs)
        wall, cpu_s, csvs = _one_pass(cli, args.config, entries)
        walls.append(wall)
        passes.append(csvs)
        total = tracer.snapshot()
        layers = {
            "total": total,
            "pass": {
                name: [a - b for a, b in zip(st, setup_stats.get(name, (0, 0.0, 0)))]
                for name, st in total.items()
            },
            "traced_wall_s": traced_wall,
        }
    else:
        while len(walls) < MIN_PASSES or (
            sum(walls) < args.seconds
            and time.perf_counter() - started + 1.5 * walls[-1] < args.budget
        ):
            wall, _cpu, csvs = _one_pass(cli, args.config, entries)
            walls.append(wall)
            passes.append(csvs)
    return {
        "walls": walls,
        "n_passes": len(passes),
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": _check(entries, passes),
        "machine": _numpy_record(),
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("config")
    p_run = sub.add_parser("run")
    p_run.add_argument("config")
    p_run.add_argument("result")
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--budget", type=float, required=True)
    p_run.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(args.config)
        print("ready", flush=True)
        return 0
    result = _run(args)
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
