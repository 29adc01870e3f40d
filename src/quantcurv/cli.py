"""Batch driver: run experiment configs, write CSV tables, summarize results.

Config files are JSON with a single integer seed and a list of experiment
entries; see the repository README for the schema.  Randomness is drawn from
numpy's default PCG64 generator, seeded per experiment by spawning children
of the config seed in entry order, so results are reproducible.  Entries
run one after another in the calling process; the cases of a
`schrodinger-intertwine` entry run side by side in up to min(cases, CPUs)
processes, the calling one and forked children (see `experiments`).

Exit codes: 0 all checks passed, 1 any failed check or runtime error,
2 usage/config errors.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from .experiments import ConfigError, config_hash, run_experiment, validate_config

__all__ = ["main", "run", "summarize"]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: str, columns: list, rows: list, chash: str, stamp: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# generated {stamp}\n")
        fh.write(",".join(["config_hash"] + [str(c) for c in columns]) + "\n")
        for row in rows:
            fh.write(",".join([chash] + [_fmt(v) for v in row]) + "\n")


def run(config_path: str, seed: int | None = None) -> int:
    """Execute every experiment in the config, in order; write one CSV per entry.

    Entries run one at a time in this process; a `schrodinger-intertwine`
    entry forks a child per further CPU for its cases, all reaped before it
    returns.  The CSVs are written once every entry has run.
    """
    try:
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {config_path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if seed is not None:
        if not isinstance(config, dict):
            print("config error: config root must be an object", file=sys.stderr)
            return 2
        config = dict(config, seed=seed)
    try:
        entries = validate_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    chash = config_hash(config)
    children = np.random.SeedSequence(config["seed"]).spawn(len(entries))
    results = []
    try:
        for entry, child in zip(entries, children):
            rng = np.random.default_rng(child)
            results.append(run_experiment(entry["experiment"], entry["parameters"], rng))
    except Exception as exc:  # noqa: BLE001 - surfaced as exit-code-1 failure
        print(f"experiment failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    all_ok = True
    for entry, (cols, rows, ok) in zip(entries, results):
        try:
            _write_csv(entry["output_path"], cols, rows, chash, stamp)
        except OSError as exc:
            print(f"output error: cannot write {entry['output_path']}: {exc}", file=sys.stderr)
            return 1
        status = "PASS" if ok else "FAIL"
        print(f"{status} {entry['experiment']} -> {entry['output_path']}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _read_csv(path: str) -> tuple[list, list]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    if len(lines) == 1:
        raise ValueError(f"{path}: header but no rows")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: row {','.join(row)!r} has {len(row)} of {len(header)} fields")
    return header, rows


def summarize(csv_paths: list[str]) -> int:
    """One-line verdict per CSV; fit the decay slope for convergence tables."""
    any_fail = False
    for path in csv_paths:
        try:
            header, rows = _read_csv(path)
        except (OSError, ValueError) as exc:
            print(f"format error: {exc}", file=sys.stderr)
            return 2
        if "passed" not in header:
            print(f"format error: {path}: missing 'passed' column", file=sys.stderr)
            return 2
        pcol = header.index("passed")
        flags = [r[pcol] == "true" for r in rows]
        ok = all(flags)
        verdict = "PASS" if ok else "FAIL"
        extra = ""
        if "eps" in header and "N" in header and len(rows) >= 2:
            ncol, ecol = header.index("N"), header.index("eps")
            try:
                ns, eps = np.array([(float(r[ncol]), float(r[ecol])) for r in rows]).T
            except ValueError as exc:
                print(f"format error: {path}: {exc}", file=sys.stderr)
                return 2
            # run writes N strictly ascending and positive; anything else breaks the fit
            if not (np.all(np.isfinite(ns)) and ns[0] > 0 and np.all(np.diff(ns) > 0)):
                print(
                    f"format error: {path}: N must be finite, positive and strictly ascending",
                    file=sys.stderr,
                )
                return 2
            # eps = 0 is an exact result (Y = T_chi = 0), not a bad row
            bad = [r for r, e in zip(rows, eps) if not (math.isfinite(e) and e >= 0)]
            if bad:
                print(f"FAIL {path}: eps must be finite and non-negative")
                for r in bad:
                    print(f"  bad eps row: {','.join(r)}")
                any_fail = True
                continue
            positive = eps > 0
            if np.count_nonzero(positive) >= 2:
                slope = np.polyfit(np.log(ns[positive]), np.log(eps[positive]), 1)[0]
                extra = f" slope={slope:.3f}"
        print(f"{verdict} {path}{extra}")
        if not ok:
            any_fail = True
            for r in rows:
                if r[pcol] != "true":
                    print(f"  failing row: {','.join(r)}")
    return 1 if any_fail else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quantcurv", description="run quantization curvature experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config of experiments")
    p_run.add_argument("config", help="path to JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sum = sub.add_parser("summarize", help="report verdicts from CSV outputs")
    p_sum.add_argument("csvs", nargs="+", help="CSV files produced by run")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, seed=args.seed)
    return summarize(args.csvs)


if __name__ == "__main__":
    sys.exit(main())
