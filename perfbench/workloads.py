"""Workload configs of the quantcurv benchmark and the checks on their CSV rows.

A workload is a list of `quantcurv run` config entries; the benchmark's
`--seed` becomes the config's `seed`.  Output paths are bare file names,
written in the worker's scratch directory.

`check_rows` reads one pass's CSVs and judges every row the config asks for,
independently of the program's own `passed` flag, so that a row the program
passes but whose numbers do not hold is caught.
"""

from __future__ import annotations

import math

# Closed-form Beta-integral values of eps for harmonic_real x zonal_harmonic.
# The grid path matches them to <= 2e-11 through N = 72; at N = 80 it returns
# 0.857, a known defect that the ladder keeps on purpose.
LADDER_EPS = {
    8: 14.082936338593,
    16: 8.147255545817,
    32: 3.169925162669,
    64: 0.996141742934,
    80: 0.667827692645,
}
LADDER_EPS_RTOL = 1e-8

# Tolerances for exact rows when the config omits them: the experiment's
# defaults, fixed here so that a change to those defaults does not move the check.
BARGMANN_TOL_IDENTITY = 1e-10
BARGMANN_TOL_RATIO_SPREAD = 1e-6


def _ladder(n_list: list[int]) -> list[dict]:
    return [
        {
            "experiment": "sphere-convergence",
            "parameters": {
                "N_list": n_list,
                "hamiltonians": ["harmonic_real", "zonal_harmonic"],
            },
            "output_path": "ladder.csv",
        }
    ]


def _transport(N: int, t_end: float) -> list[dict]:
    return [
        {
            "experiment": "schrodinger-intertwine",
            "parameters": {
                "N": N,
                "dt": 1e-3,
                "t_end": t_end,
                "cases": [
                    {"hamiltonian": "rotation_z", "tol": 1e-6},
                    {"hamiltonian": "harmonic_real", "tol": 1e-3},
                ],
                "tol_residual": 1e-5,
            },
            "output_path": "transport.csv",
        }
    ]


def _exact(sizes: list[tuple[int, int, int]], **extra) -> list[dict]:
    return [
        {
            "experiment": "bargmann-curvature",
            "parameters": {"n": n, "N": N, "D": D, **extra},
            "output_path": f"exact_n{n}.csv",
        }
        for n, N, D in sizes
    ]


WORKLOADS = {
    "ladder": _ladder([8, 16, 32, 64, 80]),
    # criterion 8's cases over a tenth of its time span: the same work per
    # step, in passes short enough that a run takes the median of several
    "transport": _transport(16, 0.1),
    "exact": _exact([(1, 4, 12), (2, 4, 10)]),
}

# Reduced sizes for the harness's own smoke test.
SMOKE_WORKLOADS = {
    "ladder": _ladder([8, 16]),
    "transport": _transport(8, 0.02),
    "exact": _exact([(1, 4, 8), (2, 4, 8)], n_random_pairs=3),
}


def read_csv(text: str) -> list[dict]:
    """Rows of a `quantcurv run` CSV as dicts, comment lines dropped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _num(text: str | None) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _within(value: float, tol: float) -> bool:
    return math.isfinite(value) and value <= tol


def _ladder_checks(params: dict, rows: list[dict]) -> list[tuple[str, dict | None, str]]:
    by_n = {r.get("N"): r for r in rows}
    out = []
    for n in params["N_list"]:
        row = by_n.get(str(n))
        problem = ""
        if row is not None:
            eps = _num(row.get("eps"))
            ref = LADDER_EPS.get(n)
            if ref is not None and not abs(eps - ref) <= LADDER_EPS_RTOL * ref:
                problem = f"eps {eps:.6g} vs closed form {ref:.6g}"
        out.append((f"N={n}", row, problem))
    return out


def _transport_checks(params: dict, rows: list[dict]) -> list[tuple[str, dict | None, str]]:
    by_ham = {r.get("hamiltonian"): r for r in rows}
    tol_res = params["tol_residual"]
    out = []
    for case in params["cases"]:
        row = by_ham.get(case["hamiltonian"])
        problem = ""
        if row is not None:
            inter = _num(row.get("intertwine"))
            worst = max(_num(row.get("max_eq_range")), _num(row.get("max_eq_deriv")))
            if not (_within(inter, case["tol"]) and _within(worst, tol_res)):
                problem = f"intertwine {inter:.3g} (tol {case['tol']:g}), residual {worst:.3g} (tol {tol_res:g})"
        out.append((case["hamiltonian"], row, problem))
    return out


_BARGMANN_CASES = (
    "holomorphic-pairs-zero",
    "antiholomorphic-pairs-zero",
    "mixed-pair-identity",
    "deformation-cross-identity",
    "deformation-same-zero",
    "scalar-ratio-spread",
    "scalar-ratio-value",
)


def _bargmann_checks(params: dict, rows: list[dict]) -> list[tuple[str, dict | None, str]]:
    by_case = {r.get("case"): r for r in rows}
    tol_id = params.get("tol_identity", BARGMANN_TOL_IDENTITY)
    tol_spread = params.get("tol_ratio_spread", BARGMANN_TOL_RATIO_SPREAD)
    out = []
    for case in _BARGMANN_CASES:
        row = by_case.get(case)
        problem = ""
        if row is not None:
            measured = _num(row.get("measured"))
            if case == "scalar-ratio-value":
                ok = math.isfinite(measured) and math.isfinite(_num(row.get("measured_imag")))
            else:
                ok = _within(measured, tol_spread if case == "scalar-ratio-spread" else tol_id)
            if not ok:
                problem = f"measured {measured:.3g}"
        out.append((case, row, problem))
    return out


_CHECKS = {
    "sphere-convergence": _ladder_checks,
    "schrodinger-intertwine": _transport_checks,
    "bargmann-curvature": _bargmann_checks,
}


def check_rows(entry: dict, text: str | None) -> list[dict]:
    """Verdict on every row `entry` asks for, given its CSV text (None if absent).

    Each verdict has `row` (a label), `data` (the CSV row, None if missing),
    `why` (why the row failed: missing, flagged failed by the program, or
    failing the benchmark's own check; empty if it passed) and `silent` (the
    program flagged the row passed although the benchmark's check fails).
    """
    rows = read_csv(text) if text is not None else []
    verdicts = []
    for label, row, problem in _CHECKS[entry["experiment"]](entry["parameters"], rows):
        label = f"{entry['output_path']} {label}"
        if row is None:
            verdicts.append({"row": label, "data": None, "silent": False, "why": "missing"})
            continue
        flagged = row.get("passed") == "true"
        why = "; ".join(p for p in ("" if flagged else "passed=false", problem) if p)
        verdicts.append(
            {
                "row": label,
                "data": row,
                "silent": flagged and bool(problem),
                "why": why,
            }
        )
    return verdicts
